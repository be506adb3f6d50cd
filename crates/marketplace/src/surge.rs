//! The surge-pricing engine.
//!
//! Everything the paper inferred about the algorithm is implemented as
//! ground truth here:
//!
//! * one multiplier per **surge area**, recomputed on a global **5-minute
//!   clock** (§5.2–5.3);
//! * inputs are aggregates over the **previous 5-minute window** — the
//!   paper found surge most correlated with (supply − demand) and EWT at
//!   lag 0 (§5.4), so the engine uses fleet utilisation (busy time over
//!   online time, a normalized supply/demand slack) and mean EWT;
//! * a stochastic excitation term makes episodes short-lived (40% of
//!   surges last one interval, Fig. 13) and caps/quantization match the
//!   app's displayed values (multiples of 0.1, max ≈ 2.8–4.1);
//! * premium tiers surge with a damped amplitude; **UberT never surges**.
//!
//! The engine also retains the *previous* interval's multipliers — the
//! April-2015 consistency bug served exactly those stale values to random
//! clients, and the `api` crate needs them to reproduce it.

use serde::{Deserialize, Error, Serialize, Value};
use std::sync::Arc;
use surgescope_city::{AreaId, CarType, SurgeTuning};
use surgescope_simcore::{SimRng, SimTime};

/// Per-area aggregates accumulated over one 5-minute window by the world.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct AreaWindow {
    /// Driver-seconds spent online in the area.
    pub online_secs: f64,
    /// Driver-seconds spent busy (en-route or on trip) in the area.
    pub busy_secs: f64,
    /// Sum of EWT samples (minutes) taken at the area centroid.
    pub ewt_sum_min: f64,
    /// Number of EWT samples.
    pub ewt_samples: u32,
    /// Ride requests with pickups in the area during the window.
    pub requests: u32,
}

impl AreaWindow {
    fn utilisation(&self) -> f64 {
        if self.online_secs <= 0.0 {
            // No cars at all: strained only if riders actually wanted one
            // (a quiet residential area at 4 a.m. must not surge — the
            // paper verified surge stays at 1 there, §3.4).
            return if self.requests > 0 { 1.0 } else { 0.0 };
        }
        (self.busy_secs / self.online_secs).clamp(0.0, 1.5)
    }

    /// Weight of the EWT term: long waits only matter when riders are
    /// competing for the cars. Ramps 0→1 over the first 5 requests per
    /// window.
    fn demand_weight(&self) -> f64 {
        (self.requests as f64 / 5.0).min(1.0)
    }

    fn mean_ewt_min(&self) -> f64 {
        if self.ewt_samples == 0 {
            return 0.0;
        }
        self.ewt_sum_min / self.ewt_samples as f64
    }
}

/// A read-only view of the multipliers in force during one interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurgeSnapshot {
    /// The 5-minute interval index these multipliers apply to.
    pub interval: u64,
    /// Base multiplier per area (indexed by `AreaId.0`).
    pub base: Vec<f64>,
}

impl SurgeSnapshot {
    /// Multiplier for a tier in an area. Premium tiers (BLACK/SUV) surge
    /// with 80% of the base amplitude; UberT never surges.
    pub fn multiplier(&self, area: AreaId, car_type: CarType) -> f64 {
        if !car_type.surge_priced() {
            return 1.0;
        }
        let base = self.base.get(area.0).copied().unwrap_or(1.0);
        let damp = match car_type {
            CarType::UberBlack | CarType::UberSuv => 0.8,
            _ => 1.0,
        };
        quantize(1.0 + (base - 1.0) * damp)
    }
}

/// How raw per-window multipliers become the published ones.
///
/// [`SurgePolicy::Threshold`] is what the paper measured: each window's
/// multiplier is published as-is, producing the noisy, short-lived
/// episodes of Fig. 13. [`SurgePolicy::Smoothed`] is the paper's §6/§8
/// *proposal* — "use a weighted moving average to smooth the price
/// changes over time" — implemented as an EMA over the raw multiplier;
/// the `ext01` experiment evaluates what the paper could only suggest.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SurgePolicy {
    /// Publish each window's raw multiplier directly (measured Uber).
    #[default]
    Threshold,
    /// Exponential moving average with weight `alpha` on the new window
    /// (`alpha = 1` degenerates to `Threshold`).
    Smoothed {
        /// Weight of the newest window in `(0, 1]`.
        alpha: f64,
    },
}

impl Serialize for SurgePolicy {
    fn to_value(&self) -> Value {
        match self {
            SurgePolicy::Threshold => {
                Value::Map(vec![("k".into(), "Threshold".to_value())])
            }
            SurgePolicy::Smoothed { alpha } => Value::Map(vec![
                ("k".into(), "Smoothed".to_value()),
                ("alpha".into(), alpha.to_value()),
            ]),
        }
    }
}

impl Deserialize for SurgePolicy {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match String::from_value(v.field("k")?)?.as_str() {
            "Threshold" => Ok(SurgePolicy::Threshold),
            "Smoothed" => Ok(SurgePolicy::Smoothed {
                alpha: f64::from_value(v.field("alpha")?)?,
            }),
            other => Err(Error::custom(format!("unknown surge policy `{other}`"))),
        }
    }
}

/// The per-city surge engine.
///
/// ```
/// use surgescope_marketplace::SurgeEngine;
/// use surgescope_city::{AreaId, CarType, SurgeTuning};
/// use surgescope_simcore::{SimRng, SimTime};
///
/// let mut tuning = SurgeTuning::default_test();
/// tuning.noise_sigma = 0.0;
/// let mut engine = SurgeEngine::new(1, tuning, SimRng::seed_from_u64(1));
/// // A straining 5-minute window: 95% fleet utilisation, riders queuing.
/// engine.accumulate_window(AreaId(0), 1000.0, 950.0, 10, 8.0);
/// engine.recompute(SimTime(300));
/// assert!(engine.multiplier(AreaId(0), CarType::UberX) > 1.5);
/// assert_eq!(engine.multiplier(AreaId(0), CarType::UberT), 1.0); // taxis never surge
/// ```
#[derive(Debug, Clone)]
pub struct SurgeEngine {
    tuning: SurgeTuning,
    policy: SurgePolicy,
    /// Boards are published behind `Arc`s so per-tick world snapshots
    /// share them instead of deep-cloning the base vectors; a published
    /// board is immutable until `recompute` replaces the whole `Arc`.
    current: Arc<SurgeSnapshot>,
    previous: Arc<SurgeSnapshot>,
    windows: Vec<AreaWindow>,
    /// Unquantized EMA state per area (only used by `Smoothed`).
    ema: Vec<f64>,
    rng: SimRng,
}

/// Quantize a multiplier to the 0.1 steps the app displays, flooring
/// anything below 1.05 to exactly 1.
fn quantize(m: f64) -> f64 {
    let q = (m * 10.0).round() / 10.0;
    if q < 1.05 {
        1.0
    } else {
        q
    }
}

impl SurgeEngine {
    /// Creates an engine for `area_count` areas with all multipliers at 1.
    pub fn new(area_count: usize, tuning: SurgeTuning, rng: SimRng) -> Self {
        let flat = Arc::new(SurgeSnapshot { interval: 0, base: vec![1.0; area_count] });
        SurgeEngine {
            tuning,
            policy: SurgePolicy::Threshold,
            current: Arc::clone(&flat),
            previous: flat,
            windows: vec![AreaWindow::default(); area_count],
            ema: vec![1.0; area_count],
            rng,
        }
    }

    /// Replaces the publication policy (builder style).
    pub fn with_policy(mut self, policy: SurgePolicy) -> Self {
        if let SurgePolicy::Smoothed { alpha } = policy {
            assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        }
        self.policy = policy;
        self
    }

    /// The active publication policy.
    pub fn policy(&self) -> SurgePolicy {
        self.policy
    }

    /// The tuning constants this engine runs with.
    pub fn tuning(&self) -> &SurgeTuning {
        &self.tuning
    }

    /// Multipliers currently in force.
    pub fn current(&self) -> &SurgeSnapshot {
        &self.current
    }

    /// The current board's shared handle (snapshots clone the `Arc`, not
    /// the base vector).
    pub fn current_arc(&self) -> Arc<SurgeSnapshot> {
        Arc::clone(&self.current)
    }

    /// Multipliers from the immediately preceding interval (what the
    /// consistency bug leaks to unlucky clients).
    pub fn previous(&self) -> &SurgeSnapshot {
        &self.previous
    }

    /// The previous board's shared handle.
    pub fn previous_arc(&self) -> Arc<SurgeSnapshot> {
        Arc::clone(&self.previous)
    }

    /// Convenience: current multiplier for an area/tier.
    pub fn multiplier(&self, area: AreaId, car_type: CarType) -> f64 {
        self.current.multiplier(area, car_type)
    }

    /// Accumulates one tick's worth of per-area activity into the open
    /// window. Called by the world every tick.
    pub(crate) fn accumulate(
        &mut self,
        area: AreaId,
        online_secs: f64,
        busy_secs: f64,
    ) {
        let w = &mut self.windows[area.0];
        w.online_secs += online_secs;
        w.busy_secs += busy_secs;
    }

    /// Records one ride request with a pickup in `area`.
    pub(crate) fn record_request(&mut self, area: AreaId) {
        self.windows[area.0].requests += 1;
    }

    /// Public convenience for driving the engine outside the marketplace
    /// (tests, docs, custom worlds): accumulates a whole window's worth of
    /// activity in one call.
    pub fn accumulate_window(
        &mut self,
        area: AreaId,
        online_secs: f64,
        busy_secs: f64,
        requests: u32,
        mean_ewt_min: f64,
    ) {
        self.accumulate(area, online_secs, busy_secs);
        for _ in 0..requests {
            self.record_request(area);
        }
        self.record_ewt(area, mean_ewt_min);
    }

    /// Records an EWT sample (minutes) for an area.
    pub(crate) fn record_ewt(&mut self, area: AreaId, ewt_min: f64) {
        let w = &mut self.windows[area.0];
        w.ewt_sum_min += ewt_min;
        w.ewt_samples += 1;
    }

    /// Closes the window and recomputes every area's multiplier. Called by
    /// the world exactly at each 5-minute boundary. Returns the fresh
    /// snapshot.
    pub fn recompute(&mut self, now: SimTime) -> &SurgeSnapshot {
        let t = &self.tuning;
        let mut base = Vec::with_capacity(self.windows.len());
        for (ai, w) in self.windows.iter().enumerate() {
            let util = w.utilisation();
            let ewt = w.mean_ewt_min();
            let mut m = 1.0;
            m += t.utilisation_gain * (util - t.utilisation_threshold).max(0.0);
            m += t.ewt_gain * (ewt - t.ewt_floor_min).max(0.0) * w.demand_weight();
            // Zero-mean excitation: most raw values hover near the
            // threshold, so the noise decides whether a given interval
            // tips over 1.0 — reproducing the paper's finding that the
            // majority of surges last a single interval. Scaled by demand
            // presence so quiet areas cannot surge on noise alone.
            m += self.rng.normal(0.0, t.noise_sigma) * w.demand_weight();
            let m = match self.policy {
                SurgePolicy::Threshold => m,
                SurgePolicy::Smoothed { alpha } => {
                    self.ema[ai] = alpha * m + (1.0 - alpha) * self.ema[ai];
                    self.ema[ai]
                }
            };
            base.push(quantize(m.clamp(1.0, t.max_multiplier)));
        }
        self.previous = std::mem::replace(
            &mut self.current,
            Arc::new(SurgeSnapshot { interval: now.surge_interval(), base }),
        );
        for w in &mut self.windows {
            *w = AreaWindow::default();
        }
        &self.current
    }
}

impl Serialize for SurgeEngine {
    fn to_value(&self) -> Value {
        // Manual impl: the derive stub cannot handle the data-carrying
        // `SurgePolicy` enum nested here. Every field is mutable mid-run
        // state (windows, EMA, RNG) and must round-trip bit-exactly for
        // checkpoint/resume determinism.
        Value::Map(vec![
            ("tuning".into(), self.tuning.to_value()),
            ("policy".into(), self.policy.to_value()),
            ("current".into(), self.current.to_value()),
            ("previous".into(), self.previous.to_value()),
            ("windows".into(), self.windows.to_value()),
            ("ema".into(), self.ema.to_value()),
            ("rng".into(), self.rng.to_value()),
        ])
    }
}

impl Deserialize for SurgeEngine {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(SurgeEngine {
            tuning: SurgeTuning::from_value(v.field("tuning")?)?,
            policy: SurgePolicy::from_value(v.field("policy")?)?,
            current: Arc::new(SurgeSnapshot::from_value(v.field("current")?)?),
            previous: Arc::new(SurgeSnapshot::from_value(v.field("previous")?)?),
            windows: Vec::<AreaWindow>::from_value(v.field("windows")?)?,
            ema: Vec::<f64>::from_value(v.field("ema")?)?,
            rng: SimRng::from_value(v.field("rng")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(areas: usize) -> SurgeEngine {
        let mut tuning = SurgeTuning::default_test();
        tuning.noise_sigma = 0.0; // deterministic for unit tests
        SurgeEngine::new(areas, tuning, SimRng::seed_from_u64(9))
    }

    #[test]
    fn starts_flat() {
        let e = engine(4);
        for a in 0..4 {
            assert_eq!(e.multiplier(AreaId(a), CarType::UberX), 1.0);
        }
    }

    #[test]
    fn low_utilisation_means_no_surge() {
        let mut e = engine(1);
        // 30% utilisation, sub-floor EWT.
        e.accumulate(AreaId(0), 1000.0, 300.0);
        e.record_ewt(AreaId(0), 2.0);
        e.recompute(SimTime(300));
        assert_eq!(e.multiplier(AreaId(0), CarType::UberX), 1.0);
    }

    #[test]
    fn high_utilisation_surges() {
        let mut e = engine(1);
        e.accumulate(AreaId(0), 1000.0, 950.0); // 95% busy
        e.record_ewt(AreaId(0), 8.0);
        for _ in 0..10 {
            e.record_request(AreaId(0));
        }
        e.recompute(SimTime(300));
        let m = e.multiplier(AreaId(0), CarType::UberX);
        // 1 + 2·(0.95−0.7) + 0.15·(8−4) = 2.1
        assert!((m - 2.1).abs() < 1e-9, "got {m}");
    }

    #[test]
    fn empty_area_with_demand_is_strained() {
        let mut e = engine(1);
        // No cars but riders asking: utilisation defaults to 1.
        e.record_request(AreaId(0));
        e.recompute(SimTime(300));
        let m = e.multiplier(AreaId(0), CarType::UberX);
        assert!(m > 1.0, "carless area with demand should surge, got {m}");
    }

    #[test]
    fn empty_quiet_area_stays_flat() {
        let mut e = engine(1);
        // No cars and no riders (residential at 4 a.m.): no surge.
        e.recompute(SimTime(300));
        assert_eq!(e.multiplier(AreaId(0), CarType::UberX), 1.0);
    }

    #[test]
    fn ewt_term_requires_demand() {
        let mut e = engine(1);
        // Long waits but zero requests: EWT contributes nothing.
        e.accumulate(AreaId(0), 1000.0, 100.0);
        e.record_ewt(AreaId(0), 30.0);
        e.recompute(SimTime(300));
        assert_eq!(e.multiplier(AreaId(0), CarType::UberX), 1.0);
    }

    #[test]
    fn multiplier_capped() {
        let mut e = engine(1);
        e.accumulate(AreaId(0), 100.0, 150.0); // util clamped at 1.5
        e.record_ewt(AreaId(0), 60.0);
        for _ in 0..20 {
            e.record_request(AreaId(0));
        }
        e.recompute(SimTime(300));
        assert!(e.multiplier(AreaId(0), CarType::UberX) <= e.tuning().max_multiplier);
    }

    #[test]
    fn quantized_to_tenths() {
        let mut e = engine(1);
        e.accumulate(AreaId(0), 1000.0, 830.0);
        e.recompute(SimTime(300));
        let m = e.multiplier(AreaId(0), CarType::UberX);
        assert!((m * 10.0 - (m * 10.0).round()).abs() < 1e-9, "not quantized: {m}");
    }

    #[test]
    fn premium_tiers_damped_ubert_flat() {
        let mut e = engine(1);
        e.accumulate(AreaId(0), 1000.0, 1000.0);
        e.record_ewt(AreaId(0), 10.0);
        for _ in 0..10 {
            e.record_request(AreaId(0));
        }
        e.recompute(SimTime(300));
        let x = e.multiplier(AreaId(0), CarType::UberX);
        let black = e.multiplier(AreaId(0), CarType::UberBlack);
        let t = e.multiplier(AreaId(0), CarType::UberT);
        assert!(x > black, "premium should be damped: X={x} BLACK={black}");
        assert!(black > 1.0);
        assert_eq!(t, 1.0, "UberT never surges");
    }

    #[test]
    fn previous_snapshot_retained() {
        let mut e = engine(1);
        e.accumulate(AreaId(0), 1000.0, 950.0);
        e.record_ewt(AreaId(0), 8.0);
        for _ in 0..10 {
            e.record_request(AreaId(0));
        }
        e.recompute(SimTime(300));
        let first = e.multiplier(AreaId(0), CarType::UberX);
        // Quiet window follows.
        e.accumulate(AreaId(0), 1000.0, 100.0);
        e.record_ewt(AreaId(0), 2.0);
        e.recompute(SimTime(600));
        assert_eq!(e.multiplier(AreaId(0), CarType::UberX), 1.0);
        assert_eq!(e.previous().multiplier(AreaId(0), CarType::UberX), first);
        assert_eq!(e.previous().interval, 1);
        assert_eq!(e.current().interval, 2);
    }

    #[test]
    fn windows_reset_between_intervals() {
        let mut e = engine(1);
        e.accumulate(AreaId(0), 1000.0, 950.0);
        e.recompute(SimTime(300));
        // Nothing accumulated since: the stale 95% must not leak through
        // (empty window ⇒ util=1 default though — so accumulate something).
        e.accumulate(AreaId(0), 1000.0, 0.0);
        e.recompute(SimTime(600));
        assert_eq!(e.multiplier(AreaId(0), CarType::UberX), 1.0);
    }

    #[test]
    fn areas_independent() {
        let mut e = engine(2);
        e.accumulate(AreaId(0), 1000.0, 990.0);
        e.record_ewt(AreaId(0), 9.0);
        e.accumulate(AreaId(1), 1000.0, 100.0);
        e.record_ewt(AreaId(1), 1.0);
        e.recompute(SimTime(300));
        assert!(e.multiplier(AreaId(0), CarType::UberX) > 1.5);
        assert_eq!(e.multiplier(AreaId(1), CarType::UberX), 1.0);
    }

    #[test]
    fn noise_produces_short_episodes() {
        // With noise on and utilisation just below threshold, surge should
        // flicker: mostly 1.0 with occasional brief excursions.
        let mut tuning = SurgeTuning::default_test();
        tuning.noise_sigma = 0.15;
        let mut e = SurgeEngine::new(1, tuning, SimRng::seed_from_u64(77));
        let mut episodes = Vec::new();
        let mut run = 0u32;
        for i in 1..=2000u64 {
            e.accumulate(AreaId(0), 1000.0, 650.0); // just under 0.7 threshold
            e.record_ewt(AreaId(0), 3.0);
            for _ in 0..8 {
                e.record_request(AreaId(0));
            }
            e.recompute(SimTime(i * 300));
            if e.multiplier(AreaId(0), CarType::UberX) > 1.0 {
                run += 1;
            } else if run > 0 {
                episodes.push(run);
                run = 0;
            }
        }
        assert!(!episodes.is_empty(), "noise should cause some surges");
        let one_interval = episodes.iter().filter(|&&r| r == 1).count() as f64;
        let frac = one_interval / episodes.len() as f64;
        assert!(frac > 0.5, "most episodes should last one interval, got {frac}");
    }

    #[test]
    fn smoothed_policy_damps_excursions() {
        let drive = |e: &mut SurgeEngine, busy: f64| {
            e.accumulate(AreaId(0), 1000.0, busy);
            for _ in 0..10 {
                e.record_request(AreaId(0));
            }
            e.recompute(SimTime(300));
            e.multiplier(AreaId(0), CarType::UberX)
        };
        let mut tuning = SurgeTuning::default_test();
        tuning.noise_sigma = 0.0;
        let mut raw = SurgeEngine::new(1, tuning, SimRng::seed_from_u64(1));
        let mut ema = SurgeEngine::new(1, tuning, SimRng::seed_from_u64(1))
            .with_policy(SurgePolicy::Smoothed { alpha: 0.3 });
        // One hot window after a calm history.
        for _ in 0..3 {
            drive(&mut raw, 100.0);
            drive(&mut ema, 100.0);
        }
        let spike_raw = drive(&mut raw, 990.0);
        let spike_ema = drive(&mut ema, 990.0);
        assert!(spike_raw > 1.4, "raw spike {spike_raw}");
        assert!(spike_ema < spike_raw, "EMA must damp the spike: {spike_ema} vs {spike_raw}");
        // And decay slowly afterwards instead of collapsing to 1.
        let after_raw = drive(&mut raw, 100.0);
        let after_ema = drive(&mut ema, 100.0);
        assert_eq!(after_raw, 1.0, "threshold policy collapses immediately");
        assert!(after_ema > 1.0, "EMA should linger above 1, got {after_ema}");
    }

    #[test]
    fn smoothed_alpha_one_equals_threshold() {
        let mut tuning = SurgeTuning::default_test();
        tuning.noise_sigma = 0.0;
        let mut a = SurgeEngine::new(1, tuning, SimRng::seed_from_u64(2));
        let mut b = SurgeEngine::new(1, tuning, SimRng::seed_from_u64(2))
            .with_policy(SurgePolicy::Smoothed { alpha: 1.0 });
        for busy in [100.0, 900.0, 400.0, 950.0] {
            a.accumulate(AreaId(0), 1000.0, busy);
            b.accumulate(AreaId(0), 1000.0, busy);
            for _ in 0..10 {
                a.record_request(AreaId(0));
                b.record_request(AreaId(0));
            }
            a.recompute(SimTime(300));
            b.recompute(SimTime(300));
            assert_eq!(
                a.multiplier(AreaId(0), CarType::UberX),
                b.multiplier(AreaId(0), CarType::UberX)
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn smoothed_rejects_bad_alpha() {
        let _ = SurgeEngine::new(1, SurgeTuning::default_test(), SimRng::seed_from_u64(3))
            .with_policy(SurgePolicy::Smoothed { alpha: 0.0 });
    }

    #[test]
    fn quantize_floors_small_values() {
        assert_eq!(quantize(1.04), 1.0);
        assert_eq!(quantize(1.05), 1.1);
        assert_eq!(quantize(1.26), 1.3);
        assert_eq!(quantize(0.8), 1.0);
    }

    #[test]
    fn serde_round_trip_continues_bit_identically() {
        // The restored engine must produce the same future multipliers as
        // the original, including mid-window accumulations, EMA state and
        // the noise RNG stream (the checkpoint/resume determinism gate).
        let mut tuning = SurgeTuning::default_test();
        tuning.noise_sigma = 0.05;
        let mut a = SurgeEngine::new(3, tuning, SimRng::seed_from_u64(77))
            .with_policy(SurgePolicy::Smoothed { alpha: 0.4 });
        for i in 0..4u64 {
            a.accumulate(AreaId(0), 1000.0, 900.0 + i as f64 * 10.0);
            a.record_request(AreaId(0));
            a.record_ewt(AreaId(1), 6.5);
            a.recompute(SimTime(300 * (i + 1)));
        }
        // Leave a half-accumulated window in place before snapshotting.
        a.accumulate(AreaId(2), 500.0, 480.0);
        a.record_request(AreaId(2));

        let mut b = SurgeEngine::from_value(&a.to_value()).expect("round trip");
        assert_eq!(b.policy(), a.policy());
        for i in 5..9u64 {
            a.accumulate(AreaId(2), 800.0, 760.0);
            b.accumulate(AreaId(2), 800.0, 760.0);
            a.recompute(SimTime(300 * i));
            b.recompute(SimTime(300 * i));
            for area in 0..3 {
                assert_eq!(
                    a.multiplier(AreaId(area), CarType::UberX).to_bits(),
                    b.multiplier(AreaId(area), CarType::UberX).to_bits(),
                    "area {area} interval {i}"
                );
            }
        }
    }
}
