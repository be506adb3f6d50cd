//! `campaign_sf`: one clean, in-process SF-downtown campaign.
//!
//! The untraced pass drives [`CampaignRunner::tick`] and times each call.
//! The traced pass rebuilds the same tick loop from the layers' public
//! functions so each call can be timed on its own, and checks that the
//! rebuilt loop measured exactly what the runner measured.

use crate::stats::{digest, timed_repeats};
use crate::trace::Trace;
use std::time::Instant;
use surgescope_api::ProtocolEra;
use surgescope_city::{CarType, CityModel};
use surgescope_core::calibration::placement;
use surgescope_core::estimate::SupplyDemandEstimator;
use surgescope_core::persist::campaign_encoded;
use surgescope_core::transitions::TransitionTracker;
use surgescope_core::{
    CampaignConfig, CampaignData, CampaignRunner, MeasuredSystem, StoreHooks, TypeObservation,
    UberSystem,
};
use surgescope_geo::{GridScratch, SpatialGrid};
use surgescope_marketplace::{Marketplace, MarketplaceConfig, SurgePolicy};
use surgescope_simcore::{FastHashSet, FaultPlan, SimDuration};

/// Simulated hours of one `campaign_sf` pass: a whole day, so every pass
/// crosses the same diurnal peaks whatever its length in wall time.
pub const SF_HOURS: u64 = 24;

/// Ticks between the per-client ping and k-NN samples of the traced
/// pass: one simulated hour, so the samples follow the diurnal cycle.
const SAMPLE_EVERY: u64 = 720;

/// Offset into each 5-minute interval at which the campaign probes the
/// API (the runner's `PROBE_OFFSET_SECS`).
pub const PROBE_OFFSET_SECS: u64 = 45;

/// The `campaign_sf` configuration: SF downtown at full scale, serial
/// ping fan-out, clean transport.
pub fn sf_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        hours: SF_HOURS,
        era: ProtocolEra::Apr2015,
        estimator: Default::default(),
        spacing_override_m: None,
        scale: 1.0,
        surge_policy: SurgePolicy::Threshold,
        parallelism: 1,
        faults: FaultPlan::none(),
        store: StoreHooks::none(),
    }
}

/// One untraced campaign: its set-up times, per-tick latencies, and the
/// finished data.
pub struct Pass {
    /// Wall time of every set-up the pass timed, seconds.
    pub setup_s: Vec<f64>,
    /// `CampaignRunner::tick` latency of every tick, microseconds.
    pub tick_us: Vec<f64>,
    /// Ticks that returned an error.
    pub failed_ticks: u64,
    pub data: Option<CampaignData>,
}

impl Pass {
    /// Digest of the campaign's canonical encoding (`"missing"` when the
    /// campaign failed).
    pub fn digest(&self) -> String {
        self.data
            .as_ref()
            .map_or("missing".into(), |d| digest(&campaign_encoded(d)))
    }
}

/// Set-ups timed per pass.
const SETUPS: usize = 50;

/// Runs `cfg` over `city()` through the campaign runner. Set-up — the
/// city model and `CampaignRunner::new` — is timed [`SETUPS`] times.
pub fn run_pass(city: impl Fn() -> CityModel, cfg: &CampaignConfig) -> Pass {
    let (setup_s, mut runner) = timed_repeats(SETUPS, || {
        CampaignRunner::new(city(), cfg).expect("memory-only campaign opens")
    });
    let total = runner.ticks_total();
    let mut tick_us = Vec::with_capacity(total);
    let mut failed_ticks = 0;
    for _ in 0..total {
        let t = Instant::now();
        let ok = runner.tick().is_ok();
        tick_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok {
            failed_ticks += 1;
            break;
        }
    }
    let data = if failed_ticks == 0 {
        runner.finish().ok()
    } else {
        None
    };
    Pass {
        setup_s,
        tick_us,
        failed_ticks,
        data,
    }
}

/// `city` with its supply and demand scaled as `CampaignRunner` scales
/// them before a campaign.
pub fn scaled(mut city: CityModel, scale: f64) -> CityModel {
    if (scale - 1.0).abs() > 1e-9 {
        city.supply = city.supply.scaled(scale);
        city.demand = city.demand.scaled(scale);
    }
    city
}

/// What the traced campaign loop measured, for the output check.
pub struct Replica {
    pub supply: Vec<u32>,
    pub client_surge: Vec<Vec<f32>>,
    pub transitions: Vec<[u64; 5]>,
}

impl Replica {
    /// True when the traced loop measured bit-for-bit what the runner did.
    pub fn matches(&self, data: &CampaignData) -> bool {
        let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        self.supply == data.estimator.supply_series(CarType::UberX)
            && bits(&self.client_surge) == bits(&data.client_surge)
            && self.transitions == transition_counts(&data.transitions)
    }
}

/// Every `(area, context)` transition tally, in order.
fn transition_counts(t: &TransitionTracker) -> Vec<[u64; 5]> {
    (0..t.area_count())
        .flat_map(|a| [0, 1].map(|c| t.counts(a, c)))
        .collect()
}

/// The runner's tick loop rebuilt from public layer calls, with a span
/// around each call. Spans: `campaign.tick` per tick with children
/// `marketplace.tick` (`UberSystem::advance_tick`), `api.capture`
/// (`WorldSnapshot::capture` via `tick_snapshot`), `core.ping_all`,
/// `core.estimate` (`observe` per client + `end_tick`),
/// `core.transitions` (`TransitionTracker::observe` per UberX car) and
/// `core.probe` (price + time probe of every area, once per interval).
/// The runner's own series and ID-set bookkeeping runs untimed inside the
/// tick span. Every [`SAMPLE_EVERY`] ticks, outside the tick span,
/// `api.ping` times `ApiService::ping_client` per client and `geo.knn`
/// times `SpatialGrid::k_nearest_and_l1_into` per client and tier
/// against the same snapshot's cars.
pub fn traced_pass(city: CityModel, cfg: &CampaignConfig, trace: &mut Trace) -> Replica {
    let city = scaled(city, cfg.scale);
    let market = MarketplaceConfig {
        surge_policy: cfg.surge_policy,
        ..Default::default()
    };
    let mp = Marketplace::new(city.clone(), market, cfg.seed);
    let api = surgescope_api::ApiService::new(cfg.era, cfg.seed ^ 0xB0B5);
    let mut sys = UberSystem::new(mp, api)
        .with_faults(cfg.faults, cfg.seed)
        .with_parallelism(cfg.parallelism);
    let spacing = cfg.spacing_override_m.unwrap_or(city.client_spacing_m);
    let clients = placement(&city.measurement_region, spacing);
    let polys: Vec<_> = city.areas.iter().map(|a| a.polygon.clone()).collect();
    let adjacency: Vec<Vec<usize>> = city
        .adjacency
        .iter()
        .map(|v| v.iter().map(|a| a.0).collect())
        .collect();
    let centroids: Vec<_> = polys.iter().map(|p| p.centroid()).collect();
    let mut estimator = SupplyDemandEstimator::new(
        cfg.estimator,
        city.measurement_region.clone(),
        polys.clone(),
    );
    let mut transitions = TransitionTracker::new(polys, adjacency);

    let n = clients.len();
    let ticks = cfg.hours * 720;
    let mut client_surge: Vec<Vec<f32>> = vec![Vec::with_capacity(ticks as usize); n];
    // Kept, like the ID sets below, only so the loop does the runner's work.
    let mut client_ewt: Vec<Vec<f32>> = vec![Vec::with_capacity(ticks as usize); n];
    let mut daily: Vec<FastHashSet<u64>> = vec![FastHashSet::default(); n];
    let mut interval: Vec<FastHashSet<u64>> = vec![FastHashSet::default(); n];
    let mut area_sets: Vec<FastHashSet<u64>> = vec![FastHashSet::default(); centroids.len()];
    let mut obs: Vec<Vec<TypeObservation>> = Vec::new();
    let mut pending: Option<Vec<f64>> = None;
    let (mut scratch, mut nearest) = (GridScratch::new(), Vec::new());

    for tick in 0..ticks {
        trace.set_tick(Some(tick));
        let span = trace.begin("campaign.tick");
        trace.time("marketplace.tick", || sys.advance_tick());
        let now = sys.now();
        let state_t = now.saturating_sub(SimDuration::secs(5));
        trace.time("api.capture", || drop(sys.tick_snapshot()));
        trace.time("core.ping_all", || sys.ping_all_into(&clients, &mut obs));
        trace.time("core.estimate", || {
            for blocks in &obs {
                estimator.observe(state_t, blocks);
            }
            estimator.end_tick(now);
        });
        trace.time("core.transitions", || {
            for blocks in &obs {
                for x in blocks.iter().filter(|b| b.car_type == CarType::UberX) {
                    for car in &x.cars {
                        transitions.observe(car.id, car.position);
                    }
                }
            }
        });
        for (i, blocks) in obs.iter().enumerate() {
            for x in blocks.iter().filter(|b| b.car_type == CarType::UberX) {
                for car in &x.cars {
                    daily[i].insert(car.id);
                    interval[i].insert(car.id);
                    if let Some(a) = city.area_of(car.position) {
                        area_sets[a.0].insert(car.id);
                    }
                }
            }
            // The displayed tier is the last block to arrive this tick.
            let shown = blocks.iter().rev().find(|b| b.car_type == CarType::UberX);
            client_surge[i].push(shown.map_or(f32::NAN, |x| x.surge as f32));
            client_ewt[i].push(shown.map_or(f32::NAN, |x| x.ewt_min as f32));
        }
        area_sets.iter_mut().for_each(FastHashSet::clear);
        if now.seconds_into_surge_interval() == PROBE_OFFSET_SECS {
            pending = Some(trace.time("core.probe", || {
                let snap = sys.tick_snapshot();
                centroids
                    .iter()
                    .enumerate()
                    .map(|(ai, c)| {
                        let loc = city.projection.to_latlng(*c);
                        let account = 1_000_000 + ai as u64;
                        let surge = match sys.api.estimates_price(&snap, account, loc) {
                            Ok(p) => p
                                .iter()
                                .find(|p| p.car_type == CarType::UberX)
                                .map_or(1.0, |p| p.surge_multiplier),
                            Err(_) => f64::NAN,
                        };
                        let _ = sys.api.estimates_time(&snap, account, loc);
                        surge as f32 as f64
                    })
                    .collect()
            }));
        }
        if now.seconds_into_surge_interval() == 0 {
            if let Some(m) = pending.take() {
                transitions.close_interval(&m);
            }
            interval.iter_mut().for_each(FastHashSet::clear);
        }
        if now.seconds_into_day() == 0 && now.as_secs() > 0 {
            daily.iter_mut().for_each(FastHashSet::clear);
        }
        trace.end(span);

        if tick % SAMPLE_EVERY == 0 {
            let snap = sys.tick_snapshot();
            for c in &clients {
                let loc = city.projection.to_latlng(c.position);
                trace.time("api.ping", || drop(sys.api.ping_client(&snap, c.key, loc)));
            }
            let grids: Vec<SpatialGrid<()>> = snap
                .offered_types()
                .map(|t| {
                    SpatialGrid::build_auto(
                        snap.cars_of(t).iter().map(|c| (c.position, ())).collect(),
                    )
                })
                .collect();
            for c in &clients {
                for grid in &grids {
                    trace.time("geo.knn", || {
                        grid.k_nearest_and_l1_into(c.position, 8, &mut scratch, &mut nearest)
                    });
                }
            }
        }
    }
    trace.set_tick(None);
    estimator.finish(sys.now());
    Replica {
        supply: estimator.supply_series(CarType::UberX).to_vec(),
        client_surge,
        transitions: transition_counts(&transitions),
    }
}
