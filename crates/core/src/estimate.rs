//! Supply and demand estimation from client observations (§3.3).
//!
//! * **Supply** is the number of unique car IDs observed across all
//!   clients per 5-minute interval — an upper bound on the true count,
//!   since IDs are randomized each time a car comes online.
//! * **Fulfilled demand** is estimated from *deaths*: cars that disappear
//!   from the observed stream. A disappearance can also mean the car drove
//!   out of the measurement area or went offline, so the estimator applies
//!   the paper's **edge filter** (disappearances near the boundary of the
//!   measurement polygon are not counted) and treats the result as an
//!   upper bound on fulfilled demand.
//! * **Short-lived cars** — briefly glimpsed near the measurement
//!   boundary, or with IDs that flickered — are filtered entirely (§4.1).
//! * Per-ID **lifespans** feed the Fig. 7 CDFs.

use crate::observe::{ObservedCar, TypeObservation};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashMap;
use surgescope_simcore::{FastHashMap, FastHashSet};
use surgescope_city::CarType;
use surgescope_geo::{Meters, Polygon};
use surgescope_simcore::SimTime;

/// Estimator tuning.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// A car unseen for this long is declared dead (the ping cadence is
    /// 5 s; a small grace absorbs transport faults).
    pub death_grace_secs: u64,
    /// Deaths within this distance of the measurement boundary are
    /// discarded (the car may simply have driven out).
    pub edge_margin_m: f64,
    /// Cars observed for less than this are dropped from all statistics.
    pub short_lived_secs: u64,
    /// When true (default), a near-edge disappearance is only discarded
    /// if the car's path vector shows it heading outward — the paper
    /// disambiguates "drove out" via path vectors (§3.3). When false, all
    /// near-edge disappearances are discarded (footnote-4 conservative
    /// mode).
    pub edge_requires_outbound: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            death_grace_secs: 15,
            edge_margin_m: 150.0,
            short_lived_secs: 90,
            edge_requires_outbound: true,
        }
    }
}

/// One sighting exactly as [`SupplyDemandEstimator::observe`] applies it:
/// time, tier, position bits and displacement bits (`None` as a flag).
type Sighting = (SimTime, CarType, [u64; 5]);

fn sighting(now: SimTime, car_type: CarType, car: &ObservedCar) -> Sighting {
    let d = car.displacement.unwrap_or(Meters::new(0.0, 0.0));
    let bits = [
        car.position.x.to_bits(),
        car.position.y.to_bits(),
        car.displacement.is_some() as u64,
        d.x.to_bits(),
        d.y.to_bits(),
    ];
    (now, car_type, bits)
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LiveCar {
    car_type: CarType,
    last_seen: SimTime,
    last_pos: Meters,
    last_displacement: Option<Meters>,
}

/// A finalized death event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeathEvent {
    /// When the car was last seen.
    pub at: SimTime,
    /// Tier.
    pub car_type: CarType,
    /// Last observed position.
    pub position: Meters,
}

/// Streaming supply/demand estimator over client observations.
#[derive(Debug)]
pub struct SupplyDemandEstimator {
    cfg: EstimatorConfig,
    region: Polygon,
    /// Surge-area polygons for per-area attribution (may be empty, e.g.
    /// for the taxi validation where only totals matter).
    areas: Vec<Polygon>,
    live: FastHashMap<u64, LiveCar>,
    /// Persistent per-ID history: a car keeps its session ID across trips
    /// (it disappears while booked and returns with the same ID), so
    /// lifespans span gaps. `(first_seen, last_seen, tier)`.
    history: FastHashMap<u64, (SimTime, SimTime, CarType)>,
    // Open-interval supply sets.
    open_interval: u64,
    ids_by_type: FastHashMap<CarType, FastHashSet<u64>>,
    ids_by_area: Vec<FastHashSet<u64>>,
    // Outputs.
    supply: HashMap<CarType, Vec<u32>>,
    supply_area: Vec<Vec<u32>>,
    deaths: HashMap<CarType, Vec<u32>>,
    deaths_area: Vec<Vec<u32>>,
    /// Death events (UberX and taxi validation use these directly).
    pub death_events: Vec<DeathEvent>,
    /// `(tier, lifespan_secs)` for every finalized, non-short-lived car.
    pub lifespans: Vec<(CarType, u64)>,
    /// Cars dropped by the short-lived filter.
    pub short_lived_filtered: u64,
    /// Deaths suppressed by the edge filter.
    pub edge_filtered: u64,
    /// Whether the open interval has unsaved observations.
    dirty: bool,
    /// The sighting last applied per car id this tick. Re-applying it is
    /// a no-op, so an identical repeat (the same car shown to several
    /// clients) is skipped. Cleared by `end_tick` (the reap may remove
    /// the car) and never serialized: it is empty at tick boundaries.
    applied: FastHashMap<u64, Sighting>,
    /// Reused buffer for the ids `reap` finalizes.
    stale: Vec<u64>,
}

impl SupplyDemandEstimator {
    /// Creates an estimator for a measurement `region`, optionally
    /// attributing per-area statistics to `areas` (UberX only).
    pub fn new(cfg: EstimatorConfig, region: Polygon, areas: Vec<Polygon>) -> Self {
        let n_areas = areas.len();
        SupplyDemandEstimator {
            cfg,
            region,
            areas,
            live: FastHashMap::default(),
            history: FastHashMap::default(),
            open_interval: 0,
            ids_by_type: FastHashMap::default(),
            ids_by_area: vec![FastHashSet::default(); n_areas],
            supply: HashMap::new(),
            supply_area: vec![Vec::new(); n_areas],
            deaths: HashMap::new(),
            deaths_area: vec![Vec::new(); n_areas],
            death_events: Vec::new(),
            lifespans: Vec::new(),
            short_lived_filtered: 0,
            edge_filtered: 0,
            dirty: false,
            applied: FastHashMap::default(),
            stale: Vec::new(),
        }
    }

    /// Feeds one client's per-tier observation blocks at time `now`.
    ///
    /// Cars reported outside the measurement polygon are ignored — §4.1:
    /// "we can safely filter short-lived cars from our dataset, and focus
    /// … only on cars that are driving within the bounds of our
    /// measurement area". (Boundary clients can see beyond the polygon,
    /// which would otherwise inflate supply against any ground truth
    /// defined over the polygon.)
    ///
    /// `blocks` may include transport-delayed responses whose content was
    /// frozen ticks ago; they are fed at their *delivery* time, exactly as
    /// a real client's log would record them. A stale re-observation
    /// refreshes `last_seen` and so keeps a car alive through the death
    /// grace — dropped and delayed pings thus degrade the estimate
    /// smoothly instead of fabricating deaths.
    ///
    /// A sighting identical to the one last applied for its car in this
    /// tick is skipped: every step below is idempotent, so applying it
    /// again would change nothing. A different sighting of the same car
    /// (a stale re-sighting at another position) is applied, in order.
    pub fn observe(&mut self, now: SimTime, blocks: &[TypeObservation]) {
        self.dirty = true;
        for block in blocks {
            for car in &block.cars {
                // Look up before inserting: repeats are the common case,
                // and a lookup costs less than an insert.
                let seen = sighting(now, block.car_type, car);
                if self.applied.get(&car.id) == Some(&seen) {
                    continue;
                }
                self.applied.insert(car.id, seen);
                if !self.region.contains(car.position) {
                    continue;
                }
                let entry = self.live.entry(car.id).or_insert(LiveCar {
                    car_type: block.car_type,
                    last_seen: now,
                    last_pos: car.position,
                    last_displacement: car.displacement,
                });
                entry.last_seen = now;
                entry.last_pos = car.position;
                entry.last_displacement = car.displacement;
                let h = self
                    .history
                    .entry(car.id)
                    .or_insert((now, now, block.car_type));
                h.1 = now;
                // Supply accounting for the open interval.
                self.ids_by_type.entry(block.car_type).or_default().insert(car.id);
                if block.car_type == CarType::UberX {
                    for (ai, poly) in self.areas.iter().enumerate() {
                        if poly.contains(car.position) {
                            self.ids_by_area[ai].insert(car.id);
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Call once per tick after all observations for that tick have been
    /// fed; `now` is the time the tick *ended* (i.e. the next tick's
    /// start). Finalizes stale cars and closes 5-minute intervals.
    pub fn end_tick(&mut self, now: SimTime) {
        self.applied.clear();
        self.reap(now);
        if now.seconds_into_surge_interval() == 0 && now.as_secs() > 0 {
            if self.dirty {
                self.close_interval();
            }
            self.open_interval = now.surge_interval();
        }
    }

    /// Finalizes the campaign: per-ID lifespans are computed from the
    /// full first-seen→last-seen history (cars keep their ID across
    /// trips), the short-lived filter is applied, and the open interval
    /// closes.
    pub fn finish(&mut self, now: SimTime) {
        self.applied.clear();
        self.live.clear();
        // Drain in sorted-ID order: HashMap iteration order would make the
        // lifespans vec differ between runs, breaking the bit-identical
        // checkpoint/resume comparison of full campaign outputs.
        let mut history: Vec<(u64, (SimTime, SimTime, CarType))> =
            self.history.drain().collect();
        history.sort_unstable_by_key(|(id, _)| *id);
        for (_, (first, last, tier)) in history {
            let span = last.as_secs().saturating_sub(first.as_secs());
            if span < self.cfg.short_lived_secs {
                self.short_lived_filtered += 1;
            } else {
                self.lifespans.push((tier, span));
            }
        }
        let _ = now;
        if self.dirty {
            self.close_interval();
        }
    }

    fn reap(&mut self, now: SimTime) {
        let grace = self.cfg.death_grace_secs;
        let mut stale = std::mem::take(&mut self.stale);
        stale.clear();
        stale.extend(
            self.live
                .iter()
                .filter(|(_, c)| now.as_secs().saturating_sub(c.last_seen.as_secs()) > grace)
                .map(|(id, _)| *id),
        );
        // Sorted so death_events order (and per-interval tallies' insertion
        // order) is a pure function of the observations, not of HashMap
        // iteration order — required for bit-identical resume comparisons.
        stale.sort_unstable();
        for &id in &stale {
            let car = self.live.remove(&id).unwrap();
            // Short-lived filter on the *total* span this ID has been
            // around (boundary flickers are measurement artifacts, but a
            // car briefly idle between trips is real).
            let span = self
                .history
                .get(&id)
                .map(|(first, last, _)| last.as_secs().saturating_sub(first.as_secs()))
                .unwrap_or(0);
            if span < self.cfg.short_lived_secs {
                continue;
            }
            // Edge filter: a disappearance near the boundary (or already
            // outside) may just be the car leaving the region.
            let near_edge = !self.region.contains(car.last_pos)
                || self.region.distance_to_boundary(car.last_pos) <= self.cfg.edge_margin_m;
            let outbound = match car.last_displacement {
                Some(d) if d.norm() > 1.0 => {
                    let prev = car.last_pos - d;
                    self.region.distance_to_boundary(car.last_pos)
                        < self.region.distance_to_boundary(prev)
                }
                _ => false,
            };
            let filtered = if self.cfg.edge_requires_outbound {
                near_edge && outbound
            } else {
                // Conservative mode: paper footnote 4 — anything near the
                // edge is excluded even without a clear outbound path.
                near_edge
            };
            if filtered {
                self.edge_filtered += 1;
                continue;
            }
            self.death_events.push(DeathEvent {
                at: car.last_seen,
                car_type: car.car_type,
                position: car.last_pos,
            });
            let interval = car.last_seen.surge_interval() as usize;
            let v = self.deaths.entry(car.car_type).or_default();
            if v.len() <= interval {
                v.resize(interval + 1, 0);
            }
            v[interval] += 1;
            if car.car_type == CarType::UberX {
                for (ai, poly) in self.areas.iter().enumerate() {
                    if poly.contains(car.last_pos) {
                        let va = &mut self.deaths_area[ai];
                        if va.len() <= interval {
                            va.resize(interval + 1, 0);
                        }
                        va[interval] += 1;
                        break;
                    }
                }
            }
        }
        self.stale = stale;
    }

    fn close_interval(&mut self) {
        for (t, ids) in self.ids_by_type.iter_mut() {
            let v = self.supply.entry(*t).or_default();
            let idx = self.open_interval as usize;
            if v.len() <= idx {
                v.resize(idx + 1, 0);
            }
            v[idx] = ids.len() as u32;
            ids.clear();
        }
        self.dirty = false;
        for (ai, ids) in self.ids_by_area.iter_mut().enumerate() {
            let v = &mut self.supply_area[ai];
            let idx = self.open_interval as usize;
            if v.len() <= idx {
                v.resize(idx + 1, 0);
            }
            v[idx] = ids.len() as u32;
            ids.clear();
        }
    }

    /// Measured supply per interval for a tier (empty if never seen).
    pub fn supply_series(&self, t: CarType) -> &[u32] {
        self.supply.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Measured deaths (fulfilled-demand upper bound) per interval.
    pub fn death_series(&self, t: CarType) -> &[u32] {
        self.deaths.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Per-area UberX supply series.
    pub fn supply_area_series(&self, area: usize) -> &[u32] {
        &self.supply_area[area]
    }

    /// Per-area UberX death series.
    pub fn death_area_series(&self, area: usize) -> &[u32] {
        &self.deaths_area[area]
    }

    /// All tiers that appeared in the data.
    pub fn observed_types(&self) -> Vec<CarType> {
        let mut v: Vec<CarType> = self.supply.keys().copied().collect();
        v.sort();
        v
    }
}

/// Canonicalizes a hash map as a key-sorted pair vec so the serialized
/// bytes never depend on `HashMap` iteration order.
fn sorted_pairs<K: Copy + Ord, V: Clone, S: std::hash::BuildHasher>(
    m: &HashMap<K, V, S>,
) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = m.iter().map(|(k, val)| (*k, val.clone())).collect();
    v.sort_unstable_by_key(|(k, _)| *k);
    v
}

fn sorted_ids(s: &FastHashSet<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = s.iter().copied().collect();
    v.sort_unstable();
    v
}

impl Serialize for SupplyDemandEstimator {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cfg".into(), self.cfg.to_value()),
            ("region".into(), self.region.to_value()),
            ("areas".into(), self.areas.to_value()),
            ("live".into(), sorted_pairs(&self.live).to_value()),
            ("history".into(), sorted_pairs(&self.history).to_value()),
            ("open_interval".into(), self.open_interval.to_value()),
            (
                "ids_by_type".into(),
                sorted_pairs(&self.ids_by_type)
                    .into_iter()
                    .map(|(t, ids)| (t, sorted_ids(&ids)))
                    .collect::<Vec<_>>()
                    .to_value(),
            ),
            (
                "ids_by_area".into(),
                self.ids_by_area.iter().map(sorted_ids).collect::<Vec<_>>().to_value(),
            ),
            ("supply".into(), sorted_pairs(&self.supply).to_value()),
            ("supply_area".into(), self.supply_area.to_value()),
            ("deaths".into(), sorted_pairs(&self.deaths).to_value()),
            ("deaths_area".into(), self.deaths_area.to_value()),
            ("death_events".into(), self.death_events.to_value()),
            ("lifespans".into(), self.lifespans.to_value()),
            ("short_lived_filtered".into(), self.short_lived_filtered.to_value()),
            ("edge_filtered".into(), self.edge_filtered.to_value()),
            ("dirty".into(), self.dirty.to_value()),
        ])
    }
}

impl Deserialize for SupplyDemandEstimator {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(SupplyDemandEstimator {
            cfg: EstimatorConfig::from_value(v.field("cfg")?)?,
            region: Polygon::from_value(v.field("region")?)?,
            areas: Vec::<Polygon>::from_value(v.field("areas")?)?,
            live: Vec::<(u64, LiveCar)>::from_value(v.field("live")?)?
                .into_iter()
                .collect(),
            history: Vec::<(u64, (SimTime, SimTime, CarType))>::from_value(
                v.field("history")?,
            )?
            .into_iter()
            .collect(),
            open_interval: u64::from_value(v.field("open_interval")?)?,
            ids_by_type: Vec::<(CarType, Vec<u64>)>::from_value(v.field("ids_by_type")?)?
                .into_iter()
                .map(|(t, ids)| (t, ids.into_iter().collect()))
                .collect(),
            ids_by_area: Vec::<Vec<u64>>::from_value(v.field("ids_by_area")?)?
                .into_iter()
                .map(|ids| ids.into_iter().collect())
                .collect(),
            supply: Vec::<(CarType, Vec<u32>)>::from_value(v.field("supply")?)?
                .into_iter()
                .collect(),
            supply_area: Vec::<Vec<u32>>::from_value(v.field("supply_area")?)?,
            deaths: Vec::<(CarType, Vec<u32>)>::from_value(v.field("deaths")?)?
                .into_iter()
                .collect(),
            deaths_area: Vec::<Vec<u32>>::from_value(v.field("deaths_area")?)?,
            death_events: Vec::<DeathEvent>::from_value(v.field("death_events")?)?,
            lifespans: Vec::<(CarType, u64)>::from_value(v.field("lifespans")?)?,
            short_lived_filtered: u64::from_value(v.field("short_lived_filtered")?)?,
            edge_filtered: u64::from_value(v.field("edge_filtered")?)?,
            dirty: bool::from_value(v.field("dirty")?)?,
            applied: FastHashMap::default(),
            stale: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservedCar;
    use surgescope_simcore::SimDuration;

    fn region() -> Polygon {
        Polygon::rect(Meters::new(0.0, 0.0), Meters::new(2000.0, 2000.0))
    }

    fn block(id: u64, x: f64, y: f64, disp: Option<Meters>) -> TypeObservation {
        TypeObservation {
            car_type: CarType::UberX,
            cars: vec![ObservedCar { id, position: Meters::new(x, y), displacement: disp }],
            ewt_min: 3.0,
            surge: 1.0,
        }
    }

    fn run_car(
        est: &mut SupplyDemandEstimator,
        id: u64,
        pos: (f64, f64),
        from: u64,
        until: u64,
        horizon: u64,
    ) {
        // Car visible [from, until), campaign runs to `horizon`.
        let mut t = 0;
        while t < horizon {
            if t >= from && t < until {
                est.observe(SimTime(t), &[block(id, pos.0, pos.1, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
    }

    #[test]
    fn interior_disappearance_is_a_death() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 1, (1000.0, 1000.0), 0, 600, 1200);
        est.finish(SimTime(1200));
        assert_eq!(est.death_events.len(), 1);
        let d = &est.death_events[0];
        assert_eq!(d.car_type, CarType::UberX);
        assert_eq!(d.at, SimTime(595));
        // Death lands in interval 1 (595/300).
        assert_eq!(est.death_series(CarType::UberX), &[0, 1]);
    }

    #[test]
    fn edge_parked_counts_as_death_by_default() {
        // A parked car near the boundary that disappears most plausibly
        // took a booking; only *outbound* paths indicate leaving.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 2, (1950.0, 1000.0), 0, 600, 1200);
        est.finish(SimTime(1200));
        assert_eq!(est.death_events.len(), 1);
        assert_eq!(est.edge_filtered, 0);
    }

    #[test]
    fn edge_parked_filtered_in_conservative_mode() {
        let cfg = EstimatorConfig { edge_requires_outbound: false, ..Default::default() };
        let mut est = SupplyDemandEstimator::new(cfg, region(), vec![]);
        run_car(&mut est, 2, (1950.0, 1000.0), 0, 600, 1200);
        est.finish(SimTime(1200));
        assert!(est.death_events.is_empty(), "conservative mode discards edge cars");
        assert_eq!(est.edge_filtered, 1);
    }

    #[test]
    fn lifespan_spans_booking_gaps() {
        // A car visible 0–300 s, booked (invisible) 300–900 s, visible
        // again 900–1500 s: two deaths... no — one death at 300 (the
        // booking) and a lifespan covering the whole 0–1500 s span.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 1800 {
            let now = SimTime(t);
            if t < 300 || (900..1500).contains(&t) {
                est.observe(now, &[block(99, 1000.0, 1000.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(1800));
        assert_eq!(est.death_events.len(), 2, "both disappearances are deaths");
        assert_eq!(est.lifespans.len(), 1, "one car, one lifespan");
        let span = est.lifespans[0].1;
        assert!(span >= 1400, "lifespan must span the booked gap, got {span}");
    }

    #[test]
    fn short_lived_car_fully_filtered() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        // Visible for 30 s < 90 s threshold.
        run_car(&mut est, 3, (1000.0, 1000.0), 0, 30, 600);
        est.finish(SimTime(600));
        assert!(est.death_events.is_empty());
        assert!(est.lifespans.is_empty());
        assert_eq!(est.short_lived_filtered, 1);
    }

    #[test]
    fn survivor_contributes_lifespan_but_no_death() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 4, (500.0, 500.0), 0, 900, 900);
        est.finish(SimTime(900));
        assert!(est.death_events.is_empty(), "still-alive car is not a death");
        assert_eq!(est.lifespans.len(), 1);
        assert_eq!(est.lifespans[0].0, CarType::UberX);
        assert!(est.lifespans[0].1 >= 890);
    }

    #[test]
    fn supply_counts_unique_ids_per_interval() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 600 {
            let now = SimTime(t);
            // Two cars, seen by two different clients (duplicate sightings
            // must not double-count).
            est.observe(now, &[block(10, 500.0, 500.0, None)]);
            est.observe(now, &[block(10, 500.0, 500.0, None)]);
            if t < 300 {
                est.observe(now, &[block(11, 700.0, 700.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(600));
        assert_eq!(est.supply_series(CarType::UberX), &[2, 1]);
    }

    #[test]
    fn per_area_attribution() {
        let areas = vec![
            Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 2000.0)),
            Polygon::rect(Meters::new(1000.0, 0.0), Meters::new(2000.0, 2000.0)),
        ];
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), areas);
        // Single pass: car 20 (area 0) visible for the first 10 minutes
        // then dies; car 21 (area 1) visible throughout.
        let mut t = 0u64;
        while t < 1200 {
            let now = SimTime(t);
            if t < 600 {
                est.observe(now, &[block(20, 500.0, 1000.0, None)]);
            }
            est.observe(now, &[block(21, 1500.0, 1000.0, None)]);
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(1200));
        assert_eq!(est.supply_area_series(0), &[1, 1, 0, 0]);
        assert_eq!(est.supply_area_series(1), &[1, 1, 1, 1]);
        let d0: u32 = est.death_area_series(0).iter().sum();
        let d1: u32 = est.death_area_series(1).iter().sum();
        assert_eq!((d0, d1), (1, 0));
    }

    #[test]
    fn grace_tolerates_missed_pings() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 600 {
            let now = SimTime(t);
            // Car 30 pings every tick except a 10 s gap at t=300..310
            // (inside the 15 s grace) — must not die.
            if !(300..310).contains(&t) {
                est.observe(now, &[block(30, 800.0, 800.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(600));
        assert!(est.death_events.is_empty(), "gap within grace must not kill the car");
        assert_eq!(est.lifespans.len(), 1);
    }

    #[test]
    fn stale_reobservation_keeps_car_alive() {
        // A delayed ping re-reports a car at its send-time position; fed
        // at delivery time it must refresh last_seen like any sighting.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 600 {
            let now = SimTime(t);
            if t < 300 {
                est.observe(now, &[block(40, 800.0, 800.0, None)]);
            } else if (310..=320).contains(&t) {
                // Fresh pings for the car stopped at t=300; these are
                // late deliveries carrying the old (send-time) position —
                // inside the grace window, they postpone the death.
                est.observe(now, &[block(40, 800.0, 800.0, None)]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(600));
        // Death is stamped at the last (stale) sighting, not t=300.
        assert_eq!(est.death_events.len(), 1);
        assert_eq!(est.death_events[0].at, SimTime(320));
    }

    #[test]
    fn observed_types_sorted() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mk = |t: CarType, id: u64| TypeObservation {
            car_type: t,
            cars: vec![ObservedCar {
                id,
                position: Meters::new(500.0, 500.0),
                displacement: None,
            }],
            ewt_min: 1.0,
            surge: 1.0,
        };
        let mut t = 0u64;
        while t < 300 {
            est.observe(SimTime(t), &[mk(CarType::UberBlack, 1), mk(CarType::UberX, 2)]);
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(300));
        assert_eq!(est.observed_types(), vec![CarType::UberX, CarType::UberBlack]);
    }

    #[test]
    fn death_series_empty_for_unseen_type() {
        let est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        assert!(est.death_series(CarType::UberPool).is_empty());
        assert!(est.supply_series(CarType::UberPool).is_empty());
    }

    #[test]
    fn outbound_near_edge_filtered_with_displacement() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let mut t = 0u64;
        while t < 300 {
            let now = SimTime(t);
            if t < 120 {
                // Moving east toward the boundary, ends at x=1900 (inside
                // the 150 m margin), displacement clearly outbound.
                let x = (1700.0 + 2.0 * t as f64).min(1900.0);
                est.observe(now, &[block(40, x, 1000.0, Some(Meters::new(40.0, 0.0)))]);
            }
            t += 5;
            est.end_tick(SimTime(t));
        }
        est.finish(SimTime(300));
        assert!(est.death_events.is_empty());
        assert_eq!(est.edge_filtered, 1);
    }

    #[test]
    fn deaths_within_grace_of_campaign_end_not_counted() {
        // Car disappears 10 s before the campaign ends: still within the
        // grace window, so finish() records a lifespan, not a death.
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        run_car(&mut est, 50, (1000.0, 1000.0), 0, 590, 600);
        est.finish(SimTime(600));
        assert!(est.death_events.is_empty());
        assert_eq!(est.lifespans.len(), 1);
    }

    #[test]
    fn serde_round_trip_mid_campaign_continues_identically() {
        // Serialize with live cars, an open interval and accumulated
        // outputs; the restored estimator must finish the campaign with
        // byte-identical results.
        let mk = |est: &mut SupplyDemandEstimator| {
            let mut t = 0u64;
            while t < 450 {
                let now = SimTime(t);
                est.observe(now, &[block(1, 1000.0, 1000.0, None)]);
                if t < 200 {
                    est.observe(now, &[block(2, 600.0, 400.0, None)]);
                }
                t += 5;
                est.end_tick(SimTime(t));
            }
        };
        let areas = vec![
            Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 2000.0)),
            Polygon::rect(Meters::new(1000.0, 0.0), Meters::new(2000.0, 2000.0)),
        ];
        let mut a =
            SupplyDemandEstimator::new(EstimatorConfig::default(), region(), areas);
        mk(&mut a);
        let v = a.to_value();
        let mut b = SupplyDemandEstimator::from_value(&v).expect("round trip");
        // Same serialized form on the round-tripped copy (canonical).
        assert_eq!(b.to_value(), v);
        let run_tail = |est: &mut SupplyDemandEstimator| {
            let mut t = 450u64;
            while t < 900 {
                let now = SimTime(t);
                est.observe(now, &[block(1, 1010.0, 1000.0, None)]);
                t += 5;
                est.end_tick(SimTime(t));
            }
            est.finish(SimTime(900));
        };
        run_tail(&mut a);
        run_tail(&mut b);
        assert_eq!(a.supply_series(CarType::UberX), b.supply_series(CarType::UberX));
        assert_eq!(a.death_events, b.death_events);
        assert_eq!(a.lifespans, b.lifespans);
        assert_eq!(a.short_lived_filtered, b.short_lived_filtered);
        assert_eq!(a.to_value(), b.to_value());
    }

    /// Feeding every client's copy of a sighting, as the runner does,
    /// gives the same state, byte for byte, as feeding by hand only the
    /// sighting that decides each car's state in the tick — its last one
    /// (every car stays within one area per tick, so the sets agree too).
    /// Late blocks re-sight cars where they were a tick ago: car 1 mid-
    /// tick (later fresh repeats must apply again), car 6 as its last
    /// sighting (a different position must not pass for a repeat); car
    /// 5's late sighting differs only in displacement; car 3 sits outside
    /// the region.
    #[test]
    fn duplicate_sightings_leave_the_same_state_as_deduplicated_ones() {
        let areas = vec![
            Polygon::rect(Meters::new(0.0, 0.0), Meters::new(1000.0, 2000.0)),
            Polygon::rect(Meters::new(1000.0, 0.0), Meters::new(2000.0, 2000.0)),
        ];
        let cfg = EstimatorConfig::default();
        let mut dup = SupplyDemandEstimator::new(cfg, region(), areas.clone());
        let mut dedup = SupplyDemandEstimator::new(cfg, region(), areas);
        let car = |id: u64, x: f64, disp: Option<Meters>| ObservedCar {
            id,
            position: Meters::new(x, 900.0),
            displacement: disp,
        };
        let blocks = |cars: Vec<ObservedCar>| {
            vec![TypeObservation { car_type: CarType::UberX, cars, ewt_min: 2.0, surge: 1.0 }]
        };
        let east = Some(Meters::new(25.0, 0.0));
        let mut t = 0u64;
        while t < 1200 {
            let now = SimTime(t);
            // Cars 1 and 6 drive east inside area 1; car 4 stops showing
            // up after 10 minutes (a death).
            let x = 1100.0 + (t / 2) as f64;
            let mut fresh = vec![
                car(1, x, east),
                car(2, 300.0, None),
                car(3, -50.0, None),
                car(5, 700.0, east),
                car(6, x + 100.0, east),
            ];
            if t < 600 {
                fresh.push(car(4, 1500.0, east));
            }
            let stale_1 = blocks(vec![car(1, x - 5.0, east)]);
            let stale_5 = blocks(vec![car(5, 700.0, None)]);
            let stale_6 = blocks(vec![car(6, x + 95.0, east)]);
            for client in 0..4 {
                dup.observe(now, &blocks(fresh.clone()));
                if client == 1 {
                    dup.observe(now, &stale_1);
                    dup.observe(now, &stale_1);
                }
                if client == 3 {
                    dup.observe(now, &stale_5);
                    dup.observe(now, &stale_6);
                }
            }
            let mut last = fresh.clone();
            last[3] = stale_5[0].cars[0];
            last[4] = stale_6[0].cars[0];
            dedup.observe(now, &blocks(last));
            t += 5;
            dup.end_tick(SimTime(t));
            dedup.end_tick(SimTime(t));
            assert_eq!(
                surgescope_store::encode_to_vec(&dup.to_value()),
                surgescope_store::encode_to_vec(&dedup.to_value()),
                "state diverged at t={t}"
            );
        }
        dup.finish(SimTime(t));
        dedup.finish(SimTime(t));
        assert_eq!(dup.to_value(), dedup.to_value());
        assert_eq!(dup.death_events.len(), 1, "car 4 dies once");
    }

    #[test]
    fn duration_since_campaign_spans_intervals() {
        let mut est = SupplyDemandEstimator::new(EstimatorConfig::default(), region(), vec![]);
        let horizon = SimDuration::mins(20).as_secs();
        run_car(&mut est, 60, (1000.0, 1000.0), 0, horizon, horizon);
        est.finish(SimTime(horizon));
        // Four closed intervals, car present in each.
        assert_eq!(est.supply_series(CarType::UberX), &[1, 1, 1, 1]);
    }
}
