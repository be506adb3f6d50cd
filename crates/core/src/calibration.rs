//! Measurement-apparatus calibration (§3.4).
//!
//! Before trusting a client fleet, the paper runs three calibrations:
//!
//! 1. **Determinism**: 43 clients at one location for an hour must see
//!    exactly the same vehicles, multipliers and EWTs.
//! 2. **No observer effect**: clients parked in a quiet residential spot
//!    at 4 a.m. must record multiplier 1 throughout — measurement must not
//!    *induce* surge.
//! 3. **Visibility radius**: four clients walk 20 m NE/NW/SE/SW every 5 s
//!    from a common origin until they no longer share any visible car;
//!    the radius is `r = (1/√2)·mean(D_c) ≈ 0.1768·ΣD_c` (45-45-90
//!    triangle, §3.4). The radius then fixes the client lattice spacing.

use crate::observe::{ClientSpec, TypeObservation};
use crate::systems::MeasuredSystem;
use std::collections::HashSet;
use surgescope_city::CarType;
use surgescope_geo::{grid, Meters, Polygon};

/// Outcome of the determinism calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeterminismReport {
    /// Total co-located ping rounds compared.
    pub rounds: usize,
    /// Rounds where at least one client disagreed with client 0.
    pub divergent_rounds: usize,
}

impl DeterminismReport {
    /// The §3.4 conclusion: pingClient data is deterministic.
    pub fn is_deterministic(&self) -> bool {
        self.divergent_rounds == 0
    }
}

/// Runs the §3.4 determinism experiment: `n_clients` co-located clients
/// ping for `ticks` rounds; responses are compared field-for-field.
pub fn determinism_check<S: MeasuredSystem>(
    sys: &mut S,
    position: Meters,
    n_clients: usize,
    ticks: usize,
) -> DeterminismReport {
    assert!(n_clients >= 2, "need at least two clients to compare");
    let clients: Vec<ClientSpec> =
        (0..n_clients).map(|i| ClientSpec { key: i as u64, position }).collect();
    let mut divergent = 0;
    let mut obs = Vec::new();
    for _ in 0..ticks {
        sys.advance_tick();
        sys.ping_all_into(&clients, &mut obs);
        let baseline = &obs[0];
        if obs[1..].iter().any(|o| o != baseline) {
            divergent += 1;
        }
    }
    DeterminismReport { rounds: ticks, divergent_rounds: divergent }
}

/// Runs the observer-effect check: fraction of pings reporting surge > 1
/// while `n_clients` sit at `position` for `ticks` rounds. The check
/// passes when the system under measurement is genuinely quiet and the
/// fleet does not push prices up (the paper expected and saw all 1s).
pub fn surge_induction_fraction<S: MeasuredSystem>(
    sys: &mut S,
    position: Meters,
    n_clients: usize,
    ticks: usize,
) -> f64 {
    let clients: Vec<ClientSpec> =
        (0..n_clients).map(|i| ClientSpec { key: i as u64, position }).collect();
    let mut surged = 0usize;
    let mut total = 0usize;
    let mut obs = Vec::new();
    for _ in 0..ticks {
        sys.advance_tick();
        sys.ping_all_into(&clients, &mut obs);
        for blocks in &obs {
            if let Some(x) = blocks.iter().find(|b| b.car_type == CarType::UberX) {
                total += 1;
                if x.surge > 1.0 {
                    surged += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        surged as f64 / total as f64
    }
}

/// The visibility-radius walk. Returns the measured radius in metres, or
/// `None` when the walkers never shared a car to begin with (area too
/// sparse to calibrate — try a denser time of day, as the paper did).
pub fn visibility_radius<S: MeasuredSystem>(
    sys: &mut S,
    origin: Meters,
    car_type: CarType,
    max_steps: usize,
) -> Option<f64> {
    // Bearings NE, NW, SE, SW in unit-vector form.
    const DIAG: f64 = std::f64::consts::FRAC_1_SQRT_2;
    let dirs = [
        Meters::new(DIAG, DIAG),
        Meters::new(-DIAG, DIAG),
        Meters::new(DIAG, -DIAG),
        Meters::new(-DIAG, -DIAG),
    ];
    const STEP_M: f64 = 20.0;

    let visible_ids = |blocks: &[TypeObservation]| -> HashSet<u64> {
        blocks
            .iter()
            .filter(|b| b.car_type == car_type)
            .flat_map(|b| b.cars.iter().map(|c| c.id))
            .collect()
    };

    let mut ever_shared = false;
    let mut obs = Vec::new();
    for step in 0..max_steps {
        let d = STEP_M * step as f64;
        let clients: Vec<ClientSpec> = dirs
            .iter()
            .enumerate()
            .map(|(i, dir)| ClientSpec {
                key: i as u64,
                position: Meters::new(origin.x + dir.x * d, origin.y + dir.y * d),
            })
            .collect();
        sys.advance_tick();
        sys.ping_all_into(&clients, &mut obs);
        let mut shared = visible_ids(&obs[0]);
        for o in &obs[1..] {
            let ids = visible_ids(o);
            shared.retain(|id| ids.contains(id));
        }
        if shared.is_empty() {
            if !ever_shared {
                return None;
            }
            // Each walker is D = step·20 m from the origin; r = D/√2
            // averaged over the four walkers (≈ 0.1768·ΣD_c).
            let sum_d = 4.0 * d;
            return Some(0.1768 * sum_d);
        }
        ever_shared = true;
    }
    // Never diverged within the budget: radius at least the final D/√2.
    Some(0.1768 * 4.0 * STEP_M * max_steps as f64)
}

/// Places measurement clients on a lattice over `region` (§3.4's final
/// step). Keys are assigned in row-major order.
pub fn placement(region: &Polygon, spacing_m: f64) -> Vec<ClientSpec> {
    grid::cover_polygon(region, spacing_m)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| ClientSpec { key: i as u64, position: slot.position })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::UberSystem;
    use surgescope_api::{ApiService, ProtocolEra};
    use surgescope_city::CityModel;
    use surgescope_marketplace::{Marketplace, MarketplaceConfig};
    use surgescope_simcore::SimDuration;

    fn uber(seed: u64, warm_hours: u64) -> UberSystem {
        let mut c = CityModel::manhattan_midtown();
        // Ample idle cars: calibration semantics are about visibility
        // geometry, not load (heavy demand empties the idle pool and
        // makes the shared-visibility walk degenerate).
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(0.1);
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), seed);
        mp.run_for(SimDuration::hours(warm_hours));
        UberSystem::new(mp, ApiService::new(ProtocolEra::Feb2015, seed))
    }

    #[test]
    fn feb_era_is_deterministic_across_clients() {
        let mut sys = uber(1, 12);
        let center = sys.marketplace.city().measurement_region.centroid();
        let report = determinism_check(&mut sys, center, 8, 60);
        assert!(report.is_deterministic(), "{report:?}");
        assert_eq!(report.rounds, 60);
    }

    #[test]
    fn quiet_hours_do_not_surge() {
        // 3–4 a.m., demand trough: Manhattan at low scale shouldn't surge.
        let mut sys = uber(2, 3);
        let center = sys.marketplace.city().measurement_region.centroid();
        let frac = surge_induction_fraction(&mut sys, center, 43, 120);
        assert!(frac < 0.1, "surge fraction at 3am was {frac}");
    }

    #[test]
    fn visibility_radius_measured_at_midday() {
        let mut sys = uber(3, 12);
        let center = sys.marketplace.city().measurement_region.centroid();
        let r = visibility_radius(&mut sys, center, CarType::UberX, 200)
            .expect("midtown at noon must have shared visibility");
        // Sanity: hundreds of metres to a few km for our densities.
        assert!(r > 50.0 && r < 5_000.0, "radius {r}");
    }

    #[test]
    fn visibility_radius_none_when_empty() {
        // A cold world (nobody online yet) has no cars to share.
        let mut sys = uber(4, 0);
        let center = sys.marketplace.city().measurement_region.centroid();
        // UberWAV is so rare that even a warm world often lacks one.
        let r = visibility_radius(&mut sys, center, CarType::UberWav, 10);
        assert!(r.is_none());
    }

    #[test]
    fn placement_is_row_major_and_in_region() {
        let city = CityModel::manhattan_midtown();
        let clients = placement(&city.measurement_region, city.client_spacing_m);
        assert!((40..=48).contains(&clients.len()), "{}", clients.len());
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(c.key, i as u64);
            assert!(city.measurement_region.contains(c.position));
        }
    }
}
