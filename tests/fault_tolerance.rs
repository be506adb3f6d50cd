//! Transport-fault robustness: the estimators must tolerate lossy
//! client↔service links (the real study rode on cellular networks).

use surgescope::api::{ApiService, ProtocolEra};
use surgescope::city::{CarType, CityModel};
use surgescope::core::calibration::placement;
use surgescope::core::estimate::{EstimatorConfig, SupplyDemandEstimator};
use surgescope::core::{MeasuredSystem, UberSystem};
use surgescope::marketplace::{Marketplace, MarketplaceConfig};
use surgescope::simcore::{FaultPlan, SimDuration};

/// Runs a 4-hour daytime measurement with the given fault plan and
/// returns total measured UberX supply and deaths.
fn measure_with_faults(plan: FaultPlan) -> (u64, u64) {
    let mut city = CityModel::manhattan_midtown();
    city.supply = city.supply.scaled(0.35);
    city.demand = city.demand.scaled(0.35);
    let clients = placement(&city.measurement_region, city.client_spacing_m);

    let mut mp = Marketplace::new(city.clone(), MarketplaceConfig::default(), 2024);
    mp.run_for(SimDuration::hours(8)); // warm to mid-morning
    let mut sys = UberSystem::new(mp, ApiService::new(ProtocolEra::Apr2015, 2024))
        .with_faults(plan, 7);

    let mut est = SupplyDemandEstimator::new(
        EstimatorConfig::default(),
        city.measurement_region.clone(),
        vec![],
    );
    let mut obs = Vec::new();
    for _ in 0..(4 * 720) {
        sys.advance_tick();
        let now = sys.now();
        sys.ping_all_into(&clients, &mut obs);
        for blocks in &obs {
            est.observe(now, blocks);
        }
        est.end_tick(now);
    }
    est.finish(sys.now());
    let sum = |v: &[u32]| v.iter().map(|&x| x as u64).sum::<u64>();
    (
        sum(est.supply_series(CarType::UberX)),
        sum(est.death_series(CarType::UberX)),
    )
}

#[test]
fn estimates_survive_ten_percent_loss() {
    let (clean_supply, clean_deaths) = measure_with_faults(FaultPlan::none());
    let (lossy_supply, lossy_deaths) = measure_with_faults(FaultPlan::lossy(0.10));
    assert!(clean_supply > 0 && clean_deaths > 0);

    // With 43 clients pinging every 5 s and a 15 s death grace, a 10%
    // drop rate should barely dent the counts: every car is covered by
    // many client views and several chances per grace window.
    let supply_ratio = lossy_supply as f64 / clean_supply as f64;
    assert!(
        (0.9..=1.1).contains(&supply_ratio),
        "supply ratio {supply_ratio} under 10% loss"
    );
    let death_ratio = lossy_deaths as f64 / clean_deaths as f64;
    assert!(
        (0.7..=1.3).contains(&death_ratio),
        "death ratio {death_ratio} under 10% loss"
    );
}

#[test]
fn heavy_loss_degrades_gracefully_not_catastrophically() {
    let (clean_supply, _) = measure_with_faults(FaultPlan::none());
    let (heavy_supply, _) = measure_with_faults(FaultPlan::lossy(0.5));
    // Half the pings gone: unique-ID supply counts should still be in the
    // same ballpark (redundancy across clients), never collapse to zero.
    let ratio = heavy_supply as f64 / clean_supply as f64;
    assert!(
        ratio > 0.6,
        "supply collapsed to {ratio} of clean under 50% loss"
    );
}

/// Campaign-level gap accounting: a dropped ping is a `NaN` hole in the
/// per-client series — never a fabricated 1.0× / 0.0-minute sample — and
/// the number of holes tracks the fault plan's drop chance.
#[test]
fn campaign_records_drops_as_nan_gaps() {
    use surgescope::core::{Campaign, CampaignConfig};
    let drop = 0.15;
    let cfg = CampaignConfig {
        hours: 1,
        faults: FaultPlan::lossy(drop),
        ..CampaignConfig::test_default(52)
    };
    let data = Campaign::run_uber(CityModel::manhattan_midtown(), &cfg);
    let total = data.ticks * data.clients.len();
    let gaps: usize = data
        .client_surge
        .iter()
        .flatten()
        .filter(|v| v.is_nan())
        .count();
    let rate = gaps as f64 / total as f64;
    assert!(
        (rate - drop).abs() < 0.02,
        "NaN gap rate {rate} should track drop chance {drop}"
    );
    // The delivered-ping ledger agrees exactly with the series' holes.
    let delivered: u64 = data.client_delivered.iter().sum();
    assert_eq!(delivered as usize, total - gaps);
    // No survivor tick carries a fabricated placeholder pair (1.0×, 0.0
    // min would be the old bug's signature on *every* faulted tick; here
    // delivered ticks carry whatever the marketplace actually served).
    assert!(data.client_mean_ewt.iter().all(|m| m.is_finite() && *m > 0.0));
}

/// Delay is not Drop at campaign level: with every ping delayed exactly
/// one tick, each client misses only the very first tick (nothing has
/// arrived yet) and sees stale-but-real data from then on.
#[test]
fn campaign_delayed_pings_fill_later_ticks() {
    use surgescope::core::{Campaign, CampaignConfig};
    let cfg = CampaignConfig {
        hours: 1,
        // delay ≤ 5 s at a 5 s tick: everything exactly one tick late.
        faults: FaultPlan::laggy(1.0, 5),
        ..CampaignConfig::test_default(53)
    };
    let data = Campaign::run_uber(CityModel::manhattan_midtown(), &cfg);
    for (i, s) in data.client_surge.iter().enumerate() {
        assert!(s[0].is_nan(), "client {i}: tick 0 cannot have a delivery");
        assert!(
            s[1..].iter().all(|v| v.is_finite()),
            "client {i}: delayed pings must surface on every later tick"
        );
        assert_eq!(data.client_delivered[i] as usize, data.ticks - 1);
    }
}
