//! Protocol-surface contract tests, exercised through the public facade:
//! nearest-8 visibility, ID randomization, rate limiting, era semantics.

use surgescope::api::{ApiService, ProtocolEra, WorldSnapshot, NEAREST_CARS_SHOWN};
use surgescope::city::{CarType, CityModel};
use surgescope::geo::Meters;
use surgescope::marketplace::{Marketplace, MarketplaceConfig};
use surgescope::simcore::SimDuration;
use std::collections::HashSet;

fn busy_world(seed: u64) -> Marketplace {
    let mut c = CityModel::san_francisco_downtown();
    c.supply = c.supply.scaled(0.35);
    c.demand = c.demand.scaled(0.35);
    let mut mp = Marketplace::new(c, MarketplaceConfig::default(), seed);
    mp.run_for(SimDuration::hours(9));
    mp
}

#[test]
fn never_more_than_eight_cars_per_tier() {
    let mp = busy_world(1);
    let api = ApiService::new(ProtocolEra::Apr2015, 1);
    let snap = WorldSnapshot::of(&mp);
    for dx in [-800.0, 0.0, 800.0] {
        let pos = mp.city().measurement_region.centroid();
        let loc = mp.city().projection.to_latlng(Meters::new(pos.x + dx, pos.y));
        let resp = api.ping_client(&snap, 5, loc);
        for s in &resp.statuses {
            assert!(s.cars.len() <= NEAREST_CARS_SHOWN);
        }
    }
}

#[test]
fn session_ids_rotate_across_shifts() {
    // Run a day and a half: the same physical drivers cycle online and
    // offline; the set of public IDs must keep growing.
    let mut c = CityModel::manhattan_midtown();
    c.supply = c.supply.scaled(0.25);
    c.demand = c.demand.scaled(0.25);
    let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 3);
    let mut seen: HashSet<u64> = HashSet::new();
    for _ in 0..36 {
        mp.run_for(SimDuration::hours(1));
        for car in mp.visible_cars() {
            seen.insert(car.session.0);
        }
    }
    assert!(
        seen.len() as u64 > mp.online_count() as u64 * 3,
        "only {} distinct ids for a churning fleet",
        seen.len()
    );
    assert!(mp.truth().sessions_started as usize >= seen.len() / 2);
}

#[test]
fn rate_limit_is_per_account_per_hour() {
    let mp = busy_world(2);
    let mut api = ApiService::new(ProtocolEra::Apr2015, 2);
    let snap = WorldSnapshot::of(&mp);
    let loc = mp.city().projection.to_latlng(mp.city().measurement_region.centroid());
    for i in 0..1_000 {
        assert!(
            api.estimates_price(&snap, 77, loc).is_ok(),
            "request {i} unexpectedly throttled"
        );
    }
    let err = api.estimates_price(&snap, 77, loc).unwrap_err();
    assert_eq!(err.account, 77);
    assert!(err.retry_after_secs <= 3_600);
    // Other accounts unaffected; pingClient unaffected.
    assert!(api.estimates_price(&snap, 78, loc).is_ok());
    let _ = api.ping_client(&snap, 77, loc);
}

#[test]
fn ubert_never_surges_through_any_endpoint() {
    let mp = busy_world(3);
    let mut api = ApiService::new(ProtocolEra::Apr2015, 3);
    let snap = WorldSnapshot::of(&mp);
    let loc = mp.city().projection.to_latlng(mp.city().measurement_region.centroid());
    let resp = api.ping_client(&snap, 1, loc);
    assert_eq!(resp.surge(CarType::UberT), 1.0);
    let est = api.estimates_price(&snap, 1, loc).unwrap();
    if let Some(p) = est.iter().find(|p| p.car_type == CarType::UberT) {
        assert_eq!(p.surge_multiplier, 1.0);
    }
}

#[test]
fn feb_era_consistent_apr_era_diverges_eventually() {
    let mut c = CityModel::san_francisco_downtown();
    c.supply = c.supply.scaled(0.35);
    c.demand = c.demand.scaled(0.35);
    let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 9);
    mp.run_for(SimDuration::hours(7));

    let feb = ApiService::new(ProtocolEra::Feb2015, 9);
    let apr = ApiService::new(ProtocolEra::Apr2015, 9);
    let loc = mp.city().projection.to_latlng(mp.city().measurement_region.centroid());

    let mut apr_diverged = false;
    for _ in 0..1_440 {
        // two hours of ticks
        mp.tick();
        let snap = WorldSnapshot::of(&mp);
        let f1 = feb.ping_client(&snap, 1, loc).surge(CarType::UberX);
        let f2 = feb.ping_client(&snap, 2, loc).surge(CarType::UberX);
        assert_eq!(f1, f2, "Feb era must be uniform across clients");
        let a1 = apr.ping_client(&snap, 1, loc).surge(CarType::UberX);
        let a2 = apr.ping_client(&snap, 2, loc).surge(CarType::UberX);
        if a1 != a2 {
            apr_diverged = true;
        }
    }
    assert!(
        apr_diverged,
        "two hours of SF surge activity should expose the consistency bug"
    );
}
