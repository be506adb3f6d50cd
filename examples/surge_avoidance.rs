//! The §6 surge-avoidance strategy as a rider-facing advisor.
//!
//! A rider stands near Union Square in a surging downtown SF. Every
//! 5-minute interval the advisor queries the API for the home area's
//! multiplier and every adjacent area's multiplier and EWT, then
//! recommends either "request here" or "reserve in area X and walk".
//!
//! ```sh
//! cargo run --release --example surge_avoidance
//! ```

use surgescope::api::{ApiService, ProtocolEra, WorldSnapshot};
use surgescope::city::{CarType, CityModel};
use surgescope::core::avoidance::walk_minutes_to_area;
use surgescope::geo::Meters;
use surgescope::marketplace::{Marketplace, MarketplaceConfig};
use surgescope::simcore::SimDuration;

fn main() {
    let mut city = CityModel::san_francisco_downtown();
    city.supply = city.supply.scaled(0.4);
    city.demand = city.demand.scaled(0.4);

    let rider = Meters::new(1500.0, 950.0); // Union Square
    let home = city.area_of(rider).expect("rider inside the service region").0;
    println!(
        "rider near Union Square, home surge area: {} ({})",
        home, city.areas[home].name
    );

    let mut mp = Marketplace::new(city.clone(), MarketplaceConfig::default(), 23);
    let mut api = ApiService::new(ProtocolEra::Apr2015, 23);

    // Evening rush: 17:30 onward, checking once per surge interval.
    mp.run_for(SimDuration::secs(17 * 3600 + 1800));
    println!("\n  time     here   best alternative                    advice");
    let mut wins = 0u32;
    let mut checks = 0u32;
    for _ in 0..24 {
        mp.run_for(SimDuration::mins(5));
        let snap = WorldSnapshot::of(&mp);
        let account = 9;
        let here = api
            .estimates_price(&snap, account, city.projection.to_latlng(rider))
            .unwrap()
            .into_iter()
            .find(|p| p.car_type == CarType::UberX)
            .map(|p| p.surge_multiplier)
            .unwrap_or(1.0);
        if here <= 1.0 {
            println!("  {}  ×{here:.1}   —                                   request here (no surge)", mp.now());
            continue;
        }
        checks += 1;
        // Probe each adjacent area's price and EWT at its centroid.
        let mut best: Option<(usize, f64, f64, f64)> = None; // (area, m, walk, ewt)
        for n in &city.adjacency[home] {
            let centroid = city.areas[n.0].polygon.centroid();
            let loc = city.projection.to_latlng(centroid);
            let m = api
                .estimates_price(&snap, account, loc)
                .unwrap()
                .into_iter()
                .find(|p| p.car_type == CarType::UberX)
                .map(|p| p.surge_multiplier)
                .unwrap_or(1.0);
            let ewt_min = api
                .estimates_time(&snap, account, loc)
                .unwrap()
                .into_iter()
                .find(|t| t.car_type == CarType::UberX)
                .map(|t| t.estimate_secs as f64 / 60.0)
                .unwrap_or(0.0);
            let walk = walk_minutes_to_area(&city, rider, n.0);
            if m < here && walk <= ewt_min && best.is_none_or(|(_, bm, _, _)| m < bm) {
                best = Some((n.0, m, walk, ewt_min));
            }
        }
        match best {
            Some((a, m, walk, ewt)) => {
                wins += 1;
                println!(
                    "  {}  ×{here:.1}   area {a}: ×{m:.1}, walk {walk:.1} min ≤ EWT {ewt:.1}   RESERVE THERE — save ×{:.1}",
                    mp.now(),
                    here - m
                );
            }
            None => println!(
                "  {}  ×{here:.1}   no adjacent area qualifies           pay the surge (or wait 5 min)",
                mp.now()
            ),
        }
    }
    println!(
        "\nsummary: walking beat the local surge in {wins} of {checks} surged checks"
    );
}
