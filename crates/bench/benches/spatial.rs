//! Benchmarks for the per-tier nearest-car scan and the parallel ping
//! fan-out.
//!
//! `spatial_grid` times the snapshot's linear tier scan
//! (`k_nearest_and_l1_scan`: nearest-8 plus L1-nearest, and L1-nearest
//! alone at `k = 0`) beside the bucket grid it replaced, including the
//! grid's per-tick build, at the tier sizes an SF snapshot holds: 8, 32
//! and 128 visible cars (UberX averages about 58 over a day and peaks
//! near 109; every other tier stays under 30). `ping_all_sf` measures the
//! whole per-tick measurement hot loop (snapshot + every client ping into
//! a reused buffer) at 1/2/4 worker threads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::{ClientSpec, MeasuredSystem, UberSystem};
use surgescope_geo::{k_nearest_and_l1_scan, GridScratch, Meters, SpatialGrid};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::{SimDuration, SimRng};

fn scatter(n: usize, seed: u64) -> Vec<Meters> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n).map(|_| Meters::new(rng.range_f64(0.0, 8_000.0), rng.range_f64(0.0, 6_000.0))).collect()
}

fn bench_spatial_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial_grid");

    for &n in &[8usize, 32, 128] {
        let pts = scatter(n, 7);
        let grid = SpatialGrid::build_auto(pts.iter().map(|&p| (p, ())).collect());
        let queries = scatter(64, 8);
        let (mut scratch, mut out, mut nearest) = (GridScratch::new(), Vec::new(), Vec::new());

        for k in [8usize, 0] {
            let what = if k == 0 { "nearest_l1" } else { "k_nearest8_and_l1" };
            g.bench_function(&format!("{what}_scan_n{n}"), |b| {
                b.iter(|| {
                    for &q in &queries {
                        black_box(k_nearest_and_l1_scan(pts.iter().copied(), q, k, &mut nearest));
                    }
                })
            });
            g.bench_function(&format!("{what}_grid_n{n}"), |b| {
                b.iter(|| {
                    for &q in &queries {
                        black_box(grid.k_nearest_and_l1_into(q, k, &mut scratch, &mut out));
                    }
                })
            });
        }
        g.bench_function(&format!("grid_build_n{n}"), |b| {
            b.iter(|| black_box(SpatialGrid::build_auto(pts.iter().map(|&p| (p, ())).collect())))
        });
    }

    g.finish();
}

/// An SF-scale system at rush hour plus a client lattice the size the
/// paper deployed (43 clients), mirroring the campaign hot loop.
fn sf_system(threads: usize) -> (UberSystem, Vec<ClientSpec>) {
    let city = CityModel::san_francisco_downtown();
    let spacing = 4.0 * 83.0; // the paper's 4-minute-walk spacing
    let clients: Vec<ClientSpec> = surgescope_geo::grid::cover_polygon(
        &city.measurement_region,
        spacing,
    )
    .into_iter()
    .enumerate()
    .map(|(i, slot)| ClientSpec { key: i as u64, position: slot.position })
    .collect();
    let mut mp = Marketplace::new(city, MarketplaceConfig::default(), 99);
    mp.run_for(SimDuration::hours(9));
    let sys = UberSystem::new(mp, ApiService::new(ProtocolEra::Apr2015, 99))
        .with_parallelism(threads);
    (sys, clients)
}

fn bench_ping_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("ping_all_sf");

    for &threads in &[1usize, 2, 4] {
        g.bench_function(&format!("threads_{threads}"), |b| {
            let (mut sys, clients) = sf_system(threads);
            let mut obs = Vec::new();
            b.iter(|| {
                sys.ping_all_into(&clients, &mut obs);
                black_box(&obs);
            })
        });
    }

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spatial_grid, bench_ping_fanout
}
criterion_main!(benches);
