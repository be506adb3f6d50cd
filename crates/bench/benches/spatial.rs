//! Benchmarks for the spatial bucket grid and the parallel ping fan-out.
//!
//! `spatial_grid` compares the grid's fused ring-search kernel (nearest-8
//! plus L1-nearest, and L1-nearest alone at `k = 0`) against the
//! brute-force scans it replaced, at tier-inventory sizes typical of a
//! scaled SF world. `ping_all_sf` measures the whole per-tick measurement
//! hot loop (snapshot + every client ping into a reused buffer) at 1/2/4
//! worker threads.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surgescope_api::{ApiService, ProtocolEra};
use surgescope_city::CityModel;
use surgescope_core::{ClientSpec, MeasuredSystem, UberSystem};
use surgescope_geo::{GridScratch, Meters, SpatialGrid};
use surgescope_marketplace::{Marketplace, MarketplaceConfig};
use surgescope_simcore::{SimDuration, SimRng};

fn scatter(n: usize, seed: u64) -> Vec<(Meters, u32)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (Meters::new(rng.range_f64(0.0, 8_000.0), rng.range_f64(0.0, 6_000.0)), i as u32)
        })
        .collect()
}

fn brute_k_nearest(pts: &[(Meters, u32)], pos: Meters, k: usize) -> Vec<u32> {
    let mut v: Vec<(f64, u32)> = pts.iter().map(|(p, id)| (p.dist2(pos), *id)).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v.truncate(k);
    v.into_iter().map(|(_, id)| id).collect()
}

fn brute_nearest_l1(pts: &[(Meters, u32)], pos: Meters) -> Option<u32> {
    let mut best: Option<(f64, u32)> = None;
    for (p, id) in pts {
        let d = (p.x - pos.x).abs() + (p.y - pos.y).abs();
        if best.is_none_or(|(b, _)| d < b) {
            best = Some((d, *id));
        }
    }
    best.map(|(_, id)| id)
}

fn bench_spatial_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial_grid");

    for &n in &[512usize, 4_096] {
        let pts = scatter(n, 7);
        let grid = SpatialGrid::build_auto(pts.clone());
        let queries: Vec<Meters> = scatter(64, 8).into_iter().map(|(p, _)| p).collect();
        let (mut scratch, mut out) = (GridScratch::new(), Vec::new());

        g.bench_function(&format!("k_nearest8_and_l1_grid_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(grid.k_nearest_and_l1_into(q, 8, &mut scratch, &mut out));
                }
            })
        });
        g.bench_function(&format!("k_nearest8_brute_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(brute_k_nearest(&pts, q, 8));
                }
            })
        });
        g.bench_function(&format!("nearest_l1_grid_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(grid.k_nearest_and_l1_into(q, 0, &mut scratch, &mut out));
                }
            })
        });
        g.bench_function(&format!("nearest_l1_brute_n{n}"), |b| {
            b.iter(|| {
                for &q in &queries {
                    black_box(brute_nearest_l1(&pts, q));
                }
            })
        });
        g.bench_function(&format!("build_n{n}"), |b| {
            b.iter(|| black_box(SpatialGrid::build_auto(pts.clone())))
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
