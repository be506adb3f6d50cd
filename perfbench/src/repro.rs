//! `repro_quick`: all 26 experiments, exactly as `repro --quick all`
//! runs them, against a fresh on-disk campaign cache.
//!
//! The untraced pass calls `schedule::prefetch` and then
//! `run_experiment` per id. The traced pass runs the same prefetch plan
//! on the benchmark's own workers so each task gets a span, then replays
//! the taxi validation call by call and reads back the store layer.

use crate::stats::Digest;
use crate::trace::Trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use surgescope_city::{CarType, CityModel};
use surgescope_core::calibration::placement;
use surgescope_core::estimate::{EstimatorConfig, SupplyDemandEstimator};
use surgescope_core::{MeasuredSystem, TaxiSystem};
use surgescope_experiments::cache::{self, CampaignCache};
use surgescope_experiments::schedule::{self, order_longest_first, Prefetch};
use surgescope_experiments::{run_experiment, RunCtx, ALL_IDS};
use surgescope_simcore::{SimDuration, SimTime};
use surgescope_taxi::TraceGenerator;

/// Taxis and days of the quick taxi validation (`CampaignCache::taxi`).
const QUICK_TAXIS: u32 = 150;
const QUICK_TAXI_DAYS: u64 = 1;

/// A prepared, empty run: context, cache and output directory.
pub struct Run {
    pub ctx: RunCtx,
    pub cache: CampaignCache,
    results: PathBuf,
}

/// Prepares a fresh run under `dir` as `repro` does before prefetch: an
/// empty results directory (which also holds the on-disk campaign
/// cache), the run context and an empty cache.
pub fn setup(dir: &Path, seed: u64) -> Run {
    let results = dir.join("results");
    if results.exists() {
        std::fs::remove_dir_all(&results).expect("clear the previous run's results");
    }
    std::fs::create_dir_all(&results).expect("create the results directory");
    let mut ctx = RunCtx::quick(seed);
    ctx.out_dir = Some(results.clone());
    ctx.quiet = true;
    Run {
        ctx,
        cache: CampaignCache::new(),
        results,
    }
}

fn ids() -> Vec<String> {
    ALL_IDS.iter().map(|s| s.to_string()).collect()
}

/// What one pass produced.
pub struct Outputs {
    /// Experiments that returned an outcome.
    pub outcomes: usize,
    /// Prefetch tasks quarantined after panicking.
    pub quarantined: u64,
    /// Digest of every CSV the experiments wrote, in file-name order.
    pub csv_digest: String,
}

impl Outputs {
    fn read(run: &Run, outcomes: usize) -> Outputs {
        let quarantined = run
            .cache
            .registry()
            .snapshot()
            .value("resilience.quarantined");
        Outputs {
            outcomes,
            quarantined: quarantined.unwrap_or(0),
            csv_digest: csv_digest(&run.results),
        }
    }

    pub fn complete(&self) -> bool {
        self.outcomes == ALL_IDS.len() && self.quarantined == 0
    }
}

/// Digest of the `*.csv` files directly under `dir`, sorted by name.
pub fn csv_digest(dir: &Path) -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "csv"));
    files.sort();
    let mut d = Digest::new();
    for f in &files {
        d.part(
            f.file_name()
                .expect("a listed file has a name")
                .as_encoded_bytes(),
        );
        d.part(&std::fs::read(f).unwrap_or_default());
    }
    d.hex()
}

/// The distinct prefetch tasks of all 26 experiments, longest first —
/// the plan `schedule::prefetch` drains.
pub fn plan(ctx: &RunCtx) -> Vec<Prefetch> {
    let mut seen = std::collections::HashSet::new();
    let mut tasks = Vec::new();
    for id in ALL_IDS {
        for need in schedule::needs(id, ctx) {
            let key = match &need {
                Prefetch::Taxi => 0,
                Prefetch::Campaign(city, cfg) => cache::cache_key(&city.model().name, cfg),
            };
            if seen.insert((matches!(need, Prefetch::Taxi), key)) {
                tasks.push(need);
            }
        }
    }
    order_longest_first(&mut tasks, ctx);
    tasks
}

/// Simulated 5-s ticks in a plan.
pub fn plan_ticks(tasks: &[Prefetch]) -> u64 {
    tasks
        .iter()
        .map(|t| match t {
            Prefetch::Taxi => QUICK_TAXI_DAYS * 24 * 720,
            Prefetch::Campaign(_, cfg) => cfg.hours * 720,
        })
        .sum()
}

/// One untraced `repro --quick all`: prefetch at `jobs`, then every
/// experiment in order. Returns the wall time and the outputs.
pub fn run_pass(run: &Run, jobs: usize) -> (f64, Outputs) {
    let t0 = Instant::now();
    schedule::prefetch(&ids(), &run.ctx, &run.cache, jobs);
    let outcomes = ALL_IDS
        .iter()
        .filter_map(|id| run_experiment(id, &run.ctx, &run.cache))
        .count();
    let wall_s = t0.elapsed().as_secs_f64();
    (wall_s, Outputs::read(run, outcomes))
}

/// The traced pass. Spans: `experiments.prefetch` with one
/// `experiments.task` child per task on the worker that ran it, then
/// `experiments.run.<id>` per experiment. Returns the outputs, the
/// prefetch worker count, and the wall time of prefetch plus experiments.
pub fn traced_pass(run: &Run, jobs: usize, trace: &mut Trace) -> (Outputs, usize, f64) {
    let t0 = Instant::now();
    let tasks = plan(&run.ctx);
    let jobs = jobs.clamp(1, tasks.len().max(1));
    let next = AtomicUsize::new(0);
    let prefetch = trace.begin("experiments.prefetch");
    let workers: Vec<Trace> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let mut wt = trace.worker(w as u32 + 1);
                let (tasks, next) = (&tasks, &next);
                s.spawn(move || {
                    while let Some(t) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        wt.time("experiments.task", || match t {
                            Prefetch::Taxi => drop(run.cache.taxi(&run.ctx)),
                            Prefetch::Campaign(city, cfg) => {
                                drop(run.cache.campaign_custom(*city, cfg.clone(), &run.ctx))
                            }
                        });
                    }
                    wt
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefetch worker panicked"))
            .collect()
    });
    trace.end(prefetch);
    for w in workers {
        trace.merge(w);
    }
    let mut outcomes = 0;
    for id in ALL_IDS {
        let name: &'static str = Box::leak(format!("experiments.run.{id}").into_boxed_str());
        outcomes += trace
            .time(name, || run_experiment(id, &run.ctx, &run.cache))
            .is_some() as usize;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    (Outputs::read(run, outcomes), jobs, wall_s)
}

/// The quick taxi validation rebuilt call by call (`Campaign::run_taxi`
/// over `CampaignCache::taxi`'s inputs). Spans: `taxi.trace_gen`
/// (`TraceGenerator::generate`), then per tick `taxi.tick`
/// (`TaxiSystem::advance_tick`), `taxi.ping_all` and `taxi.estimate`
/// (`observe` per client + `end_tick`). Returns true when the estimator
/// matches the cached validation's bit for bit.
pub fn traced_taxi(run: &Run, trace: &mut Trace) -> bool {
    let seed = run.ctx.seed;
    let city = CityModel::manhattan_midtown();
    let gen = TraceGenerator {
        taxis: QUICK_TAXIS,
        days: QUICK_TAXI_DAYS,
        ..Default::default()
    };
    let taxi_trace = trace.time("taxi.trace_gen", || gen.generate(&city, seed ^ 0x7A51));
    let region = city.measurement_region.clone();
    let clients = placement(&region, 150.0);
    let mut sys = TaxiSystem::new(&taxi_trace, region.clone(), seed ^ 0x7A52);
    let cfg = EstimatorConfig {
        edge_margin_m: 75.0,
        short_lived_secs: 45,
        ..Default::default()
    };
    let mut estimator = SupplyDemandEstimator::new(cfg, region, vec![]);
    let mut obs = Vec::new();
    let ticks = QUICK_TAXI_DAYS * 24 * 720;
    for tick in 0..ticks {
        trace.set_tick(Some(tick));
        trace.time("taxi.tick", || sys.advance_tick());
        let now = sys.now();
        let state_t = now.saturating_sub(SimDuration::secs(5));
        trace.time("taxi.ping_all", || sys.ping_all_into(&clients, &mut obs));
        trace.time("taxi.estimate", || {
            for blocks in &obs {
                estimator.observe(state_t, blocks);
            }
            estimator.end_tick(now);
        });
    }
    trace.set_tick(None);
    estimator.finish(SimTime(ticks * 5));
    let cached = run.cache.taxi(&run.ctx);
    estimator.supply_series(CarType::UberT) == cached.estimator.supply_series(CarType::UberT)
        && estimator.death_series(CarType::UberT) == cached.estimator.death_series(CarType::UberT)
}

/// The store layer as the pass left it: event-log bytes on disk, and the
/// replay of every log (span `store.replay` per log). Returns
/// `(log_bytes, replayed_ticks, replay_ns, all_replays_ok)`.
pub fn traced_store(run: &Run, trace: &mut Trace) -> (u64, u64, u64, bool) {
    let dir = cache::cache_dir(&run.ctx).expect("the run has an output directory");
    let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    logs.retain(|p| p.extension().is_some_and(|e| e == "sslog"));
    logs.sort();
    let (mut bytes, mut ticks, mut ok) = (0, 0, !logs.is_empty());
    for log in &logs {
        bytes += std::fs::metadata(log).map_or(0, |m| m.len());
        match trace.time("store.replay", || {
            surgescope_core::persist::replay_campaign(log)
        }) {
            Ok(data) => ticks += data.ticks as u64,
            Err(_) => ok = false,
        }
    }
    (bytes, ticks, trace.total_ns("store.replay"), ok)
}

/// Sum of every `"key":<integer>` in a metrics document.
pub fn sum_key(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_key_adds_exact_key_matches_only() {
        let doc = r#"{"run":{"cache.hits":3},"campaigns":{"a":{"store.checkpoints":2,"store.checkpoint.ns":500},"b":{"store.checkpoints":5}}}"#;
        assert_eq!(sum_key(doc, "store.checkpoints"), 7);
        assert_eq!(sum_key(doc, "store.checkpoint.ns"), 500);
        assert_eq!(sum_key(doc, "cache.hits"), 3);
        assert_eq!(sum_key(doc, "cache.misses"), 0);
    }

    #[test]
    fn csv_digest_covers_names_and_bytes_of_csvs_only() {
        let dir = std::env::temp_dir().join(format!("perfbench-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.csv"), "x,y\n1,2\n").unwrap();
        let one = csv_digest(&dir);
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        assert_eq!(csv_digest(&dir), one, "non-CSV files do not count");
        std::fs::write(dir.join("a.csv"), "x,y\n1,3\n").unwrap();
        assert_ne!(csv_digest(&dir), one, "a changed byte changes the digest");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
