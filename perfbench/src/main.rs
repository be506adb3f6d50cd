//! The surgescope benchmark: two workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_quick|campaign_sf> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It writes only under `.perfbench/`
//! there: run directories, `results.jsonl` and the traced run's spans. The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod campaign;
mod host;
mod remote;
mod repro;
mod stats;
mod trace;

use host::{json_str, Fingerprint};
use stats::{median, timed_repeats, Summary};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use surgescope_city::CityModel;
use trace::Trace;

const WORKLOADS: [&str; 2] = ["repro_quick", "campaign_sf"];

/// Where the benchmark keeps everything it writes, relative to the
/// repository root.
const STATE_DIR: &str = ".perfbench";

/// Set-ups timed per `repro_quick` pass.
const REPRO_SETUPS: usize = 50;

/// Wall time of one pass of each workload on the 2-core host the
/// benchmark was tuned on, seconds. A run makes `--seconds` over this many
/// passes, so two builds of different speed repeat their pass equally
/// often.
const REPRO_PASS_S: f64 = 13.0;
const CAMPAIGN_PASS_S: f64 = 4.0;

/// The input seeds whose expected output digests are in `expected.tsv`:
/// `FIRST_INPUT` and the `INPUTS - 1` after it.
const FIRST_INPUT: u64 = 2015;
const INPUTS: u64 = 16;

/// Expected output digests, one `output<TAB>input seed<TAB>digest` line
/// each; `#` starts a comment line.
const EXPECTED: &str = include_str!("../expected.tsv");

struct Args {
    workload: &'static str,
    /// The input seed `--seed` selects (see [`input_seed`]).
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The input seed `--seed n` runs: `FIRST_INPUT + (n - FIRST_INPUT) mod
/// INPUTS`, so seeds 2015-2030 run as themselves and every other seed
/// runs one of them, whose expected outputs are known.
fn input_seed(n: u64) -> u64 {
    FIRST_INPUT + (n % INPUTS + INPUTS - FIRST_INPUT % INPUTS) % INPUTS
}

/// The committed digest of `what` at input seed `seed`.
fn expected_digest(table: &str, what: &str, seed: u64) -> Option<String> {
    table.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut f = l.split('\t');
        let hit = f.next() == Some(what) && f.next() == Some(seed.to_string().as_str());
        hit.then(|| f.next().map(str::to_string)).flatten()
    })
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1) as f64),
            "--trace" => trace = Some(num(&value)? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: input_seed(seed.unwrap_or(FIRST_INPUT)),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// One result line plus the detail recorded beside it.
struct Report {
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures kept in `results.jsonl` but not in the result line.
    detail: Vec<(String, f64)>,
}

impl Report {
    fn new() -> Report {
        Report {
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// `<name>.p50`, `<name>.tail` and `<name>.n` of `samples`, scaled
    /// by `scale` into `unit`.
    fn timing(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        self.check(format!("{name} has samples"), !samples.is_empty());
        let s = if samples.is_empty() {
            Summary {
                p50: 0.0,
                tail: 0.0,
                tail_q: 0.0,
                n: 0,
            }
        } else {
            Summary::of(samples)
        };
        self.metric(format!("{name}.p50"), s.p50 * scale, unit);
        self.metric(format!("{name}.tail"), s.tail * scale, unit);
        self.metric(format!("{name}.n"), s.n as f64, "count");
        self.detail.push((format!("{name}.tail_q"), s.tail_q));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    fn record_json(&self, fp: &Fingerprint, workload: &str, trace: bool) -> String {
        let mut checks = String::new();
        for (i, (what, ok)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(checks, "{sep}{}:{ok}", json_str(what));
        }
        let mut detail = String::new();
        for (i, (k, v)) in self.detail.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(detail, "{sep}{}:{v:?}", json_str(k));
        }
        format!(
            "{{\"fingerprint\":{},\"workload\":{},\"trace\":{trace},\"checks\":{{{checks}}},\
             \"detail\":{{{detail}}},\"result\":{}}}",
            fp.to_json(),
            json_str(workload),
            self.result_json()
        )
    }
}

/// Number of passes a run of `seconds` makes of a pass nominally
/// `nominal_s` long: at least one.
fn pass_count(seconds: f64, nominal_s: f64) -> usize {
    (seconds / nominal_s).round().max(1.0) as usize
}

/// Runs `pass` as often as [`pass_count`] says.
fn passes<T>(seconds: f64, nominal_s: f64, pass: impl FnMut() -> T) -> Vec<T> {
    std::iter::repeat_with(pass)
        .take(pass_count(seconds, nominal_s))
        .collect()
}

fn sf() -> CityModel {
    CityModel::san_francisco_downtown()
}

/// The digest every pass of a run agrees on, or `None` when they differ.
fn common<'a>(digests: impl IntoIterator<Item = &'a String>) -> Option<&'a String> {
    let mut it = digests.into_iter();
    let first = it.next()?;
    it.all(|d| d == first).then_some(first)
}

/// Checks `digest` of `what` at input seed `seed` against `expected.tsv`.
/// On a mismatch it prints the line the file would need, for when the
/// change of output is intended.
fn check_expected(r: &mut Report, what: &str, seed: u64, digest: &str) {
    let expected = expected_digest(EXPECTED, what, seed);
    let ok = expected.as_deref() == Some(digest);
    if !ok {
        eprintln!(
            "perfbench: {what} at seed {seed} digests to {digest}, expected {}; \
             expected.tsv line for this output: {what}\t{seed}\t{digest}",
            expected.as_deref().unwrap_or("nothing")
        );
    }
    r.check(format!("{what}: equal to expected.tsv"), ok);
}

fn check_digests(r: &mut Report, what: &str, seed: u64, digests: &[String]) {
    let same = common(digests);
    r.check(
        format!("{what}: identical across the run's passes"),
        same.is_some(),
    );
    if let Some(d) = same {
        check_expected(r, what, seed, d);
    }
}

/// Records the end-to-end metrics: `wall_s` is the fastest pass, for the
/// reason given at [`campaign_end_to_end`], and `setup_s` the median of
/// every set-up the run timed.
fn end_to_end(r: &mut Report, wall_s: f64, ticks_per_s: f64, setup: &[f64]) {
    r.metric("wall_s", wall_s, "s");
    r.metric("ticks_per_s", ticks_per_s, "1/s");
    r.metric("setup_s", median(setup), "s");
    // Recorded, not a metric: on repro_quick the allocator's arena layout
    // makes the peak differ by half between identical runs.
    r.detail.push(("peak_rss_mb".into(), host::peak_rss_mb()));
}

/// End-to-end figures of a run of identical campaign passes, from every
/// set-up time and each pass's per-tick latencies (µs). The campaign's
/// wall time is the fastest pass's tick loop. On a shared host,
/// interference only adds time and comes in phases seconds to minutes
/// long that cover whole passes; the fastest of a fixed number of
/// identical passes is the estimate of their cost that those phases move
/// least.
fn campaign_end_to_end(r: &mut Report, setup: &[f64], ticks: &[Vec<f64>]) {
    let loops: Vec<f64> = ticks.iter().map(|t| t.iter().sum::<f64>() * 1e-6).collect();
    let wall_s = stats::min(&loops);
    let n = ticks.iter().map(Vec::len).min().unwrap_or(0);
    end_to_end(r, wall_s, n as f64 / wall_s, setup);
    let all: Vec<f64> = ticks.iter().flatten().copied().collect();
    let s = Summary::of(&all);
    r.detail.extend([
        ("passes".into(), ticks.len() as f64),
        ("tick_p50_us".into(), s.p50),
        ("tick_tail_us".into(), s.tail),
        ("tick_tail_q".into(), s.tail_q),
        ("ticks".into(), s.n as f64),
    ]);
    for (i, t) in loops.iter().enumerate() {
        r.detail.push((format!("pass{i}.tick_loop_s"), *t));
    }
}

fn repro_quick(a: &Args, dir: &Path) -> Report {
    let mut r = Report::new();
    let jobs = host::nproc();
    let runs = passes(a.seconds, REPRO_PASS_S, || {
        let (setup_s, run) = timed_repeats(REPRO_SETUPS, || repro::setup(dir, a.seed));
        let tasks = repro::plan(&run.ctx);
        let (wall_s, out) = repro::run_pass(&run, jobs);
        (setup_s, wall_s, out, tasks)
    });
    for (_, _, out, tasks) in &runs {
        let tasks = tasks.len();
        r.attempted += (tasks + out.outcomes) as u64;
        r.failed += (26 - out.outcomes) as u64 + out.quarantined;
        r.check("all 26 outcomes and no quarantined task", out.complete());
    }
    let digests: Vec<String> = runs.iter().map(|p| p.2.csv_digest.clone()).collect();
    check_digests(&mut r, "repro_quick.csv", a.seed, &digests);
    let wall: Vec<f64> = runs.iter().map(|p| p.1).collect();
    let setup: Vec<f64> = runs.iter().flat_map(|p| p.0.iter().copied()).collect();
    // The fastest pass, for the reason given at `campaign_end_to_end`.
    let best = stats::min(&wall);
    let ticks = repro::plan_ticks(&runs[0].3) as f64;
    end_to_end(&mut r, best, ticks / best, &setup);
    r.detail.push(("passes".into(), runs.len() as f64));
    for (i, w) in wall.iter().enumerate() {
        r.detail.push((format!("pass{i}.wall_s"), *w));
    }
    r
}

fn campaign_sf(a: &Args) -> Report {
    let mut r = Report::new();
    let cfg = campaign::sf_config(a.seed);
    let runs = passes(a.seconds, CAMPAIGN_PASS_S, || {
        let mut p = campaign::run_pass(sf, &cfg);
        let digest = p.digest();
        p.data = None;
        (p, digest)
    });
    for (p, _) in &runs {
        r.attempted += cfg.hours * 720;
        r.failed += p.failed_ticks;
    }
    let digests: Vec<String> = runs.iter().map(|(_, d)| d.clone()).collect();
    check_digests(&mut r, "campaign_sf.encoded", a.seed, &digests);
    let setup: Vec<f64> = runs
        .iter()
        .flat_map(|(p, _)| p.setup_s.iter().copied())
        .collect();
    let ticks: Vec<Vec<f64>> = runs.into_iter().map(|(p, _)| p.tick_us).collect();
    campaign_end_to_end(&mut r, &setup, &ticks);
    r
}

/// The traced run: every layer group once with spans on, whichever
/// workload is named, so every per-layer metric exists in every traced
/// result. The named workload's group also yields the tracing overhead:
/// traced minus untraced wall time, over untraced.
fn traced(a: &Args, dir: &Path) -> (Report, String) {
    let mut r = Report::new();
    let mut jsonl = String::new();
    let campaign = traced_campaign(a.seed, &mut r, &mut jsonl);
    traced_remote(a.seed, &mut r, &mut jsonl);
    let repro = traced_repro(a, dir, &mut r, &mut jsonl);
    let overhead = match a.workload {
        "campaign_sf" => campaign,
        _ => repro.expect("repro_quick's traced run measures its untraced pass"),
    };
    r.metric("trace.overhead_frac", overhead, "frac");
    (r, jsonl)
}

fn overhead_frac(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s
}

/// campaign_sf's layers. The runner's untraced pass is the reference for
/// the rebuilt loop. Returns the tracing overhead of the tick loop.
fn traced_campaign(seed: u64, r: &mut Report, jsonl: &mut String) -> f64 {
    let cfg = campaign::sf_config(seed);
    let base = campaign::run_pass(sf, &cfg);
    r.check("campaign_sf: runner pass completed", base.data.is_some());
    let mut t = Trace::new();
    let replica = campaign::traced_pass(sf(), &cfg, &mut t);
    r.check(
        "campaign_sf: traced loop measured what the runner measured",
        base.data.as_ref().is_some_and(|d| replica.matches(d)),
    );
    check_expected(r, "campaign_sf.encoded", seed, &base.digest());
    let tick_ns = t.total_ns("campaign.tick") as f64;
    r.timing(
        "campaign.tick_us",
        &t.durations("campaign.tick"),
        1e-3,
        "us",
    );
    let selfs = trace::self_times(t.spans());
    let unattributed: u64 = t
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "campaign.tick")
        .map(|(_, v)| *v)
        .sum();
    r.metric(
        "campaign.unattributed_frac",
        unattributed as f64 / tick_ns,
        "frac",
    );
    for (span, name, scale, unit) in [
        ("marketplace.tick", "marketplace.tick_us", 1e-3, "us"),
        ("api.capture", "api.capture_us", 1e-3, "us"),
        ("core.ping_all", "core.ping_all_us", 1e-3, "us"),
        ("api.ping", "api.ping_ns", 1.0, "ns"),
        ("geo.knn", "geo.knn_ns", 1.0, "ns"),
        ("core.estimate", "core.estimate_ns", 1.0, "ns"),
        ("core.transitions", "core.transitions_ns", 1.0, "ns"),
        ("core.probe", "core.probe_us", 1e-3, "us"),
    ] {
        r.timing(name, &t.durations(span), scale, unit);
    }
    r.attempted += cfg.hours * 720;
    t.write_jsonl("campaign_sf", jsonl);
    overhead_frac(tick_ns * 1e-9, base.tick_us.iter().sum::<f64>() * 1e-6)
}

/// The remote campaign's layers: a server, the in-process reference, one
/// untraced remote pass, the rebuilt loop, then the wire on its own.
fn traced_remote(seed: u64, r: &mut Report, jsonl: &mut String) {
    let rcfg = remote::config(seed);
    let mut s = remote::setup(&rcfg);
    let rbase = remote::run_pass(&s, &rcfg);
    r.check(
        "remote_faulted: remote bytes equal the in-process run's",
        remote::same_bytes(&rbase.pass, &s.reference),
    );
    r.check(
        "remote_faulted: untraced pass had no frame errors and no reconnects",
        rbase.counts.frame_errors == 0 && rbase.counts.reconnects == 0,
    );
    let mut t = Trace::new();
    let (counts, same) = remote::traced_pass(&s, &rcfg, &mut t);
    r.check(
        "remote_faulted: traced loop measured what the in-process run measured",
        same,
    );
    r.check(
        "remote_faulted: no frame errors and no reconnects",
        counts.wire.frame_errors == 0 && counts.wire.reconnects == 0,
    );
    let wire_ok = remote::traced_wire(&rcfg, &mut t);
    r.check("wire: echoed and decoded frames intact", wire_ok);
    s.server.shutdown();
    r.timing("remote.tick_us", &rbase.pass.tick_us, 1.0, "us");
    let ping_all = t.durations("serve.ping_all");
    for (span, name, scale, unit) in [
        ("serve.advance", "serve.advance_us", 1e-3, "us"),
        ("serve.ping_all", "serve.ping_all_us", 1e-3, "us"),
        ("serve.probe", "serve.probe_us", 1e-3, "us"),
        ("wire.echo_rtt", "wire.echo_rtt_us", 1e-3, "us"),
        ("wire.encode", "wire.encode_ns", 1.0, "ns"),
        ("wire.decode", "wire.decode_ns", 1.0, "ns"),
    ] {
        r.timing(name, &t.durations(span), scale, unit);
    }
    let per_client = if ping_all.is_empty() {
        0.0
    } else {
        median(&ping_all) * 1e-3 / counts.clients as f64
    };
    r.metric("serve.ping_us_per_client", per_client, "us");
    for (name, v) in [
        ("pings.delivered", counts.delivered),
        ("pings.delayed", counts.delayed),
        ("pings.dropped", counts.dropped),
        ("transport.max_in_flight", counts.max_in_flight),
        ("serve.requests", counts.wire.requests),
        ("resilience.retries", counts.wire.retries),
        ("resilience.reconnects", counts.wire.reconnects),
    ] {
        r.metric(name, v as f64, "count");
    }
    r.attempted += counts.wire.requests;
    r.failed += counts.wire.failed();
    t.write_jsonl("remote_faulted", jsonl);
}

/// repro_quick's layers: the prefetch plan on the benchmark's workers,
/// every experiment, the taxi validation call by call, and the store.
/// When repro_quick is the named workload, one untraced pass runs first
/// and the tracing overhead of prefetch plus experiments is returned.
fn traced_repro(a: &Args, dir: &Path, r: &mut Report, jsonl: &mut String) -> Option<f64> {
    let jobs = host::nproc();
    let untraced_s = (a.workload == "repro_quick").then(|| {
        let (wall_s, out) = repro::run_pass(&repro::setup(dir, a.seed), jobs);
        r.check("repro_quick: untraced pass complete", out.complete());
        wall_s
    });
    let run = repro::setup(dir, a.seed);
    let mut t = Trace::new();
    let (out, workers, wall_s) = repro::traced_pass(&run, jobs, &mut t);
    r.check(
        "repro_quick: all 26 outcomes and no quarantined task",
        out.complete(),
    );
    check_expected(r, "repro_quick.csv", a.seed, &out.csv_digest);
    r.attempted += 26;
    r.failed += (26 - out.outcomes) as u64 + out.quarantined;
    let prefetch_ns = t.total_ns("experiments.prefetch") as f64;
    let tasks = t.durations("experiments.task");
    r.metric("experiments.prefetch_s", prefetch_ns * 1e-9, "s");
    r.timing("experiments.task_s", &tasks, 1e-9, "s");
    let busy: f64 = tasks.iter().sum();
    r.metric(
        "experiments.worker_idle_frac",
        1.0 - busy / (workers as f64 * prefetch_ns),
        "frac",
    );
    for id in surgescope_experiments::ALL_IDS {
        let ns = t.total_ns(&format!("experiments.run.{id}")) as f64;
        r.metric(format!("experiments.run_ms.{id}"), ns * 1e-6, "ms");
    }
    let metrics = run.cache.metrics_json();
    r.check(
        "taxi: traced validation measured what the cached one did",
        repro::traced_taxi(&run, &mut t),
    );
    r.metric(
        "taxi.trace_gen_ms",
        t.total_ns("taxi.trace_gen") as f64 * 1e-6,
        "ms",
    );
    r.timing("taxi.tick_us", &t.durations("taxi.tick"), 1e-3, "us");
    r.timing(
        "taxi.ping_all_us",
        &t.durations("taxi.ping_all"),
        1e-3,
        "us",
    );
    r.timing(
        "taxi.estimate_us",
        &t.durations("taxi.estimate"),
        1e-3,
        "us",
    );
    let (log_bytes, replayed, replay_ns, replay_ok) = repro::traced_store(&run, &mut t);
    r.check("store: every cached log replays", replay_ok);
    r.metric("store.log_bytes", log_bytes as f64, "bytes");
    r.metric(
        "store.checkpoints",
        repro::sum_key(&metrics, "store.checkpoints") as f64,
        "count",
    );
    r.metric(
        "store.checkpoint_ms",
        repro::sum_key(&metrics, "store.checkpoint.ns") as f64 * 1e-6,
        "ms",
    );
    r.metric(
        "store.replay_ticks_per_s",
        replayed as f64 / (replay_ns as f64 * 1e-9),
        "1/s",
    );
    r.metric(
        "cache.hits",
        repro::sum_key(&metrics, "cache.hits") as f64,
        "count",
    );
    r.metric(
        "cache.misses",
        repro::sum_key(&metrics, "cache.misses") as f64,
        "count",
    );
    t.write_jsonl("repro_quick", jsonl);
    untraced_s.map(|u| overhead_frac(wall_s, u))
}

fn main() {
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    // Every file the program writes stays in this run's directory.
    std::env::remove_var("SURGESCOPE_CACHE_DIR");
    let state = PathBuf::from(STATE_DIR);
    let dir = state.join(format!("run-{}-{}", a.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let fp = Fingerprint::of_this_host(a.seed);

    let report = if a.trace {
        let (report, jsonl) = traced(&a, &dir);
        let spans = state.join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
        if let Err(e) = std::fs::write(&spans, jsonl) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
        report
    } else {
        match a.workload {
            "repro_quick" => repro_quick(&a, &dir),
            _ => campaign_sf(&a),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    for (what, ok) in report.checks.iter().filter(|(_, ok)| !ok) {
        eprintln!("perfbench: check failed: {what} ({ok})");
    }
    let record = report.record_json(&fp, a.workload, a.trace);
    let results = state.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{record}\n").as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", results.display());
    }
    println!("{{\"fingerprint\": {}}}", fp.to_json());
    println!("{}", report.result_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_2015_to_2030_run_as_themselves_and_others_wrap_into_them() {
        for n in FIRST_INPUT..FIRST_INPUT + INPUTS {
            assert_eq!(input_seed(n), n);
        }
        assert_eq!(input_seed(FIRST_INPUT + INPUTS), FIRST_INPUT);
        assert_eq!(input_seed(0), 2016);
        assert_eq!(input_seed(4242), 2018);
        assert!((0..1000).all(|n| (2015..2031).contains(&input_seed(n))));
    }

    #[test]
    fn expected_digests_match_output_and_seed_exactly() {
        let table = "# comment\tcampaign_sf.encoded\t2015\tx\n\
                     campaign_sf.encoded\t2015\taaaa\n\
                     campaign_sf.encoded\t20150\tbbbb\n\
                     repro_quick.csv\t2015\tcccc\n";
        let get = |what, seed| expected_digest(table, what, seed);
        assert_eq!(get("campaign_sf.encoded", 2015).as_deref(), Some("aaaa"));
        assert_eq!(get("campaign_sf.encoded", 20150).as_deref(), Some("bbbb"));
        assert_eq!(get("repro_quick.csv", 2015).as_deref(), Some("cccc"));
        assert_eq!(get("repro_quick.csv", 2016), None);
        assert_eq!(get("campaign_sf", 2015), None);
    }

    #[test]
    fn the_pass_count_depends_on_the_seconds_only() {
        assert_eq!(pass_count(40.0, 4.0), 10);
        assert_eq!(pass_count(40.0, 13.0), 3);
        assert_eq!(pass_count(1.0, 13.0), 1);
    }
}
