//! Closed-loop load generator: N connections × M requests/second of
//! free-mode pings against a running server, with client-side latency
//! percentiles.

use crate::wire;
use serde::{Serialize, Value};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surgescope_geo::LatLng;
use surgescope_obs::Histogram;

/// Latency histogram bucket bounds, microseconds.
pub const LATENCY_BOUNDS_US: &[u64] =
    &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

/// Shape of a load run.
#[derive(Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections, one thread each.
    pub conns: usize,
    /// Target request rate **per connection** (closed loop: a connection
    /// never has more than one request in flight).
    pub req_per_sec: u64,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Location every ping reports.
    pub location: LatLng,
}

/// Outcome of a load run. Percentiles are exact (computed from the full
/// sorted sample set, not the histogram buckets).
pub struct LoadReport {
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests that failed (I/O, framing, or error responses).
    pub errors: u64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Aggregate successful-request throughput.
    pub requests_per_sec: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 90th percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// The same latencies as an `obs` histogram (for registry adoption).
    pub latency: Histogram,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the load shape against a live server and gathers the report.
///
/// Each connection performs its own HELLO handshake, then issues
/// `REQ_PING_FREE` at the configured pace until the duration elapses.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut samples: Vec<u64> = Vec::new();

    std::thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::new();
        for conn_id in 0..cfg.conns.max(1) {
            let errors = Arc::clone(&errors);
            handles.push(scope.spawn(move || -> Vec<u64> {
                match drive_conn(cfg, conn_id, &errors) {
                    Ok(lat) => lat,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    }
                }
            }));
        }
        for h in handles {
            if let Ok(lat) = h.join() {
                samples.extend(lat);
            }
        }
        Ok(())
    })?;

    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    samples.sort_unstable();
    let latency = Histogram::new(LATENCY_BOUNDS_US);
    for &us in &samples {
        latency.record(us);
    }
    Ok(LoadReport {
        requests: samples.len() as u64,
        errors: errors.load(Ordering::Relaxed),
        wall_secs,
        requests_per_sec: samples.len() as f64 / wall_secs,
        p50_us: percentile(&samples, 0.50),
        p90_us: percentile(&samples, 0.90),
        p99_us: percentile(&samples, 0.99),
        max_us: samples.last().copied().unwrap_or(0),
        latency,
    })
}

/// One connection's closed loop; returns per-request latencies in µs.
fn drive_conn(cfg: &LoadConfig, conn_id: usize, errors: &AtomicU64) -> io::Result<Vec<u64>> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;

    let hello = Value::Map(vec![("proto".into(), wire::PROTO_VERSION.to_value())]);
    wire::write_frame(&mut stream, wire::REQ_HELLO, &hello)?;
    let (kind, _, _) =
        wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).map_err(|e| e.into_io())?;
    if kind != wire::RESP_HELLO {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "handshake refused"));
    }

    let period = if cfg.req_per_sec == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(1.0 / cfg.req_per_sec as f64)
    };
    let ping = Value::Map(vec![
        ("key".into(), (conn_id as u64).to_value()),
        ("lat".into(), cfg.location.lat.to_value()),
        ("lng".into(), cfg.location.lng.to_value()),
    ]);
    let deadline = Instant::now() + cfg.duration;
    let mut latencies = Vec::new();
    let mut next_send = Instant::now();
    while Instant::now() < deadline {
        if period > Duration::ZERO {
            let now = Instant::now();
            if next_send > now {
                std::thread::sleep(next_send - now);
            }
            next_send += period;
        }
        let t0 = Instant::now();
        if wire::write_frame(&mut stream, wire::REQ_PING_FREE, &ping).is_err() {
            errors.fetch_add(1, Ordering::Relaxed);
            break;
        }
        match wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME) {
            Ok((wire::RESP_PING, _, _)) => {
                latencies.push(t0.elapsed().as_micros() as u64);
            }
            Ok(_) | Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    Ok(latencies)
}
