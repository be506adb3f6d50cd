//! `remote_faulted`: the SF campaign shape of `repro --quick` measured
//! over loopback, through 2 lockstep connections to an in-process
//! `Server`, under the reference fault plan. Only the traced run measures
//! it; it is not one of the benchmark's workloads.

use crate::campaign::{self, Pass};
use crate::trace::Trace;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;
use surgescope_api::{ApiService, ProtocolEra, WorldSnapshot};
use surgescope_city::{CarType, CityModel};
use surgescope_core::calibration::placement;
use surgescope_core::estimate::SupplyDemandEstimator;
use surgescope_core::persist::campaign_encoded;
use surgescope_core::{
    CampaignConfig, CampaignData, CampaignRunner, MeasuredSystem, RemoteMeasuredSystem,
    RemoteOptions, RemoteWorldSpec, StoreHooks,
};
use surgescope_marketplace::{Marketplace, MarketplaceConfig, SurgePolicy};
use surgescope_serve::{wire, ServeConfig, Server};
use surgescope_simcore::{FaultPlan, SimDuration};

/// Lockstep connections of the remote party.
pub const CONNS: usize = 2;

/// Simulated hours of one remote campaign.
const HOURS: u64 = 1;

/// The reference fault plan: 5% drops, and 15% delays of up to 20 s.
pub const REFERENCE_FAULTS: FaultPlan = FaultPlan {
    drop_chance: 0.05,
    delay_chance: 0.15,
    max_delay_secs: 20,
};

/// The `remote_faulted` configuration: `repro --quick`'s SF shape
/// (scale 0.4), one hour, the reference fault plan. Parallelism only
/// applies to the in-process reference run.
pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        hours: HOURS,
        era: ProtocolEra::Apr2015,
        estimator: Default::default(),
        spacing_override_m: None,
        scale: 0.4,
        surge_policy: SurgePolicy::Threshold,
        parallelism: 1,
        faults: REFERENCE_FAULTS,
        store: StoreHooks::none(),
    }
}

fn city() -> CityModel {
    CityModel::san_francisco_downtown()
}

/// A loopback server plus the in-process run of the same campaign.
pub struct Setup {
    pub server: Server,
    pub reference: CampaignData,
}

/// Binds a fresh server and runs the in-process reference campaign.
pub fn setup(cfg: &CampaignConfig) -> Setup {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let reference = campaign::run_pass(city, cfg)
        .data
        .expect("in-process reference run");
    Setup { server, reference }
}

/// One remote campaign. `Pass::setup_s` is the connect (HELLO, OPEN and
/// the JOINs); `counts` holds the wire health read after the campaign.
pub struct RemotePass {
    pub pass: Pass,
    pub counts: WireCounts,
}

/// Wire operations attempted and the ones that went wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCounts {
    /// Requests the server read (`serve.frames_in`).
    pub requests: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub frame_errors: u64,
}

impl WireCounts {
    pub fn failed(&self) -> u64 {
        self.retries + self.reconnects + self.frame_errors
    }
}

/// Runs the remote campaign against `s.server` through the runner.
pub fn run_pass(s: &Setup, cfg: &CampaignConfig) -> RemotePass {
    let addr = s.server.local_addr().to_string();
    let before = s.server.metrics().frames_in.get();
    let t0 = Instant::now();
    let mut runner =
        CampaignRunner::new_remote_with(city(), cfg, &addr, CONNS, RemoteOptions::default())
            .expect("connect the lockstep party");
    let setup_s = t0.elapsed().as_secs_f64();
    let total = runner.ticks_total();
    let mut tick_us = Vec::with_capacity(total);
    let mut failed_ticks = 0;
    for _ in 0..total {
        let t = Instant::now();
        let ok = runner.tick().is_ok();
        tick_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok {
            failed_ticks += 1;
            break;
        }
    }
    let snap = runner.metrics_snapshot();
    let data = if failed_ticks == 0 {
        runner.finish().ok()
    } else {
        None
    };
    let n = |k: &str| snap.value(k).unwrap_or(0);
    let counts = WireCounts {
        requests: s.server.metrics().frames_in.get() - before,
        retries: n("resilience.retries"),
        reconnects: n("resilience.reconnects"),
        frame_errors: s.server.metrics().frame_errors.get(),
    };
    RemotePass {
        pass: Pass {
            setup_s: vec![setup_s],
            tick_us,
            failed_ticks,
            data,
        },
        counts,
    }
}

/// True when the remote campaign's bytes equal the in-process run's.
pub fn same_bytes(remote: &Pass, reference: &CampaignData) -> bool {
    remote
        .data
        .as_ref()
        .is_some_and(|d| campaign_encoded(d) == campaign_encoded(reference))
}

/// Counts the traced remote loop reads from the client's registry.
pub struct TracedCounts {
    pub clients: usize,
    pub delivered: u64,
    pub delayed: u64,
    pub dropped: u64,
    pub max_in_flight: u64,
    pub wire: WireCounts,
}

/// The remote campaign loop rebuilt over `RemoteMeasuredSystem`. Spans
/// per tick: `serve.tick` with children `serve.advance` (the barrier
/// round trip), `serve.ping_all`, `serve.estimate` (`observe` per
/// client, then `end_tick`) and, once per interval, `serve.probe` (price
/// and time probe of every area). Returns the counts and whether the estimator
/// matches the reference run's bit for bit.
pub fn traced_pass(s: &Setup, cfg: &CampaignConfig, trace: &mut Trace) -> (TracedCounts, bool) {
    let city = campaign::scaled(city(), cfg.scale);
    let spec = RemoteWorldSpec {
        city: &city,
        seed: cfg.seed,
        era: cfg.era,
        surge_policy: cfg.surge_policy,
    };
    let addr = s.server.local_addr().to_string();
    let before = s.server.metrics().frames_in.get();
    let mut sys =
        RemoteMeasuredSystem::connect_with(&addr, &spec, cfg.faults, CONNS, Default::default())
            .expect("connect the lockstep party");
    let reg = surgescope_obs::MetricsRegistry::new();
    sys.register_metrics(&reg);
    let clients = placement(&city.measurement_region, city.client_spacing_m);
    let polys: Vec<_> = city.areas.iter().map(|a| a.polygon.clone()).collect();
    let centroids: Vec<_> = polys.iter().map(|p| p.centroid()).collect();
    let mut estimator =
        SupplyDemandEstimator::new(cfg.estimator, city.measurement_region.clone(), polys);
    let mut obs = Vec::new();
    for tick in 0..cfg.hours * 720 {
        trace.set_tick(Some(tick));
        let span = trace.begin("serve.tick");
        trace.time("serve.advance", || sys.advance_tick());
        let now = sys.now();
        let state_t = now.saturating_sub(SimDuration::secs(5));
        trace.time("serve.ping_all", || sys.ping_all_into(&clients, &mut obs));
        trace.time("serve.estimate", || {
            for blocks in &obs {
                estimator.observe(state_t, blocks);
            }
            estimator.end_tick(now);
        });
        if now.seconds_into_surge_interval() == campaign::PROBE_OFFSET_SECS {
            trace.time("serve.probe", || {
                for (ai, c) in centroids.iter().enumerate() {
                    let loc = city.projection.to_latlng(*c);
                    let account = 1_000_000 + ai as u64;
                    let _ = sys.probe_price(account, loc);
                    let _ = sys.probe_time(account, loc);
                }
            });
        }
        trace.end(span);
    }
    trace.set_tick(None);
    estimator.finish(sys.now());
    let healthy = sys.fault().is_none();
    // FINISH is the last request: the server's frame count is final after it.
    let finished = sys.finish().is_ok();
    let snap = reg.snapshot();
    let n = |k: &str| snap.value(k).unwrap_or(0);
    let counts = TracedCounts {
        clients: clients.len(),
        delivered: n("pings.delivered"),
        delayed: n("pings.delayed"),
        dropped: n("pings.dropped"),
        max_in_flight: n("transport.max_in_flight"),
        wire: WireCounts {
            requests: s.server.metrics().frames_in.get() - before,
            retries: n("resilience.retries"),
            reconnects: n("resilience.reconnects"),
            frame_errors: s.server.metrics().frame_errors.get(),
        },
    };
    let same = estimator.supply_series(CarType::UberX)
        == s.reference.estimator.supply_series(CarType::UberX);
    (counts, healthy && finished && same)
}

/// A real pingClient exchange's bytes: the request a remote client sends
/// and the response frame the server answers with.
fn ping_exchange(cfg: &CampaignConfig) -> (Vec<u8>, Vec<u8>) {
    let city = campaign::scaled(city(), cfg.scale);
    let mut mp = Marketplace::new(city.clone(), MarketplaceConfig::default(), cfg.seed);
    mp.run_for(SimDuration::hours(1));
    let snap = WorldSnapshot::of(&mp);
    let loc = city
        .projection
        .to_latlng(city.measurement_region.centroid());
    let resp = ApiService::new(cfg.era, cfg.seed).ping_client(&snap, 7, loc);
    let req = serde::Value::Map(vec![
        ("campaign".into(), 1u64.to_value()),
        ("key".into(), 7u64.to_value()),
        ("lat".into(), loc.lat.to_value()),
        ("lng".into(), loc.lng.to_value()),
    ]);
    (
        wire::frame_bytes(wire::REQ_PING, &req),
        wire::frame_bytes(wire::RESP_PING, &resp.to_value()),
    )
}

/// Round trips and codec calls timed by [`traced_wire`].
const WIRE_SAMPLES: usize = 5000;

/// The wire without a server behind it. Spans: `wire.echo_rtt` — the
/// PING request written to a loopback echo thread owned by the
/// benchmark, which answers with a pre-rendered PING response frame —
/// and `wire.encode` / `wire.decode` (`wire::frame_bytes` /
/// `wire::decode_body`) of that response. Returns true when every
/// echoed and decoded frame is intact.
pub fn traced_wire(cfg: &CampaignConfig, trace: &mut Trace) -> bool {
    let (req, resp) = ping_exchange(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let (req_len, reply) = (req.len(), resp.clone());
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = vec![0u8; req_len];
        for _ in 0..WIRE_SAMPLES {
            s.read_exact(&mut buf)?;
            s.write_all(&reply)?;
        }
        Ok(())
    });
    let mut ok = true;
    {
        let mut c = TcpStream::connect(addr).expect("connect echo thread");
        c.set_nodelay(true).expect("disable Nagle");
        let mut back = vec![0u8; resp.len()];
        for _ in 0..WIRE_SAMPLES {
            let r = trace.time("wire.echo_rtt", || {
                c.write_all(&req).and_then(|()| c.read_exact(&mut back))
            });
            ok &= r.is_ok() && back == resp;
            if !ok {
                break;
            }
        }
    }
    ok &= echo.join().is_ok_and(|r| r.is_ok());
    let value = wire::decode_body(&resp[8..]).map(|(_, v)| v);
    ok &= value.is_ok();
    if let Ok(v) = value {
        for _ in 0..WIRE_SAMPLES {
            let bytes = trace.time("wire.encode", || wire::frame_bytes(wire::RESP_PING, &v));
            ok &= trace
                .time("wire.decode", || wire::decode_body(&bytes[8..]))
                .is_ok();
        }
    }
    ok
}
