//! Adapters between the measurement fleet and the systems it can measure.
//!
//! The methodology is system-agnostic: §3.5 validates the *same* client
//! logic against a taxi replay before trusting its Uber numbers. The
//! [`MeasuredSystem`] trait captures the minimal contract (advance one
//! 5-second tick; answer a batch of client pings), with implementations
//! for the simulated marketplace ([`UberSystem`]) and the taxi replay
//! ([`TaxiSystem`]).

use crate::observe::{ClientSpec, ObservedCar, TypeObservation};
use std::sync::{mpsc, Arc};
use surgescope_api::{
    ApiService, JitterWindow, PingConfig, PingScratch, SnapshotArena, WorldSnapshot,
    NEAREST_CARS_SHOWN,
};
use surgescope_city::CarType;
use surgescope_geo::LocalProjection;
use surgescope_marketplace::Marketplace;
use surgescope_obs::{Counter, MetricsRegistry, Timer};
use surgescope_simcore::{ticks_late, FaultOutcome, FaultPlan, SimRng, SimTime, Transport};
use surgescope_taxi::{path_displacement, TaxiReplay, TaxiTrace};

/// Telemetry handles owned by an [`UberSystem`]: fault-outcome counters
/// for the ping fan-out plus wall-clock timers for snapshot capture and
/// the ping pipeline. Counter totals come from the serial fault pre-pass,
/// so they are identical at any `parallelism`; the timers land in the
/// snapshot's timing section.
#[derive(Debug, Clone, Default)]
pub struct SystemMetrics {
    /// Pings whose response reached the client within its send tick.
    pub pings_delivered: Counter,
    /// Pings answered but parked in the transport queue (`Delay` faults).
    pub pings_delayed: Counter,
    /// Pings lost outright (`Drop` faults).
    pub pings_dropped: Counter,
    /// Wall clock spent (re)capturing the per-tick world snapshot.
    pub capture: Timer,
    /// Wall clock spent in `ping_all_into` (fault draws, fan-out, merge).
    pub ping: Timer,
}

/// Anything the client fleet can measure.
pub trait MeasuredSystem {
    /// Advances the system by one 5-second tick.
    fn advance_tick(&mut self);

    /// Current system time.
    fn now(&self) -> SimTime;

    /// Answers one ping per client, in order. Positions are planar.
    ///
    /// `out` is resized to `clients.len()` and overwritten slot by slot;
    /// passing last tick's buffer back in lets implementations reuse the
    /// per-client block and car vectors instead of reallocating them
    /// every tick. The contents are byte-identical to a fresh buffer.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>);
}

/// The simulated ride-sharing marketplace behind its protocol layer.
pub struct UberSystem {
    /// The world. Public so experiments can consult ground truth after a
    /// campaign (the paper could not; we can score ourselves).
    pub marketplace: Marketplace,
    /// The protocol endpoint used by the fleet.
    pub api: ApiService,
    /// Transport fault injection between clients and the service
    /// (smoltcp-style; [`FaultPlan::none`] by default). A dropped ping
    /// yields no observation blocks for that client this tick, ever; a
    /// delayed ping is answered against the send-time snapshot and parked
    /// in [`UberSystem::transport`] until its delivery tick.
    faults: FaultPlan,
    fault_rng: SimRng,
    /// In-flight delayed responses, keyed by delivery tick. Drained at the
    /// top of every `ping_all_into`; late arrivals append to the destination
    /// client's observation vector in `(sent_tick, client)` order.
    transport: Transport<Vec<TypeObservation>>,
    /// Worker threads for the per-client fan-out in `ping_all_into`; 1 means
    /// fully serial. Any value produces bit-identical observations: fault
    /// draws happen on a serial pre-pass, each ping is a pure function
    /// of the tick snapshot written back by client index, and the
    /// transport queue is fed and drained serially in client order.
    parallelism: usize,
    /// The fan-out worker pool, created lazily on the first parallel
    /// `ping_all_into` and reused for the rest of the campaign (previously a
    /// fresh `thread::scope` spawned `parallelism` OS threads per tick).
    pool: Option<PingPool>,
    /// This tick's snapshot, shared between `ping_all_into` and any
    /// same-tick probes (campaign estimates, experiment price probes),
    /// and recycled into next tick's by `advance_tick`.
    snaps: SnapshotArena,
    /// This tick's snapshot rendered car by car, shared with pool workers
    /// by `Arc`. Re-rendered in place on the first `ping_all_into` after
    /// each capture (`table_fresh` is cleared when the world ticks).
    table: Arc<RenderTable>,
    table_fresh: bool,
    /// Each client slot's consistency-bug window for the current
    /// interval, as `(client key, interval, window)`.
    windows: Vec<(u64, u64, Option<JitterWindow>)>,
    /// Query scratch for the serial ping path (pool workers own theirs).
    scratch: PingScratch,
    /// Reused fault-outcome buffer for the serial pre-pass.
    outcomes: Vec<FaultOutcome>,
    /// Retired observation blocks. A tier that drops out of the snapshot
    /// (zero visible cars) shrinks every client's block list; parking the
    /// surplus blocks here — `cars` capacity intact — and reclaiming them
    /// when the tier returns keeps the serial ping path allocation-free
    /// across tier-count fluctuations, not just in the strict steady
    /// state.
    spare_blocks: Vec<TypeObservation>,
    /// Fan-out telemetry (fault-outcome counters + capture/ping timers).
    metrics: SystemMetrics,
}

/// Every visible car of one tick's snapshot, rendered once as a client
/// records it: reported (perturbed) position projected to the city's
/// planar frame, and path displacement. A tick shows the same few dozen
/// cars to every client — each car about 17–20 times in an SF tick — so
/// pings copy rows of this table instead of rendering per sighting.
#[derive(Debug, Clone, Default)]
struct RenderTable {
    /// Rendered cars, tier after tier in [`WorldSnapshot::tiers`] order,
    /// each tier's cars in snapshot order.
    cars: Vec<ObservedCar>,
    /// Tier `t`'s rows are `cars[starts[t]..starts[t + 1]]`.
    starts: Vec<usize>,
}

impl RenderTable {
    /// Re-renders `snap` in place, reusing both buffers.
    fn render(&mut self, snap: &WorldSnapshot, ping: &PingConfig, proj: &LocalProjection) {
        let now = snap.now();
        self.cars.clear();
        self.starts.clear();
        self.starts.push(0);
        for (_, cars) in snap.tiers() {
            self.cars.extend(cars.iter().map(|c| ObservedCar {
                id: c.id,
                position: proj.to_meters(ping.reported_latlng(c, now)),
                displacement: c.path.displacement(proj),
            }));
            self.starts.push(self.cars.len());
        }
    }

    /// Tier `t`'s rendered cars, in snapshot order.
    fn tier(&self, t: usize) -> &[ObservedCar] {
        &self.cars[self.starts[t]..self.starts[t + 1]]
    }
}

/// What every ping of one tick shares.
struct TickPing<'a> {
    ping: &'a PingConfig,
    snap: &'a WorldSnapshot,
    table: &'a RenderTable,
    proj: &'a LocalProjection,
    /// The interval's client propagation delay.
    delay: u64,
}

/// One chunk of a tick's fan-out, shipped to a pool worker.
struct PingJob {
    snap: Arc<WorldSnapshot>,
    table: Arc<RenderTable>,
    ping: PingConfig,
    proj: LocalProjection,
    delay: u64,
    clients: Arc<Vec<ClientSpec>>,
    windows: Arc<Vec<Option<JitterWindow>>>,
    outcomes: Arc<Vec<FaultOutcome>>,
    /// Client range `start..end` this job covers.
    start: usize,
    end: usize,
    /// Chunk ordinal — results are written back at
    /// `chunk * chunk_size + offset`, so arrival order is irrelevant.
    chunk: usize,
}

/// A persistent worker pool for the per-client ping fan-out. Workers idle
/// on their job channels between ticks; dropping the pool closes the
/// channels and joins every thread.
struct PingPool {
    job_txs: Vec<mpsc::Sender<PingJob>>,
    result_rx: mpsc::Receiver<(usize, Vec<Vec<TypeObservation>>)>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PingPool {
    fn new(threads: usize) -> Self {
        let (result_tx, result_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (job_tx, job_rx) = mpsc::channel::<PingJob>();
            let result_tx = result_tx.clone();
            workers.push(std::thread::spawn(move || {
                // Per-worker scratch: every ping on this thread reuses
                // the same candidate and index buffers.
                let mut scratch = PingScratch::new();
                for job in job_rx {
                    let tick = TickPing {
                        ping: &job.ping,
                        snap: &job.snap,
                        table: &job.table,
                        proj: &job.proj,
                        delay: job.delay,
                    };
                    let mut out = Vec::with_capacity(job.end - job.start);
                    for i in job.start..job.end {
                        // A fresh response has no blocks to retire, so
                        // its spare pool stays empty.
                        let mut resp = Vec::new();
                        ping_one_into(
                            &tick,
                            &job.clients[i],
                            job.windows[i],
                            job.outcomes[i],
                            &mut scratch,
                            &mut Vec::new(),
                            &mut resp,
                        );
                        out.push(resp);
                    }
                    if result_tx.send((job.chunk, out)).is_err() {
                        return;
                    }
                }
            }));
            job_txs.push(job_tx);
        }
        PingPool { job_txs, result_rx, workers }
    }

    fn threads(&self) -> usize {
        self.job_txs.len()
    }

    /// Fans `clients` out over the workers in contiguous chunks and
    /// reassembles the answers in client order — every byte of the result
    /// matches the serial path regardless of scheduling.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        snap: &Arc<WorldSnapshot>,
        table: &Arc<RenderTable>,
        ping: PingConfig,
        proj: LocalProjection,
        delay: u64,
        clients: &[ClientSpec],
        windows: &[(u64, u64, Option<JitterWindow>)],
        outcomes: &[FaultOutcome],
    ) -> Vec<Vec<TypeObservation>> {
        let n = clients.len();
        let chunk_size = n.div_ceil(self.threads());
        let clients = Arc::new(clients.to_vec());
        let windows = Arc::new(windows.iter().map(|&(_, _, w)| w).collect());
        let outcomes = Arc::new(outcomes.to_vec());
        let mut chunks = 0;
        for (i, start) in (0..n).step_by(chunk_size).enumerate() {
            let job = PingJob {
                snap: Arc::clone(snap),
                table: Arc::clone(table),
                // Arc-handle bump (shared jitter counter), not a deep copy.
                ping: ping.clone(),
                proj,
                delay,
                clients: Arc::clone(&clients),
                windows: Arc::clone(&windows),
                outcomes: Arc::clone(&outcomes),
                start,
                end: (start + chunk_size).min(n),
                chunk: i,
            };
            self.job_txs[i].send(job).expect("ping worker exited");
            chunks += 1;
        }
        let mut answered: Vec<Vec<TypeObservation>> = Vec::new();
        answered.resize_with(n, Vec::new);
        for _ in 0..chunks {
            let (chunk, results) = self.result_rx.recv().expect("ping worker exited");
            for (j, r) in results.into_iter().enumerate() {
                answered[chunk * chunk_size + j] = r;
            }
        }
        answered
    }
}

impl Drop for PingPool {
    fn drop(&mut self) {
        self.job_txs.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl UberSystem {
    /// Couples a marketplace with a protocol endpoint. The fault RNG is
    /// derived from the marketplace's root seed (formerly a hardcoded
    /// constant, which made every campaign share one fault pattern).
    pub fn new(marketplace: Marketplace, api: ApiService) -> Self {
        let fault_rng =
            SimRng::seed_from_u64(marketplace.seed()).split("transport-faults");
        UberSystem {
            marketplace,
            api,
            faults: FaultPlan::none(),
            fault_rng,
            transport: Transport::new(),
            parallelism: 1,
            pool: None,
            snaps: SnapshotArena::new(),
            table: Arc::default(),
            table_fresh: false,
            windows: Vec::new(),
            scratch: PingScratch::new(),
            outcomes: Vec::new(),
            spare_blocks: Vec::new(),
            metrics: SystemMetrics::default(),
        }
    }

    /// This system's own telemetry handles.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }

    /// Registers every instrument this system (and its layers) owns into
    /// `reg` under stable names. Call after construction is complete —
    /// in particular after any [`UberSystem::set_transport`] /
    /// [`ApiService::set_limiter`] restore calls, which install fresh
    /// counter cells.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        reg.adopt_counter("pings.delivered", &self.metrics.pings_delivered);
        reg.adopt_counter("pings.delayed", &self.metrics.pings_delayed);
        reg.adopt_counter("pings.dropped", &self.metrics.pings_dropped);
        reg.adopt_timer("phase.capture", &self.metrics.capture);
        reg.adopt_timer("phase.ping", &self.metrics.ping);
        self.marketplace.tick_timers().register(reg);
        self.transport.metrics().register(reg);
        reg.adopt_counter("api.rate_limited", self.api.limiter().throttled());
        reg.adopt_counter("api.jitter_window_hits", self.api.jitter_hits());
    }

    /// The world snapshot for the current tick, captured on first use and
    /// shared (via `Arc`) by every consumer until the next `advance_tick`
    /// — `ping_all_into` and same-tick probes see literally the same object.
    pub fn tick_snapshot(&mut self) -> Arc<WorldSnapshot> {
        // `phase.capture` times real captures only, not same-tick reuse.
        let _span = (!self.snaps.is_captured()).then(|| self.metrics.capture.start());
        self.snaps.snapshot(&self.marketplace)
    }

    /// Enables transport fault injection on client pings. Panics on an
    /// invalid plan (probabilities outside `[0, 1]` or NaN) — this is the
    /// boundary where struct-literal plans enter the system.
    pub fn with_faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.faults = plan.validated();
        self.fault_rng = SimRng::seed_from_u64(seed).split("transport-faults");
        self
    }

    /// Number of delayed responses currently in flight (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.transport.in_flight()
    }

    /// Sets the `ping_all` worker-thread count (clamped to at least 1).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    fn projection(&self) -> LocalProjection {
        self.marketplace.city().projection
    }

    /// Fault plan in force (checkpoint access).
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Transport fault RNG (checkpoint access).
    pub fn fault_rng(&self) -> &SimRng {
        &self.fault_rng
    }

    /// Restores the fault RNG mid-stream (checkpoint resume).
    pub fn set_fault_rng(&mut self, rng: SimRng) {
        self.fault_rng = rng;
    }

    /// In-flight delayed responses (checkpoint access).
    pub fn transport(&self) -> &Transport<Vec<TypeObservation>> {
        &self.transport
    }

    /// Restores the in-flight queue (checkpoint resume).
    pub fn set_transport(&mut self, transport: Transport<Vec<TypeObservation>>) {
        self.transport = transport;
    }
}

/// Refreshes each client slot's cached consistency-bug window for
/// `interval`. An entry is recomputed only when the interval or the
/// client in its slot changed, so a fixed fleet computes each window once
/// per interval.
fn refresh_windows(
    cache: &mut Vec<(u64, u64, Option<JitterWindow>)>,
    ping: &PingConfig,
    clients: &[ClientSpec],
    interval: u64,
) {
    cache.truncate(clients.len());
    for (i, c) in clients.iter().enumerate() {
        if cache.get(i).is_some_and(|&(key, at, _)| key == c.key && at == interval) {
            continue;
        }
        let entry = (c.key, interval, ping.client_window(c.key, interval));
        match cache.get_mut(i) {
            Some(slot) => *slot = entry,
            None => cache.push(entry),
        }
    }
}

/// Answers (or drops) one client's ping against the tick snapshot into
/// `out`. The serial path, the delayed-send path and every pool worker
/// run exactly this function, and its observations are byte-identical to
/// converting a full `ping_client` wire response (regression-tested) — it
/// just skips materializing the response, copying each shown car's row
/// from the tick's render table.
///
/// `out` is overwritten block by block, reusing its per-tier `cars`
/// vectors. Clients see the same tier list every tick, so in steady state
/// nothing here allocates; when the tier count shrinks the surplus blocks
/// retire into `spare`, and a growing tier count reclaims from it before
/// allocating.
fn ping_one_into(
    tick: &TickPing<'_>,
    c: &ClientSpec,
    window: Option<JitterWindow>,
    outcome: FaultOutcome,
    scratch: &mut PingScratch,
    spare: &mut Vec<TypeObservation>,
    out: &mut Vec<TypeObservation>,
) {
    let mut n = 0;
    if outcome != FaultOutcome::Drop {
        // Delivered now or later, the answer is frozen against the
        // send-time snapshot — a delayed response carries stale data.
        // (A dropped ping is never answered: nothing to compute.)
        let loc = tick.proj.to_latlng(c.position);
        tick.ping.ping_visit(tick.snap, loc, tick.delay, window, scratch, |tier| {
            if n == out.len() {
                out.push(spare.pop().unwrap_or_else(|| TypeObservation {
                    car_type: tier.car_type,
                    // Full capacity up front: a tier shows at most
                    // NEAREST_CARS_SHOWN cars, so this vector never
                    // grows again even as the local fleet fills in.
                    cars: Vec::with_capacity(NEAREST_CARS_SHOWN),
                    ewt_min: 0.0,
                    surge: 0.0,
                }));
            }
            let block = &mut out[n];
            block.car_type = tier.car_type;
            block.ewt_min = tier.ewt_min;
            block.surge = tier.surge;
            block.cars.clear();
            let rows = tick.table.tier(tier.tier);
            block.cars.extend(tier.nearest().map(|i| rows[i]));
            n += 1;
        });
    }
    while out.len() > n {
        spare.push(out.pop().expect("len > n"));
    }
}

impl MeasuredSystem for UberSystem {
    fn advance_tick(&mut self) {
        // Pings and probes drop their snapshot handles within the tick,
        // so the arena reclaims the shell before the world moves.
        self.snaps.release();
        self.table_fresh = false;
        self.marketplace.tick();
        self.transport.advance_tick();
    }

    fn now(&self) -> SimTime {
        self.marketplace.now()
    }

    /// Answers this tick's pings and merges in any delayed responses that
    /// are due. Per client the returned vector is ordered by *arrival*:
    /// the fresh response first (its round trip is negligible, it lands at
    /// the top of the tick), then late messages in send order — so the
    /// last block of a tier is what the client app displays at the end of
    /// the tick, and a stale response genuinely displaces fresh data on
    /// the screen, which is the §5.2 staleness channel.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        let _ping_span = self.metrics.ping.start();
        let proj = self.projection();
        let snap = self.tick_snapshot();
        let tick_secs = self.marketplace.config().tick_secs;

        // Serial pre-pass: fault draws consume `fault_rng` in client order,
        // so the fault pattern is independent of the thread count. The
        // outcome buffer is reused across ticks.
        let faults = self.faults;
        let fault_rng = &mut self.fault_rng;
        self.outcomes.clear();
        self.outcomes.extend(clients.iter().map(|_| {
            if faults.is_none() {
                FaultOutcome::Deliver
            } else {
                faults.decide(fault_rng)
            }
        }));
        // Tally the draws locally, then publish in three atomic adds —
        // the counts come from the serial pre-pass, so they are the same
        // at any parallelism.
        let (mut delivered, mut delayed, mut dropped) = (0u64, 0u64, 0u64);
        for oc in &self.outcomes {
            match oc {
                FaultOutcome::Deliver => delivered += 1,
                FaultOutcome::Delay(_) => delayed += 1,
                FaultOutcome::Drop => dropped += 1,
            }
        }
        self.metrics.pings_delivered.add(delivered);
        self.metrics.pings_delayed.add(delayed);
        self.metrics.pings_dropped.add(dropped);

        let ping = self.api.ping_config();
        if !self.table_fresh {
            // Uniquely owned except when a pool worker still holds last
            // tick's table; only then does `make_mut` copy it.
            Arc::make_mut(&mut self.table).render(&snap, &ping, &proj);
            self.table_fresh = true;
        }
        let interval = snap.now().surge_interval();
        refresh_windows(&mut self.windows, &ping, clients, interval);
        let delay = ping.client_delay(interval);
        let threads = self.parallelism.min(clients.len().max(1)).max(1);
        out.resize_with(clients.len(), Vec::new);
        out.truncate(clients.len());
        if threads <= 1 {
            // Serial path: answer straight into the caller's slots,
            // reusing their block/car vectors tick over tick. A delayed
            // response goes into a fresh vector (it must outlive this tick
            // inside the in-flight queue), built from the slot's retired
            // blocks, and the slot is left empty.
            let tick =
                TickPing { ping: &ping, snap: &snap, table: &self.table, proj: &proj, delay };
            let scratch = &mut self.scratch;
            let transport = &mut self.transport;
            let spare = &mut self.spare_blocks;
            let fresh = clients.iter().zip(&self.windows).zip(&self.outcomes).zip(out.iter_mut());
            for (i, (((c, &(_, _, w)), &oc), slot)) in fresh.enumerate() {
                match oc {
                    FaultOutcome::Deliver => ping_one_into(&tick, c, w, oc, scratch, spare, slot),
                    FaultOutcome::Delay(d) => {
                        spare.append(slot);
                        let mut resp = Vec::new();
                        ping_one_into(&tick, c, w, oc, scratch, spare, &mut resp);
                        transport.send_delayed(i, ticks_late(d, tick_secs), resp);
                    }
                    FaultOutcome::Drop => spare.append(slot),
                }
            }
        } else {
            // Fan out over contiguous client chunks on the persistent
            // pool; results land by chunk index, so ordering (and every
            // byte of the result) matches the serial path.
            if self.pool.as_ref().is_none_or(|p| p.threads() != threads) {
                self.pool = Some(PingPool::new(threads));
            }
            let pool = self.pool.as_ref().expect("just populated");
            let mut answered = pool.run(
                &snap,
                &self.table,
                ping,
                proj,
                delay,
                clients,
                &self.windows,
                &self.outcomes,
            );

            // Serial post-pass in client order: route each answered
            // response to its destination — now, or the in-flight queue.
            for (i, (resp, outcome)) in answered.drain(..).zip(&self.outcomes).enumerate() {
                match outcome {
                    FaultOutcome::Deliver => out[i] = resp,
                    FaultOutcome::Delay(d) => {
                        out[i].clear();
                        self.transport.send_delayed(i, ticks_late(*d, tick_secs), resp);
                    }
                    FaultOutcome::Drop => out[i].clear(),
                }
            }
        }
        // Merge late arrivals due this tick, `(sent_tick, client)` order.
        for env in self.transport.take_due() {
            if let Some(slot) = out.get_mut(env.client) {
                slot.extend(env.payload);
            }
        }
    }
}

/// The taxi replay exposed through the same contract. Taxis have a single
/// pseudo-tier ([`CarType::UberT`]), no EWT and no surge — the §3.5
/// validation only needs car identities and positions.
pub struct TaxiSystem<'a> {
    replay: TaxiReplay<'a>,
    /// k-nearest scratch reused across every client and tick.
    scratch: Vec<(f64, u32)>,
}

impl<'a> TaxiSystem<'a> {
    /// Wraps a replay of `trace`; ground truth accumulates against
    /// `region` (pass the measurement polygon).
    pub fn new(trace: &'a TaxiTrace, region: surgescope_geo::Polygon, seed: u64) -> Self {
        TaxiSystem { replay: TaxiReplay::new(trace, region, seed), scratch: Vec::new() }
    }

    /// Access to the replay (for ground truth after the campaign).
    pub fn replay(&self) -> &TaxiReplay<'a> {
        &self.replay
    }
}

impl MeasuredSystem for TaxiSystem<'_> {
    fn advance_tick(&mut self) {
        self.replay.tick();
    }

    fn now(&self) -> SimTime {
        self.replay.now()
    }

    /// Overwrites each client's single block in place; once every block
    /// exists, a call allocates nothing.
    fn ping_all_into(&mut self, clients: &[ClientSpec], out: &mut Vec<Vec<TypeObservation>>) {
        out.resize_with(clients.len(), Vec::new);
        out.truncate(clients.len());
        for (c, blocks) in clients.iter().zip(out.iter_mut()) {
            if blocks.len() != 1 {
                blocks.clear();
                blocks.push(TypeObservation {
                    car_type: CarType::UberT,
                    cars: Vec::with_capacity(NEAREST_CARS_SHOWN),
                    ewt_min: 0.0,
                    surge: 1.0,
                });
            }
            let block = &mut blocks[0];
            block.car_type = CarType::UberT;
            block.ewt_min = 0.0;
            block.surge = 1.0;
            block.cars.clear();
            let cars = &mut block.cars;
            self.replay.for_each_nearest(
                c.position,
                NEAREST_CARS_SHOWN,
                &mut self.scratch,
                |session, position, path| {
                    cars.push(ObservedCar {
                        id: session,
                        position,
                        displacement: path_displacement(path),
                    })
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surgescope_api::ProtocolEra;
    use surgescope_city::CityModel;
    use surgescope_geo::Meters;
    use surgescope_marketplace::MarketplaceConfig;
    use surgescope_simcore::SimDuration;
    use surgescope_taxi::TraceGenerator;

    fn uber() -> UberSystem {
        let mut c = CityModel::manhattan_midtown();
        c.supply = c.supply.scaled(0.3);
        c.demand = c.demand.scaled(0.3);
        let mut mp = Marketplace::new(c, MarketplaceConfig::default(), 3);
        mp.run_for(SimDuration::hours(1));
        UberSystem::new(mp, ApiService::new(ProtocolEra::Feb2015, 3))
    }

    #[test]
    fn uber_ping_all_shapes() {
        let mut sys = uber();
        let center = sys.marketplace.city().measurement_region.centroid();
        let clients = vec![
            ClientSpec { key: 0, position: center },
            ClientSpec { key: 1, position: Meters::new(center.x + 300.0, center.y) },
        ];
        let mut obs = Vec::new();
        sys.ping_all_into(&clients, &mut obs);
        assert_eq!(obs.len(), 2);
        for per_client in &obs {
            assert!(!per_client.is_empty());
            let x = per_client.iter().find(|t| t.car_type == CarType::UberX).unwrap();
            assert!(x.cars.len() <= NEAREST_CARS_SHOWN);
            assert!(!x.cars.is_empty(), "midtown should have UberX in view");
        }
    }

    #[test]
    fn ping_all_parallel_matches_serial_with_faults() {
        use surgescope_simcore::FaultPlan;
        let run = |threads: usize| {
            let mut sys = uber()
                .with_faults(FaultPlan::lossy(0.3), 91)
                .with_parallelism(threads);
            let center = sys.marketplace.city().measurement_region.centroid();
            let clients: Vec<ClientSpec> = (0..24)
                .map(|i| ClientSpec {
                    key: i,
                    position: Meters::new(
                        center.x + 150.0 * (i % 6) as f64,
                        center.y + 150.0 * (i / 6) as f64,
                    ),
                })
                .collect();
            let (mut all, mut obs) = (Vec::new(), Vec::new());
            for _ in 0..12 {
                sys.ping_all_into(&clients, &mut obs);
                all.push(obs.clone());
                sys.advance_tick();
            }
            all
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (tick, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            for (client, (oa, ob)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    oa, ob,
                    "tick {tick} client {client}: parallel fan-out diverged from serial"
                );
            }
        }
        // The lossy plan must actually have dropped some pings in both runs.
        assert!(
            serial.iter().flatten().any(|per_client| per_client.is_empty()),
            "fault plan never dropped a ping; test is vacuous"
        );
    }

    #[test]
    fn delayed_ping_surfaces_next_tick_with_send_time_content() {
        use surgescope_simcore::FaultPlan;
        // Twin systems over identical marketplaces: one clean, one whose
        // every ping is delayed 1..=5 s — exactly one 5-s tick late.
        let mut clean = uber();
        let mut laggy = uber().with_faults(FaultPlan::laggy(1.0, 5), 17);
        let center = clean.marketplace.city().measurement_region.centroid();
        let clients: Vec<ClientSpec> = (0..6)
            .map(|i| ClientSpec {
                key: i,
                position: Meters::new(center.x + 200.0 * (i % 3) as f64, center.y),
            })
            .collect();
        let mut clean_hist: Vec<Vec<Vec<TypeObservation>>> = Vec::new();
        let (mut c, mut l) = (Vec::new(), Vec::new());
        for tick in 0..8 {
            clean.ping_all_into(&clients, &mut c);
            laggy.ping_all_into(&clients, &mut l);
            if tick == 0 {
                assert!(
                    l.iter().all(Vec::is_empty),
                    "a delayed response can never arrive within its send tick"
                );
                assert_eq!(laggy.in_flight(), clients.len());
            } else {
                // The delayed view equals the clean system's *previous*
                // tick — the payload was frozen at send time, not at
                // delivery time. Delay is therefore neither Drop (content
                // arrives) nor a fresh ping (content is one tick stale).
                assert_eq!(
                    &l,
                    clean_hist.last().unwrap(),
                    "tick {tick}: delayed payload must carry send-time content"
                );
            }
            clean_hist.push(c.clone());
            clean.advance_tick();
            laggy.advance_tick();
        }
        // Nothing vanished: only the final tick's sends remain in flight.
        assert_eq!(laggy.in_flight(), clients.len());
        // Staleness is observable: the world moved between ticks, so the
        // send-time content differs from the delivery-tick truth.
        assert!(
            clean_hist.windows(2).any(|w| w[0] != w[1]),
            "world never changed between ticks; staleness assertion is vacuous"
        );
    }

    #[test]
    fn uber_advance_moves_time() {
        let mut sys = uber();
        let t0 = sys.now();
        sys.advance_tick();
        assert_eq!(sys.now(), t0 + SimDuration::secs(5));
    }

    #[test]
    fn uber_cars_have_displacement_after_settling() {
        let mut sys = uber();
        // A few ticks so path vectors fill.
        for _ in 0..5 {
            sys.advance_tick();
        }
        let center = sys.marketplace.city().measurement_region.centroid();
        let mut obs = Vec::new();
        sys.ping_all_into(&[ClientSpec { key: 0, position: center }], &mut obs);
        let x = obs[0].iter().find(|t| t.car_type == CarType::UberX).unwrap();
        assert!(
            x.cars.iter().any(|c| c.displacement.is_some()),
            "settled cars should carry path displacement"
        );
    }

    #[test]
    fn taxi_system_single_pseudo_tier() {
        let city = CityModel::manhattan_midtown();
        let trace = TraceGenerator { taxis: 80, days: 1, ..Default::default() }
            .generate(&city, 5);
        let mut sys = TaxiSystem::new(&trace, city.measurement_region.clone(), 6);
        // Run to the evening peak so taxis are available.
        while sys.now() < SimTime(19 * 3600) {
            sys.advance_tick();
        }
        let center = city.measurement_region.centroid();
        let mut obs = Vec::new();
        sys.ping_all_into(&[ClientSpec { key: 0, position: center }], &mut obs);
        assert_eq!(obs[0].len(), 1);
        let block = &obs[0][0];
        assert_eq!(block.car_type, CarType::UberT);
        assert!(!block.cars.is_empty(), "evening peak should show taxis");
        assert_eq!(block.surge, 1.0);
    }
}
