//! The service core both public services are built on: N lanes (the
//! calling thread and N − 1 worker threads), the published table, the
//! audit gate in front of it, the control-plane telemetry and the
//! lifecycle.
//!
//! The paper's VS and VM routers are the same lookup pipeline and differ
//! only in how packets reach it; [`LookupService`](crate::LookupService)
//! and [`ShardedService`](crate::ShardedService) differ the same way
//! (contiguous spans vs a destination hash), so everything behind the
//! dispatch decision lives here, once:
//!
//! * **One worker loop.** Lane 0 is the thread that calls
//!   [`ServiceCore::submit`] / [`ServiceCore::drain`]: its jobs wait in a
//!   local list of at most `queue_depth` and the caller resolves them
//!   itself, in `drain` once the other lanes' jobs are already queued,
//!   so a one-lane service spawns no thread and a one-span call never
//!   leaves the caller. Lanes 1..N each own a thread draining a bounded
//!   FIFO of [`Job`]s. Every lane resolves a job through the same
//!   `WorkerState::resolve` — one
//!   [`lookup_batch_mixed`](crate::service::lookup_batch_mixed) walk
//!   against the snapshot it pinned, with no result cache in front — and
//!   hands the buffers back as a [`Done`].
//! * **One publish protocol.** The live table sits in a vr-sync
//!   [`Publish`] slot. A worker pins the current snapshot — one lock,
//!   one refcount increment — **once per job** and resolves the whole
//!   job against it; [`ServiceCore::publish`] builds nothing, audits the
//!   candidate, and swaps it in with `generation + 1` derived under the
//!   slot's lock. Readers never block on a rebuild, a job never sees a
//!   torn mix of generations (`vr_sync::programs::PublishVsLookup`
//!   checks this over every bounded interleaving), and the old table is
//!   freed by the last pin's refcount drop.
//! * **One audit gate.** In debug builds (and in release with the
//!   `audit-on-publish` feature) every candidate runs through
//!   [`vr_trie::audit`]'s structural verifier before the swap; a
//!   rejected table never goes live and is counted.
//! * **One lifecycle.** Dropping the core drops lane 0's pending jobs,
//!   disconnects every queue and joins every worker thread, so neither
//!   service can leak a thread or keep a snapshot pinned past its own
//!   drop.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::JoinHandle;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::VnId;
use vr_obs::{Stage, TraceBuilder, Tracer, DEFAULT_TRACE_CAPACITY};
use vr_sync::{
    spsc_bounded, spsc_unbounded, Publish, SpscReceiver, SpscSender, SyncArc, TrySendError,
};
use vr_telemetry::{
    Counter, EventKind, Gauge, Histogram, MetricsRegistry, Stopwatch, TelemetrySnapshot,
};
use vr_trie::JumpTrie;

use crate::metrics::AuditMetrics;
use crate::service::lookup_batch_mixed;
use crate::EngineError;

/// An immutable routing snapshot: one [`JumpTrie`] plus the generation
/// that published it. Workers pin a snapshot per job; publishers swap
/// whole snapshots, so trie and generation can never tear apart.
#[derive(Debug)]
pub struct TableSnapshot {
    /// The lookup structure (K-wide for merged virtual networks).
    pub trie: JumpTrie,
    /// Monotonic publish counter; 0 is the table the service started with.
    pub generation: u64,
}

/// The lookup structure both services publish for a table family: the
/// jump trie of its K-way merged leaf-pushed trie (K = 1 included).
pub(crate) fn build_trie(tables: &[RoutingTable]) -> Result<JumpTrie, EngineError> {
    // Painted straight off the sorted routes: no merged or leaf-pushed
    // trie is built, so the build peaks at the routes plus the slabs.
    Ok(JumpTrie::from_tables(tables)?)
}

/// Structural audit gate for candidate snapshots: active in debug builds
/// and under the `audit-on-publish` feature, a no-op otherwise. With
/// `metrics` attached, each run's duration and violation count land in
/// the registry (`vr_audit_*`).
fn audit_snapshot(trie: &JumpTrie, metrics: Option<&AuditMetrics>) -> Result<(), EngineError> {
    if !cfg!(any(debug_assertions, feature = "audit-on-publish")) {
        return Ok(());
    }
    let watch = Stopwatch::start();
    let report = vr_trie::audit::audit_jump(trie);
    if let Some(m) = metrics {
        m.observe(&report, watch.elapsed_ns());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(EngineError::AuditRejected(report.summary()))
    }
}

/// The pool's knobs. Public as the configuration of a
/// [`ShardedService`](crate::ShardedService), which adds none of its
/// own; [`ServiceConfig`](crate::ServiceConfig) carries the same five
/// under the names `workers`, `queue_depth`, … beside its span and
/// update knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedConfig {
    /// Shards (lanes). Shard 0 is the calling thread; each of the other
    /// `shards − 1` is a thread draining its own SPSC queue.
    pub shards: usize,
    /// Depth of each shard's request queue, in jobs. The dispatcher
    /// blocks (and counts a stall) once a thread's queue is this far
    /// behind; shard 0's queue is worked off by the caller instead.
    pub queue_depth: usize,
    /// Whether to run with a live [`MetricsRegistry`] (per-shard
    /// counters, batch/lookup histograms, the event ring).
    pub telemetry: bool,
    /// Retired: no lane keeps a result cache, whatever this says; every
    /// job walks the trie (DESIGN §15). Nothing reads the field; it
    /// stays only until the repo benchmark, which spells it, stops doing
    /// so.
    pub lookup_cache: Option<usize>,
    /// 1-in-N shard-job trace sampling rate; `None` disables tracing.
    /// Sampled jobs carry an owned [`vr_obs::TraceBuilder`] through
    /// their shard's queue and close the same stage chain as the
    /// span-dispatched service, with shard (not worker) attribution.
    pub trace_sample: Option<u32>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_depth: 64,
            telemetry: true,
            lookup_cache: None,
            trace_sample: None,
        }
    }
}

/// One unit of work and its buffers. The same three vectors travel to
/// the worker and back inside [`Done`], so a facade that keeps them
/// (the sharded scatter) allocates nothing in steady state.
#[derive(Default)]
pub(crate) struct Job {
    /// Submission sequence number, stamped by [`ServiceCore::submit`].
    pub seq: u64,
    /// The keys to resolve.
    pub packets: Vec<(VnId, u32)>,
    /// Facade-owned scatter map riding along untouched (empty for span
    /// dispatch).
    pub origins: Vec<u32>,
    /// Per-packet results in job order, filled by the worker.
    pub results: Vec<Option<NextHop>>,
    /// `Some` on sampled jobs: the owned stage recorder riding with the
    /// job, set by [`ServiceCore::submit`]. The worker takes it before
    /// the buffers come back.
    pub trace: Option<TraceBuilder>,
}

/// One resolved job leaving a lane.
pub(crate) struct Done {
    /// The job's buffers, `results` filled.
    pub job: Job,
    /// Lane that served the job (0 is the calling thread).
    pub worker: usize,
    /// Generation of the snapshot the whole job resolved against.
    pub generation: u64,
    /// Wall time the worker spent resolving the job, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Registry handles of the control-plane paths that run on the caller's
/// thread; workers get their own [`WorkerMetrics`].
struct CoreTelemetry {
    registry: Arc<MetricsRegistry>,
    swaps: Counter,
    audit_rejections: Counter,
    queue_stalls: Counter,
    generation: Gauge,
    generation_lag: Gauge,
    audit: AuditMetrics,
}

impl CoreTelemetry {
    fn new(workers: usize) -> Self {
        let registry = Arc::new(MetricsRegistry::new(workers));
        Self {
            swaps: registry.counter("vr_service_swaps_total"),
            audit_rejections: registry.counter("vr_service_audit_rejections_total"),
            queue_stalls: registry.counter("vr_service_queue_stalls_total"),
            generation: registry.gauge("vr_service_generation"),
            generation_lag: registry.gauge("vr_service_generation_lag"),
            audit: AuditMetrics::register(&registry),
            registry,
        }
    }
}

/// Per-worker handles. Counters are sharded by worker id, so the hot
/// path never contends on a cache line; everything is recorded once per
/// *job* (wall time, mean ns/lookup), keeping the per-packet overhead at
/// a fraction of an atomic op.
struct WorkerMetrics {
    lookups: Counter,
    misses: Counter,
    batches: Counter,
    batch_ns: Histogram,
    lookup_ns: Histogram,
}

impl WorkerMetrics {
    fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            lookups: registry.counter("vr_service_lookups_total"),
            misses: registry.counter("vr_service_misses_total"),
            batches: registry.counter("vr_service_batches_total"),
            batch_ns: registry.histogram("vr_service_batch_ns"),
            lookup_ns: registry.histogram("vr_service_lookup_ns"),
        }
    }

    fn observe_batch(&self, worker: usize, lookups: u64, misses: u64, elapsed_ns: u64) {
        self.lookups.add(worker, lookups);
        self.misses.add(worker, misses);
        self.batches.inc(worker);
        self.batch_ns.record(elapsed_ns);
        self.lookup_ns.record(elapsed_ns / lookups.max(1));
    }
}

/// Lanes 1..N: a thread behind a bounded job queue.
struct Worker {
    job_tx: SpscSender<Job>,
    done_rx: SpscReceiver<Done>,
    handle: JoinHandle<()>,
    /// Jobs submitted but not yet drained.
    in_flight: u64,
}

/// Everything a lane owns besides its queue: the worker thread's state,
/// or lane 0's on the calling thread.
struct WorkerState {
    id: usize,
    current: Publish<TableSnapshot>,
    metrics: Option<WorkerMetrics>,
    tracer: Option<Tracer>,
    attribute: fn(&mut TraceBuilder, u64),
}

impl WorkerState {
    /// Resolves one job against the snapshot pinned for it.
    fn resolve(&mut self, mut job: Job) -> Done {
        // Close the queue-residency span the moment the job is picked up
        // (sampled jobs only).
        if let Some(tb) = job.trace.as_mut() {
            tb.mark(Stage::Dequeue);
        }
        // RCU read-side critical section: pin the snapshot with one
        // refcount bump; the slot is never held across the lookups.
        let snapshot: SyncArc<TableSnapshot> = self.current.read();
        let watch = Stopwatch::start();
        job.results.clear();
        job.results.resize(job.packets.len(), None);
        lookup_batch_mixed(&snapshot.trie, &job.packets, &mut job.results);
        if let Some(tb) = job.trace.as_mut() {
            tb.mark(Stage::LaneWalk);
        }
        let elapsed_ns = watch.elapsed_ns();
        if let Some(m) = &self.metrics {
            let misses = job.results.iter().filter(|nh| nh.is_none()).count() as u64;
            m.observe_batch(self.id, job.results.len() as u64, misses, elapsed_ns);
        }
        if let (Some(mut tb), Some(tr)) = (job.trace.take(), self.tracer.as_ref()) {
            (self.attribute)(&mut tb, self.id as u64);
            tb.set_generation(snapshot.generation);
            tb.mark(Stage::Complete);
            tr.record(tb.finish());
        }
        Done {
            job,
            worker: self.id,
            generation: snapshot.generation,
            elapsed_ns,
        }
    }
}

/// The lanes, the published table and the gate in front of it.
pub(crate) struct ServiceCore {
    current: Publish<TableSnapshot>,
    /// Lane 0, resolved on the calling thread.
    local: WorkerState,
    /// Lane-0 jobs submitted and not yet resolved, at most `queue_depth`.
    pending: Vec<Job>,
    /// Lane-0 jobs resolved and not yet drained.
    resolved: Vec<Done>,
    /// Lanes 1..N.
    workers: Vec<Worker>,
    queue_depth: usize,
    next_seq: u64,
    /// `None` when [`ShardedConfig::telemetry`] is off.
    telemetry: Option<CoreTelemetry>,
    /// `None` when [`ShardedConfig::trace_sample`] is off.
    tracer: Option<Tracer>,
    /// The audit in front of the slot, [`audit_snapshot`]; a field so a
    /// test can substitute one that refuses (no well-formed table fails
    /// the real one).
    pub gate: fn(&JumpTrie, Option<&AuditMetrics>) -> Result<(), EngineError>,
}

impl ServiceCore {
    /// Audits `trie`, publishes it as generation 0 and spawns the
    /// threads of lanes 1..N; `attribute` is how a sampled job names the
    /// lane that ran it ([`TraceBuilder::set_worker`] or
    /// [`TraceBuilder::set_shard`]).
    ///
    /// # Errors
    /// Rejects zero lanes, a zero sample rate and (in audited builds) a
    /// structurally invalid trie.
    pub(crate) fn new(
        trie: JumpTrie,
        cfg: ShardedConfig,
        attribute: fn(&mut TraceBuilder, u64),
    ) -> Result<Self, EngineError> {
        if cfg.shards == 0 {
            return Err(EngineError::InvalidParameter("need at least one lane"));
        }
        if cfg.trace_sample == Some(0) {
            return Err(EngineError::InvalidParameter(
                "trace sample rate must be at least 1",
            ));
        }
        let telemetry = cfg.telemetry.then(|| CoreTelemetry::new(cfg.shards));
        let tracer = cfg
            .trace_sample
            .map(|sample| Tracer::new(sample, DEFAULT_TRACE_CAPACITY));
        audit_snapshot(&trie, telemetry.as_ref().map(|t| &t.audit))?;
        if let Some(t) = &telemetry {
            t.generation.set(0);
        }
        let current = Publish::new(TableSnapshot {
            trie,
            generation: 0,
        });
        let lane = |id| WorkerState {
            id,
            current: current.clone(),
            metrics: telemetry
                .as_ref()
                .map(|t| WorkerMetrics::for_registry(&t.registry)),
            tracer: tracer.clone(),
            attribute,
        };
        let local = lane(0);
        let workers = (1..cfg.shards)
            .map(|id| Self::spawn_worker(cfg.queue_depth, lane(id)))
            .collect();
        Ok(Self {
            current,
            local,
            pending: Vec::new(),
            resolved: Vec::new(),
            workers,
            queue_depth: cfg.queue_depth,
            next_seq: 0,
            telemetry,
            tracer,
            gate: audit_snapshot,
        })
    }

    fn spawn_worker(queue_depth: usize, mut state: WorkerState) -> Worker {
        let (job_tx, job_rx) = spsc_bounded::<Job>(queue_depth);
        // Results must never backpressure the submitter: a bounded done
        // queue would let a worker block mid-send while the dispatcher is
        // still fanning out jobs — a submit/drain deadlock.
        let (done_tx, done_rx) = spsc_unbounded::<Done>();
        let handle = std::thread::spawn(move || {
            while let Ok(job) = job_rx.recv() {
                if done_tx.send(state.resolve(job)).is_err() {
                    break; // the core dropped the receiving half
                }
            }
        });
        Worker {
            job_tx,
            done_rx,
            handle,
            in_flight: 0,
        }
    }

    /// Lane count: the caller plus one per worker thread.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len() + 1
    }

    /// Sequence number the next [`submit`](Self::submit) will stamp.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Generation of the currently published snapshot.
    pub(crate) fn generation(&self) -> u64 {
        self.current.peek(|s| s.generation)
    }

    /// The currently published snapshot (one refcount bump).
    pub(crate) fn snapshot(&self) -> SyncArc<TableSnapshot> {
        self.current.read()
    }

    /// The live metrics registry (`None` with telemetry off).
    pub(crate) fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The live job tracer (`None` with tracing off).
    pub(crate) fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Every registered metric plus the event ring (`None` with
    /// telemetry off).
    pub(crate) fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.registry.snapshot())
    }

    /// Stamps `job` with the next sequence number, enqueues it on lane
    /// `worker` and returns that number. Lane 0 never blocks: a submit
    /// that finds `queue_depth` jobs pending there resolves them first.
    /// Another lane blocks when its queue is full; the stall is counted
    /// (`vr_service_queue_stalls_total`) and ringed as a
    /// [`EventKind::WorkerStall`] before the blocking send, so
    /// backpressure is observable while it is happening.
    pub(crate) fn submit(&mut self, worker: usize, mut job: Job) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        job.seq = seq;
        // Sampled jobs get a trace builder; the enqueue span closes just
        // before the send, so a blocking (backpressured) send shows up as
        // queue residency in the dequeue span.
        job.trace = self
            .tracer
            .as_ref()
            .filter(|tr| tr.should_sample(seq))
            .map(|tr| {
                let mut tb = tr.begin(seq, job.packets.len());
                tb.mark(Stage::Enqueue);
                tb
            });
        let Some(target) = worker.checked_sub(1).map(|i| &mut self.workers[i]) else {
            // The caller is lane 0: a full queue is worked off, not
            // waited on.
            if self.pending.len() >= self.queue_depth {
                self.resolve_local();
            }
            self.pending.push(job);
            return seq;
        };
        target.in_flight += 1;
        let blocked = match target.job_tx.try_send(job) {
            Ok(()) => return seq,
            Err(TrySendError::Full(job)) => {
                if let Some(t) = &self.telemetry {
                    t.queue_stalls.inc(worker);
                    t.registry.events().publish(EventKind::WorkerStall {
                        worker: worker as u64,
                    });
                }
                job
            }
            // Let the blocking send below surface the disconnect.
            Err(TrySendError::Disconnected(job)) => job,
        };
        target
            .job_tx
            .send(blocked)
            .expect("worker thread alive while service exists");
        seq
    }

    /// Resolves every pending lane-0 job on the calling thread.
    fn resolve_local(&mut self) {
        let local = &mut self.local;
        self.resolved
            .extend(self.pending.drain(..).map(|job| local.resolve(job)));
    }

    /// Waits for every submitted job, lane by lane, and hands each to
    /// `each`; the caller resolves lane 0's jobs first, while the other
    /// lanes work on theirs. Sets the `vr_service_generation_lag` gauge
    /// to the widest gap between the published generation and a drained
    /// job's pinned one — the software analogue of table-reload latency:
    /// how far behind the freshest table the datapath was still serving.
    pub(crate) fn drain(&mut self, mut each: impl FnMut(Done)) {
        self.resolve_local();
        let published = self.generation();
        let mut max_lag = None;
        let mut observe = |done: Done| {
            max_lag = max_lag.max(Some(published.saturating_sub(done.generation)));
            each(done);
        };
        self.resolved.drain(..).for_each(&mut observe);
        for worker in &mut self.workers {
            while worker.in_flight > 0 {
                let done = worker
                    .done_rx
                    .recv()
                    .expect("worker thread alive while service exists");
                worker.in_flight -= 1;
                observe(done);
            }
        }
        if let (Some(t), Some(lag)) = (&self.telemetry, max_lag) {
            t.generation_lag.set(lag);
        }
    }

    /// Drains every submitted job, joins the worker threads (`Drop`) and
    /// scrapes the registry: the final count of everything the core ran,
    /// `None` with telemetry off.
    pub(crate) fn shutdown(mut self) -> Option<TelemetrySnapshot> {
        self.drain(drop);
        let registry = self.metrics().cloned();
        drop(self);
        registry.map(|r| r.snapshot())
    }

    /// Atomically swaps in an already-built trie (the RCU write side) and
    /// returns the new generation. In-flight jobs finish on the snapshot
    /// they pinned; lane-0 jobs submitted before the call resolve first,
    /// on the old one.
    ///
    /// # Errors
    /// In audited builds, rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; the live snapshot is untouched and
    /// the rejection is counted.
    pub(crate) fn publish(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        self.resolve_local();
        // Guard-style span: audit + swap both land in vr_service_publish_ns
        // (recorded on every exit path, including the rejection return).
        let _span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.span("vr_service_publish_ns"));
        let trace_start = self.tracer.as_ref().map(Tracer::now_ns);
        if let Err(err) = (self.gate)(&trie, self.telemetry.as_ref().map(|t| &t.audit)) {
            if let Some(t) = &self.telemetry {
                t.audit_rejections.inc(0);
                t.registry.events().publish(EventKind::AuditRejected {
                    generation: self.generation() + 1,
                });
            }
            return Err(err);
        }
        // Read-modify-publish in one critical section: the new generation
        // is derived from the outgoing snapshot atomically with the swap.
        let generation = self.current.update(|cur| {
            let generation = cur.generation + 1;
            (SyncArc::new(TableSnapshot { trie, generation }), generation)
        });
        if let Some(t) = &self.telemetry {
            t.swaps.inc(0);
            t.generation.set(generation);
            t.registry
                .events()
                .publish(EventKind::GenerationSwap { generation });
        }
        if let (Some(tr), Some(start)) = (self.tracer.as_ref(), trace_start) {
            tr.record_span(Stage::Publish, start, generation);
        }
        Ok(generation)
    }
}

impl Drop for ServiceCore {
    /// Disconnects every queue, then joins every worker thread: a worker
    /// finishes the job it is on, fails its next send or receive, and
    /// exits, so no thread and no snapshot pin outlives the service.
    /// Lane 0's pending jobs hold no pin and are dropped unresolved.
    fn drop(&mut self) {
        let handles: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.handle).collect();
        for handle in handles {
            // A worker that panicked has already reported it; `drop` must
            // not panic on top.
            let _ = handle.join();
        }
    }
}

/// What both facades owe their callers, written once. Every case takes
/// the facade to run over and a lane count; each facade's test module
/// names its tests in a `contract_tests!` table.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use crate::{shard_of, LookupService, ServiceConfig, ShardedService};
    use vr_net::synth::TableSpec;

    /// One `#[test]` per row, named `$name`, running contract case `$case`
    /// over the facade `$kind` at every lane count.
    macro_rules! contract_tests {
        ($kind:expr; $($name:ident => $case:ident,)*) => {
            $(
                #[test]
                fn $name() {
                    crate::service_core::contract::run(
                        crate::service_core::contract::$case,
                        $kind,
                    );
                }
            )*
        };
    }
    pub(crate) use contract_tests;

    /// Runs `case` over `kind` at 1 (the caller alone), 2, 3 and 4 lanes.
    pub(crate) fn run(case: fn(Kind, usize), kind: Kind) {
        for lanes in [1, 2, 3, 4] {
            case(kind, lanes);
        }
    }

    impl ServiceCore {
        /// Worker threads the core spawned.
        fn threads(&self) -> usize {
            self.workers.len()
        }

        /// Lane-0 jobs submitted and not yet resolved.
        pub(crate) fn unresolved_local(&self) -> usize {
            self.pending.len()
        }
    }

    /// Which facade a case runs over.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) enum Kind {
        /// [`LookupService`]: span dispatch, worker attribution.
        Spans,
        /// [`ShardedService`]: hash scatter, shard attribution.
        Hash,
    }

    /// The pool knobs every case starts from.
    fn pool(workers: usize) -> ShardedConfig {
        ShardedConfig {
            shards: workers,
            ..ShardedConfig::default()
        }
    }

    /// Either facade under one set of names (one value per case, so the
    /// size difference costs nothing).
    #[allow(clippy::large_enum_variant)]
    enum Either {
        Spans(LookupService),
        Hash(ShardedService),
    }

    /// Evaluates `$call` on whichever facade `$self` holds.
    macro_rules! on {
        ($self:expr, $svc:ident => $call:expr) => {
            match $self {
                Either::Spans($svc) => $call,
                Either::Hash($svc) => $call,
            }
        };
    }

    impl Kind {
        fn build(
            self,
            tables: Vec<RoutingTable>,
            pool: ShardedConfig,
        ) -> Result<Either, EngineError> {
            Ok(match self {
                Kind::Spans => Either::Spans(LookupService::new(
                    tables,
                    ServiceConfig {
                        workers: pool.shards,
                        batch_width: Some(16),
                        queue_depth: 8,
                        telemetry: pool.telemetry,
                        lookup_cache: pool.lookup_cache,
                        trace_sample: pool.trace_sample,
                        ..ServiceConfig::default()
                    },
                )?),
                Kind::Hash => Either::Hash(ShardedService::new(tables, pool)?),
            })
        }
    }

    impl Either {
        fn core(&mut self) -> &mut ServiceCore {
            on!(self, s => s.core_mut())
        }

        fn process(&mut self, packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
            on!(self, s => s.process(packets))
        }

        /// Submits without collecting.
        fn submit_only(&mut self, packets: &[(VnId, u32)]) {
            match self {
                Either::Spans(s) => drop(s.submit(packets.to_vec())),
                Either::Hash(s) => drop(s.submit(packets)),
            }
        }

        /// Collects every submitted job: the lane that served it, its
        /// generation and its results, in submission order.
        fn collect(&mut self) -> Vec<(usize, u64, Vec<Option<NextHop>>)> {
            match self {
                Either::Spans(s) => s
                    .collect_all()
                    .into_iter()
                    .map(|b| (b.worker, b.generation, b.results))
                    .collect(),
                Either::Hash(s) => s
                    .collect_all()
                    .into_iter()
                    .map(|b| (b.shard, b.generation, b.results))
                    .collect(),
            }
        }

        fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
            on!(self, s => s.publish_tables(tables))
        }

        fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
            on!(self, s => s.publish_trie(trie))
        }

        fn generation(&self) -> u64 {
            on!(self, s => s.generation())
        }

        /// Asserts the published trie is a from-scratch build of `tables`.
        fn assert_serves(&mut self, tables: &[RoutingTable]) {
            let want = build_trie(tables).unwrap();
            assert_eq!(self.core().snapshot().trie.raw_parts(), want.raw_parts());
        }

        fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
            on!(self, s => s.metrics())
        }

        fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
            on!(self, s => s.telemetry_snapshot())
        }

        fn tracer(&self) -> Option<&Tracer> {
            on!(self, s => s.tracer())
        }

        fn shutdown(self) -> Option<TelemetrySnapshot> {
            on!(self, s => s.shutdown())
        }
    }

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    /// A gate that refuses every candidate.
    pub(crate) fn refuse(_: &JumpTrie, _: Option<&AuditMetrics>) -> Result<(), EngineError> {
        Err(EngineError::AuditRejected("refused by the test".into()))
    }

    fn oracle(tables: &[RoutingTable], packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
        packets
            .iter()
            .map(|&(vn, dst)| tables[usize::from(vn)].lookup(dst))
            .collect()
    }

    fn scattered(n: u32) -> Vec<(VnId, u32)> {
        (0..n).map(|i| (0, i.wrapping_mul(0x9E37_79B9))).collect()
    }

    pub(crate) fn oracle_parity(kind: Kind, lanes: usize) {
        let t = TableSpec::paper_worst_case(21).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .flat_map(|p| [(0, p.addr()), (0, p.addr() | 0xFF)])
            .collect();
        let mut svc = kind.build(vec![t.clone()], pool(lanes)).unwrap();
        // The caller is lane 0: N lanes spawn N − 1 threads.
        assert_eq!(svc.core().threads(), lanes - 1);
        assert_eq!(
            svc.process(&packets),
            oracle(std::slice::from_ref(&t), &packets)
        );
        let totals = svc.shutdown().unwrap();
        assert_eq!(
            totals.counter("vr_service_lookups_total"),
            Some(packets.len() as u64)
        );
        assert_eq!(totals.gauge("vr_service_generation"), Some(0));
    }

    pub(crate) fn mixed_vn_batches_resolve_per_network(kind: Kind, lanes: usize) {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
        ];
        let mut svc = kind.build(tables.clone(), pool(lanes)).unwrap();
        // Deliberately interleave VNs inside each job.
        let packets: Vec<(VnId, u32)> = (0..200u32)
            .map(|i| {
                let dst = if i % 3 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                ((i % 2) as VnId, dst + (i << 8))
            })
            .collect();
        assert_eq!(svc.process(&packets), oracle(&tables, &packets));
        let _ = svc.shutdown();
    }

    pub(crate) fn empty_tiny_and_ragged_calls_keep_input_order(kind: Kind, lanes: usize) {
        let t = TableSpec::paper_worst_case(5).generate().unwrap();
        let mut svc = kind.build(vec![t.clone()], pool(lanes)).unwrap();
        let addrs: Vec<u32> = t.prefixes().map(|p| p.addr()).collect();
        for len in [0usize, 1, 2, 3, 7, 47, 48, 49, 1000] {
            let packets: Vec<(VnId, u32)> = (0..len)
                .map(|i| (0, addrs[i % addrs.len()] | (i as u32 & 0xFF)))
                .collect();
            assert_eq!(
                svc.process(&packets),
                oracle(std::slice::from_ref(&t), &packets),
                "len {len}"
            );
        }
        let _ = svc.shutdown();
    }

    /// The retired `lookup_cache` field changes nothing: a service built
    /// with `Some(64)` (or `Some(0)`, once refused) answers and counts
    /// exactly what one built with `None` does, before and after a
    /// publish, and none of them registers a `vr_cache_*` series.
    pub(crate) fn lookup_cache_is_inert(kind: Kind, lanes: usize) {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.0.0/16 2\n"),
            table("172.16.0.0/12 3\n"),
        ];
        let new_tables = vec![
            table("10.0.0.0/8 9\n10.1.0.0/16 2\n"),
            table("172.16.0.0/12 3\n"),
        ];
        let packets: Vec<(VnId, u32)> = (0..256)
            .map(|i| {
                let dst = if i % 4 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                ((i % 2) as VnId, dst)
            })
            .collect();
        // Answers of two passes, a publish, and a third pass; then every
        // registered series with its value (histograms by count, their
        // sums are wall time).
        let run = |lookup_cache| {
            let knobs = ShardedConfig {
                lookup_cache,
                ..pool(lanes)
            };
            let mut svc = kind.build(tables.clone(), knobs).unwrap();
            let mut answers = vec![svc.process(&packets), svc.process(&packets)];
            svc.publish_tables(new_tables.clone()).unwrap();
            answers.push(svc.process(&packets));
            let snap = svc.shutdown().unwrap();
            let series: Vec<(String, u64)> = snap
                .counters
                .iter()
                .map(|c| (c.name.clone(), c.value))
                .chain(snap.gauges.iter().map(|g| (g.name.clone(), g.value)))
                .chain(snap.histograms.iter().map(|h| (h.name.clone(), h.count)))
                .collect();
            (answers, series)
        };
        let (answers, series) = run(None);
        assert_eq!(answers[0], oracle(&tables, &packets));
        assert_eq!(answers[1], answers[0]);
        assert_eq!(answers[2], oracle(&new_tables, &packets));
        assert!(
            series
                .iter()
                .all(|(name, _)| !name.starts_with("vr_cache_")),
            "{series:?}"
        );
        for cache in [Some(64), Some(0)] {
            assert_eq!(run(cache), (answers.clone(), series.clone()), "{cache:?}");
        }
    }

    pub(crate) fn traced_jobs_record_validating_stage_chains(kind: Kind, lanes: usize) {
        let t = table("10.0.0.0/8 1\n10.1.0.0/16 2\n");
        // Sample every job so the case is deterministic.
        let knobs = ShardedConfig {
            trace_sample: Some(1),
            ..pool(lanes)
        };
        let mut svc = kind.build(vec![t.clone()], knobs).unwrap();
        let _ = svc.process(&scattered(128));
        svc.publish_tables(vec![t.clone()]).unwrap();
        let _ = svc.process(&scattered(128));
        // A one-span call, all of it destination 0, is one lane-0 job
        // however many jobs came before it.
        let first_short = svc.core().next_seq();
        let short_calls = 2 * lanes;
        for _ in 0..short_calls {
            assert_eq!(svc.process(&[(0, 0); 3]).len(), 3);
        }
        let snap = svc.tracer().expect("tracer on").snapshot();
        assert_eq!(snap.sample, 1);
        for trace in &snap.traces {
            trace.validate().unwrap();
        }
        // Jobs name the lane that ran them the facade's way and only
        // that way, the caller's as 0, and the post-publish ones
        // observed the bumped generation.
        let jobs: Vec<_> = snap
            .traces
            .iter()
            .filter(|tr| tr.worker.is_some() || tr.shard.is_some())
            .collect();
        let by_shard = kind == Kind::Hash;
        for tr in &jobs {
            let (lane, other) = if by_shard {
                (tr.shard, tr.worker)
            } else {
                (tr.worker, tr.shard)
            };
            assert!(lane.is_some_and(|lane| lane < lanes as u64), "{tr:?}");
            assert!(other.is_none(), "{tr:?}");
            // One walk, no cache probe or scatter around it.
            let chain: Vec<Stage> = tr.stages.iter().map(|s| s.stage).collect();
            assert_eq!(
                chain,
                [
                    Stage::Enqueue,
                    Stage::Dequeue,
                    Stage::LaneWalk,
                    Stage::Complete
                ],
                "{tr:?}"
            );
        }
        let short: Vec<_> = jobs.iter().filter(|tr| tr.seq >= first_short).collect();
        assert_eq!(short.len(), short_calls);
        for tr in short {
            assert_eq!(tr.worker.or(tr.shard), Some(0), "{tr:?}");
        }
        assert!(jobs.iter().any(|tr| tr.generation == 1));
        // The publish lands as a control-plane span on the same
        // timeline.
        assert!(snap
            .traces
            .iter()
            .any(|tr| tr.stages[0].stage == Stage::Publish && tr.generation == 1));
        let totals = svc.shutdown().unwrap();
        assert_eq!(
            Some(jobs.len() as u64),
            totals.counter("vr_service_batches_total"),
            "every job sampled"
        );
    }

    /// Answers are oracle-exact either way. With telemetry on the
    /// registry counts the known input: 320 lookups and their misses, one
    /// batch per span or shard job, each histogram fed once a batch. With
    /// it off there is no registry and nothing is counted.
    fn telemetry_case(kind: Kind, lanes: usize, telemetry: bool) {
        let t = TableSpec::paper_worst_case(31).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .map(|p| (0, p.addr() ^ 0x55))
            .take(320)
            .collect();
        let knobs = ShardedConfig {
            telemetry,
            ..pool(lanes)
        };
        let mut svc = kind.build(vec![t.clone()], knobs).unwrap();
        let want = oracle(std::slice::from_ref(&t), &packets);
        assert_eq!(svc.process(&packets), want);
        assert_eq!(svc.metrics().is_some(), telemetry);
        assert_eq!(svc.telemetry_snapshot().is_some(), telemetry);
        let Some(snap) = svc.shutdown() else {
            assert!(!telemetry);
            return;
        };
        // 320 keys fill every lane's span of at least 16; the hash
        // scatter issues one job per shard it sends a key to.
        let jobs = match kind {
            Kind::Spans => lanes,
            Kind::Hash => (0..lanes)
                .filter(|&s| packets.iter().any(|&(_, dst)| shard_of(dst, lanes) == s))
                .count(),
        } as u64;
        let misses = want.iter().filter(|nh| nh.is_none()).count() as u64;
        assert_eq!(snap.counter("vr_service_lookups_total"), Some(320));
        assert_eq!(snap.counter("vr_service_misses_total"), Some(misses));
        assert_eq!(snap.counter("vr_service_batches_total"), Some(jobs));
        assert_eq!(snap.gauge("vr_service_generation"), Some(0));
        for histogram in ["vr_service_batch_ns", "vr_service_lookup_ns"] {
            assert_eq!(snap.histogram(histogram).unwrap().count, jobs);
        }
    }

    pub(crate) fn registry_counts_the_input(kind: Kind, lanes: usize) {
        telemetry_case(kind, lanes, true);
    }

    pub(crate) fn telemetry_off_has_no_registry_and_stays_exact(kind: Kind, lanes: usize) {
        telemetry_case(kind, lanes, false);
    }

    pub(crate) fn rejected_publish_changes_nothing_and_is_counted(kind: Kind, lanes: usize) {
        let old = table("10.0.0.0/8 1\n");
        let new = table("10.0.0.0/8 2\n");
        // Serving is the same with the registry on or off; only the
        // registry counts.
        for telemetry in [true, false] {
            let knobs = ShardedConfig {
                telemetry,
                ..pool(lanes)
            };
            let mut svc = kind.build(vec![old.clone()], knobs).unwrap();
            // The gate refuses a table build: the old table stays live.
            svc.core().gate = refuse;
            let err = svc.publish_tables(vec![new.clone()]).unwrap_err();
            svc.core().gate = audit_snapshot;
            assert!(matches!(err, EngineError::AuditRejected(_)));
            svc.assert_serves(std::slice::from_ref(&old));
            assert_eq!(svc.generation(), 0);
            assert_eq!(svc.process(&[(0, 0x0A00_0001)]), vec![Some(1)]);
            let mut rejections = 1;
            if cfg!(any(debug_assertions, feature = "audit-on-publish")) {
                // A structurally corrupt trie: NHI slab truncated to
                // nothing while the root still points leaf entries at
                // vector slot 1. The real audit refuses it.
                let good = JumpTrie::from_table(&old);
                let p = good.raw_parts();
                let corrupt =
                    JumpTrie::from_raw_parts(p.root.to_vec(), p.tail.to_vec(), Vec::new(), p.k);
                let err = svc.publish_trie(corrupt).unwrap_err();
                assert!(err.to_string().contains("structural audit"));
                assert_eq!(svc.generation(), 0);
                assert_eq!(svc.process(&[(0, 0x0A00_0001)]), vec![Some(1)]);
                rejections += 1;
            }
            // An accepted publish serves the new table.
            assert_eq!(svc.publish_tables(vec![new.clone()]).unwrap(), 1);
            svc.assert_serves(std::slice::from_ref(&new));
            assert_eq!(svc.process(&[(0, 0x0A00_0001)]), vec![Some(2)]);
            match svc.shutdown() {
                Some(snap) => {
                    assert_eq!(snap.counter("vr_service_swaps_total"), Some(1));
                    assert_eq!(
                        snap.counter("vr_service_audit_rejections_total"),
                        Some(rejections)
                    );
                }
                None => assert!(!telemetry),
            }
        }
    }

    pub(crate) fn bad_configurations_are_rejected(kind: Kind, lanes: usize) {
        let t = table("10.0.0.0/8 1\n");
        assert!(kind.build(vec![], pool(lanes)).is_err());
        for bad in [
            pool(0),
            ShardedConfig {
                trace_sample: Some(0),
                ..pool(lanes)
            },
        ] {
            assert!(kind.build(vec![t.clone()], bad).is_err());
        }
        // The VN count is pinned across publishes.
        let mut svc = kind.build(vec![t.clone()], pool(lanes)).unwrap();
        assert!(svc.publish_tables(vec![t.clone(), t]).is_err());
        assert_eq!(svc.generation(), 0);
        let _ = svc.shutdown();
    }

    pub(crate) fn process_after_an_uncollected_submit_returns_only_its_own_results(
        kind: Kind,
        lanes: usize,
    ) {
        let t = table("10.0.0.0/8 1\n192.168.0.0/16 2\n");
        let mut svc = kind.build(vec![t], pool(lanes)).unwrap();
        svc.submit_only(&[(0, 0xC0A8_0001); 3]);
        assert_eq!(
            svc.process(&[(0, 0x0A00_0001), (0, 0x0B00_0000)]),
            vec![Some(1), None]
        );
        // The stale jobs were drained and counted, just not returned.
        let totals = svc.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_lookups_total"), Some(5));
    }

    pub(crate) fn drop_joins_the_workers_and_frees_the_snapshot(kind: Kind, lanes: usize) {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let mut svc = kind.build(vec![t], pool(lanes)).unwrap();
        let pin = svc.core().snapshot();
        // A backlog nobody collects: the worker threads are still busy,
        // each pinning the snapshot, and lane 0's jobs still pending,
        // when the service goes away.
        let packets = scattered(2048);
        for _ in 0..8 {
            svc.submit_only(&packets);
        }
        assert!(svc.core().unresolved_local() > 0);
        drop(svc);
        assert_eq!(
            SyncArc::strong_count(&pin),
            1,
            "a worker outlived the service and still pins its table"
        );
    }

    pub(crate) fn lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under(
        kind: Kind,
        lanes: usize,
    ) {
        // The pre-publish job is lane 0's under both dispatches: seq 0
        // under round-robin, and the hash of destination 0. The caller
        // still holds it when the publish starts. The post-publish job
        // goes to seq 1's lane or to lane 0 again, and sees the new table
        // either way.
        let key = [(0, 0)];
        let mut svc = kind
            .build(vec![table("0.0.0.0/0 1\n")], pool(lanes))
            .unwrap();
        svc.submit_only(&key);
        svc.publish_tables(vec![table("0.0.0.0/0 2\n")]).unwrap();
        svc.submit_only(&key);
        let second = match kind {
            Kind::Spans => 1 % lanes,
            Kind::Hash => 0,
        };
        assert_eq!(
            svc.collect(),
            vec![(0, 0, vec![Some(1)]), (second, 1, vec![Some(2)])]
        );
        let _ = svc.shutdown();
    }
}
