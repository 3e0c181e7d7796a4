//! The service core both public services are built on: a pool of worker
//! threads, the published table, the audit gate in front of it, the
//! control-plane telemetry and the lifecycle.
//!
//! The paper's VS and VM routers are the same lookup pipeline and differ
//! only in how packets reach it; [`LookupService`](crate::LookupService)
//! and [`ShardedService`](crate::ShardedService) differ the same way
//! (contiguous spans vs a destination hash), so everything behind the
//! dispatch decision lives here, once:
//!
//! * **One worker loop.** Each worker drains its own bounded FIFO of
//!   [`Job`]s, resolves a job through its private
//!   [`LpmCache`](crate::cache::LpmCache) or
//!   [`lookup_batch_mixed`](crate::service::lookup_batch_mixed), and
//!   hands the buffers back as a [`Done`] on an unbounded return queue.
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
//!   `vr-audit`'s structural verifier before the swap; a rejected table
//!   never goes live and is counted.
//! * **One lifecycle.** Dropping the core disconnects every queue and
//!   joins every worker, so neither service can leak a thread or keep a
//!   snapshot pinned past its own drop.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::JoinHandle;
use vr_audit::AuditMetrics;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::VnId;
use vr_obs::{Stage, TraceBuilder, Tracer, DEFAULT_TRACE_CAPACITY};
use vr_sync::{
    spsc_bounded, spsc_unbounded, Publish, SpscReceiver, SpscSender, SyncArc, TrySendError,
};
use vr_telemetry::{
    Counter, EventKind, Gauge, Histogram, MetricsRegistry, Stopwatch, TelemetrySnapshot,
};
use vr_trie::{JumpTrie, MergedTrie};

use crate::cache::{CacheStats, LpmCache};
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
    // The merged trie is dropped before the blocks are filled, so the
    // build peaks at the larger of the two, not their sum.
    let pushed = MergedTrie::from_tables(tables)?.leaf_pushed();
    Ok(JumpTrie::from_leaf_pushed(&pushed))
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
    let report = vr_audit::audit_jump(trie);
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
    /// Shard (worker) threads. Each drains its own SPSC queue.
    pub shards: usize,
    /// Depth of each shard's request queue, in jobs; the dispatcher
    /// blocks (and counts a stall) once a shard is this far behind.
    pub queue_depth: usize,
    /// Whether to run with a live [`MetricsRegistry`] (per-shard
    /// counters, batch/lookup histograms, the event ring).
    pub telemetry: bool,
    /// Slot count of each shard's private LPM result cache
    /// ([`crate::cache::LpmCache`]); `None` disables caching. Slots are
    /// tagged with the publish generation, so a publish invalidates
    /// every shard's cache in O(1) the moment the shard pins the new
    /// snapshot.
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

/// One resolved job leaving a worker.
pub(crate) struct Done {
    /// The job's buffers, `results` filled.
    pub job: Job,
    /// Worker that served the job.
    pub worker: usize,
    /// Lookups in the job that matched no route.
    pub misses: u64,
    /// Generation of the snapshot the whole job resolved against.
    pub generation: u64,
    /// Wall time the worker spent resolving the job, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Control-plane events the core counts with telemetry on or off; the
/// facades mirror them into their public reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ControlCounts {
    /// Tables published (generation swaps).
    pub swaps: u64,
    /// Publishes rejected by the structural audit gate.
    pub audit_rejections: u64,
    /// Submits that found the worker's queue full and had to block.
    pub queue_stalls: u64,
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
/// *job* (wall time, mean ns/lookup, the cache's stat delta), keeping the
/// per-packet overhead at a fraction of an atomic op. The hit-rate gauge
/// is set from the worker's *cumulative* cache stats in per-mille;
/// workers overwrite each other, but under steady traffic every worker
/// converges on the same rate, so the gauge reads as the service-wide
/// figure.
struct WorkerMetrics {
    lookups: Counter,
    misses: Counter,
    batches: Counter,
    batch_ns: Histogram,
    lookup_ns: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_fills: Counter,
    cache_hit_rate_permille: Gauge,
}

impl WorkerMetrics {
    fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            lookups: registry.counter("vr_service_lookups_total"),
            misses: registry.counter("vr_service_misses_total"),
            batches: registry.counter("vr_service_batches_total"),
            batch_ns: registry.histogram("vr_service_batch_ns"),
            lookup_ns: registry.histogram("vr_service_lookup_ns"),
            cache_hits: registry.counter("vr_cache_hits_total"),
            cache_misses: registry.counter("vr_cache_misses_total"),
            cache_fills: registry.counter("vr_cache_fills_total"),
            cache_hit_rate_permille: registry.gauge("vr_cache_hit_rate_permille"),
        }
    }

    fn observe_batch(&self, worker: usize, lookups: u64, misses: u64, elapsed_ns: u64) {
        self.lookups.add(worker, lookups);
        self.misses.add(worker, misses);
        self.batches.inc(worker);
        self.batch_ns.record(elapsed_ns);
        self.lookup_ns.record(elapsed_ns / lookups.max(1));
    }

    fn observe_cache(&self, worker: usize, delta: CacheStats, cumulative: CacheStats) {
        if delta.hits == 0 && delta.misses == 0 && delta.fills == 0 {
            return;
        }
        self.cache_hits.add(worker, delta.hits);
        self.cache_misses.add(worker, delta.misses);
        self.cache_fills.add(worker, delta.fills);
        let probes = cumulative.hits + cumulative.misses;
        if let Some(permille) = (cumulative.hits * 1000).checked_div(probes) {
            self.cache_hit_rate_permille.set(permille);
        }
    }
}

struct Worker {
    job_tx: SpscSender<Job>,
    done_rx: SpscReceiver<Done>,
    handle: JoinHandle<()>,
    /// Jobs submitted but not yet drained.
    in_flight: u64,
}

/// Everything a worker thread owns besides its two queue ends.
struct WorkerState {
    id: usize,
    current: Publish<TableSnapshot>,
    /// Private result cache; nothing about it is shared, so probes and
    /// fills are plain loads and stores.
    cache: Option<LpmCache>,
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
        match self.cache.as_mut() {
            // Cached path: probe, walk only the misses, scatter + fill.
            // The snapshot's generation doubles as the slot tag, so a
            // publish since the last job invalidates every slot for free.
            Some(c) => match job.trace.as_mut() {
                Some(tb) => c.lookup_batch_traced(
                    &snapshot.trie,
                    snapshot.generation,
                    &job.packets,
                    &mut job.results,
                    tb,
                ),
                None => c.lookup_batch(
                    &snapshot.trie,
                    snapshot.generation,
                    &job.packets,
                    &mut job.results,
                ),
            },
            None => {
                lookup_batch_mixed(&snapshot.trie, &job.packets, &mut job.results);
                if let Some(tb) = job.trace.as_mut() {
                    tb.mark(Stage::LaneWalk);
                }
            }
        }
        let elapsed_ns = watch.elapsed_ns();
        let misses = job.results.iter().filter(|nh| nh.is_none()).count() as u64;
        if let Some(m) = &self.metrics {
            m.observe_batch(self.id, job.results.len() as u64, misses, elapsed_ns);
            if let Some(c) = self.cache.as_mut() {
                m.observe_cache(self.id, c.take_delta(), c.stats());
            }
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
            misses,
            generation: snapshot.generation,
            elapsed_ns,
        }
    }
}

/// The worker pool, the published table and the gate in front of it.
pub(crate) struct ServiceCore {
    current: Publish<TableSnapshot>,
    workers: Vec<Worker>,
    next_seq: u64,
    counts: ControlCounts,
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
    /// workers; `attribute` is how a sampled job names the thread that
    /// ran it ([`TraceBuilder::set_worker`] or
    /// [`TraceBuilder::set_shard`]).
    ///
    /// # Errors
    /// Rejects zero workers, a zero-slot cache, a zero sample rate and
    /// (in audited builds) a structurally invalid trie.
    pub fn new(
        trie: JumpTrie,
        cfg: ShardedConfig,
        attribute: fn(&mut TraceBuilder, u64),
    ) -> Result<Self, EngineError> {
        if cfg.shards == 0 {
            return Err(EngineError::InvalidParameter(
                "need at least one worker thread",
            ));
        }
        if cfg.lookup_cache == Some(0) {
            return Err(EngineError::InvalidParameter(
                "cache capacity must be at least 1 slot",
            ));
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
        let workers = (0..cfg.shards)
            .map(|id| {
                let registry = telemetry.as_ref().map(|t| &*t.registry);
                Self::spawn_worker(
                    cfg.queue_depth,
                    WorkerState {
                        id,
                        current: current.clone(),
                        // Capacity validated above.
                        cache: cfg.lookup_cache.and_then(|slots| LpmCache::new(slots).ok()),
                        metrics: registry.map(WorkerMetrics::for_registry),
                        tracer: tracer.clone(),
                        attribute,
                    },
                )
            })
            .collect();
        Ok(Self {
            current,
            workers,
            next_seq: 0,
            counts: ControlCounts::default(),
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

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Sequence number the next [`submit`](Self::submit) will stamp.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.current.peek(|s| s.generation)
    }

    /// The currently published snapshot (one refcount bump).
    pub fn snapshot(&self) -> SyncArc<TableSnapshot> {
        self.current.read()
    }

    /// Swaps, audit rejections and queue stalls so far.
    pub fn counts(&self) -> ControlCounts {
        self.counts
    }

    /// The live metrics registry (`None` with telemetry off).
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The live job tracer (`None` with tracing off).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Every registered metric plus the event ring (`None` with
    /// telemetry off).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.registry.snapshot())
    }

    /// Stamps `job` with the next sequence number, enqueues it on
    /// `worker` and returns that number. Blocks only when the worker's
    /// queue is full; the stall is counted
    /// (`vr_service_queue_stalls_total`) and ringed as a
    /// [`EventKind::WorkerStall`] before the blocking send, so
    /// backpressure is observable while it is happening.
    pub fn submit(&mut self, worker: usize, mut job: Job) -> u64 {
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
        let target = &mut self.workers[worker];
        target.in_flight += 1;
        let blocked = match target.job_tx.try_send(job) {
            Ok(()) => return seq,
            Err(TrySendError::Full(job)) => {
                self.counts.queue_stalls += 1;
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

    /// Waits for every submitted job, worker by worker, and hands each
    /// to `each`. Sets the `vr_service_generation_lag` gauge to the
    /// widest gap between the published generation and a drained job's
    /// pinned one — the software analogue of table-reload latency: how
    /// far behind the freshest table the datapath was still serving.
    pub fn drain(&mut self, mut each: impl FnMut(Done)) {
        let published = self.generation();
        let mut max_lag = None;
        for worker in &mut self.workers {
            while worker.in_flight > 0 {
                let done = worker
                    .done_rx
                    .recv()
                    .expect("worker thread alive while service exists");
                worker.in_flight -= 1;
                max_lag = max_lag.max(Some(published.saturating_sub(done.generation)));
                each(done);
            }
        }
        if let (Some(t), Some(lag)) = (&self.telemetry, max_lag) {
            t.generation_lag.set(lag);
        }
    }

    /// Atomically swaps in an already-built trie (the RCU write side) and
    /// returns the new generation. In-flight jobs finish on the snapshot
    /// they pinned.
    ///
    /// # Errors
    /// In audited builds, rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; the live snapshot is untouched and
    /// the rejection is counted.
    pub fn publish(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        // Guard-style span: audit + swap both land in vr_service_publish_ns
        // (recorded on every exit path, including the rejection return).
        let _span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.span("vr_service_publish_ns"));
        let trace_start = self.tracer.as_ref().map(Tracer::now_ns);
        if let Err(err) = (self.gate)(&trie, self.telemetry.as_ref().map(|t| &t.audit)) {
            self.counts.audit_rejections += 1;
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
        self.counts.swaps += 1;
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
    /// Disconnects every queue, then joins every worker: a worker
    /// finishes the job it is on, fails its next send or receive, and
    /// exits, so no thread and no snapshot pin outlives the service.
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
/// the facade to run over; each facade's test module names its tests in
/// a `contract_tests!` table.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use crate::{LookupService, ServiceConfig, ShardedReport, ShardedService};
    use vr_net::synth::TableSpec;

    /// One `#[test]` per row, named `$name`, running contract case `$case`
    /// over the facade `$kind`.
    macro_rules! contract_tests {
        ($kind:expr; $($name:ident => $case:ident,)*) => {
            $(
                #[test]
                fn $name() {
                    crate::service_core::contract::$case($kind);
                }
            )*
        };
    }
    pub(crate) use contract_tests;

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

        fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
            on!(self, s => s.publish_tables(tables))
        }

        fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
            on!(self, s => s.publish_trie(trie))
        }

        fn generation(&self) -> u64 {
            on!(self, s => s.generation())
        }

        fn tables(&self) -> &[RoutingTable] {
            on!(self, s => s.tables())
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

        /// Shuts down; the final figures in the shape both reports share.
        fn finish(self) -> ShardedReport {
            match self {
                Either::Hash(s) => s.shutdown(),
                Either::Spans(s) => {
                    let r = s.shutdown();
                    ShardedReport {
                        shards: r.workers,
                        lookups: r.lookups,
                        misses: r.misses,
                        batches: r.batches,
                        swaps: r.swaps,
                        generations_seen: r.generations_seen,
                        busy_ns: r.busy_ns,
                        queue_stalls: r.queue_stalls,
                        audit_rejections: r.audit_rejections,
                    }
                }
            }
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

    pub(crate) fn oracle_parity_across_worker_counts(kind: Kind) {
        let t = TableSpec::paper_worst_case(21).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .flat_map(|p| [(0, p.addr()), (0, p.addr() | 0xFF)])
            .collect();
        let want = oracle(std::slice::from_ref(&t), &packets);
        for workers in [1, 2, 4] {
            let mut svc = kind.build(vec![t.clone()], pool(workers)).unwrap();
            assert_eq!(svc.process(&packets), want, "workers {workers}");
            let totals = svc.finish();
            assert_eq!(totals.lookups, packets.len() as u64);
            assert_eq!(totals.generations_seen, vec![0]);
            assert_eq!(totals.shards, workers);
        }
    }

    pub(crate) fn mixed_vn_batches_resolve_per_network(kind: Kind) {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
        ];
        let mut svc = kind.build(tables.clone(), pool(2)).unwrap();
        // Deliberately interleave VNs inside each job.
        let packets: Vec<(VnId, u32)> = (0..200u32)
            .map(|i| {
                let dst = if i % 3 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                ((i % 2) as VnId, dst + (i << 8))
            })
            .collect();
        assert_eq!(svc.process(&packets), oracle(&tables, &packets));
        let _ = svc.finish();
    }

    pub(crate) fn empty_tiny_and_ragged_calls_keep_input_order(kind: Kind) {
        let t = TableSpec::paper_worst_case(5).generate().unwrap();
        let mut svc = kind.build(vec![t.clone()], pool(3)).unwrap();
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
        let _ = svc.finish();
    }

    pub(crate) fn cached_matches_uncached_across_a_publish(kind: Kind) {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.0.0/16 2\n"),
            table("172.16.0.0/12 3\n"),
        ];
        let cached_pool = ShardedConfig {
            lookup_cache: Some(512),
            ..pool(2)
        };
        let mut cached = kind.build(tables.clone(), cached_pool).unwrap();
        let mut plain = kind.build(tables.clone(), pool(2)).unwrap();
        let packets: Vec<(VnId, u32)> = (0..256)
            .map(|i| {
                let dst = if i % 4 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                ((i % 2) as VnId, dst)
            })
            .collect();
        // Two passes: pass 2 is answered almost entirely from the cache
        // and must still be bit-identical.
        for _ in 0..2 {
            assert_eq!(cached.process(&packets), plain.process(&packets));
        }
        let snap = cached.telemetry_snapshot().unwrap();
        let hits = snap.counter("vr_cache_hits_total").unwrap_or(0);
        let misses = snap.counter("vr_cache_misses_total").unwrap_or(0);
        let fills = snap.counter("vr_cache_fills_total").unwrap_or(0);
        assert_eq!(hits + misses, 512, "every probe counted");
        assert!(hits > 0, "repeat traffic must hit");
        assert_eq!(misses, fills, "every miss walk fills its slot");
        // A publish bumps the generation; the next pass must re-walk (no
        // stale hits) yet still agree with the uncached service.
        let new_tables = vec![
            table("10.0.0.0/8 9\n10.1.0.0/16 2\n"),
            table("172.16.0.0/12 3\n"),
        ];
        cached.publish_tables(new_tables.clone()).unwrap();
        plain.publish_tables(new_tables.clone()).unwrap();
        let got = cached.process(&packets);
        assert_eq!(got, plain.process(&packets));
        assert_eq!(got, oracle(&new_tables, &packets));
        let _ = cached.finish();
        let _ = plain.finish();
    }

    pub(crate) fn traced_jobs_record_validating_stage_chains(kind: Kind) {
        let t = table("10.0.0.0/8 1\n10.1.0.0/16 2\n");
        // Sample every job so the case is deterministic; exercise both
        // the cached and the uncached worker path.
        for cache in [None, Some(256)] {
            let knobs = ShardedConfig {
                trace_sample: Some(1),
                lookup_cache: cache,
                ..pool(2)
            };
            let mut svc = kind.build(vec![t.clone()], knobs).unwrap();
            let _ = svc.process(&scattered(128));
            svc.publish_tables(vec![t.clone()]).unwrap();
            let _ = svc.process(&scattered(128));
            let snap = svc.tracer().expect("tracer on").snapshot();
            assert_eq!(snap.sample, 1);
            for trace in &snap.traces {
                trace.validate().unwrap();
            }
            // Jobs name the thread that ran them the facade's way, and
            // the post-publish ones observed the bumped generation.
            let jobs: Vec<_> = snap
                .traces
                .iter()
                .filter(|tr| tr.worker.is_some() || tr.shard.is_some())
                .collect();
            assert!(jobs.len() >= 4, "every job sampled");
            let by_shard = kind == Kind::Hash;
            assert!(jobs
                .iter()
                .all(|tr| tr.shard.is_some() == by_shard && tr.worker.is_none() == by_shard));
            assert!(jobs.iter().any(|tr| tr.generation == 1));
            // The publish lands as a control-plane span on the same
            // timeline.
            assert!(snap
                .traces
                .iter()
                .any(|tr| tr.stages[0].stage == Stage::Publish && tr.generation == 1));
            let _ = svc.finish();
        }
    }

    /// With telemetry on the registry's worker counters equal the
    /// report's; with it off there is no registry and the report still
    /// counts.
    fn telemetry_case(kind: Kind, telemetry: bool) {
        let t = TableSpec::paper_worst_case(31).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .map(|p| (0, p.addr() ^ 0x55))
            .take(320)
            .collect();
        let knobs = ShardedConfig {
            telemetry,
            ..pool(2)
        };
        let mut svc = kind.build(vec![t.clone()], knobs).unwrap();
        assert_eq!(
            svc.process(&packets),
            oracle(std::slice::from_ref(&t), &packets)
        );
        assert_eq!(svc.metrics().is_some(), telemetry);
        let snap = svc.telemetry_snapshot();
        assert_eq!(snap.is_some(), telemetry);
        let totals = svc.finish();
        assert_eq!(totals.lookups, 320);
        let Some(snap) = snap else { return };
        assert_eq!(
            snap.counter("vr_service_lookups_total"),
            Some(totals.lookups)
        );
        assert_eq!(snap.counter("vr_service_misses_total"), Some(totals.misses));
        assert_eq!(
            snap.counter("vr_service_batches_total"),
            Some(totals.batches)
        );
        assert_eq!(snap.gauge("vr_service_generation"), Some(0));
        for histogram in ["vr_service_batch_ns", "vr_service_lookup_ns"] {
            assert_eq!(snap.histogram(histogram).unwrap().count, totals.batches);
        }
    }

    pub(crate) fn registry_counters_match_the_report(kind: Kind) {
        telemetry_case(kind, true);
    }

    pub(crate) fn telemetry_off_still_reports(kind: Kind) {
        telemetry_case(kind, false);
    }

    pub(crate) fn rejected_publish_changes_nothing_and_is_counted(kind: Kind) {
        let old = table("10.0.0.0/8 1\n");
        let new = table("10.0.0.0/8 2\n");
        // The report counts the same with the registry on or off.
        for telemetry in [true, false] {
            let knobs = ShardedConfig {
                telemetry,
                ..pool(1)
            };
            let mut svc = kind.build(vec![old.clone()], knobs).unwrap();
            // The gate refuses a table build: the mirror must keep
            // describing the table the datapath is still serving.
            svc.core().gate = refuse;
            let err = svc.publish_tables(vec![new.clone()]).unwrap_err();
            svc.core().gate = audit_snapshot;
            assert!(matches!(err, EngineError::AuditRejected(_)));
            assert_eq!(svc.tables(), std::slice::from_ref(&old));
            assert_eq!(svc.generation(), 0);
            assert_eq!(svc.process(&[(0, 0x0A00_0001)]), vec![Some(1)]);
            let mut rejections = 1;
            if cfg!(any(debug_assertions, feature = "audit-on-publish")) {
                // A structurally corrupt trie: NHI slab truncated to
                // nothing while the root still points leaf entries at
                // vector slot 1. The real audit refuses it.
                let good = JumpTrie::from_table(&old);
                let p = good.raw_parts();
                let corrupt = JumpTrie::from_raw_parts(
                    p.root.to_vec(),
                    p.tail.to_vec(),
                    Vec::new(),
                    p.k,
                );
                let err = svc.publish_trie(corrupt).unwrap_err();
                assert!(err.to_string().contains("structural audit"));
                assert_eq!(svc.generation(), 0);
                assert_eq!(svc.process(&[(0, 0x0A00_0001)]), vec![Some(1)]);
                rejections += 1;
            }
            // An accepted publish commits table and mirror together.
            assert_eq!(svc.publish_tables(vec![new.clone()]).unwrap(), 1);
            assert_eq!(svc.tables(), std::slice::from_ref(&new));
            assert_eq!(svc.process(&[(0, 0x0A00_0001)]), vec![Some(2)]);
            if let Some(snap) = svc.telemetry_snapshot() {
                assert_eq!(snap.counter("vr_service_swaps_total"), Some(1));
                assert_eq!(
                    snap.counter("vr_service_audit_rejections_total"),
                    Some(rejections)
                );
            }
            let totals = svc.finish();
            assert_eq!(totals.swaps, 1);
            assert_eq!(totals.audit_rejections, rejections);
        }
    }

    pub(crate) fn bad_configurations_are_rejected(kind: Kind) {
        let t = table("10.0.0.0/8 1\n");
        assert!(kind.build(vec![], pool(1)).is_err());
        for bad in [
            pool(0),
            ShardedConfig {
                lookup_cache: Some(0),
                ..pool(1)
            },
            ShardedConfig {
                trace_sample: Some(0),
                ..pool(1)
            },
        ] {
            assert!(kind.build(vec![t.clone()], bad).is_err());
        }
        // The VN count is pinned across publishes.
        let mut svc = kind.build(vec![t.clone()], pool(1)).unwrap();
        assert!(svc.publish_tables(vec![t.clone(), t]).is_err());
        assert_eq!(svc.generation(), 0);
        let _ = svc.finish();
    }

    pub(crate) fn process_after_an_uncollected_submit_returns_only_its_own_results(kind: Kind) {
        let t = table("10.0.0.0/8 1\n192.168.0.0/16 2\n");
        let mut svc = kind.build(vec![t], pool(2)).unwrap();
        svc.submit_only(&[(0, 0xC0A8_0001); 3]);
        assert_eq!(
            svc.process(&[(0, 0x0A00_0001), (0, 0x0B00_0000)]),
            vec![Some(1), None]
        );
        // The stale jobs were drained and counted, just not returned.
        assert_eq!(svc.finish().lookups, 5);
    }

    pub(crate) fn drop_joins_the_workers_and_frees_the_snapshot(kind: Kind) {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let mut svc = kind.build(vec![t], pool(2)).unwrap();
        let pin = svc.core().snapshot();
        // A backlog nobody collects: the workers are still busy, each
        // pinning the snapshot, when the service goes away.
        let packets = scattered(2048);
        for _ in 0..8 {
            svc.submit_only(&packets);
        }
        drop(svc);
        assert_eq!(
            SyncArc::strong_count(&pin),
            1,
            "a worker outlived the service and still pins its table"
        );
    }
}
