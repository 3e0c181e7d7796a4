//! Span-dispatched lookup service with incremental route updates.
//!
//! The cycle-level [`PipelineEngine`](crate::PipelineEngine) models the
//! paper's hardware; this module is the *production* datapath the ROADMAP
//! asks for. [`LookupService`] is one of the two facades over the shared
//! service core (worker pool, `Publish`-slot table swap, audit gate,
//! telemetry, join-on-drop — see `service_core.rs`); what it adds is how
//! packets reach the workers and how routes change:
//!
//! **Span dispatch.** [`LookupService::process`] cuts a call into at most
//! `workers` contiguous spans of at least
//! [`ServiceConfig::batch_width`] keys, one job per span, and
//! concatenates the results in order — the paper's VM organization, one
//! time-shared pipeline serving every VN.
//!
//! **Route updates publish incrementally.** [`LookupService::apply_updates`]
//! keeps an incremental plant — the live [`MergedTrie`] plus its per-/16
//! [`JumpSlabs`] decomposition — applies announce/withdraw deltas in
//! place, re-derives only the dirty buckets, and assembles a fresh
//! [`JumpTrie`] for the swap. Past
//! [`ServiceConfig::dirty_rebuild_threshold`] dirty buckets (or with
//! [`ServiceConfig::full_rebuild`] set for A/B comparison) it falls back
//! to the from-scratch clone-and-rebuild path. Either way the new table
//! is built *outside* the core's publish slot, so reconfiguration never
//! stalls the datapath (the non-blocking reload of the Terabit hybrid
//! FPGA-ASIC platform in PAPERS.md), and the control plane's mirror of
//! the tables ([`LookupService::tables`]) and the plant are committed
//! only after the core's audit gate accepts the candidate: a rejected
//! publish leaves table, mirror and generation untouched.
//!
//! Per-worker counters (lookups, misses, batch latencies, generations
//! observed) ride back with each completed batch and aggregate into a
//! [`ServiceReport`].

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::Ipv4Prefix;
use vr_net::{RouteUpdate, VnId};
use vr_obs::{Stage, TraceBuilder, Tracer};
use vr_sync::SyncArc;
use vr_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Stopwatch, TelemetrySnapshot};
use vr_trie::{DirtyBuckets, JumpSlabs, JumpTrie, MergedTrie};

pub use crate::service_core::TableSnapshot;
use crate::service_core::{build_trie, Done, Job, ServiceCore, ShardedConfig};
use crate::EngineError;

/// Span floor used when [`ServiceConfig::batch_width`] is `None`.
const DEFAULT_BATCH_WIDTH: usize = 64;

/// Tuning knobs of a [`LookupService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Worker threads (shards). Each owns an order-preserving input FIFO.
    pub workers: usize,
    /// Fewest keys worth a hand-off of their own: [`LookupService::process`]
    /// cuts a call into at most `workers` spans of at least this many
    /// keys. `None` means 64.
    pub batch_width: Option<usize>,
    /// Depth of each worker's input queue, in batches; producers block
    /// (backpressure) once a shard is this far behind.
    pub queue_depth: usize,
    /// Whether to run the service with a live [`MetricsRegistry`]:
    /// per-worker sharded counters, batch/lookup latency histograms, the
    /// structured-event ring, and publish/audit spans. The record path
    /// is a handful of relaxed atomics per *batch*, so this defaults on;
    /// `false` drops the service back to report-only accounting (used by
    /// the bench to measure the overhead delta).
    pub telemetry: bool,
    /// Route updates rebuild the whole table family from a clone instead
    /// of patching dirty sub-slabs. Off by default; kept as the A/B
    /// baseline for the `control_churn` study and as the semantics
    /// oracle for the incremental path.
    pub full_rebuild: bool,
    /// Dirty-bucket count beyond which an incremental update batch stops
    /// patching per-bucket and re-derives every sub-slab from the merged
    /// trie in one pass. 4096 of 65536 buckets (~6 %) keeps the patch
    /// path ahead of a full decomposition on edge-style tables.
    pub dirty_rebuild_threshold: usize,
    /// Slot count of the per-worker LPM result cache
    /// ([`crate::cache::LpmCache`]), rounded up to a power of two;
    /// `None` disables caching. Every worker owns its own private
    /// cache; slots are tagged with the publish generation, so route
    /// updates invalidate them in O(1) without any flush. Worth turning
    /// on whenever traffic repeats destinations (skewed/Zipf mixes);
    /// pure one-shot random traffic pays a small probe+fill overhead
    /// for no hits, which is why the default is off.
    pub lookup_cache: Option<usize>,
    /// 1-in-N batch-trace sampling rate (`Some(64)` traces every 64th
    /// submitted batch); `None` disables tracing entirely. Sampled
    /// batches carry an owned [`vr_obs::TraceBuilder`] through the
    /// queue and close stage spans (enqueue → dequeue → cache probe →
    /// lane walk → scatter → complete) into the service's
    /// [`vr_obs::Tracer`] ring; unsampled batches pay one modulo on
    /// submit and an `Option` check per stage. The
    /// `service_jump_traced` bench row holds the sampled hot path
    /// within 5% of the untraced one at the default 1-in-64.
    pub trace_sample: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            batch_width: None,
            queue_depth: 64,
            telemetry: true,
            full_rebuild: false,
            dirty_rebuild_threshold: 4096,
            lookup_cache: None,
            trace_sample: None,
        }
    }
}

/// One resolved batch leaving a worker.
#[derive(Debug, Clone)]
pub struct CompletedBatch {
    /// Submission sequence number (global, monotonically increasing).
    pub seq: u64,
    /// Per-packet results, in submission order.
    pub results: Vec<Option<NextHop>>,
    /// Generation of the snapshot the whole batch resolved against.
    pub generation: u64,
    /// Wall time the worker spent resolving the batch, in nanoseconds.
    pub elapsed_ns: u64,
    /// Worker (shard) that served the batch.
    pub worker: usize,
}

/// Registry handles of the route-update path, bound on the core's
/// registry; the core itself counts swaps, rejections and stalls.
struct UpdateTelemetry {
    updates: Counter,
    incremental_publishes: Counter,
    full_rebuilds: Counter,
    update_ns: Histogram,
    dirty_buckets: Gauge,
}

impl UpdateTelemetry {
    fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            updates: registry.counter("vr_service_updates_total"),
            incremental_publishes: registry.counter("vr_service_incremental_publishes_total"),
            full_rebuilds: registry.counter("vr_service_full_rebuilds_total"),
            update_ns: registry.histogram("vr_service_update_ns"),
            dirty_buckets: registry.gauge("vr_service_dirty_buckets"),
        }
    }
}

/// Aggregated service counters, serializable for experiment reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Worker threads the service ran with.
    pub workers: usize,
    /// Span floor in effect ([`ServiceConfig::batch_width`], or 64).
    pub batch_width: usize,
    /// Lookups resolved.
    pub lookups: u64,
    /// Lookups that matched no route.
    pub misses: u64,
    /// Batches completed.
    pub batches: u64,
    /// Tables published over the service's lifetime (generation swaps).
    pub swaps: u64,
    /// Distinct snapshot generations batches were observed resolving
    /// against, sorted ascending.
    pub generations_seen: Vec<u64>,
    /// Histogram of per-lookup worker latency: bucket `i` counts batches
    /// whose mean ns/lookup fell in `[2^i, 2^(i+1))`.
    pub latency_histogram_ns: Vec<u64>,
    /// Total worker-side busy time across all batches, in nanoseconds.
    pub busy_ns: u64,
    /// Lowest snapshot generation any collected batch resolved against.
    pub generation_min: u64,
    /// Highest snapshot generation any collected batch resolved against.
    pub generation_max: u64,
    /// Publishes rejected by the structural audit gate, counted with
    /// telemetry on or off.
    pub audit_rejections: u64,
    /// Route updates applied through [`LookupService::apply_updates`].
    pub updates_applied: u64,
    /// Publishes that went through the incremental dirty-bucket patch
    /// path.
    pub incremental_publishes: u64,
    /// Publishes that rebuilt the whole structure: the
    /// [`ServiceConfig::full_rebuild`] baseline plus dirty-threshold
    /// fallbacks of the incremental path.
    pub full_rebuilds: u64,
    /// Submits that blocked on a full worker queue, counted with
    /// telemetry on or off.
    pub queue_stalls: u64,
}

impl ServiceReport {
    fn new(workers: usize, batch_width: usize) -> Self {
        Self {
            workers,
            batch_width,
            latency_histogram_ns: vec![0; 32],
            ..Self::default()
        }
    }

    fn observe(&mut self, done: &Done) {
        let n = done.job.results.len() as u64;
        self.lookups += n;
        self.misses += done.misses;
        self.batches += 1;
        if let Some(per_lookup) = done.elapsed_ns.checked_div(n) {
            let bucket = (63 - u64::leading_zeros(per_lookup.max(1))).min(31) as usize;
            self.latency_histogram_ns[bucket] += 1;
        }
        self.busy_ns += done.elapsed_ns;
        if let Err(pos) = self.generations_seen.binary_search(&done.generation) {
            self.generations_seen.insert(pos, done.generation);
        }
        self.generation_min = self.generations_seen.first().copied().unwrap_or(0);
        self.generation_max = self.generations_seen.last().copied().unwrap_or(0);
    }

    /// Mean worker-side ns per lookup (0 when nothing ran).
    #[must_use]
    pub fn mean_ns_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.lookups as f64
    }
}

/// The incremental update plant: the live [`MergedTrie`] and its
/// per-/16-bucket [`JumpSlabs`] decomposition, kept in lockstep with the
/// mirrored tables. Dropped (and lazily rebuilt) whenever the tables are
/// replaced wholesale via [`LookupService::publish_tables`].
struct IncrementalPlant {
    merged: MergedTrie,
    slabs: JumpSlabs,
}

/// Per-call bookkeeping entry of [`LookupService::apply_updates`]: which
/// generation the batch published and through which path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct UpdateRecord {
    /// Generation the batch published.
    pub generation: u64,
    /// Updates in the batch (pre-coalescing — the service applies what
    /// it is given).
    pub updates: usize,
    /// True when the publish went through the dirty-bucket patch path.
    pub incremental: bool,
    /// Buckets the batch dirtied (0 on the full-rebuild baseline path).
    pub dirty_buckets: usize,
}

/// Resolves a possibly mixed-VN batch against one trie in one in-order
/// pass: the merged trie answers every VN from the same walk and the
/// VNID only picks a column of the leaf's NHI vector, so each packet
/// walks with its own VN and nothing is grouped, sorted or allocated.
/// Public so the bench can measure it as the uncached baseline the
/// result cache is compared against.
pub fn lookup_batch_mixed(
    trie: &JumpTrie,
    packets: &[(VnId, u32)],
    out: &mut [Option<NextHop>],
) {
    debug_assert_eq!(packets.len(), out.len());
    for (slot, &(vn, dst)) in out.iter_mut().zip(packets) {
        *slot = trie.lookup_vn(usize::from(vn), dst);
    }
}

/// N-shard concurrent lookup service over an immutable, atomically
/// swappable [`JumpTrie`].
///
/// ```
/// use vr_engine::service::{LookupService, ServiceConfig};
/// use vr_net::RoutingTable;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let cfg = ServiceConfig { workers: 2, ..ServiceConfig::default() };
/// let mut service = LookupService::new(vec![table], cfg).unwrap();
///
/// let packets = vec![(0, 0x0A01_0103), (0, 0x0A02_0000), (0, 0x0B00_0000)];
/// assert_eq!(service.process(&packets), vec![Some(2), Some(1), None]);
///
/// // Publish a route change: in-flight lookups keep their snapshot.
/// let updated: RoutingTable = "10.0.0.0/8 5\n".parse().unwrap();
/// service.publish_tables(vec![updated]).unwrap();
/// assert_eq!(service.process(&[(0, 0x0A01_0103)]), vec![Some(5)]);
/// let report = service.shutdown();
/// assert_eq!(report.swaps, 1);
/// ```
pub struct LookupService {
    core: ServiceCore,
    /// Control-plane mirror of the per-VN tables: always the family the
    /// datapath is serving, replaced or edited only once a publish is
    /// accepted.
    tables: Vec<RoutingTable>,
    batch_width: usize,
    report: ServiceReport,
    /// `None` when [`ServiceConfig::telemetry`] is off.
    telemetry: Option<UpdateTelemetry>,
    /// Route updates clone-and-rebuild instead of patching sub-slabs.
    full_rebuild: bool,
    /// Dirty-bucket fallback threshold of the incremental path.
    dirty_threshold: usize,
    /// Lazily materialized incremental update state.
    plant: Option<IncrementalPlant>,
    /// One entry per `apply_updates` call, oldest first.
    update_log: Vec<UpdateRecord>,
}

impl LookupService {
    /// Builds the jump trie and spawns the workers.
    ///
    /// # Errors
    /// Rejects an empty table set, zero workers, a zero batch width,
    /// cache size or sample rate, and merge failures (more than 64
    /// virtual networks).
    pub fn new(tables: Vec<RoutingTable>, cfg: ServiceConfig) -> Result<Self, EngineError> {
        if tables.is_empty() {
            return Err(EngineError::InvalidParameter("need at least one table"));
        }
        let batch_width = cfg.batch_width.unwrap_or(DEFAULT_BATCH_WIDTH);
        if batch_width == 0 {
            return Err(EngineError::InvalidParameter("batch width must be positive"));
        }
        let pool = ShardedConfig {
            shards: cfg.workers,
            queue_depth: cfg.queue_depth,
            telemetry: cfg.telemetry,
            lookup_cache: cfg.lookup_cache,
            trace_sample: cfg.trace_sample,
        };
        let core = ServiceCore::new(build_trie(&tables)?, pool, TraceBuilder::set_worker)?;
        let telemetry = core.metrics().map(|registry| {
            registry
                .gauge("vr_service_batch_width")
                .set(batch_width as u64);
            UpdateTelemetry::for_registry(registry)
        });
        Ok(Self {
            core,
            tables,
            batch_width,
            report: ServiceReport::new(cfg.workers, batch_width),
            telemetry,
            full_rebuild: cfg.full_rebuild,
            dirty_threshold: cfg.dirty_rebuild_threshold,
            plant: None,
            update_log: Vec::new(),
        })
    }

    /// Worker thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.core.workers()
    }

    /// Span floor in effect: the fewest keys [`process`](Self::process)
    /// hands a worker as a job of their own.
    #[must_use]
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Generation of the currently published snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.core.generation()
    }

    /// The control-plane view of the per-VN tables.
    #[must_use]
    pub fn tables(&self) -> &[RoutingTable] {
        &self.tables
    }

    /// Copies the core's control-plane counts into the report.
    fn mirror_counts(&mut self) {
        let counts = self.core.counts();
        self.report.swaps = counts.swaps;
        self.report.audit_rejections = counts.audit_rejections;
        self.report.queue_stalls = counts.queue_stalls;
    }

    /// Enqueues one batch on the next worker (round-robin) and returns
    /// its sequence number. Blocks only when that worker's queue is full;
    /// the stall is counted (`vr_service_queue_stalls_total`, and in the
    /// report) and ringed as a
    /// [`WorkerStall`](vr_telemetry::EventKind::WorkerStall) before the
    /// blocking send, so backpressure is observable while it is
    /// happening.
    pub fn submit(&mut self, packets: Vec<(VnId, u32)>) -> u64 {
        let worker = (self.core.next_seq() % self.core.workers() as u64) as usize;
        let seq = self.core.submit(
            worker,
            Job {
                packets,
                ..Job::default()
            },
        );
        self.mirror_counts();
        seq
    }

    /// Waits for every submitted batch, aggregates counters, and returns
    /// the batches sorted by submission sequence.
    pub fn collect_all(&mut self) -> Vec<CompletedBatch> {
        let mut done: Vec<CompletedBatch> = Vec::new();
        let report = &mut self.report;
        self.core.drain(|batch| {
            report.observe(&batch);
            done.push(CompletedBatch {
                seq: batch.job.seq,
                results: batch.job.results,
                generation: batch.generation,
                elapsed_ns: batch.elapsed_ns,
                worker: batch.worker,
            });
        });
        done.sort_by_key(|b| b.seq);
        done
    }

    /// Resolves a packet stream end to end and returns per-packet results
    /// in input order. The call is cut into at most `workers` contiguous
    /// spans of at least [`batch_width`](Self::batch_width) keys (one
    /// shorter span when the whole call is shorter), each span is one
    /// job, and a worker resolves its span against the one snapshot it
    /// pins — so the hand-off is paid per worker per call, not per chunk.
    /// Batches a caller [`submit`](Self::submit)ted and never collected
    /// are drained and counted in the report, but are not part of the
    /// result.
    pub fn process(&mut self, packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
        let first_seq = self.core.next_seq();
        let spans = (packets.len() / self.batch_width).clamp(1, self.core.workers());
        let (len, longer) = (packets.len() / spans, packets.len() % spans);
        let mut rest = packets;
        for span in 0..spans {
            let (head, tail) = rest.split_at(len + usize::from(span < longer));
            rest = tail;
            if !head.is_empty() {
                self.submit(head.to_vec());
            }
        }
        let mut out = Vec::with_capacity(packets.len());
        for batch in self.collect_all() {
            if batch.seq >= first_seq {
                out.extend(batch.results);
            }
        }
        out
    }

    /// Publishes a fresh snapshot built from `tables` and, once the
    /// audit gate has accepted it, replaces the control-plane mirror.
    /// The build runs outside the swap lock; in-flight batches finish on
    /// their pinned snapshot. Returns the new generation.
    ///
    /// # Errors
    /// Propagates trie construction failures and audit rejections; the
    /// live table, the mirror and the incremental plant are untouched on
    /// error. The VN count must not change — workers' batches carry VN
    /// ids that must stay valid across swaps.
    pub fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
        if tables.len() != self.tables.len() {
            return Err(EngineError::InvalidParameter(
                "table count must not change across a swap",
            ));
        }
        let generation = self.publish_trie(build_trie(&tables)?)?;
        self.tables = tables;
        // The wholesale replacement invalidates the incremental plant; it
        // is rebuilt lazily on the next incremental update or α read.
        self.plant = None;
        Ok(generation)
    }

    /// Atomically swaps in an already-built trie (the RCU write side) and
    /// returns the new generation.
    ///
    /// # Errors
    /// In audited builds (debug, or release with `audit-on-publish`),
    /// rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; the live snapshot is untouched.
    pub fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        let outcome = self.core.publish(trie);
        self.mirror_counts();
        outcome
    }

    /// Applies a route-update stream (`vr_net::update`) to the mirrored
    /// tables and publishes a fresh snapshot — announce/withdraw never
    /// stalls in-flight lookups. Returns the new generation.
    ///
    /// Updates are applied in slice order, so a batch carrying several
    /// updates for the same (VN, prefix) resolves last-writer-wins (the
    /// `vr-control` coalescer enforces this deterministically upstream).
    /// By default the batch goes through the incremental path: deltas
    /// land in the live [`MergedTrie`], only the dirty /16 buckets are
    /// re-derived, and the publishable [`JumpTrie`] is assembled by a
    /// straight copy. Past [`ServiceConfig::dirty_rebuild_threshold`]
    /// dirty buckets every sub-slab is re-derived in one pass; with
    /// [`ServiceConfig::full_rebuild`] set the legacy clone-and-rebuild
    /// baseline runs instead. If the audit gate rejects the assembled
    /// snapshot, the batch is rolled back and the mirrored tables, the
    /// plant, and the live generation are all left untouched.
    ///
    /// # Errors
    /// Rejects updates addressing a VN the service does not host (checked
    /// up front — nothing is applied), and propagates
    /// [`EngineError::AuditRejected`] from the publish gate.
    pub fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, EngineError> {
        let watch = Stopwatch::start();
        let trace_start = self.core.tracer().map(Tracer::now_ns);
        for update in updates {
            if usize::from(update.vnid()) >= self.tables.len() {
                return Err(EngineError::InvalidParameter("update for unknown VN"));
            }
        }
        let (generation, dirty, patched) = if self.full_rebuild {
            (self.apply_updates_full(updates)?, 0, false)
        } else {
            self.apply_updates_incremental(updates)?
        };
        self.report.updates_applied += updates.len() as u64;
        if patched {
            self.report.incremental_publishes += 1;
        } else {
            self.report.full_rebuilds += 1;
        }
        self.update_log.push(UpdateRecord {
            generation,
            updates: updates.len(),
            incremental: patched,
            dirty_buckets: dirty,
        });
        if let Some(t) = &self.telemetry {
            t.updates.add(0, updates.len() as u64);
            if patched {
                t.incremental_publishes.inc(0);
            } else {
                t.full_rebuilds.inc(0);
            }
            t.dirty_buckets.set(dirty as u64);
            t.update_ns.record(watch.elapsed_ns());
        }
        if let (Some(tr), Some(start)) = (self.core.tracer(), trace_start) {
            tr.record_span(Stage::ApplyUpdates, start, generation);
        }
        Ok(generation)
    }

    /// Legacy baseline: clone the table family, apply the batch, rebuild
    /// everything. Kept behind [`ServiceConfig::full_rebuild`] for A/B
    /// benchmarking and as the semantics oracle of the incremental path.
    fn apply_updates_full(&mut self, updates: &[RouteUpdate]) -> Result<u64, EngineError> {
        // Sanctioned full-rebuild fallback — the one clone of the table
        // family the `no-tables-clone` lint permits in this file.
        let mut staged = self.tables.clone();
        for update in updates {
            match *update {
                RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                } => {
                    staged[usize::from(vnid)].insert(prefix, next_hop);
                }
                RouteUpdate::Withdraw { vnid, prefix } => {
                    staged[usize::from(vnid)].remove(&prefix);
                }
            }
        }
        self.publish_tables(staged)
    }

    /// Incremental path: delta-apply to the merged trie, patch dirty
    /// buckets (or re-derive all sub-slabs past the threshold), assemble,
    /// publish. Returns `(generation, dirty buckets, patched?)`; on a
    /// publish rejection the deltas are rolled back in reverse order.
    fn apply_updates_incremental(
        &mut self,
        updates: &[RouteUpdate],
    ) -> Result<(u64, usize, bool), EngineError> {
        self.ensure_plant()?;
        let Some(mut plant) = self.plant.take() else {
            return Err(EngineError::InvalidParameter("incremental plant missing"));
        };
        let mut dirty = DirtyBuckets::new();
        // Undo log: pre-update next hop per (VN, prefix), in apply order.
        let mut applied: Vec<(usize, Ipv4Prefix, Option<NextHop>)> =
            Vec::with_capacity(updates.len());
        for update in updates {
            match *update {
                RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                } => {
                    let vn = usize::from(vnid);
                    let prev = plant.merged.insert(vn, prefix, next_hop);
                    self.tables[vn].insert(prefix, next_hop);
                    applied.push((vn, prefix, prev));
                    dirty.mark_prefix(&prefix);
                }
                RouteUpdate::Withdraw { vnid, prefix } => {
                    let vn = usize::from(vnid);
                    let prev = plant.merged.remove(vn, &prefix);
                    self.tables[vn].remove(&prefix);
                    applied.push((vn, prefix, prev));
                    dirty.mark_prefix(&prefix);
                }
            }
        }
        let patched = dirty.len() <= self.dirty_threshold;
        if patched {
            for bucket in dirty.iter() {
                plant.slabs.rebuild_bucket(&plant.merged, bucket);
            }
        } else {
            plant.slabs = JumpSlabs::from_merged(&plant.merged);
        }
        let trie = plant.slabs.assemble();
        match self.publish_trie(trie) {
            Ok(generation) => {
                self.plant = Some(plant);
                Ok((generation, dirty.len(), patched))
            }
            Err(err) => {
                // Restore tables and merged trie to the pre-batch state
                // (reverse order handles repeated keys), then re-derive
                // the touched buckets so the plant matches again.
                for (vn, prefix, prev) in applied.into_iter().rev() {
                    match prev {
                        Some(nh) => {
                            plant.merged.insert(vn, prefix, nh);
                            self.tables[vn].insert(prefix, nh);
                        }
                        None => {
                            plant.merged.remove(vn, &prefix);
                            self.tables[vn].remove(&prefix);
                        }
                    }
                }
                for bucket in dirty.iter() {
                    plant.slabs.rebuild_bucket(&plant.merged, bucket);
                }
                self.plant = Some(plant);
                Err(err)
            }
        }
    }

    /// Materializes the incremental plant from the mirrored tables if it
    /// is not already live.
    fn ensure_plant(&mut self) -> Result<(), EngineError> {
        if self.plant.is_none() {
            let merged = MergedTrie::from_tables(&self.tables)?;
            let slabs = JumpSlabs::from_merged(&merged);
            self.plant = Some(IncrementalPlant { merged, slabs });
        }
        Ok(())
    }

    /// Rebuilds the canonical merged structure from the mirrored tables,
    /// publishes it, and replaces the incremental plant — the re-merge
    /// endpoint `vr-control` triggers on α drift. Returns the new
    /// generation; on rejection the old plant and generation stay live.
    ///
    /// # Errors
    /// Propagates merge failures and audit rejections.
    pub fn remerge_publish(&mut self) -> Result<u64, EngineError> {
        let merged = MergedTrie::from_tables(&self.tables)?;
        let slabs = JumpSlabs::from_merged(&merged);
        let trie = slabs.assemble();
        let generation = self.publish_trie(trie)?;
        self.plant = Some(IncrementalPlant { merged, slabs });
        Ok(generation)
    }

    /// Measured merging efficiency α of the live table family, O(1) when
    /// the incremental plant is warm (it is materialized on first use).
    ///
    /// # Errors
    /// Propagates merge failures when the plant must be (re)built.
    pub fn alpha(&mut self) -> Result<f64, EngineError> {
        self.ensure_plant()?;
        Ok(self
            .plant
            .as_ref()
            .map_or(0.0, |p| p.merged.merging_efficiency()))
    }

    /// The currently published snapshot (one refcount bump) — lets the
    /// control plane size the live structure without re-building it.
    #[must_use]
    pub fn snapshot(&self) -> SyncArc<TableSnapshot> {
        self.core.snapshot()
    }

    /// Per-call bookkeeping of [`LookupService::apply_updates`], oldest
    /// first: which generation each batch published and via which path.
    #[must_use]
    pub fn update_log(&self) -> &[UpdateRecord] {
        &self.update_log
    }

    /// Counters aggregated from every batch collected so far.
    #[must_use]
    pub fn report(&self) -> &ServiceReport {
        &self.report
    }

    /// The live metrics registry, when the service was configured with
    /// [`ServiceConfig::telemetry`]. Clone the `Arc` to scrape from
    /// another thread while the service keeps running.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.core.metrics()
    }

    /// The live batch tracer, when the service was configured with
    /// [`ServiceConfig::trace_sample`]. Clone it to read completed
    /// traces (or export them over the vr-obs HTTP plane) from another
    /// thread while the service keeps running.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.core.tracer()
    }

    /// Captures a [`TelemetrySnapshot`] of every registered metric plus
    /// the event ring; `None` with telemetry off.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.core.telemetry_snapshot()
    }

    /// Drains outstanding batches, stops and joins the workers (the
    /// core's `Drop`, which also runs when the service is simply
    /// dropped), and returns the final report.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        let _ = self.collect_all();
        std::mem::take(&mut self.report)
    }
}

impl std::fmt::Debug for LookupService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupService")
            .field("workers", &self.workers())
            .field("batch_width", &self.batch_width)
            .field("generation", &self.generation())
            .field("tables", &self.tables.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_core::contract::{self, contract_tests, Kind};
    use vr_net::synth::TableSpec;
    use vr_telemetry::EventKind;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn small_cfg(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            batch_width: Some(16),
            queue_depth: 8,
            telemetry: true,
            ..ServiceConfig::default()
        }
    }

    impl LookupService {
        pub(crate) fn core_mut(&mut self) -> &mut ServiceCore {
            &mut self.core
        }
    }

    contract_tests! { Kind::Spans;
        resolves_like_the_oracle_across_shards => oracle_parity_across_worker_counts,
        serves_merged_vns_and_mixed_batches => mixed_vn_batches_resolve_per_network,
        empty_tiny_and_ragged_calls_keep_input_order => empty_tiny_and_ragged_calls_keep_input_order,
        cached_service_matches_uncached_and_counts_hits => cached_matches_uncached_across_a_publish,
        traced_service_records_validating_stage_chains => traced_jobs_record_validating_stage_chains,
        telemetry_off_disables_the_registry => telemetry_off_still_reports,
        process_after_an_uncollected_submit_returns_only_its_own_results =>
            process_after_an_uncollected_submit_returns_only_its_own_results,
        drop_joins_the_workers_and_frees_the_snapshot => drop_joins_the_workers_and_frees_the_snapshot,
    }

    #[test]
    fn trace_sampling_is_one_in_n_and_zero_rate_is_rejected() {
        let cfg = ServiceConfig {
            trace_sample: Some(4),
            ..small_cfg(1)
        };
        let mut service = LookupService::new(vec![table("10.0.0.0/8 1\n")], cfg).unwrap();
        let packets: Vec<(VnId, u32)> = (0..16u32).map(|i| (0, 0x0A00_0000 | i)).collect();
        for _ in 0..16 {
            service.submit(packets.clone());
        }
        let _ = service.collect_all();
        let snap = service.tracer().unwrap().snapshot();
        assert_eq!(snap.recorded, 4, "every 4th of 16 batches");
        assert!(snap.traces.iter().all(|t| t.seq % 4 == 0));
        let _ = service.shutdown();

        let bad = ServiceConfig {
            trace_sample: Some(0),
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], bad).is_err());
    }

    #[test]
    fn cache_config_rejects_zero_slots() {
        let cfg = ServiceConfig {
            lookup_cache: Some(0),
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], cfg).is_err());
    }

    #[test]
    fn updates_swap_without_changing_vn_count() {
        let mut service =
            LookupService::new(vec![table("10.0.0.0/8 1\n")], small_cfg(2)).unwrap();
        assert_eq!(service.generation(), 0);
        let gen = service
            .apply_updates(&[
                RouteUpdate::Announce {
                    vnid: 0,
                    prefix: "10.1.1.0/24".parse().unwrap(),
                    next_hop: 9,
                },
                RouteUpdate::Withdraw {
                    vnid: 0,
                    prefix: "10.0.0.0/8".parse().unwrap(),
                },
            ])
            .unwrap();
        assert_eq!(gen, 1);
        assert_eq!(service.generation(), 1);
        assert_eq!(
            service.process(&[(0, 0x0A01_0101), (0, 0x0A02_0000)]),
            vec![Some(9), None]
        );
        // Updates for a VN we do not host are rejected, table untouched.
        assert!(service
            .apply_updates(&[RouteUpdate::Withdraw {
                vnid: 7,
                prefix: "10.1.1.0/24".parse().unwrap(),
            }])
            .is_err());
        assert_eq!(service.generation(), 1);
        let report = service.shutdown();
        assert_eq!(report.swaps, 1);
        assert!(report.generations_seen.contains(&1));
    }

    #[test]
    fn audit_gate_rejects_corrupt_trie_and_keeps_serving() {
        contract::rejected_publish_changes_nothing_and_is_counted(Kind::Spans);
        // A refused table build leaves the warm incremental plant alone.
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t.clone(), t.clone()], small_cfg(1)).unwrap();
        let _ = service.alpha().unwrap();
        service.core.gate = contract::refuse;
        assert!(service.publish_tables(vec![t.clone(), t]).is_err());
        assert!(service.plant.is_some());
        assert_eq!(service.shutdown().audit_rejections, 1);
    }

    #[test]
    fn rejects_bad_configs() {
        contract::bad_configurations_are_rejected(Kind::Spans);
        let zero_width = ServiceConfig {
            batch_width: Some(0),
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], zero_width).is_err());
    }

    #[test]
    fn unset_batch_width_means_64() {
        let cfg = ServiceConfig {
            workers: 1,
            batch_width: None,
            queue_depth: 4,
            ..ServiceConfig::default()
        };
        let service = LookupService::new(vec![table("10.0.0.0/8 1\n")], cfg).unwrap();
        assert_eq!(service.batch_width(), 64);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.gauge("vr_service_batch_width"), Some(64));
        assert_eq!(service.shutdown().batch_width, 64);
    }

    #[test]
    fn registry_counters_match_the_report() {
        contract::registry_counters_match_the_report(Kind::Spans);
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t], small_cfg(2)).unwrap();
        let _ = service.process(&[(0, 0x0A00_0001); 40]);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.gauge("vr_service_batch_width"), Some(16));
        let report = service.shutdown();
        assert_eq!((report.generation_min, report.generation_max), (0, 0));
    }

    #[test]
    fn swaps_and_rejections_reach_events_and_counters() {
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t.clone()], small_cfg(1)).unwrap();
        service
            .publish_tables(vec![table("10.0.0.0/8 2\n")])
            .unwrap();
        // A corrupt candidate: rejected, counted, ringed.
        let good = JumpTrie::from_table(&t);
        let p = good.raw_parts();
        let corrupt = JumpTrie::from_raw_parts(
            p.root.to_vec(),
            p.tail.to_vec(),
            Vec::new(),
            p.k,
        );
        assert!(service.publish_trie(corrupt).is_err());
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_swaps_total"), Some(1));
        assert_eq!(snap.counter("vr_service_audit_rejections_total"), Some(1));
        assert_eq!(snap.gauge("vr_service_generation"), Some(1));
        // Debug builds audit on construction + both publishes.
        assert!(snap.counter("vr_audit_runs_total").unwrap() >= 2);
        assert!(snap.counter("vr_audit_violations_total").unwrap() > 0);
        assert!(snap.histogram("vr_service_publish_ns").unwrap().count >= 2);
        let kinds: Vec<&EventKind> = snap.events.events.iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::GenerationSwap { generation: 1 })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::AuditRejected { generation: 2 })));
        let report = service.shutdown();
        assert_eq!(report.audit_rejections, 1);
        assert_eq!(report.swaps, 1);
    }

    #[test]
    fn queue_stalls_are_counted_when_a_shard_backs_up() {
        let t = TableSpec::paper_worst_case(17).generate().unwrap();
        let base: Vec<(VnId, u32)> = t.prefixes().map(|p| (0, p.addr())).collect();
        let packets: Vec<(VnId, u32)> = base.iter().copied().cycle().take(64 * 256).collect();
        // The report counts stalls with the registry on or off.
        for telemetry in [true, false] {
            let cfg = ServiceConfig {
                workers: 1,
                batch_width: Some(64),
                queue_depth: 1,
                telemetry,
                ..ServiceConfig::default()
            };
            let mut service = LookupService::new(vec![t.clone()], cfg).unwrap();
            // One job per 64 keys, submitted directly: `process` would hand
            // the single worker one span and never fill its queue.
            for chunk in packets.chunks(64) {
                service.submit(chunk.to_vec());
            }
            let _ = service.collect_all();
            // With one worker, depth-1 queue, and 256 batches, the
            // submitter must have outrun the worker at least once.
            let stalls = service.report().queue_stalls;
            assert!(stalls > 0);
            if let Some(snap) = service.telemetry_snapshot() {
                assert_eq!(snap.counter("vr_service_queue_stalls_total"), Some(stalls));
                assert!(snap
                    .events
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::WorkerStall { worker: 0 })));
            }
            let _ = service.shutdown();
        }
    }

    fn churn_family(seed: u64, k: usize) -> Vec<vr_net::RoutingTable> {
        vr_net::synth::FamilySpec {
            k,
            prefixes_per_table: 300,
            shared_fraction: 0.6,
            seed,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 12,
        }
        .generate()
        .unwrap()
    }

    fn churn_batches(
        tables: Vec<vr_net::RoutingTable>,
        seed: u64,
        batches: usize,
        per_batch: usize,
    ) -> Vec<Vec<RouteUpdate>> {
        let mut stream = vr_net::update::UpdateStream::new(
            tables,
            vr_net::update::UpdateMix::default(),
            12,
            seed ^ 0xABCD,
        )
        .unwrap();
        (0..batches).map(|_| stream.batch(per_batch)).collect()
    }

    #[test]
    fn incremental_updates_match_the_full_rebuild_baseline() {
        let tables = churn_family(61, 3);
        let mut inc = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let full_cfg = ServiceConfig {
            full_rebuild: true,
            ..small_cfg(1)
        };
        let mut full = LookupService::new(tables.clone(), full_cfg).unwrap();
        for batch in churn_batches(tables, 61, 6, 40) {
            let g1 = inc.apply_updates(&batch).unwrap();
            let g2 = full.apply_updates(&batch).unwrap();
            assert_eq!(g1, g2);
            assert_eq!(inc.tables(), full.tables());
            // Interleaved mid-churn lookups resolve identically.
            let probes: Vec<(VnId, u32)> = inc
                .tables()
                .iter()
                .enumerate()
                .flat_map(|(vn, t)| {
                    t.prefixes()
                        .take(40)
                        .map(move |p| (vn as VnId, p.addr() | 1))
                })
                .collect();
            assert_eq!(inc.process(&probes), full.process(&probes));
        }
        let inc_report = inc.shutdown();
        assert_eq!(inc_report.updates_applied, 6 * 40);
        assert_eq!(inc_report.incremental_publishes, 6);
        assert_eq!(inc_report.full_rebuilds, 0);
        let full_report = full.shutdown();
        assert_eq!(full_report.full_rebuilds, 6);
        assert_eq!(full_report.incremental_publishes, 0);
    }

    #[test]
    fn zero_dirty_threshold_falls_back_to_full_slab_rebuild() {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n");
        let cfg = ServiceConfig {
            dirty_rebuild_threshold: 0,
            ..small_cfg(1)
        };
        let mut service = LookupService::new(vec![t], cfg).unwrap();
        service
            .apply_updates(&[RouteUpdate::Announce {
                vnid: 0,
                prefix: "192.0.2.0/24".parse().unwrap(),
                next_hop: 5,
            }])
            .unwrap();
        assert_eq!(service.process(&[(0, 0xC000_0201)]), vec![Some(5)]);
        let log = service.update_log().to_vec();
        assert_eq!(log.len(), 1);
        assert!(!log[0].incremental);
        assert_eq!(log[0].dirty_buckets, 1);
        let report = service.shutdown();
        assert_eq!(report.full_rebuilds, 1);
    }

    #[test]
    fn update_telemetry_and_log_track_each_batch() {
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t], small_cfg(1)).unwrap();
        let updates = [
            RouteUpdate::Announce {
                vnid: 0,
                prefix: "10.1.1.0/24".parse().unwrap(),
                next_hop: 9,
            },
            RouteUpdate::Withdraw {
                vnid: 0,
                prefix: "10.0.0.0/8".parse().unwrap(),
            },
        ];
        let generation = service.apply_updates(&updates).unwrap();
        assert_eq!(
            service.update_log(),
            &[UpdateRecord {
                generation,
                updates: 2,
                incremental: true,
                // Withdrawing the /8 dirties its whole 256-bucket run; the
                // announced /24 falls inside it and dedupes.
                dirty_buckets: 256,
            }]
        );
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_updates_total"), Some(2));
        assert_eq!(snap.counter("vr_service_incremental_publishes_total"), Some(1));
        assert_eq!(snap.counter("vr_service_full_rebuilds_total"), Some(0));
        assert_eq!(snap.gauge("vr_service_dirty_buckets"), Some(256));
        assert_eq!(snap.histogram("vr_service_update_ns").unwrap().count, 1);
        let _ = service.shutdown();
    }

    #[test]
    fn remerge_publish_bumps_generation_and_keeps_lookups() {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
        ];
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let generation = service.remerge_publish().unwrap();
        assert_eq!(generation, 1);
        for (vn, t) in tables.iter().enumerate() {
            for probe in [0x0A01_0103u32, 0xAC10_0001, 0x0B00_0000] {
                assert_eq!(
                    service.process(&[(vn as VnId, probe)]),
                    vec![t.lookup(probe)]
                );
            }
        }
        let _ = service.shutdown();
    }

    #[test]
    fn alpha_is_live_and_survives_publish_tables() {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n");
        let mut service =
            LookupService::new(vec![t.clone(), t.clone()], small_cfg(1)).unwrap();
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        // Withdrawing everything from VN 1 collapses the common set.
        let withdrawals: Vec<RouteUpdate> = t
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        service.apply_updates(&withdrawals).unwrap();
        assert!(service.alpha().unwrap() < 1e-12);
        // publish_tables invalidates the plant; α rebuilds lazily.
        service.publish_tables(vec![t.clone(), t]).unwrap();
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        let _ = service.shutdown();
    }

    #[test]
    fn report_histogram_buckets_every_batch() {
        let t = TableSpec::paper_worst_case(9).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t.prefixes().map(|p| (0, p.addr())).take(640).collect();
        let mut service = LookupService::new(vec![t], small_cfg(2)).unwrap();
        let _ = service.process(&packets);
        let report = service.shutdown();
        // One span per worker, each bucketed once.
        assert_eq!(report.batches, 2);
        let bucketed: u64 = report.latency_histogram_ns.iter().sum();
        assert_eq!(bucketed, report.batches);
        assert!(report.mean_ns_per_lookup() > 0.0);
    }

    #[test]
    fn process_matches_a_per_key_walk_at_every_span_boundary() {
        let tables = churn_family(83, 5);
        let oracle = build_trie(&tables).unwrap();
        let keys: Vec<(VnId, u32)> = (0..4096u32)
            .map(|i| {
                let vn = (i % 5) as VnId;
                let prefix = tables[usize::from(vn)]
                    .prefixes()
                    .nth(i as usize % 300)
                    .unwrap();
                (vn, prefix.addr() | (i.wrapping_mul(0x9E37_79B9) >> 24))
            })
            .collect();
        let w = 16;
        for workers in [1, 2, 3] {
            for cache in [None, Some(512)] {
                let cfg = ServiceConfig {
                    lookup_cache: cache,
                    ..small_cfg(workers)
                };
                let mut service = LookupService::new(tables.clone(), cfg).unwrap();
                for n in [0, 1, w - 1, w, w + 1, workers * w - 1, workers * w + 1, 4096] {
                    let want: Vec<Option<NextHop>> = keys[..n]
                        .iter()
                        .map(|&(vn, dst)| oracle.lookup_vn(usize::from(vn), dst))
                        .collect();
                    assert_eq!(
                        service.process(&keys[..n]),
                        want,
                        "n {n} workers {workers} cache {cache:?}"
                    );
                }
                let _ = service.shutdown();
            }
        }
    }

    #[test]
    fn process_hands_each_worker_one_span_per_call() {
        let t = TableSpec::paper_worst_case(13).generate().unwrap();
        let packets: Vec<(VnId, u32)> = (0..4096u32)
            .map(|i| (0, i.wrapping_mul(0x9E37_79B9)))
            .collect();
        for workers in [1, 3] {
            let mut service = LookupService::new(vec![t.clone()], small_cfg(workers)).unwrap();
            assert_eq!(service.process(&packets).len(), 4096);
            let snap = service.telemetry_snapshot().unwrap();
            assert_eq!(
                snap.counter("vr_service_batches_total"),
                Some(workers as u64)
            );
            let report = service.shutdown();
            assert_eq!(report.batches, workers as u64);
            assert_eq!(report.lookups, 4096);
        }
    }

    #[test]
    fn process_spans_are_never_shorter_than_the_width() {
        let t = table("10.0.0.0/8 1\n");
        // 3 workers, width 16: 40 keys fill two spans of 20, not 16+16+8.
        let mut service = LookupService::new(vec![t], small_cfg(3)).unwrap();
        let packets = vec![(0, 0x0A00_0001); 40];
        assert_eq!(service.process(&packets), vec![Some(1); 40]);
        assert_eq!(service.report().batches, 2);
        // Shorter than the width: still one span, and nothing for no keys.
        assert_eq!(service.process(&packets[..5]), vec![Some(1); 5]);
        assert_eq!(service.report().batches, 3);
        assert!(service.process(&[]).is_empty());
        assert_eq!(service.report().batches, 3);
        let _ = service.shutdown();
    }
}
