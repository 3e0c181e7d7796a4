//! Span-dispatched lookup service with incremental route updates.
//!
//! The cycle-level pipeline simulator in `vr-power` models the paper's
//! hardware; this module is the *production* datapath the ROADMAP asks
//! for. [`LookupService`] is one of the two facades over the shared
//! service core (lanes — the calling thread and `workers − 1` worker
//! threads — `Publish`-slot table swap, audit gate, telemetry,
//! join-on-drop — see `service_core.rs`); what it adds is how packets
//! reach the lanes and how routes change:
//!
//! **Span dispatch.** [`LookupService::process`] cuts a call into at most
//! `workers` contiguous spans of at least
//! [`ServiceConfig::batch_width`] keys, one job per span, and
//! concatenates the results in order — the paper's VM organization, one
//! time-shared pipeline serving every VN. The first span is the
//! caller's own, so a one-span call never leaves the calling thread.
//!
//! **One routing state, built as far as it is needed.** The service's
//! routes live in exactly one mutable place, and there is no per-VN table
//! mirror beside it. `new` and [`LookupService::publish_tables`] sort the
//! tables' routes once ([`SortedRoutes`]), paint the published
//! [`JumpTrie`] from them and keep them; a service that only looks up
//! never builds more. The first route update builds the [`MergedTrie`]
//! from them, the paper's VM structure whose nodes carry every VN's next
//! hops (§III), and from then on that arena is the routing state. The VN
//! count is the routing state's arity, and α its merging efficiency:
//! one pass over the routes before the first update, the arena's O(1)
//! counters after it, bit for bit the same value.
//!
//! **Route updates publish incrementally.** [`LookupService::apply_updates`]
//! applies announce/withdraw deltas to the merged trie in place and
//! builds the next [`JumpTrie`] with [`JumpTrie::repaint`]: the dirty /16
//! buckets are painted from the merged trie and the rest copied from the
//! live snapshot, so the published trie is the only copy of the served
//! layout. The snapshot painted from the routes is the one the arena
//! would paint (every builder publishes identical slabs), so the first
//! batch copies its clean buckets too. When the live snapshot is not one
//! this service painted, every bucket is painted instead. Either way the
//! new table is built *outside* the core's publish slot, so
//! reconfiguration never stalls the datapath (the non-blocking reload of
//! the Terabit hybrid FPGA-ASIC platform in PAPERS.md). A candidate the
//! core's audit gate refuses is rolled back out of the merged trie, so a
//! rejected publish leaves routes, table and generation untouched.
//!
//! The service counts in one place, the core's metrics registry
//! ([`ServiceConfig::telemetry`]): lookups, misses and batch latencies
//! per lane, swaps, audit rejections, stalls and route updates.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::Ipv4Prefix;
use vr_net::{RouteUpdate, VnId};
use vr_obs::{Stage, TraceBuilder, Tracer};
use vr_sync::SyncArc;
use vr_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Stopwatch, TelemetrySnapshot};
use vr_trie::{DirtyBuckets, JumpTrie, MergedTrie, SortedRoutes};

pub use crate::service_core::TableSnapshot;
use crate::service_core::{Job, ServiceCore, ShardedConfig};
use crate::EngineError;

/// Span floor used when [`ServiceConfig::batch_width`] is `None`.
const DEFAULT_BATCH_WIDTH: usize = 64;

/// Tuning knobs of a [`LookupService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Lanes: the calling thread plus `workers − 1` worker threads, each
    /// lane with an order-preserving input FIFO. One lane spawns no
    /// thread.
    pub workers: usize,
    /// Fewest keys worth a lane of their own: [`LookupService::process`]
    /// cuts a call into at most `workers` spans of at least this many
    /// keys. `None` means 64.
    pub batch_width: Option<usize>,
    /// Depth of each lane's input queue, in batches. Producers block
    /// (backpressure) once a worker thread is this far behind; lane 0's
    /// queue is resolved by the caller instead.
    pub queue_depth: usize,
    /// Whether to run the service with a live [`MetricsRegistry`]:
    /// per-worker sharded counters, batch/lookup latency histograms, the
    /// structured-event ring, and publish/audit spans. The registry is
    /// the service's only count. The record path is a handful of relaxed
    /// atomics per *batch*, so this defaults on; `false` counts nothing
    /// at all (used by the bench to measure the overhead delta).
    pub telemetry: bool,
    /// Retired: route updates always patch the merged trie in place.
    /// [`LookupService::new`] rejects `true`; the field stays only
    /// until the repo benchmark, which spells it, stops doing so.
    pub full_rebuild: bool,
    /// Retired: an update batch copies every clean bucket from the live
    /// snapshot whatever its dirty count, and nothing reads this field;
    /// it stays only until the repo benchmark, which spells it, stops
    /// doing so.
    pub dirty_rebuild_threshold: usize,
    /// Retired: no lane keeps a result cache, whatever this says; every
    /// batch walks the trie (DESIGN §15). Nothing reads the field; it
    /// stays only until the repo benchmark, which spells it, stops doing
    /// so.
    pub lookup_cache: Option<usize>,
    /// 1-in-N batch-trace sampling rate (`Some(64)` traces every 64th
    /// submitted batch); `None` disables tracing entirely. Sampled
    /// batches carry an owned [`vr_obs::TraceBuilder`] through the
    /// queue and close stage spans (enqueue → dequeue → lane walk →
    /// complete) into the service's
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
    update_ns: Histogram,
    dirty_buckets: Gauge,
}

impl UpdateTelemetry {
    fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            updates: registry.counter("vr_service_updates_total"),
            update_ns: registry.histogram("vr_service_update_ns"),
            dirty_buckets: registry.gauge("vr_service_dirty_buckets"),
        }
    }
}

/// Resolves a possibly mixed-VN batch against one trie in one in-order
/// pass: the merged trie answers every VN from the same walk and the
/// VNID only picks a column of the leaf's NHI vector, so each packet
/// walks with its own VN and nothing is grouped, sorted or allocated.
/// Public so the bench can measure it as the baseline the standalone
/// [`LpmCache`](crate::LpmCache) is compared against.
pub fn lookup_batch_mixed(trie: &JumpTrie, packets: &[(VnId, u32)], out: &mut [Option<NextHop>]) {
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
/// let totals = service.shutdown().unwrap();
/// assert_eq!(totals.counter("vr_service_swaps_total"), Some(1));
/// ```
pub struct LookupService {
    core: ServiceCore,
    /// The routing state, always the family the datapath is serving.
    /// Edited in place by `apply_updates` (and rolled back if the gate
    /// refuses the batch), replaced by `publish_tables` once the gate
    /// accepts.
    routing: Routing,
    /// Generation of the last snapshot this service painted from its
    /// routing state: an update batch copies clean buckets from the live
    /// snapshot only while it is that one, never from a trie
    /// `publish_trie` brought in.
    painted: u64,
    batch_width: usize,
    /// `None` when [`ServiceConfig::telemetry`] is off.
    telemetry: Option<UpdateTelemetry>,
}

/// A service's routes: sorted, until the first update needs the arena.
enum Routing {
    /// The routes the published trie was painted from.
    Routes(SortedRoutes),
    /// Every VN's routes in one merged trie, patched by each update.
    Arena(MergedTrie),
}

impl Routing {
    fn arity(&self) -> usize {
        match self {
            Routing::Routes(routes) => routes.arity(),
            Routing::Arena(merged) => merged.arity(),
        }
    }

    /// The arena, built from the routes on first need.
    fn arena(&mut self) -> &mut MergedTrie {
        if let Routing::Routes(routes) = self {
            *self = Routing::Arena(MergedTrie::from_routes(routes));
        }
        let Routing::Arena(merged) = self else {
            unreachable!("the arena was just built")
        };
        merged
    }
}

/// Sorts the routes of `tables` and paints the jump trie the service
/// publishes for them; the routes are kept as the routing state.
fn paint(tables: Vec<RoutingTable>) -> Result<(Routing, JumpTrie), EngineError> {
    let routes = SortedRoutes::new(&tables)?;
    drop(tables);
    let trie = JumpTrie::from_routes(&routes);
    Ok((Routing::Routes(routes), trie))
}

impl LookupService {
    /// Builds the jump trie and spawns the threads of lanes 1..N.
    ///
    /// # Errors
    /// Rejects an empty table set, zero lanes, a zero batch width or
    /// sample rate, the retired
    /// [`ServiceConfig::full_rebuild`], and merge failures (more than 64
    /// virtual networks).
    pub fn new(tables: Vec<RoutingTable>, cfg: ServiceConfig) -> Result<Self, EngineError> {
        if tables.is_empty() {
            return Err(EngineError::InvalidParameter("need at least one table"));
        }
        let batch_width = cfg.batch_width.unwrap_or(DEFAULT_BATCH_WIDTH);
        if batch_width == 0 {
            return Err(EngineError::InvalidParameter(
                "batch width must be positive",
            ));
        }
        if cfg.full_rebuild {
            return Err(EngineError::InvalidParameter(
                "full_rebuild is retired: updates always patch the merged trie",
            ));
        }
        let pool = ShardedConfig {
            shards: cfg.workers,
            queue_depth: cfg.queue_depth,
            telemetry: cfg.telemetry,
            lookup_cache: cfg.lookup_cache,
            trace_sample: cfg.trace_sample,
        };
        let (routing, trie) = paint(tables)?;
        let core = ServiceCore::new(trie, pool, TraceBuilder::set_worker)?;
        let telemetry = core.metrics().map(|registry| {
            registry
                .gauge("vr_service_batch_width")
                .set(batch_width as u64);
            UpdateTelemetry::for_registry(registry)
        });
        Ok(Self {
            core,
            routing,
            painted: 0,
            batch_width,
            telemetry,
        })
    }

    /// Lane count: the caller plus one per worker thread.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.core.workers()
    }

    /// Span floor in effect: the fewest keys [`process`](Self::process)
    /// hands a lane as a job of their own.
    #[must_use]
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Generation of the currently published snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.core.generation()
    }

    /// Virtual networks hosted: updates and lookups may name VN ids
    /// `0..vn_count()`.
    #[must_use]
    pub fn vn_count(&self) -> usize {
        self.routing.arity()
    }

    /// Enqueues one batch on the next lane (round-robin) and returns its
    /// sequence number. Lane 0 is the caller's: a full lane-0 queue is
    /// resolved on the spot, never waited on. Another lane blocks only
    /// when its queue is full; the stall is counted
    /// (`vr_service_queue_stalls_total`) and ringed as a
    /// [`WorkerStall`](vr_telemetry::EventKind::WorkerStall) before the
    /// blocking send, so backpressure is observable while it is
    /// happening.
    pub fn submit(&mut self, packets: Vec<(VnId, u32)>) -> u64 {
        let lane = (self.core.next_seq() % self.core.workers() as u64) as usize;
        self.submit_to(lane, packets)
    }

    /// Enqueues one batch on lane `lane` and returns its sequence number.
    fn submit_to(&mut self, lane: usize, packets: Vec<(VnId, u32)>) -> u64 {
        self.core.submit(
            lane,
            Job {
                packets,
                ..Job::default()
            },
        )
    }

    /// Waits for every submitted batch and returns the batches sorted by
    /// submission sequence.
    pub fn collect_all(&mut self) -> Vec<CompletedBatch> {
        let mut done: Vec<CompletedBatch> = Vec::new();
        self.core.drain(|batch| {
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
    /// shorter span when the whole call is shorter), span `i` is one job
    /// on lane `i`, and each lane resolves its span against the one
    /// snapshot it pins. The first span runs on the calling thread, so a
    /// one-span call makes no hand-off at any lane count and a longer one
    /// makes one per other lane, not one per chunk.
    /// Batches a caller [`submit`](Self::submit)ted and never collected
    /// are drained and counted, but are not part of the result.
    pub fn process(&mut self, packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
        let first_seq = self.core.next_seq();
        let spans = (packets.len() / self.batch_width).clamp(1, self.core.workers());
        let (len, longer) = (packets.len() / spans, packets.len() % spans);
        let mut rest = packets;
        for span in 0..spans {
            let (head, tail) = rest.split_at(len + usize::from(span < longer));
            rest = tail;
            if !head.is_empty() {
                self.submit_to(span, head.to_vec());
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
    /// audit gate has accepted it, makes their sorted routes the routing
    /// state. The build runs outside the swap lock; in-flight batches
    /// finish on their pinned snapshot. Returns the new generation.
    ///
    /// # Errors
    /// Propagates trie construction failures and audit rejections; the
    /// live table and the routing state are untouched on error. The VN
    /// count must not change — workers' batches carry VN ids that must
    /// stay valid across swaps.
    pub fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
        if tables.len() != self.vn_count() {
            return Err(EngineError::InvalidParameter(
                "table count must not change across a swap",
            ));
        }
        let (routing, trie) = paint(tables)?;
        let generation = self.publish_trie(trie)?;
        self.routing = routing;
        self.painted = generation;
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
        self.core.publish(trie)
    }

    /// Applies a route-update stream (`vr_net::update`) to the merged
    /// trie and publishes a fresh snapshot — announce/withdraw never
    /// stalls in-flight lookups. Returns the new generation.
    ///
    /// Updates are applied in slice order, so a batch carrying several
    /// updates for the same (VN, prefix) resolves last-writer-wins (the
    /// `vr-control` coalescer enforces this deterministically upstream).
    /// The deltas land in the merged trie, and [`JumpTrie::repaint`]
    /// paints the dirty /16 buckets from it and copies the rest from the
    /// live snapshot; after [`publish_trie`](Self::publish_trie) brought
    /// in a trie this service did not paint, every bucket is painted. With
    /// telemetry on, the batch is counted in `vr_service_updates_total`
    /// and its dirty-bucket count set in `vr_service_dirty_buckets`. If
    /// the audit gate rejects the new snapshot, the batch is rolled back
    /// out of the merged trie, and the routing state and the live
    /// generation are left untouched.
    ///
    /// # Errors
    /// Rejects updates addressing a VN the service does not host (checked
    /// up front — nothing is applied), and propagates
    /// [`EngineError::AuditRejected`] from the publish gate.
    pub fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, EngineError> {
        let watch = Stopwatch::start();
        let trace_start = self.core.tracer().map(Tracer::now_ns);
        for update in updates {
            if usize::from(update.vnid()) >= self.vn_count() {
                return Err(EngineError::InvalidParameter("update for unknown VN"));
            }
        }
        let (generation, dirty) = self.patch_and_publish(updates)?;
        if let Some(t) = &self.telemetry {
            t.updates.add(0, updates.len() as u64);
            t.dirty_buckets.set(dirty as u64);
            t.update_ns.record(watch.elapsed_ns());
        }
        if let (Some(tr), Some(start)) = (self.core.tracer(), trace_start) {
            tr.record_span(Stage::ApplyUpdates, start, generation);
        }
        Ok(generation)
    }

    /// Delta-applies the batch to the merged trie (built from the routes
    /// before the first batch), repaints the dirty buckets over the live
    /// snapshot (every bucket over a snapshot this service did not
    /// paint), publishes. Returns `(generation, dirty buckets)`; on a
    /// publish rejection the deltas are rolled back in reverse order.
    fn patch_and_publish(&mut self, updates: &[RouteUpdate]) -> Result<(u64, usize), EngineError> {
        let merged = self.routing.arena();
        let mut dirty = DirtyBuckets::new();
        // Undo log: pre-update next hop per (VN, prefix), in apply order.
        let mut applied: Vec<(usize, Ipv4Prefix, Option<NextHop>)> =
            Vec::with_capacity(updates.len());
        for update in updates {
            let (vn, prefix, prev) = match *update {
                RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                } => {
                    let vn = usize::from(vnid);
                    (vn, prefix, merged.insert(vn, prefix, next_hop))
                }
                RouteUpdate::Withdraw { vnid, prefix } => {
                    let vn = usize::from(vnid);
                    (vn, prefix, merged.remove(vn, &prefix))
                }
            };
            applied.push((vn, prefix, prev));
            dirty.mark_prefix(&prefix);
        }
        let count = dirty.len();
        let live = self.core.snapshot();
        if live.generation != self.painted {
            dirty = DirtyBuckets::all();
        }
        let trie = live.trie.repaint(merged, &dirty);
        drop(live);
        match self.publish_trie(trie) {
            Ok(generation) => {
                self.painted = generation;
                Ok((generation, count))
            }
            Err(err) => {
                // Restore the merged trie to the pre-batch state (reverse
                // order handles repeated keys); the live trie was never
                // touched.
                let merged = self.routing.arena();
                for (vn, prefix, prev) in applied.into_iter().rev() {
                    match prev {
                        Some(nh) => merged.insert(vn, prefix, nh),
                        None => merged.remove(vn, &prefix),
                    };
                }
                Err(err)
            }
        }
    }

    /// Measured merging efficiency α of the live table family. O(1) once
    /// the first route update has built the merged trie, which keeps it
    /// incrementally; before that, one pass over the sorted routes that
    /// allocates no node. Both read the same value, bit for bit.
    ///
    /// # Errors
    /// Never fails; the `Result` is kept for existing callers.
    pub fn alpha(&self) -> Result<f64, EngineError> {
        Ok(match &self.routing {
            Routing::Routes(routes) => routes.merging_efficiency(),
            Routing::Arena(merged) => merged.merging_efficiency(),
        })
    }

    /// The currently published snapshot (one refcount bump) — lets the
    /// control plane size the live structure without re-building it.
    #[must_use]
    pub fn snapshot(&self) -> SyncArc<TableSnapshot> {
        self.core.snapshot()
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
    /// dropped), and returns the registry's final scrape (`None` with
    /// telemetry off).
    #[must_use]
    pub fn shutdown(self) -> Option<TelemetrySnapshot> {
        self.core.shutdown()
    }
}

impl std::fmt::Debug for LookupService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupService")
            .field("workers", &self.workers())
            .field("batch_width", &self.batch_width)
            .field("generation", &self.generation())
            .field("vns", &self.vn_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_core::build_trie;
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

        /// Whether the routing state is still the sorted routes, no arena
        /// built.
        fn holds_routes(&self) -> bool {
            matches!(self.routing, Routing::Routes(_))
        }

        /// The arena the first update built.
        fn merged(&self) -> &MergedTrie {
            match &self.routing {
                Routing::Arena(merged) => merged,
                Routing::Routes(_) => panic!("no update has built the arena"),
            }
        }
    }

    contract_tests! { Kind::Spans;
        resolves_like_the_oracle_across_shards => oracle_parity,
        serves_merged_vns_and_mixed_batches => mixed_vn_batches_resolve_per_network,
        empty_tiny_and_ragged_calls_keep_input_order => empty_tiny_and_ragged_calls_keep_input_order,
        lookup_cache_is_inert => lookup_cache_is_inert,
        traced_service_records_validating_stage_chains => traced_jobs_record_validating_stage_chains,
        telemetry_off_disables_the_registry => telemetry_off_has_no_registry_and_stays_exact,
        process_after_an_uncollected_submit_returns_only_its_own_results =>
            process_after_an_uncollected_submit_returns_only_its_own_results,
        drop_joins_the_workers_and_frees_the_snapshot => drop_joins_the_workers_and_frees_the_snapshot,
        lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under =>
            lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under,
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
    fn updates_swap_without_changing_vn_count() {
        let mut service = LookupService::new(vec![table("10.0.0.0/8 1\n")], small_cfg(2)).unwrap();
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
        let totals = service.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_swaps_total"), Some(1));
    }

    #[test]
    fn audit_gate_rejects_corrupt_trie_and_keeps_serving() {
        contract::run(
            contract::rejected_publish_changes_nothing_and_is_counted,
            Kind::Spans,
        );
        // A refused table build leaves the routing state alone: the next
        // update batch still patches the family that was serving.
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t.clone(), t.clone()], small_cfg(1)).unwrap();
        let gate = service.core.gate;
        service.core.gate = contract::refuse;
        assert!(service
            .publish_tables(vec![t.clone(), table("192.0.2.0/24 3\n")])
            .is_err());
        service.core.gate = gate;
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        let withdraw = RouteUpdate::Withdraw {
            vnid: 1,
            prefix: "10.0.0.0/8".parse().unwrap(),
        };
        service.apply_updates(&[withdraw]).unwrap();
        assert_eq!(
            service.process(&[(0, 0x0A00_0001), (1, 0x0A00_0001), (1, 0xC000_0201)]),
            vec![Some(1), None, None]
        );
        let totals = service.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_audit_rejections_total"), Some(1));
    }

    #[test]
    fn rejects_bad_configs() {
        contract::run(contract::bad_configurations_are_rejected, Kind::Spans);
        let zero_width = ServiceConfig {
            batch_width: Some(0),
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], zero_width).is_err());
        let full_rebuild = ServiceConfig {
            full_rebuild: true,
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], full_rebuild).is_err());
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
        let _ = service.shutdown();
    }

    #[test]
    fn registry_counts_the_input() {
        contract::run(contract::registry_counts_the_input, Kind::Spans);
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t], small_cfg(2)).unwrap();
        let _ = service.process(&[(0, 0x0A00_0001); 40]);
        let totals = service.shutdown().unwrap();
        assert_eq!(totals.gauge("vr_service_batch_width"), Some(16));
        assert_eq!(totals.gauge("vr_service_generation_lag"), Some(0));
    }

    #[test]
    fn swaps_and_rejections_reach_events_and_counters() {
        // The audit gate is compiled out of unaudited builds (release
        // without `audit-on-publish`): there the corrupt trie below is
        // accepted and counted as a second swap.
        let audited = cfg!(any(debug_assertions, feature = "audit-on-publish"));
        let (swaps, rejections) = if audited { (1, 1) } else { (2, 0) };
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t.clone()], small_cfg(1)).unwrap();
        service
            .publish_tables(vec![table("10.0.0.0/8 2\n")])
            .unwrap();
        // A corrupt candidate: rejected, counted, ringed where audited.
        let good = JumpTrie::from_table(&t);
        let p = good.raw_parts();
        let corrupt = JumpTrie::from_raw_parts(p.root.to_vec(), p.tail.to_vec(), Vec::new(), p.k);
        assert_eq!(service.publish_trie(corrupt).is_err(), audited);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_swaps_total"), Some(swaps));
        assert_eq!(
            snap.counter("vr_service_audit_rejections_total"),
            Some(rejections)
        );
        assert_eq!(snap.gauge("vr_service_generation"), Some(swaps));
        if audited {
            // Audited builds audit on construction + both publishes.
            assert!(snap.counter("vr_audit_runs_total").unwrap() >= 2);
            assert!(snap.counter("vr_audit_violations_total").unwrap() > 0);
        }
        assert!(snap.histogram("vr_service_publish_ns").unwrap().count >= 2);
        let kinds: Vec<&EventKind> = snap.events.events.iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::GenerationSwap { generation: 1 })));
        assert!(kinds.iter().any(|k| match k {
            EventKind::AuditRejected { generation } => audited && *generation == 2,
            EventKind::GenerationSwap { generation } => !audited && *generation == 2,
            _ => false,
        }));
        let _ = service.shutdown();
    }

    #[test]
    fn queue_stalls_are_counted_when_a_shard_backs_up() {
        let t = TableSpec::paper_worst_case(17).generate().unwrap();
        let base: Vec<(VnId, u32)> = t.prefixes().map(|p| (0, p.addr())).collect();
        let long: Vec<(VnId, u32)> = base.iter().copied().cycle().take(1 << 15).collect();
        let cfg = ServiceConfig {
            workers: 2,
            batch_width: Some(64),
            queue_depth: 1,
            ..ServiceConfig::default()
        };
        let mut service = LookupService::new(vec![t], cfg).unwrap();
        // Submitted directly, round-robin alternates the lanes: the
        // caller resolves a 1-key lane-0 job between two 2^15-key jobs
        // for lane 1's depth-1 queue, built up front so a submit is far
        // cheaper than a lane-1 job. The burst is milliseconds of lane-1
        // time, longer than a woken thread can run ahead of its submitter
        // on a shared CPU.
        let jobs = vec![long; 64];
        for job in jobs {
            service.submit(base[..1].to_vec());
            service.submit(job);
        }
        let _ = service.collect_all();
        // The submitter must have outrun lane 1 at least once.
        let snap = service.shutdown().unwrap();
        assert!(snap.counter("vr_service_queue_stalls_total").unwrap() > 0);
        assert!(snap
            .events
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerStall { worker: 1 })));
    }

    #[test]
    fn the_calling_lane_never_stalls_and_holds_at_most_its_depth() {
        let t = table("10.0.0.0/8 1\n");
        let depth = 4;
        let cfg = ServiceConfig {
            queue_depth: depth,
            ..small_cfg(1)
        };
        let mut service = LookupService::new(vec![t], cfg).unwrap();
        for i in 0..256 {
            service.submit(vec![(0, 0x0A00_0000 | i)]);
            assert!(service.core.unresolved_local() <= depth);
        }
        let batches = service.collect_all();
        assert_eq!(batches.len(), 256);
        assert!(batches
            .iter()
            .all(|b| b.worker == 0 && b.results == [Some(1)]));
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_queue_stalls_total"), Some(0));
        let _ = service.shutdown();
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

    /// Applies one batch to per-VN shadow tables.
    fn apply_to_shadow(shadow: &mut [RoutingTable], batch: &[RouteUpdate]) {
        for update in batch {
            update.apply_to(shadow);
        }
    }

    /// Asserts the live snapshot is exactly a from-scratch build of
    /// `shadow`, α included.
    fn assert_serves(service: &LookupService, shadow: &[RoutingTable]) {
        let merged = MergedTrie::from_tables(shadow).unwrap();
        let want = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert_eq!(service.snapshot().trie.raw_parts(), want.raw_parts());
        assert_eq!(
            service.alpha().unwrap().to_bits(),
            merged.merging_efficiency().to_bits()
        );
    }

    #[test]
    fn incremental_updates_match_the_full_rebuild_baseline() {
        let tables = churn_family(61, 3);
        let mut shadow = tables.clone();
        let mut inc = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        for (i, batch) in churn_batches(tables, 61, 6, 40).iter().enumerate() {
            assert_eq!(inc.apply_updates(batch).unwrap(), i as u64 + 1);
            apply_to_shadow(&mut shadow, batch);
            assert_serves(&inc, &shadow);
            // Interleaved mid-churn lookups resolve like the shadow tables.
            let probes: Vec<(VnId, u32)> = shadow
                .iter()
                .enumerate()
                .flat_map(|(vn, t)| {
                    t.prefixes()
                        .take(40)
                        .map(move |p| (vn as VnId, p.addr() | 1))
                })
                .collect();
            let want: Vec<Option<NextHop>> = probes
                .iter()
                .map(|&(vn, dst)| shadow[usize::from(vn)].lookup(dst))
                .collect();
            assert_eq!(inc.process(&probes), want);
        }
        let totals = inc.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_updates_total"), Some(6 * 40));
        assert_eq!(totals.counter("vr_service_swaps_total"), Some(6));
    }

    /// Both paths: batch 0 copies clean buckets from the trie `new`
    /// built, or, after a foreign publish of the same tables, paints
    /// every bucket.
    #[test]
    fn a_refused_update_batch_rolls_back_on_both_paths() {
        for foreign in [false, true] {
            let tables = churn_family(71, 3);
            let mut shadow = tables.clone();
            let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
            if foreign {
                service.publish_trie(build_trie(&tables).unwrap()).unwrap();
            }
            let gate = service.core.gate;
            // Batch 0 is refused over the trie built outside the update
            // path, batch 3 over one the service has repainted twice; the
            // next batch then repaints over the untouched live trie again.
            for (i, batch) in churn_batches(tables, 71, 6, 40).iter().enumerate() {
                if i == 0 || i == 3 {
                    let before = service.snapshot();
                    let alpha = service.alpha().unwrap();
                    service.core.gate = contract::refuse;
                    assert!(service.apply_updates(batch).is_err());
                    service.core.gate = gate;
                    let after = service.snapshot();
                    assert_eq!(after.generation, before.generation);
                    assert_eq!(after.trie.raw_parts(), before.trie.raw_parts());
                    assert_eq!(service.alpha().unwrap().to_bits(), alpha.to_bits());
                }
                service.apply_updates(batch).unwrap();
                apply_to_shadow(&mut shadow, batch);
                assert_serves(&service, &shadow);
            }
            let totals = service.shutdown().unwrap();
            assert_eq!(totals.counter("vr_service_audit_rejections_total"), Some(2));
            assert_eq!(
                totals.counter("vr_service_swaps_total"),
                Some(6 + u64::from(foreign))
            );
        }
    }

    /// After `publish_trie` brings in a trie of other tables, the next
    /// batch paints every bucket from the service's own routes: nothing is
    /// copied from the foreign trie.
    #[test]
    fn an_update_after_a_foreign_publish_serves_the_routing_state() {
        let tables = churn_family(83, 3);
        let mut shadow = tables.clone();
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let batches = churn_batches(tables, 83, 2, 40);
        service.apply_updates(&batches[0]).unwrap();
        apply_to_shadow(&mut shadow, &batches[0]);
        service
            .publish_trie(build_trie(&churn_family(89, 3)).unwrap())
            .unwrap();
        service.apply_updates(&batches[1]).unwrap();
        apply_to_shadow(&mut shadow, &batches[1]);
        let want = JumpTrie::from_leaf_pushed(&service.merged().leaf_pushed());
        assert_eq!(service.snapshot().trie.raw_parts(), want.raw_parts());
        assert_serves(&service, &shadow);
    }

    /// With a gate that accepts anything, a corrupt trie published
    /// through `publish_trie` goes live; the next batch reads nothing of
    /// it, so it neither panics nor carries the damage forward.
    #[test]
    fn a_corrupt_foreign_trie_is_never_read_by_the_next_batch() {
        let tables = churn_family(101, 2);
        let mut shadow = tables.clone();
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let gate = service.core.gate;
        service.core.gate = |_, _| Ok(());
        // Every root entry names a block past the empty tail, arity 0.
        let corrupt = JumpTrie::from_raw_parts(vec![7; 1 << 16], Vec::new(), vec![1], 0);
        service.publish_trie(corrupt).unwrap();
        service.core.gate = gate;
        let batch = &churn_batches(tables, 101, 1, 40)[0];
        service.apply_updates(batch).unwrap();
        apply_to_shadow(&mut shadow, batch);
        assert_serves(&service, &shadow);
    }

    /// The merged trie prunes on withdraw and keeps α incrementally, so
    /// after any churn an all-dirty repaint — every bucket painted from
    /// the arena, what the first batch after a foreign publish runs —
    /// equals the live trie field for field.
    #[test]
    fn an_all_dirty_repaint_equals_the_live_structure() {
        let tables = churn_family(97, 4);
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let batches = churn_batches(tables, 97, 8, 64);
        let withdrawals = batches
            .iter()
            .flatten()
            .filter(|u| matches!(u, RouteUpdate::Withdraw { .. }))
            .count();
        assert!(withdrawals > 0, "the churn must withdraw routes");
        for batch in &batches {
            service.apply_updates(batch).unwrap();
        }
        let live = service.snapshot();
        let repainted = live.trie.repaint(service.merged(), &DirtyBuckets::all());
        assert_eq!(repainted.raw_parts(), live.trie.raw_parts());
        let _ = service.shutdown();
    }

    /// `new` and `publish_tables` keep the sorted routes and build no
    /// arena; the first update batch builds it.
    #[test]
    fn only_an_update_builds_the_arena() {
        let tables = churn_family(53, 3);
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        assert!(service.holds_routes());
        let _ = service.process(&[(2, 0x0A00_0001)]);
        let _ = service.alpha().unwrap();
        assert!(service.holds_routes());
        let batch = &churn_batches(tables.clone(), 53, 1, 16)[0];
        service.apply_updates(batch).unwrap();
        assert!(!service.holds_routes());
        service.publish_tables(tables).unwrap();
        assert!(service.holds_routes());
        let _ = service.shutdown();
    }

    /// A service whose first call is an update batch builds the arena
    /// then and answers every VN like the updated tables.
    #[test]
    fn a_first_update_answers_every_vn_like_the_tables() {
        let tables = churn_family(59, 4);
        let mut shadow = tables.clone();
        let mut service = LookupService::new(tables.clone(), small_cfg(2)).unwrap();
        let batch = &churn_batches(tables, 59, 1, 40)[0];
        assert_eq!(service.apply_updates(batch).unwrap(), 1);
        apply_to_shadow(&mut shadow, batch);
        assert_serves(&service, &shadow);
        let probes: Vec<(VnId, u32)> = (0..shadow.len())
            .flat_map(|vn| {
                let prefixes = shadow.iter().flat_map(RoutingTable::prefixes);
                prefixes.flat_map(move |p| {
                    let ends = [p.addr(), p.addr() | !p.netmask(), p.addr().wrapping_sub(1)];
                    ends.map(|ip| (vn as VnId, ip))
                })
            })
            .collect();
        let want: Vec<Option<NextHop>> = probes
            .iter()
            .map(|&(vn, ip)| shadow[usize::from(vn)].lookup(ip))
            .collect();
        assert_eq!(service.process(&probes), want);
        let _ = service.shutdown();
    }

    /// α read off the sorted routes before the first batch, and off the
    /// arena after it, is the from-scratch arena's, bit for bit, for the
    /// paper family at shared fractions 0.2, 0.5 and 0.8.
    #[test]
    fn alpha_before_and_after_the_first_batch_matches_a_fresh_arena() {
        for fraction in [0.2, 0.5, 0.8] {
            let tables = vr_net::synth::FamilySpec::paper_worst_case(15, fraction, 2012)
                .generate()
                .unwrap();
            let alpha = |tables: &[RoutingTable]| {
                let merged = MergedTrie::from_tables(tables).unwrap();
                merged.merging_efficiency().to_bits()
            };
            let mut shadow = tables.clone();
            let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
            assert_eq!(service.alpha().unwrap().to_bits(), alpha(&shadow));
            let batch = &churn_batches(tables, 67, 1, 16)[0];
            service.apply_updates(batch).unwrap();
            apply_to_shadow(&mut shadow, batch);
            assert_eq!(
                service.alpha().unwrap().to_bits(),
                alpha(&shadow),
                "shared fraction {fraction}"
            );
            let _ = service.shutdown();
        }
    }

    /// A trie of other tables published before the first batch is not
    /// the one the routes painted, so that batch paints every bucket from
    /// the arena it builds and copies nothing from the foreign trie.
    #[test]
    fn a_first_batch_after_a_foreign_publish_paints_every_bucket() {
        let tables = churn_family(107, 3);
        let mut shadow = tables.clone();
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        service
            .publish_trie(build_trie(&churn_family(109, 3)).unwrap())
            .unwrap();
        assert!(service.holds_routes());
        let batch = &churn_batches(tables, 107, 1, 40)[0];
        service.apply_updates(batch).unwrap();
        apply_to_shadow(&mut shadow, batch);
        assert_serves(&service, &shadow);
        let _ = service.shutdown();
    }

    #[test]
    fn update_telemetry_tracks_each_batch() {
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
        assert_eq!(service.apply_updates(&updates).unwrap(), 1);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_updates_total"), Some(2));
        assert_eq!(snap.counter("vr_service_swaps_total"), Some(1));
        // Withdrawing the /8 dirties its whole 256-bucket run; the
        // announced /24 falls inside it and dedupes.
        assert_eq!(snap.gauge("vr_service_dirty_buckets"), Some(256));
        assert_eq!(snap.histogram("vr_service_update_ns").unwrap().count, 1);
        let _ = service.shutdown();
    }

    #[test]
    fn alpha_is_live_and_survives_publish_tables() {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n");
        let mut service = LookupService::new(vec![t.clone(), t.clone()], small_cfg(1)).unwrap();
        assert_serves(&service, &[t.clone(), t.clone()]);
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        // Withdrawing everything from VN 1 collapses the common set.
        let withdrawals: Vec<RouteUpdate> = t
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        service.apply_updates(&withdrawals).unwrap();
        assert!(service.alpha().unwrap() < 1e-12);
        assert_serves(&service, &[t.clone(), RoutingTable::new()]);
        // publish_tables replaces the routing state, α with it, and the
        // next batch patches the replacement.
        service.publish_tables(vec![t.clone(), t.clone()]).unwrap();
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        service.apply_updates(&withdrawals[..1]).unwrap();
        let mut shadow = vec![t.clone(), t];
        apply_to_shadow(&mut shadow, &withdrawals[..1]);
        assert_serves(&service, &shadow);
        let _ = service.shutdown();
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
            let mut service = LookupService::new(tables.clone(), small_cfg(workers)).unwrap();
            for n in [
                0,
                1,
                w - 1,
                w,
                w + 1,
                workers * w - 1,
                workers * w + 1,
                4096,
            ] {
                let want: Vec<Option<NextHop>> = keys[..n]
                    .iter()
                    .map(|&(vn, dst)| oracle.lookup_vn(usize::from(vn), dst))
                    .collect();
                assert_eq!(service.process(&keys[..n]), want, "n {n} workers {workers}");
            }
            let _ = service.shutdown();
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
            let totals = service.shutdown().unwrap();
            assert_eq!(
                totals.counter("vr_service_batches_total"),
                Some(workers as u64)
            );
            assert_eq!(totals.counter("vr_service_lookups_total"), Some(4096));
        }
    }

    #[test]
    fn process_spans_are_never_shorter_than_the_width() {
        let t = table("10.0.0.0/8 1\n");
        // 3 workers, width 16: 40 keys fill two spans of 20, not 16+16+8.
        let mut service = LookupService::new(vec![t], small_cfg(3)).unwrap();
        let packets = vec![(0, 0x0A00_0001); 40];
        let batches = |service: &LookupService| {
            let snap = service.telemetry_snapshot().unwrap();
            snap.counter("vr_service_batches_total").unwrap()
        };
        assert_eq!(service.process(&packets), vec![Some(1); 40]);
        assert_eq!(batches(&service), 2);
        // Shorter than the width: still one span, and nothing for no keys.
        assert_eq!(service.process(&packets[..5]), vec![Some(1); 5]);
        assert_eq!(batches(&service), 3);
        assert!(service.process(&[]).is_empty());
        assert_eq!(batches(&service), 3);
        let _ = service.shutdown();
    }
}
