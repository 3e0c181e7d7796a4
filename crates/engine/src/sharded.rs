//! Hash-sharded lookup service: the service core behind a
//! destination-hash scatter.
//!
//! [`LookupService`](crate::LookupService) hands each worker one
//! contiguous span of a call. [`ShardedService`] is the other facade
//! over the same core (worker pool, `Publish`-slot table swap, audit
//! gate, telemetry, join-on-drop — see `service_core.rs`) and differs
//! only in how packets reach the workers, the way the paper's VS
//! organization puts a VNID distributor in front of K copies of the
//! same pipeline: the dispatcher routes every packet by a cheap
//! multiplicative hash of its destination address ([`shard_of`]), so a
//! given flow always lands on the same shard — order within a flow is
//! preserved and a shard's private result cache sees all of that flow's
//! repeats — and the gathered results are written back through each
//! job's origin map, restoring input order. Job buffers are recycled
//! through a spare pool, so the steady-state
//! [`process_into`](ShardedService::process_into) path allocates
//! nothing.
//!
//! Publishing is the core's one protocol: a shard pins the published
//! snapshot once per job, so every sub-batch resolves against exactly
//! one generation — old or new, never a torn mix (the `service_swap`
//! acceptance tests run against both services) — and a job submitted
//! after a publish returned can only see the new table.
//!
//! Telemetry uses the core's `vr_service_*` / `vr_cache_*` vocabulary
//! (counters sharded by shard id), so the bench and exporters read both
//! services identically; sampled traces carry shard (not worker)
//! attribution.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::VnId;
use vr_obs::{TraceBuilder, Tracer};
use vr_telemetry::{MetricsRegistry, TelemetrySnapshot};
use vr_trie::JumpTrie;

pub use crate::service_core::ShardedConfig;
use crate::service_core::{build_trie, Done, Job, ServiceCore};
use crate::EngineError;

/// Routes a destination address to a shard: one multiplicative hash
/// (Fibonacci constant) and a multiply-shift range reduction — no
/// divide on the per-packet path. Same-flow packets always map to the
/// same shard, preserving per-flow order.
#[inline]
#[must_use]
pub fn shard_of(dst: u32, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let h = u64::from(dst.wrapping_mul(0x9E37_79B9));
    ((h * shards as u64) >> 32) as usize
}

/// One resolved sub-batch leaving a shard. A dispatcher-level submit is
/// scattered into at most one job per shard; each job resolves against
/// a single snapshot generation.
#[derive(Debug)]
pub struct ShardedBatch {
    /// Submission sequence number (global across shards).
    pub seq: u64,
    /// Shard that served the job.
    pub shard: usize,
    /// Per-packet results, in job order.
    pub results: Vec<Option<NextHop>>,
    /// For each result, the packet's index in the originating submit
    /// call — the scatter map the dispatcher uses to restore input
    /// order.
    pub origins: Vec<u32>,
    /// Generation of the snapshot the whole job resolved against.
    pub generation: u64,
    /// Shard-side wall time resolving the job, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Aggregated sharded-service counters, serializable for experiment
/// reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardedReport {
    /// Shard threads the service ran with.
    pub shards: usize,
    /// Lookups resolved.
    pub lookups: u64,
    /// Lookups that matched no route.
    pub misses: u64,
    /// Shard jobs completed.
    pub batches: u64,
    /// Generations published over the service's lifetime.
    pub swaps: u64,
    /// Distinct snapshot generations jobs were observed resolving
    /// against, sorted ascending.
    pub generations_seen: Vec<u64>,
    /// Total shard-side busy time across all jobs, in nanoseconds.
    pub busy_ns: u64,
    /// Dispatcher blocks on a full shard queue, counted with telemetry
    /// on or off.
    pub queue_stalls: u64,
    /// Publishes rejected by the structural audit gate, counted with
    /// telemetry on or off.
    pub audit_rejections: u64,
}

impl ShardedReport {
    fn observe(&mut self, done: &Done) {
        self.lookups += done.job.results.len() as u64;
        self.misses += done.misses;
        self.batches += 1;
        self.busy_ns += done.elapsed_ns;
        if let Err(pos) = self.generations_seen.binary_search(&done.generation) {
            self.generations_seen.insert(pos, done.generation);
        }
    }

    /// Mean shard-side ns per lookup (0 when nothing ran).
    #[must_use]
    pub fn mean_ns_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.lookups as f64
    }
}

/// N-shard lookup service: hash-routed SPSC request queues in front of
/// the shared service core.
///
/// ```
/// use vr_engine::{ShardedConfig, ShardedService};
/// use vr_net::RoutingTable;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let cfg = ShardedConfig { shards: 2, ..ShardedConfig::default() };
/// let mut service = ShardedService::new(vec![table], cfg).unwrap();
///
/// let packets = vec![(0, 0x0A01_0103), (0, 0x0A02_0000), (0, 0x0B00_0000)];
/// assert_eq!(service.process(&packets), vec![Some(2), Some(1), None]);
///
/// // Republish: in-flight jobs keep the snapshot they pinned, later
/// // ones see the new table on every shard.
/// let updated: RoutingTable = "10.0.0.0/8 5\n".parse().unwrap();
/// service.publish_tables(vec![updated]).unwrap();
/// assert_eq!(service.process(&[(0, 0x0A01_0103)]), vec![Some(5)]);
/// let report = service.shutdown();
/// assert_eq!(report.swaps, 1);
/// ```
pub struct ShardedService {
    core: ServiceCore,
    /// Control-plane mirror of the per-VN tables, replaced only once a
    /// publish is accepted.
    tables: Vec<RoutingTable>,
    report: ShardedReport,
    /// Recycled job buffers for the allocation-free process path.
    spare: Vec<Job>,
}

impl ShardedService {
    /// Builds the jump trie from `tables` and spawns the shards.
    ///
    /// # Errors
    /// Rejects an empty table set, zero shards, merge failures, and (in
    /// audited builds) a structurally invalid trie.
    pub fn new(tables: Vec<RoutingTable>, cfg: ShardedConfig) -> Result<Self, EngineError> {
        let trie = build_trie(&tables)?;
        Self::with_trie(tables, trie, cfg)
    }

    /// Spawns the shards around an already-built trie (callers that
    /// benchmark multiple services over one table family skip the
    /// rebuild). The trie must serve every VN in `tables`.
    ///
    /// # Errors
    /// Rejects an empty table set, zero shards, a zero cache size or
    /// sample rate, a trie whose NHI arity does not cover the VN count,
    /// and (in audited builds) a structurally invalid trie.
    pub fn with_trie(
        tables: Vec<RoutingTable>,
        trie: JumpTrie,
        cfg: ShardedConfig,
    ) -> Result<Self, EngineError> {
        if tables.is_empty() {
            return Err(EngineError::InvalidParameter("need at least one table"));
        }
        if trie.arity() < tables.len() {
            return Err(EngineError::InvalidParameter(
                "trie NHI arity must cover every VN",
            ));
        }
        Ok(Self {
            core: ServiceCore::new(trie, cfg, TraceBuilder::set_shard)?,
            tables,
            report: ShardedReport {
                shards: cfg.shards,
                ..ShardedReport::default()
            },
            spare: Vec::new(),
        })
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.core.workers()
    }

    /// Generation of the most recently published snapshot.
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

    /// Scatters `packets` across the shards by destination hash and
    /// enqueues at most one job per shard. Returns the number of jobs
    /// created (collect that many sub-batches via [`Self::collect_all`],
    /// or use [`Self::process`] for gathered, input-ordered results).
    ///
    /// # Panics
    /// If `packets` holds more than `u32::MAX` keys.
    pub fn submit(&mut self, packets: &[(VnId, u32)]) -> usize {
        let shard_count = self.core.workers();
        let mut jobs: Vec<Job> = (0..shard_count)
            .map(|_| self.spare.pop().unwrap_or_default())
            .collect();
        for (i, &(vn, dst)) in packets.iter().enumerate() {
            let job = &mut jobs[shard_of(dst, shard_count)];
            job.packets.push((vn, dst));
            job.origins.push(u32::try_from(i).expect("batch too large"));
        }
        let mut issued = 0;
        for (shard, job) in jobs.into_iter().enumerate() {
            if job.packets.is_empty() {
                self.spare.push(job);
            } else {
                self.core.submit(shard, job);
                issued += 1;
            }
        }
        self.mirror_counts();
        issued
    }

    /// Waits for every outstanding job and returns the sub-batches
    /// sorted by submission sequence. The buffers leave the recycle
    /// pool with them; the gathered [`Self::process`] path stays
    /// allocation-free instead.
    pub fn collect_all(&mut self) -> Vec<ShardedBatch> {
        let mut done: Vec<ShardedBatch> = Vec::new();
        let report = &mut self.report;
        self.core.drain(|batch| {
            report.observe(&batch);
            done.push(ShardedBatch {
                seq: batch.job.seq,
                shard: batch.worker,
                results: batch.job.results,
                origins: batch.job.origins,
                generation: batch.generation,
                elapsed_ns: batch.elapsed_ns,
            });
        });
        done.sort_by_key(|b| b.seq);
        done
    }

    /// Resolves a packet stream end to end: hash-scatters it across the
    /// shards, gathers the sub-batches, and returns per-packet results
    /// in input order. Steady state allocates nothing beyond the output
    /// vector — job buffers are recycled through the spare pool.
    pub fn process(&mut self, packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
        let mut out = vec![None; packets.len()];
        self.process_into(packets, &mut out);
        out
    }

    /// [`Self::process`] into a caller-owned output slice (the bench's
    /// steady-state loop reuses one). Sub-batches a caller
    /// [`submit`](Self::submit)ted and never collected are drained and
    /// counted in the report, but are not part of the result.
    ///
    /// # Panics
    /// If `packets` and `out` differ in length.
    pub fn process_into(&mut self, packets: &[(VnId, u32)], out: &mut [Option<NextHop>]) {
        assert_eq!(
            packets.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        let first_seq = self.core.next_seq();
        self.submit(packets);
        let (report, spare) = (&mut self.report, &mut self.spare);
        self.core.drain(|batch| {
            report.observe(&batch);
            let mut job = batch.job;
            if job.seq >= first_seq {
                for (&origin, &nh) in job.origins.iter().zip(&job.results) {
                    out[origin as usize] = nh;
                }
            }
            job.packets.clear();
            job.origins.clear();
            spare.push(job);
        });
    }

    /// Publishes a fresh snapshot built from `tables` and, once the
    /// audit gate has accepted it, replaces the control-plane mirror.
    /// The build runs outside the swap lock; in-flight jobs finish on
    /// the snapshot they pinned. Returns the new generation.
    ///
    /// # Errors
    /// Propagates trie construction failures and audit rejections; the
    /// live table and the mirror are untouched on error. The VN count
    /// must not change — queued jobs carry VN ids that must stay valid.
    pub fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
        if tables.len() != self.tables.len() {
            return Err(EngineError::InvalidParameter(
                "table count must not change across a swap",
            ));
        }
        let generation = self.publish_trie(build_trie(&tables)?)?;
        self.tables = tables;
        Ok(generation)
    }

    /// Atomically swaps in an already-built trie (the RCU write side)
    /// and returns the new generation.
    ///
    /// # Errors
    /// In audited builds, rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; no shard sees it.
    pub fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        let outcome = self.core.publish(trie);
        self.mirror_counts();
        outcome
    }

    /// The live metrics registry (`None` with telemetry off).
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.core.metrics()
    }

    /// The live shard-job tracer (`None` when
    /// [`ShardedConfig::trace_sample`] is off). Clone it to read
    /// completed traces from another thread.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.core.tracer()
    }

    /// One coherent pass over every live metric (`None` with telemetry
    /// off).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.core.telemetry_snapshot()
    }

    /// Accumulated counters so far (final totals come from
    /// [`Self::shutdown`]).
    #[must_use]
    pub fn report(&self) -> &ShardedReport {
        &self.report
    }

    /// Drains outstanding jobs, stops and joins the shards (the core's
    /// `Drop`, which also runs when the service is simply dropped), and
    /// returns the final report.
    pub fn shutdown(mut self) -> ShardedReport {
        let _ = self.collect_all();
        std::mem::take(&mut self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_core::contract::{self, contract_tests, Kind};

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn cfg(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        }
    }

    impl ShardedService {
        pub(crate) fn core_mut(&mut self) -> &mut ServiceCore {
            &mut self.core
        }
    }

    contract_tests! { Kind::Hash;
        matches_oracle_across_shard_counts => oracle_parity_across_worker_counts,
        mixed_vn_batches_resolve_per_network => mixed_vn_batches_resolve_per_network,
        process_restores_input_order_with_empty_and_tiny_batches =>
            empty_tiny_and_ragged_calls_keep_input_order,
        cached_shards_match_uncached_across_publishes => cached_matches_uncached_across_a_publish,
        traced_shards_record_validating_chains_with_shard_attribution =>
            traced_jobs_record_validating_stage_chains,
        telemetry_merges_per_shard_counters => registry_counters_match_the_report,
        telemetry_off_still_reports => telemetry_off_still_reports,
        audit_gate_rejects_corrupt_trie_in_debug => rejected_publish_changes_nothing_and_is_counted,
        process_after_an_uncollected_submit_returns_only_its_own_results =>
            process_after_an_uncollected_submit_returns_only_its_own_results,
        drop_joins_the_workers_and_frees_the_snapshot => drop_joins_the_workers_and_frees_the_snapshot,
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in 1..=8 {
            for dst in [0u32, 1, 0xFFFF_FFFF, 0x0A00_0001, 0xC0A8_0101] {
                let s = shard_of(dst, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(dst, shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn rejects_bad_configurations() {
        contract::bad_configurations_are_rejected(Kind::Hash);
        // A K=1 trie cannot serve a 2-VN table set.
        let t = table("10.0.0.0/8 1\n");
        let trie = JumpTrie::from_table(&t);
        assert!(ShardedService::with_trie(vec![t.clone(), t], trie, cfg(2)).is_err());
    }

    #[test]
    fn publish_broadcast_reaches_every_shard() {
        let mut svc = ShardedService::new(vec![table("0.0.0.0/0 1\n")], cfg(4)).unwrap();
        assert_eq!(svc.publish_tables(vec![table("0.0.0.0/0 2\n")]).unwrap(), 1);
        // Every destination hashes somewhere; all must see generation 1.
        let probes: Vec<(VnId, u32)> = (0..256u32)
            .map(|i| (0, i.wrapping_mul(0x9E37_79B9)))
            .collect();
        assert!(svc.process(&probes).iter().all(|nh| *nh == Some(2)));
        let report = svc.shutdown();
        assert_eq!(report.swaps, 1);
        assert_eq!(report.generations_seen, vec![1]);
    }
}
