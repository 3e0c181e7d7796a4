//! Hash-sharded lookup service: the service core behind a
//! destination-hash scatter.
//!
//! [`LookupService`](crate::LookupService) hands each worker one
//! contiguous span of a call. [`ShardedService`] is the other facade
//! over the same core (lanes — shard 0 is the calling thread, each other
//! shard a worker thread — `Publish`-slot table swap, audit gate,
//! telemetry, join-on-drop — see `service_core.rs`) and differs
//! only in how packets reach the workers, the way the paper's VS
//! organization puts a VNID distributor in front of K copies of the
//! same pipeline: the dispatcher routes every packet by a cheap
//! multiplicative hash of its destination address ([`shard_of`]), so a
//! given flow always lands on the same shard — order within a flow is
//! preserved — and the gathered results are written back through each
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
//! Telemetry uses the core's `vr_service_*` vocabulary
//! (counters sharded by shard id), so the bench and exporters read both
//! services identically; sampled traces carry shard (not worker)
//! attribution.

use std::sync::Arc;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::VnId;
use vr_obs::{TraceBuilder, Tracer};
use vr_telemetry::{MetricsRegistry, TelemetrySnapshot};
use vr_trie::JumpTrie;

pub use crate::service_core::ShardedConfig;
use crate::service_core::{build_trie, Job, ServiceCore};
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

/// N-shard lookup service: a destination-hash scatter in front of the
/// shared service core (shard 0 on the calling thread, the rest behind
/// SPSC request queues).
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
/// let totals = service.shutdown().unwrap();
/// assert_eq!(totals.counter("vr_service_swaps_total"), Some(1));
/// ```
pub struct ShardedService {
    core: ServiceCore,
    /// Virtual networks hosted, fixed for the service's lifetime.
    vn_count: usize,
    /// Recycled job buffers for the allocation-free process path.
    spare: Vec<Job>,
    /// One job per shard while [`Self::submit`] scatters a call; empty
    /// between calls and kept for its capacity.
    scatter: Vec<Job>,
}

impl ShardedService {
    /// Builds the jump trie from `tables` and spawns the threads of
    /// shards 1..N.
    ///
    /// # Errors
    /// Rejects an empty table set, zero shards, merge failures, and (in
    /// audited builds) a structurally invalid trie.
    pub fn new(tables: Vec<RoutingTable>, cfg: ShardedConfig) -> Result<Self, EngineError> {
        Self::with_trie(build_trie(&tables)?, cfg)
    }

    /// Spawns the shard threads around an already-built trie (callers that
    /// benchmark multiple services over one table family skip the
    /// rebuild). The service hosts one VN per column of the trie's NHI
    /// vectors.
    ///
    /// # Errors
    /// Rejects zero shards, a zero sample rate, and (in
    /// audited builds) a structurally invalid trie.
    pub fn with_trie(trie: JumpTrie, cfg: ShardedConfig) -> Result<Self, EngineError> {
        Ok(Self {
            vn_count: trie.arity(),
            core: ServiceCore::new(trie, cfg, TraceBuilder::set_shard)?,
            spare: Vec::new(),
            scatter: Vec::new(),
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

    /// Virtual networks hosted: lookups may name VN ids
    /// `0..vn_count()`.
    #[must_use]
    pub fn vn_count(&self) -> usize {
        self.vn_count
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
        let spare = &mut self.spare;
        self.scatter
            .extend((0..shard_count).map(|_| spare.pop().unwrap_or_default()));
        for (i, &(vn, dst)) in packets.iter().enumerate() {
            let job = &mut self.scatter[shard_of(dst, shard_count)];
            job.packets.push((vn, dst));
            job.origins.push(u32::try_from(i).expect("batch too large"));
        }
        let mut issued = 0;
        for (shard, job) in self.scatter.drain(..).enumerate() {
            if job.packets.is_empty() {
                self.spare.push(job);
            } else {
                self.core.submit(shard, job);
                issued += 1;
            }
        }
        issued
    }

    /// Waits for every outstanding job and returns the sub-batches
    /// sorted by submission sequence. The buffers leave the recycle
    /// pool with them; the gathered [`Self::process`] path stays
    /// allocation-free instead.
    pub fn collect_all(&mut self) -> Vec<ShardedBatch> {
        let mut done: Vec<ShardedBatch> = Vec::new();
        self.core.drain(|batch| {
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
    /// counted, but are not part of the result.
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
        let spare = &mut self.spare;
        self.core.drain(|batch| {
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

    /// Publishes a fresh snapshot built from `tables`. The build runs
    /// outside the swap lock; in-flight jobs finish on the snapshot they
    /// pinned. Returns the new generation.
    ///
    /// # Errors
    /// Propagates trie construction failures and audit rejections; the
    /// live table is untouched on error. The VN count must not change —
    /// queued jobs carry VN ids that must stay valid.
    pub fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
        if tables.len() != self.vn_count {
            return Err(EngineError::InvalidParameter(
                "table count must not change across a swap",
            ));
        }
        self.publish_trie(build_trie(&tables)?)
    }

    /// Atomically swaps in an already-built trie (the RCU write side)
    /// and returns the new generation.
    ///
    /// # Errors
    /// In audited builds, rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; no shard sees it.
    pub fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        self.core.publish(trie)
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

    /// Drains outstanding jobs, stops and joins the shard threads (the core's
    /// `Drop`, which also runs when the service is simply dropped), and
    /// returns the registry's final scrape (`None` with telemetry off).
    pub fn shutdown(self) -> Option<TelemetrySnapshot> {
        self.core.shutdown()
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
        matches_oracle_across_shard_counts => oracle_parity,
        mixed_vn_batches_resolve_per_network => mixed_vn_batches_resolve_per_network,
        process_restores_input_order_with_empty_and_tiny_batches =>
            empty_tiny_and_ragged_calls_keep_input_order,
        lookup_cache_is_inert => lookup_cache_is_inert,
        traced_shards_record_validating_chains_with_shard_attribution =>
            traced_jobs_record_validating_stage_chains,
        telemetry_merges_per_shard_counters => registry_counts_the_input,
        telemetry_off_has_no_registry_and_stays_exact =>
            telemetry_off_has_no_registry_and_stays_exact,
        audit_gate_rejects_corrupt_trie_in_debug => rejected_publish_changes_nothing_and_is_counted,
        process_after_an_uncollected_submit_returns_only_its_own_results =>
            process_after_an_uncollected_submit_returns_only_its_own_results,
        drop_joins_the_workers_and_frees_the_snapshot => drop_joins_the_workers_and_frees_the_snapshot,
        lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under =>
            lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under,
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
        contract::run(contract::bad_configurations_are_rejected, Kind::Hash);
        // A K=1 trie hosts one VN, and a 2-VN table set cannot replace it.
        let t = table("10.0.0.0/8 1\n");
        let mut svc = ShardedService::with_trie(JumpTrie::from_table(&t), cfg(2)).unwrap();
        assert_eq!(svc.vn_count(), 1);
        assert!(svc.publish_tables(vec![t.clone(), t]).is_err());
        assert_eq!(svc.generation(), 0);
        let _ = svc.shutdown();
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
        let totals = svc.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_swaps_total"), Some(1));
        assert_eq!(totals.gauge("vr_service_generation_lag"), Some(0));
    }
}
