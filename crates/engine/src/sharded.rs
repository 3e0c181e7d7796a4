//! The lookup-only facade over the service core.
//!
//! [`ShardedService`] is the second facade over the service core
//! (`Publish`-slot table swap, audit gate, telemetry — see
//! `service_core.rs`) beside [`LookupService`](crate::LookupService). It
//! serves a table family and takes whole-table publishes, but owns no
//! routing state and applies no route update. Every call walks on the
//! calling thread through the core's one lookup path, so
//! [`process_into`](ShardedService::process_into) allocates nothing.
//!
//! Publishing is the core's one protocol: a call and a publish both take
//! `&mut self`, so a call resolves against exactly one generation — old
//! or new, never a torn mix (the `service_swap` acceptance tests run
//! against both services) — and a call made after a publish returned can
//! only see the new table.
//!
//! Telemetry uses the core's `vr_service_*` vocabulary, so the bench and
//! exporters read both services identically; sampled traces carry shard
//! (not worker) attribution.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::VnId;
use vr_obs::{TraceBuilder, Tracer};
use vr_telemetry::{MetricsRegistry, TelemetrySnapshot};
use vr_trie::JumpTrie;

pub use crate::service_core::ShardedConfig;
use crate::service_core::{build_trie, ServiceCore};
use crate::EngineError;

/// Lookup-only service over the shared service core.
///
/// ```
/// use vr_engine::{ShardedConfig, ShardedService};
/// use vr_net::RoutingTable;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let mut service = ShardedService::new(vec![table], ShardedConfig::default()).unwrap();
///
/// let packets = vec![(0, 0x0A01_0103), (0, 0x0A02_0000), (0, 0x0B00_0000)];
/// assert_eq!(service.process(&packets), vec![Some(2), Some(1), None]);
///
/// // Republish: a call made after the swap sees the new table.
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
}

impl ShardedService {
    /// Builds the jump trie from `tables` and publishes it.
    ///
    /// # Errors
    /// Rejects an empty table set, zero shards, merge failures, and (in
    /// audited builds) a structurally invalid trie.
    pub fn new(tables: Vec<RoutingTable>, cfg: ShardedConfig) -> Result<Self, EngineError> {
        Self::with_trie(build_trie(&tables)?, cfg)
    }

    /// Serves an already-built trie (callers that benchmark multiple
    /// services over one table family skip the rebuild). The service
    /// hosts one VN per column of the trie's NHI vectors.
    ///
    /// # Errors
    /// Rejects zero shards, a zero sample rate, and (in
    /// audited builds) a structurally invalid trie.
    pub fn with_trie(trie: JumpTrie, cfg: ShardedConfig) -> Result<Self, EngineError> {
        Ok(Self {
            vn_count: trie.arity(),
            core: ServiceCore::new(trie, cfg, TraceBuilder::set_shard)?,
        })
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

    /// Resolves a packet stream on the calling thread and returns
    /// per-packet results in input order.
    pub fn process(&mut self, packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
        let mut out = vec![None; packets.len()];
        self.process_into(packets, &mut out);
        out
    }

    /// [`Self::process`] into a caller-owned output slice (the bench's
    /// steady-state loop reuses one); returns the generation of the one
    /// snapshot the whole call resolved against.
    ///
    /// # Panics
    /// If `packets` and `out` differ in length.
    pub fn process_into(&mut self, packets: &[(VnId, u32)], out: &mut [Option<NextHop>]) -> u64 {
        self.core.lookup_into(packets, out)
    }

    /// Publishes a fresh snapshot built from `tables`. The build runs
    /// outside the swap lock. Returns the new generation.
    ///
    /// # Errors
    /// Propagates trie construction failures and audit rejections; the
    /// live table is untouched on error. The VN count must not change:
    /// callers hold VN ids that must stay valid.
    pub fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
        if tables.len() != self.vn_count {
            return Err(EngineError::InvalidParameter(
                "table count must not change across a swap",
            ));
        }
        self.publish_trie(build_trie(&tables)?)
    }

    /// Swaps in an already-built trie as the next generation and returns
    /// that generation.
    ///
    /// # Errors
    /// In audited builds, rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; no lookup sees it.
    pub fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        self.core.publish(trie)
    }

    /// The live metrics registry (`None` with telemetry off).
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.core.metrics()
    }

    /// The live call tracer (`None` when
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

    /// Returns the registry's final scrape (`None` with telemetry off)
    /// and drops the service.
    pub fn shutdown(self) -> Option<TelemetrySnapshot> {
        self.core.telemetry_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_core::contract::{self, contract_tests, Kind};

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    impl ShardedService {
        pub(crate) fn core_mut(&mut self) -> &mut ServiceCore {
            &mut self.core
        }
    }

    contract_tests! { Kind::Sharded;
        matches_oracle_across_shard_counts => oracle_parity,
        four_shards_walk_on_the_calling_thread => four_lanes_walk_on_the_calling_thread,
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
        drop_frees_the_snapshot => drop_frees_the_snapshot,
        pins_keep_the_old_table_across_a_publish => pins_keep_the_old_table_across_a_publish,
        lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under =>
            lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under,
    }

    #[test]
    fn rejects_bad_configurations() {
        contract::bad_configurations_are_rejected(Kind::Sharded);
        // A K=1 trie hosts one VN, and a 2-VN table set cannot replace it.
        let t = table("10.0.0.0/8 1\n");
        let mut svc =
            ShardedService::with_trie(JumpTrie::from_table(&t), ShardedConfig::default()).unwrap();
        assert_eq!(svc.vn_count(), 1);
        assert!(svc.publish_tables(vec![t.clone(), t]).is_err());
        assert_eq!(svc.generation(), 0);
        let _ = svc.shutdown();
    }

    #[test]
    fn publish_broadcast_reaches_every_shard() {
        let cfg = ShardedConfig {
            shards: 4,
            ..ShardedConfig::default()
        };
        let mut svc = ShardedService::new(vec![table("0.0.0.0/0 1\n")], cfg).unwrap();
        assert_eq!(svc.publish_tables(vec![table("0.0.0.0/0 2\n")]).unwrap(), 1);
        // Destinations spread over the whole address space all see
        // generation 1.
        let probes: Vec<(VnId, u32)> = (0..256u32)
            .map(|i| (0, i.wrapping_mul(0x9E37_79B9)))
            .collect();
        assert!(svc.process(&probes).iter().all(|nh| *nh == Some(2)));
        let totals = svc.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_swaps_total"), Some(1));
    }
}
