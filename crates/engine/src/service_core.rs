//! The service core both public services are built on: the published
//! table, the audit gate in front of it, the control-plane telemetry,
//! the tracer, and the one lookup path.
//!
//! The paper's VS and VM routers are the same lookup pipeline and differ
//! only in how packets reach it; [`LookupService`](crate::LookupService)
//! and [`ShardedService`](crate::ShardedService) are two facades over
//! this core, so everything behind them lives here, once:
//!
//! * **One lookup path.** [`ServiceCore::lookup_into`] walks every key
//!   of a call through the published table on the calling thread — no
//!   lock, no refcount — with one
//!   [`lookup_batch_mixed`](crate::service::lookup_batch_mixed) pass,
//!   straight into the caller's output, with no result cache in front.
//!   No call is cut into spans, scattered or queued, and the core owns
//!   no thread.
//! * **One publish protocol.** The core owns the live table as an
//!   `Arc<TableSnapshot>`. [`ServiceCore::publish`] builds nothing,
//!   audits the candidate, and replaces that `Arc` with one at
//!   `generation + 1`. Lookups and publishes both take `&mut self`, so
//!   no call can overlap a publish and none sees a torn mix of
//!   generations: the borrow checker rules it out, and across the wire
//!   the server's one backend lock serialises every call. A pin taken
//!   with [`ServiceCore::snapshot`] keeps the old table alive until it
//!   drops.
//! * **One audit gate.** In debug builds (and in release with the
//!   `audit-on-publish` feature) every candidate runs through
//!   [`vr_trie::audit`]'s structural verifier before the swap; a
//!   rejected table never goes live and is counted.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::VnId;
use vr_obs::{Stage, TraceBuilder, Tracer, DEFAULT_TRACE_CAPACITY};
use vr_telemetry::{
    Counter, EventKind, Gauge, Histogram, MetricsRegistry, Stopwatch, TelemetrySnapshot,
};
use vr_trie::JumpTrie;

use crate::metrics::AuditMetrics;
use crate::service::lookup_batch_mixed;
use crate::EngineError;

/// An immutable routing snapshot: one [`JumpTrie`] plus the generation
/// that published it. A lookup call reads one snapshot; publishers swap
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

/// The core's knobs. Public as the configuration of a
/// [`ShardedService`](crate::ShardedService), which adds none of its
/// own; [`ServiceConfig`](crate::ServiceConfig) carries the same ones
/// beside its update knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedConfig {
    /// Retired: every lookup walks on the calling thread, so no shard
    /// has a thread of its own and nothing reads this field beyond
    /// refusing `0`, as it always has. It stays only until the repo
    /// benchmark, which spells it, stops doing so.
    pub shards: usize,
    /// Retired: there is no shard queue to bound, and nothing reads the
    /// field; it stays only until the repo benchmark, which spells it,
    /// stops doing so.
    pub queue_depth: usize,
    /// Whether to run with a live [`MetricsRegistry`] (lookup counters,
    /// batch/lookup histograms, the event ring).
    pub telemetry: bool,
    /// Retired: no service keeps a result cache, whatever this says;
    /// every call walks the trie (DESIGN §15). Nothing reads the field;
    /// it stays only until the repo benchmark, which spells it, stops
    /// doing so.
    pub lookup_cache: Option<usize>,
    /// 1-in-N call trace sampling rate; `None` disables tracing. A
    /// sampled call records its walk and completion as one stage chain,
    /// with shard (not worker) attribution.
    pub trace_sample: Option<u32>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_depth: 64,
            telemetry: true,
            lookup_cache: None,
            trace_sample: None,
        }
    }
}

/// Registry handles. Every series is recorded once per *call* (wall
/// time, mean ns/lookup), keeping the per-packet overhead at a fraction
/// of an atomic op.
struct CoreTelemetry {
    registry: Arc<MetricsRegistry>,
    swaps: Counter,
    audit_rejections: Counter,
    generation: Gauge,
    audit: AuditMetrics,
    lookups: Counter,
    misses: Counter,
    batches: Counter,
    batch_ns: Histogram,
    lookup_ns: Histogram,
}

impl CoreTelemetry {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new(1));
        Self {
            swaps: registry.counter("vr_service_swaps_total"),
            audit_rejections: registry.counter("vr_service_audit_rejections_total"),
            generation: registry.gauge("vr_service_generation"),
            audit: AuditMetrics::register(&registry),
            lookups: registry.counter("vr_service_lookups_total"),
            misses: registry.counter("vr_service_misses_total"),
            batches: registry.counter("vr_service_batches_total"),
            batch_ns: registry.histogram("vr_service_batch_ns"),
            lookup_ns: registry.histogram("vr_service_lookup_ns"),
            registry,
        }
    }

    /// Counts one resolved call.
    fn observe_batch(&self, results: &[Option<NextHop>], elapsed_ns: u64) {
        let lookups = results.len() as u64;
        let misses = results.iter().filter(|nh| nh.is_none()).count() as u64;
        self.lookups.add(lookups);
        self.misses.add(misses);
        self.batches.inc();
        self.batch_ns.record(elapsed_ns);
        self.lookup_ns.record(elapsed_ns / lookups.max(1));
    }
}

/// The published table, the gate in front of it, and the lookup path.
pub(crate) struct ServiceCore {
    /// The live table; replaced whole by [`ServiceCore::publish`].
    current: Arc<TableSnapshot>,
    /// Sequence number of the next call that resolves keys; a sampled
    /// trace carries it.
    next_seq: u64,
    /// `None` when [`ShardedConfig::telemetry`] is off.
    telemetry: Option<CoreTelemetry>,
    /// `None` when [`ShardedConfig::trace_sample`] is off.
    tracer: Option<Tracer>,
    /// How a sampled call names who ran it
    /// ([`TraceBuilder::set_worker`] or [`TraceBuilder::set_shard`]).
    attribute: fn(&mut TraceBuilder, u64),
    /// The audit in front of the slot, [`audit_snapshot`]; a field so a
    /// test can substitute one that refuses (no well-formed table fails
    /// the real one).
    pub gate: fn(&JumpTrie, Option<&AuditMetrics>) -> Result<(), EngineError>,
    /// The thread that ran the last walk.
    #[cfg(test)]
    walked_on: Option<std::thread::ThreadId>,
}

impl ServiceCore {
    /// Audits `trie` and publishes it as generation 0; `attribute` is
    /// how a sampled call names who ran it.
    ///
    /// # Errors
    /// Rejects zero lanes (the retired [`ShardedConfig::shards`]), a zero
    /// sample rate and (in audited builds) a structurally invalid trie.
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
        let telemetry = cfg.telemetry.then(CoreTelemetry::new);
        let tracer = cfg
            .trace_sample
            .map(|sample| Tracer::new(sample, DEFAULT_TRACE_CAPACITY));
        audit_snapshot(&trie, telemetry.as_ref().map(|t| &t.audit))?;
        if let Some(t) = &telemetry {
            t.generation.set(0);
        }
        Ok(Self {
            current: Arc::new(TableSnapshot {
                trie,
                generation: 0,
            }),
            next_seq: 0,
            telemetry,
            tracer,
            attribute,
            gate: audit_snapshot,
            #[cfg(test)]
            walked_on: None,
        })
    }

    /// Generation of the currently published snapshot.
    pub(crate) fn generation(&self) -> u64 {
        self.current.generation
    }

    /// The currently published snapshot (one refcount bump): a pin that
    /// outlives the call and keeps its table across later publishes.
    pub(crate) fn snapshot(&self) -> Arc<TableSnapshot> {
        Arc::clone(&self.current)
    }

    /// The live metrics registry (`None` with telemetry off).
    pub(crate) fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The live call tracer (`None` with tracing off).
    pub(crate) fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Every registered metric plus the event ring (`None` with
    /// telemetry off).
    pub(crate) fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.registry.snapshot())
    }

    /// Resolves `packets` into `out`, in input order, on the calling
    /// thread, against the one published snapshot (`&mut self` keeps any
    /// publish out for the whole call), and returns that snapshot's
    /// generation. A call with no keys counts and traces nothing and
    /// returns the published generation.
    ///
    /// # Panics
    /// If `packets` and `out` differ in length.
    pub(crate) fn lookup_into(
        &mut self,
        packets: &[(VnId, u32)],
        out: &mut [Option<NextHop>],
    ) -> u64 {
        assert_eq!(
            packets.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        if packets.is_empty() {
            return self.generation();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut trace = self
            .tracer
            .as_ref()
            .filter(|tr| tr.should_sample(seq))
            .map(|tr| tr.begin(seq, packets.len()));
        let watch = self.telemetry.is_some().then(Stopwatch::start);
        lookup_batch_mixed(&self.current.trie, packets, out);
        let generation = self.current.generation;
        #[cfg(test)]
        {
            self.walked_on = Some(std::thread::current().id());
        }
        if let Some(tb) = trace.as_mut() {
            tb.mark(Stage::LaneWalk);
        }
        if let (Some(t), Some(watch)) = (&self.telemetry, watch) {
            t.observe_batch(out, watch.elapsed_ns());
        }
        if let (Some(mut tb), Some(tr)) = (trace, self.tracer.as_ref()) {
            (self.attribute)(&mut tb, 0);
            tb.set_generation(generation);
            tb.mark(Stage::Complete);
            tr.record(tb.finish());
        }
        generation
    }

    /// Swaps in an already-built trie as the next generation and returns
    /// that generation. A [`snapshot`](Self::snapshot) pinned before
    /// keeps reading the old table.
    ///
    /// # Errors
    /// In audited builds, rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; the live snapshot is untouched and
    /// the rejection is counted.
    pub(crate) fn publish(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        // Guard-style span: audit + swap both land in vr_service_publish_ns
        // (recorded on every exit path, including the rejection return).
        let _span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.span("vr_service_publish_ns"));
        let trace_start = self.tracer.as_ref().map(Tracer::now_ns);
        if let Err(err) = (self.gate)(&trie, self.telemetry.as_ref().map(|t| &t.audit)) {
            if let Some(t) = &self.telemetry {
                t.audit_rejections.inc();
                t.registry.events().publish(EventKind::AuditRejected {
                    generation: self.generation() + 1,
                });
            }
            return Err(err);
        }
        let generation = self.current.generation + 1;
        self.current = Arc::new(TableSnapshot { trie, generation });
        if let Some(t) = &self.telemetry {
            t.swaps.inc();
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

/// What both facades owe their callers, written once. Every case takes
/// the facade to run over; each facade's test module names its tests in
/// a `contract_tests!` table.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use crate::{LookupService, ServiceConfig, ShardedService};
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
        /// [`LookupService`]: worker attribution.
        Service,
        /// [`ShardedService`]: shard attribution.
        Sharded,
    }

    /// The knobs every case starts from.
    fn pool() -> ShardedConfig {
        ShardedConfig::default()
    }

    /// Either facade under one set of names (one value per case, so the
    /// size difference costs nothing).
    #[allow(clippy::large_enum_variant)]
    enum Either {
        Service(LookupService),
        Sharded(ShardedService),
    }

    /// Evaluates `$call` on whichever facade `$self` holds.
    macro_rules! on {
        ($self:expr, $svc:ident => $call:expr) => {
            match $self {
                Either::Service($svc) => $call,
                Either::Sharded($svc) => $call,
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
                Kind::Service => Either::Service(LookupService::new(
                    tables,
                    ServiceConfig {
                        workers: pool.shards,
                        queue_depth: pool.queue_depth,
                        telemetry: pool.telemetry,
                        lookup_cache: pool.lookup_cache,
                        trace_sample: pool.trace_sample,
                        ..ServiceConfig::default()
                    },
                )?),
                Kind::Sharded => Either::Sharded(ShardedService::new(tables, pool)?),
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

        fn process_into(&mut self, packets: &[(VnId, u32)], out: &mut [Option<NextHop>]) -> u64 {
            on!(self, s => s.process_into(packets, out))
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

    pub(crate) fn oracle_parity(kind: Kind) {
        let t = TableSpec::paper_worst_case(21).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .flat_map(|p| [(0, p.addr()), (0, p.addr() | 0xFF)])
            .collect();
        let mut svc = kind.build(vec![t.clone()], pool()).unwrap();
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

    /// Four lanes (the retired `workers` / `shards` field) change
    /// nothing: the service answers like `RoutingTable::lookup`, every
    /// walk runs on the calling thread, and each call is one batch.
    pub(crate) fn four_lanes_walk_on_the_calling_thread(kind: Kind) {
        let tables = vec![
            TableSpec::paper_worst_case(23).generate().unwrap(),
            TableSpec::paper_worst_case(29).generate().unwrap(),
        ];
        let packets: Vec<(VnId, u32)> = tables
            .iter()
            .flat_map(RoutingTable::prefixes)
            .enumerate()
            .map(|(i, p)| ((i % 2) as VnId, p.addr() | (i as u32 & 0xFF)))
            .collect();
        let lanes = ShardedConfig {
            shards: 4,
            ..pool()
        };
        let mut svc = kind.build(tables.clone(), lanes).unwrap();
        assert_eq!(svc.core().walked_on, None);
        for _ in 0..3 {
            assert_eq!(svc.process(&packets), oracle(&tables, &packets));
            assert_eq!(
                svc.core().walked_on,
                Some(std::thread::current().id()),
                "a walk ran off the calling thread"
            );
        }
        let totals = svc.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_batches_total"), Some(3));
    }

    pub(crate) fn mixed_vn_batches_resolve_per_network(kind: Kind) {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
        ];
        let mut svc = kind.build(tables.clone(), pool()).unwrap();
        // Deliberately interleave VNs inside each call.
        let packets: Vec<(VnId, u32)> = (0..200u32)
            .map(|i| {
                let dst = if i % 3 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                ((i % 2) as VnId, dst + (i << 8))
            })
            .collect();
        assert_eq!(svc.process(&packets), oracle(&tables, &packets));
        let _ = svc.shutdown();
    }

    pub(crate) fn empty_tiny_and_ragged_calls_keep_input_order(kind: Kind) {
        let t = TableSpec::paper_worst_case(5).generate().unwrap();
        let mut svc = kind.build(vec![t.clone()], pool()).unwrap();
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
        // Eight non-empty calls, eight batches: an empty call is none.
        let totals = svc.shutdown().unwrap();
        assert_eq!(totals.counter("vr_service_batches_total"), Some(8));
    }

    /// The retired `lookup_cache` field changes nothing: a service built
    /// with `Some(64)` (or `Some(0)`, once refused) answers and counts
    /// exactly what one built with `None` does, before and after a
    /// publish, and none of them registers a `vr_cache_*` series.
    pub(crate) fn lookup_cache_is_inert(kind: Kind) {
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
                ..pool()
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

    pub(crate) fn traced_jobs_record_validating_stage_chains(kind: Kind) {
        let t = table("10.0.0.0/8 1\n10.1.0.0/16 2\n");
        // Sample every call so the case is deterministic.
        let knobs = ShardedConfig {
            trace_sample: Some(1),
            ..pool()
        };
        let mut svc = kind.build(vec![t.clone()], knobs).unwrap();
        let _ = svc.process(&scattered(128));
        svc.publish_tables(vec![t.clone()]).unwrap();
        let _ = svc.process(&scattered(128));
        for _ in 0..4 {
            assert_eq!(svc.process(&[(0, 0); 3]).len(), 3);
        }
        // An empty call is not a batch and is not traced.
        assert!(svc.process(&[]).is_empty());
        let snap = svc.tracer().expect("tracer on").snapshot();
        assert_eq!(snap.sample, 1);
        for trace in &snap.traces {
            trace.validate().unwrap();
        }
        // Calls name the caller as lane 0, the facade's way and only
        // that way, and the post-publish ones observed the bumped
        // generation.
        let jobs: Vec<_> = snap
            .traces
            .iter()
            .filter(|tr| tr.worker.is_some() || tr.shard.is_some())
            .collect();
        assert_eq!(jobs.len(), 6);
        let by_shard = kind == Kind::Sharded;
        for (seq, tr) in jobs.iter().enumerate() {
            assert_eq!(tr.seq, seq as u64, "{tr:?}");
            let (lane, other) = if by_shard {
                (tr.shard, tr.worker)
            } else {
                (tr.worker, tr.shard)
            };
            assert_eq!(lane, Some(0), "{tr:?}");
            assert!(other.is_none(), "{tr:?}");
            // One walk on the calling thread, then the count: no queue,
            // cache probe or scatter around it.
            let chain: Vec<Stage> = tr.stages.iter().map(|s| s.stage).collect();
            assert_eq!(chain, [Stage::LaneWalk, Stage::Complete], "{tr:?}");
            assert_eq!(tr.generation, u64::from(seq > 0), "{tr:?}");
        }
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
            "every call sampled"
        );
    }

    /// Answers are oracle-exact either way. With telemetry on the
    /// registry counts the known input: 320 lookups and their misses,
    /// one batch, each histogram fed once. With it off there is no
    /// registry and nothing is counted.
    fn telemetry_case(kind: Kind, telemetry: bool) {
        let t = TableSpec::paper_worst_case(31).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .map(|p| (0, p.addr() ^ 0x55))
            .take(320)
            .collect();
        let knobs = ShardedConfig {
            telemetry,
            ..pool()
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
        let misses = want.iter().filter(|nh| nh.is_none()).count() as u64;
        assert_eq!(snap.counter("vr_service_lookups_total"), Some(320));
        assert_eq!(snap.counter("vr_service_misses_total"), Some(misses));
        assert_eq!(snap.counter("vr_service_batches_total"), Some(1));
        assert_eq!(snap.gauge("vr_service_generation"), Some(0));
        for histogram in ["vr_service_batch_ns", "vr_service_lookup_ns"] {
            assert_eq!(snap.histogram(histogram).unwrap().count, 1);
        }
    }

    pub(crate) fn registry_counts_the_input(kind: Kind) {
        telemetry_case(kind, true);
    }

    pub(crate) fn telemetry_off_has_no_registry_and_stays_exact(kind: Kind) {
        telemetry_case(kind, false);
    }

    pub(crate) fn rejected_publish_changes_nothing_and_is_counted(kind: Kind) {
        let old = table("10.0.0.0/8 1\n");
        let new = table("10.0.0.0/8 2\n");
        // Serving is the same with the registry on or off; only the
        // registry counts.
        for telemetry in [true, false] {
            let knobs = ShardedConfig {
                telemetry,
                ..pool()
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

    pub(crate) fn bad_configurations_are_rejected(kind: Kind) {
        let t = table("10.0.0.0/8 1\n");
        assert!(kind.build(vec![], pool()).is_err());
        for bad in [
            ShardedConfig {
                shards: 0,
                ..pool()
            },
            ShardedConfig {
                trace_sample: Some(0),
                ..pool()
            },
        ] {
            assert!(kind.build(vec![t.clone()], bad).is_err());
        }
        // The VN count is pinned across publishes.
        let mut svc = kind.build(vec![t.clone()], pool()).unwrap();
        assert!(svc.publish_tables(vec![t.clone(), t]).is_err());
        assert_eq!(svc.generation(), 0);
        let _ = svc.shutdown();
    }

    /// Dropping the service drops its last pin: a snapshot taken before
    /// is the only holder left.
    pub(crate) fn drop_frees_the_snapshot(kind: Kind) {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let mut svc = kind.build(vec![t], pool()).unwrap();
        let pin = svc.core().snapshot();
        let _ = svc.process(&scattered(2048));
        assert_eq!(Arc::strong_count(&pin), 2, "the core and this pin");
        drop(svc);
        assert_eq!(
            Arc::strong_count(&pin),
            1,
            "the service outlived its drop and still pins its table"
        );
    }

    /// A pin taken before a publish still reads the table and generation
    /// it pinned, while the service serves the new one.
    pub(crate) fn pins_keep_the_old_table_across_a_publish(kind: Kind) {
        let mut svc = kind.build(vec![table("0.0.0.0/0 1\n")], pool()).unwrap();
        let pinned = svc.core().snapshot();
        svc.publish_tables(vec![table("0.0.0.0/0 2\n")]).unwrap();
        assert_eq!((pinned.generation, pinned.trie.lookup(0)), (0, Some(1)));
        let live = svc.core().snapshot();
        assert_eq!((live.generation, live.trie.lookup(0)), (1, Some(2)));
        assert_eq!(svc.process(&[(0, 0)]), vec![Some(2)]);
        let _ = svc.shutdown();
    }

    /// Every call is the caller's own (lane 0's) and resolves on the
    /// generation published before it, which `process_into` returns.
    pub(crate) fn lane_zero_jobs_resolve_on_the_generation_they_were_submitted_under(kind: Kind) {
        let key = [(0, 0)];
        let mut out = [None];
        let mut svc = kind.build(vec![table("0.0.0.0/0 1\n")], pool()).unwrap();
        assert_eq!(svc.process_into(&key, &mut out), 0);
        assert_eq!(out, [Some(1)]);
        svc.publish_tables(vec![table("0.0.0.0/0 2\n")]).unwrap();
        assert_eq!(svc.process_into(&key, &mut out), 1);
        assert_eq!(out, [Some(2)]);
        // An empty call names the published generation.
        assert_eq!(svc.process_into(&[], &mut []), 1);
        let _ = svc.shutdown();
    }
}
