//! Telemetry bridge: audit outcomes as registry metrics.
//!
//! The engine runs a structural audit on every candidate table before
//! the RCU swap. Those runs were invisible outside the one-shot audit
//! report; this module publishes them as counters and a duration
//! histogram so a scraper can watch the audit gate's cost and hit rate
//! alongside the datapath metrics.

use crate::report::AuditReport;
use vr_telemetry::{Counter, Histogram, MetricsRegistry};

/// Metric names registered by [`AuditMetrics::register`].
pub const AUDIT_RUNS_METRIC: &str = "vr_audit_runs_total";
/// Error-severity violations observed across all audit runs.
pub const AUDIT_VIOLATIONS_METRIC: &str = "vr_audit_violations_total";
/// Wall-clock duration of each audit run, nanoseconds.
pub const AUDIT_DURATION_METRIC: &str = "vr_audit_ns";

/// Cloneable handles onto the audit metrics of one registry.
#[derive(Debug, Clone)]
pub struct AuditMetrics {
    runs: Counter,
    violations: Counter,
    duration_ns: Histogram,
}

impl AuditMetrics {
    /// Registers (or re-attaches to) the audit metrics in `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            runs: registry.counter(AUDIT_RUNS_METRIC),
            violations: registry.counter(AUDIT_VIOLATIONS_METRIC),
            duration_ns: registry.histogram(AUDIT_DURATION_METRIC),
        }
    }

    /// Records one completed audit run: its duration and however many
    /// error-severity violations it found.
    pub fn observe(&self, report: &AuditReport, elapsed_ns: u64) {
        self.runs.inc(0);
        self.violations.add(0, report.error_count());
        self.duration_ns.record(elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::RoutingTable;
    use vr_trie::JumpTrie;

    #[test]
    fn clean_audit_counts_a_run_with_no_violations() {
        let registry = MetricsRegistry::new(1);
        let metrics = AuditMetrics::register(&registry);
        let table: RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
        let report = crate::audit_jump(&JumpTrie::from_table(&table));
        assert!(report.is_clean());
        metrics.observe(&report, 1234);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(AUDIT_RUNS_METRIC), Some(1));
        assert_eq!(snap.counter(AUDIT_VIOLATIONS_METRIC), Some(0));
        assert_eq!(snap.histogram(AUDIT_DURATION_METRIC).unwrap().count, 1);
    }

    #[test]
    fn corrupt_audit_counts_its_violations() {
        let registry = MetricsRegistry::new(1);
        let metrics = AuditMetrics::register(&registry);
        let table: RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
        let good = JumpTrie::from_table(&table);
        let p = good.raw_parts();
        let corrupt = JumpTrie::from_raw_parts(
            p.root.to_vec(),
            p.tail.to_vec(),
            Vec::new(),
            p.k,
        );
        let report = crate::audit_jump(&corrupt);
        assert!(!report.is_clean());
        metrics.observe(&report, 99);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(AUDIT_RUNS_METRIC), Some(1));
        assert!(snap.counter(AUDIT_VIOLATIONS_METRIC).unwrap() > 0);
    }
}
