//! Telemetry bridge: audit outcomes as registry metrics.
//!
//! The service core runs [`vr_trie::audit::audit_jump`] on every
//! candidate table before the RCU swap (debug builds, or the
//! `audit-on-publish` feature). This module publishes those runs as
//! counters and a duration histogram so a scraper can watch the audit
//! gate's cost and hit rate alongside the datapath metrics.

use vr_telemetry::{Counter, Histogram, MetricsRegistry};
use vr_trie::audit::AuditReport;

/// Audit runs observed, clean or not.
pub(crate) const AUDIT_RUNS_METRIC: &str = "vr_audit_runs_total";
/// Error-severity violations observed across all audit runs.
pub(crate) const AUDIT_VIOLATIONS_METRIC: &str = "vr_audit_violations_total";
/// Wall-clock duration of each audit run, nanoseconds.
pub(crate) const AUDIT_DURATION_METRIC: &str = "vr_audit_ns";

/// Cloneable handles onto the audit metrics of one registry.
#[derive(Debug, Clone)]
pub(crate) struct AuditMetrics {
    runs: Counter,
    violations: Counter,
    duration_ns: Histogram,
}

impl AuditMetrics {
    /// Registers (or re-attaches to) the audit metrics in `registry`.
    #[must_use]
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        Self {
            runs: registry.counter(AUDIT_RUNS_METRIC),
            violations: registry.counter(AUDIT_VIOLATIONS_METRIC),
            duration_ns: registry.histogram(AUDIT_DURATION_METRIC),
        }
    }

    /// Records one completed audit run: its duration and however many
    /// error-severity violations it found.
    pub(crate) fn observe(&self, report: &AuditReport, elapsed_ns: u64) {
        self.runs.inc();
        self.violations.add(report.error_count());
        self.duration_ns.record(elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::RoutingTable;
    use vr_trie::audit::audit_jump;
    use vr_trie::JumpTrie;

    #[test]
    fn clean_audit_counts_a_run_with_no_violations() {
        let registry = MetricsRegistry::new(1);
        let metrics = AuditMetrics::register(&registry);
        let table: RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
        let report = audit_jump(&JumpTrie::from_table(&table));
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
        let corrupt = JumpTrie::from_raw_parts(p.root.to_vec(), p.tail.to_vec(), Vec::new(), p.k);
        let report = audit_jump(&corrupt);
        assert!(!report.is_clean());
        metrics.observe(&report, 99);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(AUDIT_RUNS_METRIC), Some(1));
        assert!(snap.counter(AUDIT_VIOLATIONS_METRIC).unwrap() > 0);
    }
}
