//! Machine-readable audit reports.
//!
//! Every verifier pass produces one [`AuditReport`]: per-check pass/fail
//! ([`CheckOutcome`]), the individual [`Violation`]s with their encoding
//! coordinates (level, slab offset, word), and summary statistics about
//! the structure examined. Reports serialize to JSON (the CI `audit` job
//! uploads them as artifacts) and carry enough context that a violation
//! can be located in a hex dump of the slabs without re-running anything.

use serde::Serialize;

/// Cap on individually recorded violations per report; beyond it only the
/// per-check counters keep growing ([`AuditReport::truncated_violations`]
/// says how many were dropped). A corrupt slab can trip millions of words
/// at once — the first few dozen locate the damage, the rest is noise.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// The structural checks the verifier can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CheckKind {
    /// Every word/entry tag decodes to a valid variant (leaf/internal
    /// discriminant, NHI codes inside the `Option<NextHop>` code range).
    TagDecode,
    /// Child base + fanout lands in-bounds in the *next* level's slab,
    /// and per-level fanout accounting balances.
    ChildBounds,
    /// Level slabs partition the word array: offsets start at zero, end
    /// at the array length, and descend strictly level by level (which
    /// together with [`CheckKind::ChildBounds`] makes traversal acyclic).
    LevelOrder,
    /// Leaf-pushing completeness: every root-to-leaf path terminates at a
    /// leaf word within the 32-bit address depth.
    LeafCompleteness,
    /// Next-hop vectors: slab width is an exact multiple of the VNID
    /// arity, every referenced vector exists, and the arity covers every
    /// registered virtual network.
    NhiVector,
    /// Jump-table prefix-expansion consistency against the source table
    /// the jump trie was built from.
    JumpConsistency,
    /// Lookup parity against an independently built oracle structure.
    OracleParity,
    /// Structure-specific internal invariants (arena accounting,
    /// full-binary identity, presence masks, ...).
    Invariants,
    /// Dead-slab / unreachable-node accounting. Informational: dead words
    /// waste memory but cannot corrupt a lookup.
    Reachability,
}

impl CheckKind {
    /// Stable lowercase label used in JSON and log lines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CheckKind::TagDecode => "tag_decode",
            CheckKind::ChildBounds => "child_bounds",
            CheckKind::LevelOrder => "level_order",
            CheckKind::LeafCompleteness => "leaf_completeness",
            CheckKind::NhiVector => "nhi_vector",
            CheckKind::JumpConsistency => "jump_consistency",
            CheckKind::OracleParity => "oracle_parity",
            CheckKind::Invariants => "invariants",
            CheckKind::Reachability => "reachability",
        }
    }
}

/// Whether a violation makes the structure unsafe to publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    /// Accounting finding (dead slabs, stale vectors): reported, never
    /// fails the audit.
    Info,
    /// Structural corruption: the audit fails and the table must not be
    /// published.
    Error,
}

/// Coordinates of a violation inside the encoding.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Coordinates {
    /// Pipeline level (slab index) the offending word lives in.
    pub level: Option<u32>,
    /// Absolute offset of the word in its slab array.
    pub offset: Option<u64>,
    /// The raw word value, when one word is at fault.
    pub word: Option<u64>,
}

impl Coordinates {
    /// No specific location (aggregate violations).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A specific word in a specific level slab.
    #[must_use]
    pub fn word(level: usize, offset: usize, word: u64) -> Self {
        Self {
            level: u32::try_from(level).ok(),
            offset: Some(offset as u64),
            word: Some(word),
        }
    }

    /// A whole level, no single word at fault.
    #[must_use]
    pub fn level(level: usize) -> Self {
        Self {
            level: u32::try_from(level).ok(),
            offset: None,
            word: None,
        }
    }
}

/// One rule violation found by a check.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// The check that found it.
    pub check: CheckKind,
    /// Error (fails the audit) or Info (accounting only).
    pub severity: Severity,
    /// Where in the encoding it sits.
    pub coordinates: Coordinates,
    /// Human-readable description.
    pub message: String,
}

/// Pass/fail summary of one check.
#[derive(Debug, Clone, Serialize)]
pub struct CheckOutcome {
    /// Which check.
    pub check: CheckKind,
    /// True when the check ran and found zero `Error` violations.
    pub passed: bool,
    /// Error-severity violations counted (all, not just recorded ones).
    pub errors: u64,
    /// Info-severity findings counted.
    pub infos: u64,
}

/// Summary statistics about the audited structure.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct AuditStats {
    /// Total node words / entries / arena nodes examined.
    pub nodes: u64,
    /// Level (pipeline stage) count.
    pub levels: u64,
    /// Leaf count (NHI vectors stored).
    pub leaves: u64,
    /// Total NHI slab entries (leaves × arity).
    pub nhi_entries: u64,
    /// NHI vector width (virtual networks served).
    pub arity: u64,
    /// Words/entries unreachable from the root (dead slabs).
    pub dead_words: u64,
    /// NHI vectors no leaf references (stale entries).
    pub stale_nhi_vectors: u64,
}

/// The result of one verifier pass over one structure.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// What was audited (e.g. `"merged(k=1)"`, `"jump(k=8)"`).
    pub structure: String,
    /// Summary statistics.
    pub stats: AuditStats,
    /// Per-check pass/fail, in the order the checks ran.
    pub checks: Vec<CheckOutcome>,
    /// Recorded violations (capped at [`MAX_RECORDED_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Violations counted but not individually recorded.
    pub truncated_violations: u64,
}

impl AuditReport {
    /// True when no check found an `Error`-severity violation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Total error-severity violations across all checks.
    #[must_use]
    pub fn error_count(&self) -> u64 {
        self.checks.iter().map(|c| c.errors).sum()
    }

    /// One-line human summary ("clean" or the failing checks).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("{}: clean ({} nodes)", self.structure, self.stats.nodes)
        } else {
            let failing: Vec<String> = self
                .checks
                .iter()
                .filter(|c| !c.passed)
                .map(|c| format!("{}×{}", c.check.label(), c.errors))
                .collect();
            format!("{}: {} violations [{}]", self.structure, self.error_count(), failing.join(", "))
        }
    }
}

/// Incremental builder the verifier records findings into.
#[derive(Debug)]
pub struct Audit {
    structure: String,
    checks: Vec<CheckOutcome>,
    violations: Vec<Violation>,
    truncated: u64,
}

impl Audit {
    /// Starts an audit of the named structure.
    #[must_use]
    pub fn new(structure: impl Into<String>) -> Self {
        Self {
            structure: structure.into(),
            checks: Vec::new(),
            violations: Vec::new(),
            truncated: 0,
        }
    }

    /// Registers a check as having run (passing until a violation lands).
    pub fn declare(&mut self, check: CheckKind) {
        if !self.checks.iter().any(|c| c.check == check) {
            self.checks.push(CheckOutcome {
                check,
                passed: true,
                errors: 0,
                infos: 0,
            });
        }
    }

    fn outcome(&mut self, check: CheckKind) -> &mut CheckOutcome {
        self.declare(check);
        self.checks
            .iter_mut()
            .find(|c| c.check == check)
            .expect("declared just above")
    }

    fn record(
        &mut self,
        check: CheckKind,
        severity: Severity,
        coordinates: Coordinates,
        message: String,
    ) {
        let outcome = self.outcome(check);
        match severity {
            Severity::Error => {
                outcome.errors += 1;
                outcome.passed = false;
            }
            Severity::Info => outcome.infos += 1,
        }
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(Violation {
                check,
                severity,
                coordinates,
                message,
            });
        } else {
            self.truncated += 1;
        }
    }

    /// Records a structural corruption (fails the audit).
    pub fn error(&mut self, check: CheckKind, coordinates: Coordinates, message: impl Into<String>) {
        self.record(check, Severity::Error, coordinates, message.into());
    }

    /// Records an accounting finding (report only).
    pub fn info(&mut self, check: CheckKind, coordinates: Coordinates, message: impl Into<String>) {
        self.record(check, Severity::Info, coordinates, message.into());
    }

    /// Seals the audit into its report.
    #[must_use]
    pub fn finish(self, stats: AuditStats) -> AuditReport {
        AuditReport {
            structure: self.structure,
            stats,
            checks: self.checks,
            violations: self.violations,
            truncated_violations: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_audit_reports_clean() {
        let mut audit = Audit::new("merged(k=1)");
        audit.declare(CheckKind::TagDecode);
        audit.declare(CheckKind::LevelOrder);
        let report = audit.finish(AuditStats::default());
        assert!(report.is_clean());
        assert_eq!(report.error_count(), 0);
        assert!(report.summary().contains("clean"));
    }

    #[test]
    fn errors_fail_only_their_check() {
        let mut audit = Audit::new("jump");
        audit.declare(CheckKind::LevelOrder);
        audit.error(
            CheckKind::ChildBounds,
            Coordinates::word(3, 17, 0xDEAD),
            "child base out of slab",
        );
        audit.info(CheckKind::Reachability, Coordinates::none(), "2 dead words");
        let report = audit.finish(AuditStats::default());
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 1);
        let bounds = report
            .checks
            .iter()
            .find(|c| c.check == CheckKind::ChildBounds)
            .unwrap();
        assert!(!bounds.passed);
        let reach = report
            .checks
            .iter()
            .find(|c| c.check == CheckKind::Reachability)
            .unwrap();
        assert!(reach.passed, "info findings never fail a check");
        assert!(report.summary().contains("child_bounds"));
    }

    #[test]
    fn violations_are_capped_not_lost() {
        let mut audit = Audit::new("merged(k=1)");
        for i in 0..(MAX_RECORDED_VIOLATIONS + 10) {
            audit.error(
                CheckKind::TagDecode,
                Coordinates::word(0, i, 0),
                "bad word",
            );
        }
        let report = audit.finish(AuditStats::default());
        assert_eq!(report.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(report.truncated_violations, 10);
        assert_eq!(report.error_count(), (MAX_RECORDED_VIOLATIONS + 10) as u64);
    }

    #[test]
    fn report_serializes_to_json() {
        let mut audit = Audit::new("merged_leaf_pushed(k=4)");
        audit.error(
            CheckKind::LeafCompleteness,
            Coordinates::level(4),
            "internal word in deepest level",
        );
        let report = audit.finish(AuditStats {
            nodes: 42,
            ..AuditStats::default()
        });
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("LeafCompleteness"));
        assert!(json.contains("merged_leaf_pushed(k=4)"));
        assert!(json.contains("42"));
    }
}
