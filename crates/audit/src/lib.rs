//! `vr-audit`: structural invariant verifier for the workspace's lookup
//! table encodings, plus source-level lints.
//!
//! The datapath crates trade safety margins for speed: [`vr_trie`]'s
//! jump encoding indexes raw word slabs with no bounds checks beyond the
//! slice's own, and the engine swaps whole tables under live traffic.
//! A single corrupt word — a flipped leaf tag, a child base pointing past
//! its level — silently misroutes packets rather than crashing. This crate
//! is the counterweight:
//!
//! * [`verify`] walks every encoding (the pointer trie and its
//!   leaf-pushed form at any arity, DIR-16 jump) and checks
//!   the invariants each one's lookup loop relies on: tag decodability,
//!   child bounds and fanout accounting, strictly descending level order
//!   (acyclicity), leaf-pushing completeness, K-wide NHI vector coverage,
//!   jump-table prefix-expansion consistency, and oracle lookup parity.
//!   Dead slabs and stale NHI vectors are *reported* (wasted BRAM) but
//!   never fail an audit.
//! * [`report`] is the machine-readable result: per-check pass/fail with
//!   violation coordinates (level, slab offset, word), serialized to JSON
//!   by the CI `audit` job.
//! * [`lint`] enforces four source rules the compiler cannot: no
//!   `unsafe` outside `vendor/`, no `.unwrap()`/`.expect(` in hot-path
//!   lookup modules (allowlist excepted), no raw floating-point power
//!   literals bypassing `vr-fpga`'s unit-typed calibration constants, and
//!   no bare `Instant::now(` timing in the engine's timed modules outside
//!   `vr-telemetry`'s `Stopwatch`/`Span` API.
//! * [`metrics`] bridges audits into `vr-telemetry`: run/violation
//!   counters and an audit-duration histogram the lookup service feeds on
//!   every publish.
//!
//! The verifier runs automatically inside
//! `vr_engine::LookupService::publish_tables` in debug builds (and in
//! release under the engine's `audit-on-publish` feature), rejecting a
//! malformed generation *before* the RCU swap makes it live. The
//! `vr-audit` binary runs the same checks from the command line over
//! freshly built synthetic tables or a serialized trie artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod metrics;
pub mod report;
pub mod verify;

pub use lint::{lint_workspace, LintFinding, LintReport, LintRule, HOT_PATH_FILES, TIMED_FILES};
pub use metrics::AuditMetrics;
pub use report::{
    Audit, AuditReport, AuditStats, CheckKind, CheckOutcome, Coordinates, Severity, Violation,
    MAX_RECORDED_VIOLATIONS,
};
pub use verify::{
    audit_jump, audit_jump_against, audit_jump_parts, audit_jump_with_table, audit_jump_with_tables,
    audit_leaf_pushed, audit_merged, parity_probes,
};
