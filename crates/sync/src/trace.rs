//! Process-global operation trace, active under `--cfg vr_model` (and in
//! this crate's own tests).
//!
//! The wrappers in this crate record every load/store/swap they perform as
//! an `(op, ordering)` pair. The trace is the dynamic half of the atomics
//! discipline: the static half (clippy's `disallowed_types`, and
//! vr-bench's `no_raw_power_literal_or_relaxed_publication` source
//! check) proves no code outside the sanctioned homes touches raw
//! atomics at all, and the trace proves the wrappers themselves never
//! downgrade a publication to `Relaxed` at runtime. Recording is off
//! (and free) unless a capture is in progress, so even a `vr_model`
//! build only pays one relaxed load per wrapper op outside captures.

#![expect(
    clippy::disallowed_types,
    reason = "the capture switch is the trace's own flag, not a publication"
)]

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// One recorded wrapper operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Wrapper operation label, e.g. `"publish.store"` or `"arc.clone"`.
    pub op: &'static str,
    /// Memory-ordering label the wrapper used, e.g. `"Release"`.
    pub ordering: &'static str,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static TRACE: Mutex<Vec<TraceOp>> = Mutex::new(Vec::new());

/// Record one wrapper operation into the active capture (no-op otherwise).
#[inline]
pub fn record(op: &'static str, ordering: &'static str) {
    if ACTIVE.load(Ordering::Relaxed) {
        TRACE.lock().push(TraceOp { op, ordering });
    }
}

/// Run `f` with recording enabled and return everything it recorded.
///
/// Captures are serialized behind a lock so concurrent tests do not bleed
/// into each other's traces; ops recorded by *other* threads during the
/// capture window are intentionally included (that is what makes the
/// discipline check meaningful for the threaded wrappers).
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceOp>) {
    static CAPTURE_GATE: Mutex<()> = Mutex::new(());
    let _gate = CAPTURE_GATE.lock();
    TRACE.lock().clear();
    ACTIVE.store(true, Ordering::SeqCst);
    let out = f();
    ACTIVE.store(false, Ordering::SeqCst);
    let ops = std::mem::take(&mut *TRACE.lock());
    (out, ops)
}

/// Assert the discipline over a captured trace: no publication-side op
/// (`publish.*`) may carry a `Relaxed` ordering.
pub fn assert_no_relaxed_publication(ops: &[TraceOp]) {
    for o in ops {
        assert!(
            !(o.op.starts_with("publish.") && o.ordering == "Relaxed"),
            "relaxed publication recorded: {o:?}"
        );
    }
}
