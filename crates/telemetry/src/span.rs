//! Guard-style timing that feeds histograms.
//!
//! Code should never call `std::time::Instant::now()` ad hoc — the
//! root `clippy.toml` bans it everywhere but here. Instead it takes a
//! [`Stopwatch`] (raw elapsed-nanoseconds readings for loops
//! that batch their own accounting) or opens a [`Span`] (a guard that
//! records its lifetime into a histogram when finished or dropped).

#![expect(
    clippy::disallowed_methods,
    reason = "Stopwatch is the one wrapper around Instant::now"
)]

use crate::histogram::Histogram;
use crate::registry::MetricsRegistry;
use std::time::Instant;

/// A restartable nanosecond stopwatch. This is the one sanctioned
/// wrapper around `Instant` for instrumented code: callers read elapsed
/// time and decide where it is recorded.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts (or restarts) the clock.
    #[must_use]
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since `start`, saturated into `u64` (≈584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// A timing guard: created over a histogram handle, it records its own
/// lifetime in nanoseconds exactly once — at [`Span::finish`], or at
/// drop if the caller forgets (early return, panic unwind).
#[derive(Debug)]
pub struct Span {
    watch: Stopwatch,
    histogram: Histogram,
    done: bool,
}

impl Span {
    /// Opens a span recording into `histogram` when it ends.
    #[must_use]
    pub fn enter(histogram: Histogram) -> Self {
        Self {
            watch: Stopwatch::start(),
            histogram,
            done: false,
        }
    }

    /// Ends the span now and returns the recorded duration in
    /// nanoseconds. Dropping after `finish` records nothing further.
    pub fn finish(mut self) -> u64 {
        self.record_once()
    }

    fn record_once(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let ns = self.watch.elapsed_ns();
        self.histogram.record(ns);
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_once();
    }
}

/// Opens a [`Span`] recording into the named histogram of a registry:
/// `let _span = span!(registry, "vr_service_publish_ns");`.
///
/// The span holds its own handle (an `Arc` clone), so the registry
/// borrow ends at the macro call site.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $crate::Span::enter($registry.histogram($name))
    };
}

impl MetricsRegistry {
    /// Opens a [`Span`] over the named histogram — the method form of
    /// the [`span!`] macro.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        Span::enter(self.histogram(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let w = Stopwatch::start();
        let a = w.elapsed_ns();
        let b = w.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn span_records_exactly_once_on_finish() {
        let reg = MetricsRegistry::new(1);
        let span = span!(reg, "vr_span_ns");
        let _ns = span.finish(); // value is timing-dependent
        assert_eq!(reg.histogram("vr_span_ns").count(), 1);
    }

    #[test]
    fn span_records_on_drop() {
        let reg = MetricsRegistry::new(1);
        {
            let _span = reg.span("vr_drop_ns");
        }
        assert_eq!(reg.histogram("vr_drop_ns").count(), 1);
    }

    #[test]
    fn finished_span_does_not_double_record() {
        let reg = MetricsRegistry::new(1);
        let span = reg.span("vr_once_ns");
        let _ = span.finish();
        // finish consumed the span; drop already ran inside finish's
        // scope. One record total.
        assert_eq!(reg.histogram("vr_once_ns").count(), 1);
    }
}
