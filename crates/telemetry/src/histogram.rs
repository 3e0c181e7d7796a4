//! Fixed-bucket log₂ latency histograms.
//!
//! Sixty-four buckets cover the whole `u64` domain: bucket `i` counts
//! values in `[2^i, 2^(i+1))` (bucket 0 additionally holds zero). That
//! is the HDR-histogram trade: relative error bounded by one octave,
//! constant memory, and a record path that is one `leading_zeros` plus
//! three relaxed `fetch_add`s — no allocation, no locking, safe to call
//! from every worker thread concurrently.

#![expect(
    clippy::disallowed_types,
    reason = "histogram buckets are relaxed statistics that publish nothing"
)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets; covers all of `u64`.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: `floor(log2(value))`, with 0 and 1
/// sharing bucket 0.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range of values bucket `i` counts.
///
/// # Panics
/// Panics if `i >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index out of range");
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i == 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    };
    (lo, hi)
}

/// Shared atomic histogram state behind a [`Histogram`] handle.
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A cloneable handle onto one registered histogram. Recording is
/// lock-free and allocation-free; handles share state through an `Arc`.
#[derive(Clone)]
pub struct Histogram {
    pub(crate) core: Arc<HistogramCore>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Creates a detached histogram (not owned by a registry) — useful
    /// for ad-hoc measurement loops that only need the bucket math.
    #[must_use]
    pub fn detached() -> Self {
        Self {
            core: Arc::new(HistogramCore::new()),
        }
    }

    /// Records one observation. Relaxed atomics only; zero allocation.
    pub fn record(&self, value: u64) {
        let core = &self.core;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Captures the current bucket contents. Concurrent recorders may
    /// land between bucket reads; the snapshot re-derives `count` from
    /// the bucket sum so it is always internally consistent.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum = self.core.sum.load(Ordering::Relaxed);
        HistogramSnapshot::from_buckets(name.to_string(), buckets, count, sum)
    }
}

/// An immutable, serializable view of one histogram, with the standard
/// latency quantiles pre-extracted. Field order is fixed by declaration
/// order, so serialized snapshots are byte-deterministic for equal data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Total observations (sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded values (wraps on overflow, like HDR).
    pub sum: u64,
    /// Median estimate (upper bound of the bucket holding rank ½).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate.
    pub p999: u64,
    /// Raw per-bucket counts, `BUCKETS` entries, bucket `i` spanning
    /// `[2^i, 2^(i+1))`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub(crate) fn from_buckets(name: String, buckets: Vec<u64>, count: u64, sum: u64) -> Self {
        let mut snap = Self {
            name,
            count,
            sum,
            p50: 0,
            p90: 0,
            p99: 0,
            p999: 0,
            buckets,
        };
        snap.p50 = snap.quantile(0.50);
        snap.p90 = snap.quantile(0.90);
        snap.p99 = snap.quantile(0.99);
        snap.p999 = snap.quantile(0.999);
        snap
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing the `ceil(q·count)`-th smallest observation. Because
    /// buckets are log₂, the estimate is within one octave (one bucket
    /// width) of the true order statistic — the property tests hold it
    /// to exactly the oracle's bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another snapshot into this one (bucket-wise addition) and
    /// re-derives the quantiles. Merging is lossless: the result equals
    /// a histogram that recorded both value streams directly.
    ///
    /// # Panics
    /// Panics if the bucket layouts differ in length.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket layouts must match to merge"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.p50 = self.quantile(0.50);
        self.p90 = self.quantile(0.90);
        self.p99 = self.quantile(0.99);
        self.p999 = self.quantile(0.999);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        // Rank 500 value is 500 → bucket 8 ([256, 511]), upper bound 511.
        assert_eq!(snap.p50, 511);
        // Rank 990 value is 990 → bucket 9 ([512, 1023]).
        assert_eq!(snap.p99, 1023);
        assert!(snap.mean() > 499.0 && snap.mean() < 502.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = Histogram::detached().snapshot("t");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50, 0);
        assert_eq!(snap.p999, 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        let both = Histogram::detached();
        for v in [1u64, 5, 5, 100, 7000] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 900, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot("t");
        merged.merge(&b.snapshot("t"));
        let oracle = both.snapshot("t");
        assert_eq!(merged.buckets, oracle.buckets);
        assert_eq!(merged.count, oracle.count);
        assert_eq!(merged.sum, oracle.sum);
        assert_eq!(merged.p50, oracle.p50);
        assert_eq!(merged.p999, oracle.p999);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::detached();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot("t").count, 40_000);
    }
}
