//! The metrics registry: named counters, gauges, and histograms.
//!
//! No global state — a [`MetricsRegistry`] is constructed by whoever
//! owns the instrumented subsystem (the `LookupService` builds one per
//! instance) and handles are cloned out to worker threads. Registration
//! takes a lock once; recording never does.
//!
//! Counters are sharded: each holds one cache-line padded `AtomicU64`
//! per shard (worker), so concurrent increments from different workers
//! touch different lines and never bounce ownership. A snapshot sums
//! the cells. Gauges are single last-writer-wins cells.

#![expect(
    clippy::disallowed_types,
    reason = "counter and gauge cells are relaxed statistics that publish nothing"
)]

use crate::events::EventRing;
use crate::histogram::{Histogram, HistogramCore};
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, TelemetrySnapshot};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One counter cell, padded to two cache lines so adjacent shards never
/// share a line (128 B covers the adjacent-line prefetcher on x86).
#[repr(align(128))]
struct PaddedCell(AtomicU64);

/// Shared state of one sharded counter.
pub(crate) struct CounterCore {
    cells: Box<[PaddedCell]>,
    /// Bitmask for shard selection; `cells.len()` is a power of two.
    mask: usize,
}

impl CounterCore {
    fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            cells: (0..n).map(|_| PaddedCell(AtomicU64::new(0))).collect(),
            mask: n - 1,
        }
    }
}

/// A cloneable handle onto one sharded monotonic counter.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Adds 1 on the caller's shard. Relaxed atomics; lock-free.
    pub fn inc(&self, shard: usize) {
        self.add(shard, 1);
    }

    /// Adds `n` on the caller's shard. Out-of-range shard indexes wrap
    /// (mask), so a handle can never index out of bounds.
    pub fn add(&self, shard: usize, n: u64) {
        self.core.cells[shard & self.core.mask]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's current value: the sum over all shard cells.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.core
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish_non_exhaustive()
    }
}

/// A cloneable handle onto one gauge (a last-writer-wins level).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

impl Gauge {
    /// Stores a new level.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Raises the level to `value` if it is higher (high-water mark).
    #[cfg(test)]
    pub fn set_max(&self, value: u64) {
        self.cell.fetch_max(value, Ordering::Relaxed);
    }

    /// The gauge's current level.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Registry of named metrics plus the structured-event ring.
///
/// Names must be Prometheus-compatible (`[a-zA-Z_:][a-zA-Z0-9_:]*`);
/// registering the same name twice returns a handle onto the same
/// state, so independent subsystems can share a metric safely.
pub struct MetricsRegistry {
    shards: usize,
    counters: Mutex<Vec<(String, Arc<CounterCore>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<HistogramCore>)>>,
    events: EventRing,
}

/// Default bound on the structured-event ring.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 1024;

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// Creates a registry whose counters are sharded `shards` ways
    /// (rounded up to a power of two), with the default event capacity.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_event_capacity(shards, DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a registry with an explicit event-ring bound.
    #[must_use]
    pub fn with_event_capacity(shards: usize, event_capacity: usize) -> Self {
        Self {
            shards: shards.max(1).next_power_of_two(),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            events: EventRing::new(event_capacity),
        }
    }

    /// Shard count counters are padded to.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Gets or registers the counter `name`.
    ///
    /// # Panics
    /// Panics on a name that is not Prometheus-compatible — metric
    /// names are compile-time constants, so this is a programmer error.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        let mut counters = self.counters.lock();
        if let Some((_, core)) = counters.iter().find(|(n, _)| n == name) {
            return Counter {
                core: Arc::clone(core),
            };
        }
        let core = Arc::new(CounterCore::new(self.shards));
        counters.push((name.to_string(), Arc::clone(&core)));
        Counter { core }
    }

    /// Gets or registers the gauge `name`.
    ///
    /// # Panics
    /// Panics on an invalid metric name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        let mut gauges = self.gauges.lock();
        if let Some((_, cell)) = gauges.iter().find(|(n, _)| n == name) {
            return Gauge {
                cell: Arc::clone(cell),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        gauges.push((name.to_string(), Arc::clone(&cell)));
        Gauge { cell }
    }

    /// Gets or registers the histogram `name`.
    ///
    /// # Panics
    /// Panics on an invalid metric name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        let mut histograms = self.histograms.lock();
        if let Some((_, core)) = histograms.iter().find(|(n, _)| n == name) {
            return Histogram {
                core: Arc::clone(core),
            };
        }
        let core = Arc::new(HistogramCore::new());
        histograms.push((name.to_string(), Arc::clone(&core)));
        Histogram { core }
    }

    /// The structured-event ring.
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Captures every registered metric plus the event ring into a
    /// serializable snapshot. Metrics are sorted by name, so two
    /// snapshots of identical state serialize identically regardless of
    /// registration order.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .lock()
            .iter()
            .map(|(name, core)| CounterSnapshot {
                name: name.clone(),
                value: Counter {
                    core: Arc::clone(core),
                }
                .value(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .lock()
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<crate::HistogramSnapshot> = self
            .histograms
            .lock()
            .iter()
            .map(|(name, core)| {
                Histogram {
                    core: Arc::clone(core),
                }
                .snapshot(name)
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetrySnapshot {
            shards: self.shards as u64,
            counters,
            gauges,
            histograms,
            events: self.events.snapshot(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("shards", &self.shards)
            .field("counters", &self.counters.lock().len())
            .field("gauges", &self.gauges.lock().len())
            .field("histograms", &self.histograms.lock().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let reg = MetricsRegistry::new(4);
        let c = reg.counter("vr_test_total");
        for shard in 0..4 {
            c.add(shard, 10);
        }
        c.inc(999); // wraps into range via the mask
        assert_eq!(c.value(), 41);
        // Same name → same underlying state.
        assert_eq!(reg.counter("vr_test_total").value(), 41);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let reg = MetricsRegistry::new(1);
        let g = reg.gauge("vr_level");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.value(), 7);
        g.set_max(20);
        assert_eq!(g.value(), 20);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn rejects_bad_names() {
        let reg = MetricsRegistry::new(1);
        let _ = reg.counter("1bad name");
    }

    #[test]
    fn snapshot_sorts_names() {
        let reg = MetricsRegistry::new(2);
        reg.counter("vr_b_total").inc(0);
        reg.counter("vr_a_total").inc(0);
        reg.gauge("vr_z").set(1);
        let _ = reg.histogram("vr_h_ns");
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "vr_a_total");
        assert_eq!(snap.counters[1].name, "vr_b_total");
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.histograms[0].name, "vr_h_ns");
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let reg = MetricsRegistry::new(8);
        let c = reg.counter("vr_conc_total");
        std::thread::scope(|s| {
            for shard in 0..8usize {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..100_000 {
                        c.inc(shard);
                    }
                });
            }
        });
        assert_eq!(c.value(), 800_000);
    }
}
