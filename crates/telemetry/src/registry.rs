//! The metrics registry: named counters, gauges, and histograms.
//!
//! No global state — a [`MetricsRegistry`] is constructed by whoever
//! owns the instrumented subsystem (the `LookupService` builds one per
//! instance) and handles are cloned out to whoever records. Registration
//! takes a lock once; recording never does.
//!
//! A counter is one monotonic `AtomicU64` and a gauge one
//! last-writer-wins cell, both relaxed: they are statistics that publish
//! nothing.

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

/// A cloneable handle onto one monotonic counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1. Relaxed atomics; lock-free.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
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
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<HistogramCore>)>>,
    events: EventRing,
}

/// Bound on the structured-event ring.
const EVENT_CAPACITY: usize = 1024;

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// Creates an empty registry.
    ///
    /// The argument is retired: nothing reads it. It stays only until the
    /// repo benchmark, which spells it, stops doing so.
    #[must_use]
    pub fn new(_retired_shards: usize) -> Self {
        Self {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            events: EventRing::new(EVENT_CAPACITY),
        }
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
        if let Some((_, cell)) = counters.iter().find(|(n, _)| n == name) {
            return Counter {
                cell: Arc::clone(cell),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        counters.push((name.to_string(), Arc::clone(&cell)));
        Counter { cell }
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
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
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
    fn counters_add_and_sum() {
        let reg = MetricsRegistry::new(1);
        let c = reg.counter("vr_test_total");
        for _ in 0..4 {
            c.add(10);
        }
        c.inc();
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
        let reg = MetricsRegistry::new(1);
        reg.counter("vr_b_total").inc();
        reg.counter("vr_a_total").inc();
        reg.gauge("vr_z").set(1);
        let _ = reg.histogram("vr_h_ns");
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "vr_a_total");
        assert_eq!(snap.counters[1].name, "vr_b_total");
        assert_eq!(snap.histograms[0].name, "vr_h_ns");
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let reg = MetricsRegistry::new(1);
        let c = reg.counter("vr_conc_total");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..100_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 800_000);
    }
}
