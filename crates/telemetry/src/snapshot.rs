//! The serializable aggregate of a registry's state.
//!
//! A [`TelemetrySnapshot`] is the contract between the running service
//! and everything downstream: JSON artifacts in CI, the Prometheus
//! exporter, `ServiceReport` fields, and the audit tooling. Field order
//! is declaration order and metric vectors are name-sorted at capture,
//! so two snapshots of identical state serialize to identical bytes.

use crate::events::EventRingSnapshot;
use crate::histogram::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// One counter's name and aggregated (cross-shard) value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Sum over all shard cells at capture time.
    pub value: u64,
}

/// One gauge's name and current level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Level at capture time.
    pub value: u64,
}

/// Everything a registry knows, frozen at one capture instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Shard count the registry's counters are padded to.
    pub shards: u64,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The structured-event ring contents.
    pub events: EventRingSnapshot,
}

impl TelemetrySnapshot {
    /// Looks up a counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge level by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Checks that every counter present in `earlier` is present here
    /// with a value no smaller — the monotonicity a scraper relies on.
    /// Returns the first offending counter name, or `None` if all hold.
    #[must_use]
    pub fn first_counter_regression(&self, earlier: &TelemetrySnapshot) -> Option<String> {
        earlier
            .counters
            .iter()
            .find_map(|prev| match self.counter(&prev.name) {
                Some(now) if now >= prev.value => None,
                _ => Some(prev.name.clone()),
            })
    }

    /// Serializes to compact JSON.
    ///
    /// # Errors
    /// Propagates serializer errors (non-finite floats).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    /// Propagates serializer errors (non-finite floats).
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use crate::registry::MetricsRegistry;

    fn sample() -> TelemetrySnapshot {
        let reg = MetricsRegistry::new(2);
        reg.counter("vr_lookups_total").add(0, 41);
        reg.counter("vr_lookups_total").inc(1);
        reg.gauge("vr_generation").set(7);
        reg.histogram("vr_lookup_ns").record(900);
        reg.events()
            .publish(EventKind::GenerationSwap { generation: 7 });
        reg.events().publish(EventKind::WorkerStall { worker: 1 });
        reg.snapshot()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = sample();
        let json = snap.to_json().unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let pretty = snap.to_json_pretty().unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&pretty).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn serialization_is_deterministic_across_registration_order() {
        let a = {
            let reg = MetricsRegistry::new(2);
            reg.counter("vr_a_total").inc(0);
            reg.counter("vr_b_total").add(0, 2);
            reg.snapshot().to_json().unwrap()
        };
        let b = {
            let reg = MetricsRegistry::new(2);
            reg.counter("vr_b_total").add(1, 2);
            reg.counter("vr_a_total").inc(1);
            reg.snapshot().to_json().unwrap()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("vr_lookups_total"), Some(42));
        assert_eq!(snap.gauge("vr_generation"), Some(7));
        assert_eq!(snap.histogram("vr_lookup_ns").unwrap().count, 1);
        assert_eq!(snap.counter("vr_missing"), None);
        assert_eq!(snap.events.events.len(), 2);
    }

    #[test]
    fn counter_regression_detection() {
        let reg = MetricsRegistry::new(1);
        let c = reg.counter("vr_x_total");
        c.add(0, 5);
        let earlier = reg.snapshot();
        c.add(0, 3);
        let later = reg.snapshot();
        assert_eq!(later.first_counter_regression(&earlier), None);
        // Reversed order: the "later" snapshot has the smaller value.
        assert_eq!(
            earlier.first_counter_regression(&later),
            Some("vr_x_total".to_string())
        );
    }
}
