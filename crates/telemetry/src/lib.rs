//! # vr-telemetry — always-on, low-overhead observability
//!
//! The paper's whole argument is quantitative: per-resource power
//! breakdowns, per-VN utilization µᵢ, mW/Gbps efficiency. The software
//! reproduction has grown a production datapath (`vr-engine`'s
//! `LookupService`) whose behaviour deserves the same treatment — not
//! one-shot counters flattened into a report at shutdown, but live
//! metrics a scraper can read while the service runs, the way the
//! Terabit hybrid FPGA-ASIC switch-virtualization platform exposes
//! per-virtual-switch counters.
//!
//! Four pieces, designed so the record path costs a handful of relaxed
//! atomic operations and never allocates:
//!
//! * [`MetricsRegistry`] — a global-free registry of named counters,
//!   gauges, and histograms. A counter is one relaxed `AtomicU64`.
//! * [`Histogram`] — fixed 64-bucket log₂ latency histograms (HDR
//!   style): `record(ns)` is one `leading_zeros` plus three relaxed
//!   `fetch_add`s; snapshots extract p50/p90/p99/p999 and merge
//!   losslessly.
//! * [`Span`] / [`Stopwatch`] — guard-style timers feeding histograms,
//!   so no code touches `std::time::Instant` directly (the root
//!   `clippy.toml` bans `Instant::now` outside the `span` module).
//! * [`EventRing`] — a bounded ring of structured events (generation
//!   swaps, audit rejections) with
//!   monotonic sequence numbers, so a scraper can *detect* droppage
//!   instead of silently missing history.
//!
//! Everything aggregates into a [`TelemetrySnapshot`] with
//! deterministic field order, exportable as Prometheus text
//! ([`export::to_prometheus`]) or JSON (serde), and audit-friendly:
//! the snapshot round-trips through serde and the Prometheus output
//! passes [`export::check_prometheus`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
pub mod export;
mod histogram;
mod registry;
mod snapshot;
mod span;

pub use events::{EventDrain, EventKind, EventRecord, EventRing, EventRingSnapshot, RingRead};
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, TelemetrySnapshot};
pub use span::{Span, Stopwatch};
