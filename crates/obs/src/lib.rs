//! # vr-obs — observability plane for the lookup service
//!
//! The paper argues its power story per-lookup and per-update; the
//! rest of the workspace measures aggregates (vr-telemetry counters
//! and histograms). This crate records *where a batch spent its
//! nanoseconds* and captures state around anomalies:
//!
//! * [`trace`] — sampled per-batch stage tracing. A [`Tracer`] mints a
//!   `TraceId` at enqueue for 1-in-N batches; an owned
//!   [`TraceBuilder`] rides inside the job through the queue and the
//!   worker closes contiguous stage spans (enqueue → dequeue → lane
//!   walk → complete) with no shared hot-path
//!   state. Control-plane publishes and `apply_updates` land as
//!   standalone spans on the same epoch timeline.
//! * [`chrome`] — exports traces as Chrome trace-event JSON (the
//!   object format), so a dump opens directly in `about:tracing` or
//!   Perfetto; [`check_chrome_trace`] is the structural validator CI
//!   runs over dumps.
//! * [`flight`] — the anomaly flight recorder: a bounded pre/post
//!   window of sampled traces plus the service's event tail, frozen
//!   and dumped to `results/flightrec_*.json` when a `WorkerStall`,
//!   `AuditRejected`, generation-lag, or p99-vs-EWMA latency spike
//!   trigger fires.
//! * [`http`] — a minimal blocking HTTP/1.1 server over `std::net`
//!   (thread-per-connection, bounded accept queue, no dependencies)
//!   exposing `GET /metrics` (Prometheus text), `/healthz`,
//!   `/snapshot.json`, `/traces.json`, and `/flight` — the workspace's
//!   first network-facing surface and the bridge toward the ROADMAP's
//!   serving tier.
//! * [`accept`] — the shared bounded-accept-queue ([`AcceptGate`]) and
//!   half-close-drain shed ([`shed_with`]) used by both this crate's
//!   HTTP plane and the vr-wire binary data-plane server, so the
//!   admission/shed idiom exists exactly once.
//!
//! The crate deliberately depends only on `vr-telemetry` (clock +
//! event ring) and the vendored serde stand-ins — never on
//! `vr-engine` — so the engine can depend on it without a cycle. The
//! HTTP plane consumes boxed closures, not engine types, for the same
//! reason. All timing goes through `vr_telemetry::Stopwatch`: the
//! vr-audit `no-raw-instant` lint extends to this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accept;
pub mod chrome;
pub mod flight;
pub mod http;
pub mod trace;

pub use accept::{shed_with, AcceptGate, AcceptPermit, ShedStream};
pub use chrome::{check_chrome_trace, chrome_trace_json, chrome_trace_value};
pub use flight::{FlightConfig, FlightRecorder, FlightStatus, FlightTrigger};
pub use http::{ObsRoutes, ObsServer};
pub use trace::{
    BatchTrace, Stage, StageSpan, TraceBuilder, TraceDrain, TraceSnapshot, Tracer, DEFAULT_SAMPLE,
    DEFAULT_TRACE_CAPACITY,
};
