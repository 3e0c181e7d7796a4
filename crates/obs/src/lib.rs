//! # vr-obs — observability plane for the lookup service
//!
//! The paper argues its power story per-lookup and per-update; the
//! rest of the workspace measures aggregates (vr-telemetry counters
//! and histograms). This crate records *where a batch spent its
//! nanoseconds* and serves what the workspace measures over HTTP:
//!
//! * [`Tracer`] — sampled per-batch stage tracing. It mints a
//!   `TraceId` at enqueue for 1-in-N batches; an owned
//!   [`TraceBuilder`] rides inside the job through the queue and the
//!   worker closes contiguous stage spans (enqueue → dequeue → lane
//!   walk → complete) with no shared hot-path
//!   state. Control-plane publishes and `apply_updates` land as
//!   standalone spans on the same epoch timeline.
//! * [`chrome_trace_json`] — exports traces as Chrome trace-event JSON (the
//!   object format), so a dump opens directly in `about:tracing` or
//!   Perfetto; [`check_chrome_trace`] is the structural validator CI
//!   runs over a scraped `/traces.json`.
//! * [`ObsServer`] — a minimal blocking HTTP/1.1 server over `std::net`
//!   (thread-per-connection, bounded accept queue, no dependencies)
//!   exposing `GET /metrics` (Prometheus text), `/healthz`,
//!   `/snapshot.json` and `/traces.json` — the workspace's
//!   first network-facing surface and the bridge toward the ROADMAP's
//!   serving tier.
//! * [`AcceptGate`] — the shared bounded accept queue, and the
//!   half-close-drain shed ([`shed_with`]) used by both this crate's
//!   HTTP plane and the vr-wire binary data-plane server, so the
//!   admission/shed idiom exists exactly once.
//!
//! The crate deliberately depends only on `vr-telemetry` (clock +
//! event ring) and the vendored serde stand-ins — never on
//! `vr-engine` — so the engine can depend on it without a cycle. The
//! HTTP plane consumes boxed closures, not engine types, for the same
//! reason. All timing goes through `vr_telemetry::Stopwatch`: the root
//! `clippy.toml` bans `Instant::now` outside it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accept;
mod chrome;
mod http;
mod trace;

pub use accept::{shed_with, AcceptGate, AcceptPermit, ShedStream};
pub use chrome::{check_chrome_trace, chrome_trace_json};
pub use http::{ObsRoutes, ObsServer};
pub use trace::{
    BatchTrace, Stage, StageSpan, TraceBuilder, TraceSnapshot, Tracer, DEFAULT_SAMPLE,
    DEFAULT_TRACE_CAPACITY,
};
