//! # vr-wire — binary data-plane serving tier
//!
//! The ROADMAP's open item: put the lookup engine behind a socket so
//! the virtual-router consolidation story can be measured end to end
//! (client → wire → batch → RCU-snapshot lookup → wire → client)
//! instead of in-process only. This crate is that front end, built —
//! like the rest of the workspace — on `std` plus the vendored
//! stand-ins only:
//!
//! * [`frame`] — the `VRW1` length-prefixed binary protocol: a 16-byte
//!   header (magic, version, frame type, flags, payload length,
//!   CRC-32) followed by a little-endian payload. Messages cover
//!   lookup request/response batches, route-update batches with acks,
//!   typed error and overload replies, and ping/pong liveness.
//! * [`decoder`] — the zero-copy incremental [`FrameDecoder`]: feed it
//!   arbitrary socket chunks, pull complete messages; framing errors
//!   poison the stream (fail-stop, no resynchronization).
//! * [`server`] — the blocking [`WireServer`] over TCP or Unix-domain
//!   sockets: thread-per-connection behind the shared
//!   `vr_obs::AcceptGate`, each connection running its frames to
//!   completion (decode, walk, encode, write) against a backend held
//!   behind one lock, and admission control that sheds with explicit
//!   `Overloaded` frames (connection gate, token-bucket rate limit)
//!   or, for a peer that stops reading, a write timeout, instead of
//!   stalling.
//! * [`client`] — a small blocking [`WireClient`] used by the replay
//!   binary, the smoke harness, and tests.
//! * [`replay`](mod@replay) — synthetic traffic replay (uniform / Zipf /
//!   flash-crowd via `vr_net::models`) measuring end-to-end packets
//!   per second and p50/p99 round-trip latency.
//!
//! Every response batch carries the table generation it was served
//! from, extending the engine's never-torn batch guarantee across the
//! wire. Timing goes through `vr_telemetry::Stopwatch` and the hot
//! paths avoid panics: the vr-audit `no-raw-instant` and
//! `no-panic-hot-path` lints extend to this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod decoder;
pub mod frame;
pub mod replay;
pub mod server;

pub use client::WireClient;
pub use decoder::FrameDecoder;
pub use frame::{
    ErrorCode, Message, OverloadReason, WireError, HEADER_LEN, MAX_PAYLOAD_BYTES, NO_ROUTE,
};
pub use replay::{replay, ReplayConfig, ReplayRecord, ReplayStats, TrafficModel};
pub use server::{ServerConfig, WireBackend, WireServer};
