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
//! * [`FrameDecoder`] — the zero-copy incremental decoder: feed it
//!   arbitrary socket chunks, pull complete messages; framing errors
//!   poison the stream (fail-stop, no resynchronization).
//! * [`WireServer`] — the blocking server over TCP or Unix-domain
//!   sockets: thread-per-connection behind the shared
//!   `vr_obs::AcceptGate`, each connection running its frames to
//!   completion (decode, walk, encode, write) against a backend held
//!   behind one lock, and admission control that sheds with explicit
//!   `Overloaded` frames (connection gate, token-bucket rate limit)
//!   or, for a peer that stops reading, a write timeout, instead of
//!   stalling.
//! * [`WireClient`] — a small blocking client used by the bench
//!   binaries, the smoke harness, and tests.
//! * [`replay()`] — serial replay of a `vr_net::SkewedTraffic` stream
//!   measuring end-to-end packets per second and p50/p99 round-trip
//!   latency.
//!
//! Every response batch carries the table generation it was served
//! from, extending the engine's never-torn batch guarantee across the
//! wire. Timing goes through `vr_telemetry::Stopwatch` and the hot
//! paths avoid panics: the root `clippy.toml` bans `Instant::now`, and
//! the codec, decoder and server deny `clippy::unwrap_used` and
//! `clippy::expect_used`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod decoder;
pub mod frame;
mod replay;
mod server;

pub use client::WireClient;
pub use decoder::FrameDecoder;
pub use frame::{
    ErrorCode, Message, OverloadReason, WireError, HEADER_LEN, MAX_PAYLOAD_BYTES, NO_ROUTE,
};
pub use replay::{replay, ReplayRecord, ReplayStats};
pub use server::{ServerConfig, WireBackend, WireServer};
