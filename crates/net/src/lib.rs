//! # vr-net — network substrate for the router-virtualization power study
//!
//! This crate provides everything "below" the lookup data structures in the
//! reproduction of *FPGA-based Router Virtualization: A Power Perspective*
//! (Ganegedara & Prasanna, IPDPSW 2012):
//!
//! * [`Ipv4Prefix`] — a canonical IPv4 prefix type used as routing-table key,
//! * [`RoutingTable`] — an IPv4 routing table with a reference (linear-scan)
//!   longest-prefix-match implementation used as the correctness oracle for
//!   the trie and pipeline engines,
//! * [`parser`] — a parser for `bgp.potaroo.net`-style text dumps so real
//!   tables can be dropped in when available,
//! * [`synth`] — seeded synthetic generators standing in for the paper's
//!   real edge-network tables (see DESIGN.md, substitution table), including
//!   K-table *families* with a controllable shared core used to realize a
//!   target merging efficiency α,
//! * [`VnId`] and [`tenant_mix`] — the VNID type and the tenant mix µ,
//!   the one normaliser of per-network utilization weights (Assumption 1
//!   of the paper is the uniform special case µᵢ = 1/K),
//! * [`models`] — the packet source: seeded Zipf destination sampling over
//!   fixed per-network pools, the VN drawn from the tenant mix. The
//!   pipeline simulator draws it uniformly; the result-cache and serving
//!   benchmarks draw it skewed,
//! * [`radix_sort_by_prefix`] — the stable prefix-order sort every bulk
//!   build shares,
//! * [`stats`] — prefix-length and coverage statistics.
//!
//! Everything is deterministic under a caller-provided seed; no global RNG
//! state is used anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod models;
pub mod parser;
mod prefix;
mod sort;
pub mod stats;
pub mod synth;
pub mod table;
mod traffic;
pub mod update;

pub use error::NetError;
pub use models::{SkewedSpec, SkewedTraffic};
pub use prefix::Ipv4Prefix;
pub use sort::radix_sort_by_prefix;
pub use table::{NextHop, RouteEntry, RoutingTable};
pub use traffic::{tenant_mix, VnId};
pub use update::{RouteUpdate, UpdateMix, UpdateStream};
