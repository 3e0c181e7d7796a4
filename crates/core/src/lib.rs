//! # vr-power — analytical power models for FPGA router virtualization
//!
//! This crate is the paper's primary contribution, reproduced: analytical
//! models estimating the Layer-3 (IP-lookup) power of three router
//! organizations on an FPGA, validated against (simulated) post
//! place-and-route measurements, and compared on total power and power
//! efficiency.
//!
//! The three organizations (§IV) and their models:
//!
//! | Scheme | Resources | Power |
//! |---|---|---|
//! | NV (non-virtualized) | Eq. 1: K devices, each one engine | Eq. 2: K×(P_L + µᵢ·Σ(P(L)+P(M))) |
//! | VS (virtualized-separate) | Eq. 3: 1 device, K engines | Eq. 4: P_L + Σ µᵢ·Σ(P(L)+P(M)) |
//! | VM (virtualized-merged) | Eq. 5: 1 device, 1 merged engine | Eq. 6: P_L + Σ(P(L)+P(M_merged)) |
//!
//! Routing tables come from `vr-net` and tries and stage memories from
//! `vr-trie`. Nothing here links the serving stack.
//!
//! Module map:
//! * the cycle-level behavioural simulator
//!   the models are validated against: one linear lookup pipeline
//!   ([`PipelineEngine`], §V-D) and the three organizations built from
//!   it ([`VirtualRouterSim`], §IV), checked against the linear-scan
//!   oracle and metered with the models' own coefficients;
//! * [`scenario`] — build a concrete scenario (tables × scheme × grade);
//! * [`ResourceUsage`] — Eqs. 1/3/5 plus device-fit checks, including both
//!   merged-memory models (structural vs. the paper's literal Eq. 5 —
//!   see DESIGN.md §3);
//! * [`models`] — Eqs. 2/4/6 power estimates;
//! * [`validate`] — model vs. "experimental" (PAR-simulated) percentage
//!   error, Fig. 7's pipeline;
//! * [`efficiency`] — mW/Gbps (§VI-B), Fig. 8's pipeline;
//! * [`experiments`] — one entry point per table/figure of the paper,
//!   shared by the bench binaries and the integration tests;
//! * [`report`] — text-table / CSV / JSON rendering of experiment output.
//!
//! The paper's experiments run on a Xilinx Virtex-6 XC6VLX760 under speed
//! grades -2 (high performance) and -1L (low power), with power numbers
//! from the XPower Analyzer / Estimator tools and post place-and-route
//! results. None of that silicon or tooling is available to a pure-Rust
//! reproduction, so these modules stand in for it (see DESIGN.md; the
//! private ones are reached through the re-exports below):
//! * `device` ([`Device`]) — the resource catalog of Table II (logic cells, BRAM
//!   blocks, distributed RAM, I/O pins);
//! * `grade` ([`SpeedGrade`]) — speed-grade-dependent constants, all taken from the
//!   paper's own calibration (§V-A..C, Table III);
//! * [`bram`] — BRAM block quantization (36 Kb blocks, two independent
//!   18 Kb halves) and the Table III power model;
//! * `logic` — the per-stage processing-element resource profile and the
//!   Fig. 3 logic+signal power model;
//! * `static_power` — the §V-A leakage bases and their ±5 % band, as
//!   the `statics` table prints them;
//! * [`timing`] — achievable clock vs. resource pressure, and the
//!   40-byte-packet throughput metric (§VI-B);
//! * `io` — I/O pin accounting that reproduces the K ≈ 15 separate-
//!   engine limit (§VI-A);
//! * [`par`] — a deterministic place-and-route *simulator* producing
//!   "experimental" power with the bounded, scheme-dependent deviation
//!   structure of Fig. 7;
//! * [`tcam`] — the TCAM power baseline of §II-B;
//! * `units` — unit-typed wrappers for the calibration constants;
//! * `gating` — the clock-gating policy (§IV: idle resources dissipate
//!   no dynamic power), applied by the cycle-level engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bram;
pub mod claims;
mod device;
pub mod efficiency;
mod engine;
pub mod experiments;
mod gating;
mod grade;
mod io;
mod logic;
pub mod models;
pub mod par;
pub mod report;
mod resources;
mod router;
pub mod scenario;
mod static_power;
pub mod tcam;
pub mod timing;
mod units;
pub mod validate;

pub use bram::BramMode;
pub use device::Device;
pub use engine::{CompletedLookup, EngineConfig, EngineStats, PipelineEngine};
pub use grade::SpeedGrade;
pub use models::{cache_discounted_memory_w, memory_power_delta_w, PowerEstimate};
pub use par::SchemeKind;
pub use resources::{MergedMemoryModel, ResourceUsage};
pub use router::{ArrivalModel, SimConfig, SimReport, VirtualRouterSim};
pub use scenario::{Scenario, ScenarioSpec};

/// Errors from model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PowerError {
    /// An invalid parameter (message explains which).
    InvalidParameter(&'static str),
    /// The design does not fit on the device (message names the resource).
    ResourceExhausted {
        /// Which resource ran out ("BRAM blocks", "I/O pins", ...).
        resource: &'static str,
        /// Amount requested.
        requested: u64,
        /// Amount available on the device.
        available: u64,
    },
    /// Propagated trie error.
    Trie(vr_trie::TrieError),
    /// Propagated network-layer error.
    Net(vr_net::NetError),
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            PowerError::ResourceExhausted {
                resource,
                requested,
                available,
            } => write!(
                f,
                "design needs {requested} {resource} but the device has {available}"
            ),
            PowerError::Trie(e) => write!(f, "trie error: {e}"),
            PowerError::Net(e) => write!(f, "net error: {e}"),
        }
    }
}

impl std::error::Error for PowerError {}

impl From<vr_trie::TrieError> for PowerError {
    fn from(e: vr_trie::TrieError) -> Self {
        PowerError::Trie(e)
    }
}

impl From<vr_net::NetError> for PowerError {
    fn from(e: vr_net::NetError) -> Self {
        PowerError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: PowerError = vr_trie::TrieError::ZeroStages.into();
        assert!(e.to_string().contains("trie"));
        let e = PowerError::ResourceExhausted {
            resource: "I/O pins",
            requested: 1300,
            available: 1200,
        };
        assert!(e.to_string().contains("1300"));
        assert!(e.to_string().contains("I/O pins"));
        let e: PowerError = vr_net::NetError::InvalidPrefixLen(99).into();
        assert!(e.to_string().contains("net"));
        assert!(PowerError::InvalidParameter("z").to_string().contains('z'));
    }
}
