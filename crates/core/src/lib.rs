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
//! Everything below the equations comes from the sibling crates: routing
//! tables (`vr-net`), tries and stage memories (`vr-trie`) and
//! device/power/timing models (`vr-fpga`). Nothing here links the
//! serving stack.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod efficiency;
mod engine;
pub mod experiments;
pub mod models;
pub mod report;
mod resources;
mod router;
pub mod scenario;
pub mod validate;

pub use engine::{CompletedLookup, EngineConfig, EngineStats, PipelineEngine};
pub use models::{cache_discounted_memory_w, memory_power_delta_w, PowerEstimate};
pub use resources::{MergedMemoryModel, ResourceUsage};
pub use router::{ArrivalModel, SimConfig, SimReport, VirtualRouterSim};
pub use scenario::{Scenario, ScenarioSpec};

// Re-export the identifiers users need to assemble scenarios without
// importing every sibling crate.
pub use vr_fpga::{BramMode, Device, SchemeKind, SpeedGrade};

/// Errors from model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PowerError {
    /// An invalid parameter (message explains which).
    InvalidParameter(&'static str),
    /// Propagated trie error.
    Trie(vr_trie::TrieError),
    /// Propagated FPGA substrate error (e.g. device fit).
    Fpga(vr_fpga::FpgaError),
    /// Propagated network-layer error.
    Net(vr_net::NetError),
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            PowerError::Trie(e) => write!(f, "trie error: {e}"),
            PowerError::Fpga(e) => write!(f, "fpga error: {e}"),
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

impl From<vr_fpga::FpgaError> for PowerError {
    fn from(e: vr_fpga::FpgaError) -> Self {
        PowerError::Fpga(e)
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
        let e: PowerError = vr_fpga::FpgaError::ResourceExhausted {
            resource: "I/O pins",
            requested: 2,
            available: 1,
        }
        .into();
        assert!(e.to_string().contains("fpga"));
        let e: PowerError = vr_net::NetError::InvalidPrefixLen(99).into();
        assert!(e.to_string().contains("net"));
        assert!(PowerError::InvalidParameter("z").to_string().contains('z'));
    }
}
