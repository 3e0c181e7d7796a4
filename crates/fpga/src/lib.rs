//! # vr-fpga — simulated FPGA substrate
//!
//! The paper's experiments run on a Xilinx Virtex-6 XC6VLX760 under speed
//! grades -2 (high performance) and -1L (low power), with power numbers
//! from the XPower Analyzer / Estimator tools and post place-and-route
//! results. None of that silicon or tooling is available to a pure-Rust
//! reproduction, so this crate *is* the substitute substrate (see
//! DESIGN.md):
//!
//! * [`device`] — the resource catalog of Table II (logic cells, BRAM
//!   blocks, distributed RAM, I/O pins);
//! * [`grade`] — speed-grade-dependent constants, all taken from the
//!   paper's own calibration (§V-A..C, Table III);
//! * [`bram`] — BRAM block quantization (36 Kb blocks, two independent
//!   18 Kb halves) and the Table III power model;
//! * [`logic`] — the per-stage processing-element resource profile and the
//!   Fig. 3 logic+signal power model;
//! * [`static_power`] — leakage with the ±5 % area-dependent band (§V-A);
//! * [`xpe`] — an XPower-Estimator-style façade evaluating a whole design;
//! * [`timing`] — achievable clock vs. resource pressure, and the
//!   40-byte-packet throughput metric (§VI-B);
//! * [`io`] — I/O pin accounting that reproduces the K ≈ 15 separate-
//!   engine limit (§VI-A);
//! * [`par`] — a deterministic place-and-route *simulator* producing
//!   "experimental" power with the bounded, scheme-dependent deviation
//!   structure of Fig. 7;
//! * [`gating`] — clock gating / duty-cycle handling (§IV: idle resources
//!   dissipate no dynamic power).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bram;
pub mod device;
pub mod gating;
pub mod grade;
pub mod io;
pub mod logic;
pub mod par;
pub mod static_power;
pub mod tcam;
pub mod timing;
pub mod units;
pub mod xpe;

pub use bram::BramMode;
pub use device::Device;
pub use grade::SpeedGrade;
pub use par::{ParSimulator, SchemeKind};
pub use units::{Megahertz, MicroWattsPerMegahertz, Watts};
pub use xpe::{DesignSpec, PowerReport};

/// Errors from the FPGA substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FpgaError {
    /// The design does not fit on the device (message names the resource).
    ResourceExhausted {
        /// Which resource ran out ("BRAM blocks", "I/O pins", ...).
        resource: &'static str,
        /// Amount requested.
        requested: u64,
        /// Amount available on the device.
        available: u64,
    },
    /// A parameter was out of its valid domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for FpgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpgaError::ResourceExhausted {
                resource,
                requested,
                available,
            } => write!(
                f,
                "design needs {requested} {resource} but the device has {available}"
            ),
            FpgaError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for FpgaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = FpgaError::ResourceExhausted {
            resource: "I/O pins",
            requested: 1300,
            available: 1200,
        };
        assert!(e.to_string().contains("1300"));
        assert!(e.to_string().contains("I/O pins"));
        assert!(FpgaError::InvalidParameter("x").to_string().contains('x'));
    }
}
