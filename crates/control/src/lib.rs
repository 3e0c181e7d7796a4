//! # vr-control — incremental route-update control plane
//!
//! §V-B of the paper assumes routing tables churn at a 1 % write rate
//! while the datapath forwards; the authors' follow-up work (paper
//! ref. \[6\]) makes those updates incremental on FPGA. This crate is
//! the software control plane that drives that story end to end:
//!
//! * [`coalesce`](mod@coalesce) — batches of announce/withdraw updates are deduped
//!   per `(vnid, prefix)` with **last-writer-wins** semantics before
//!   they touch the data plane, so a flapping route dirties its buckets
//!   once instead of many times;
//! * [`ControlPlane`] — a supervisor wrapping `vr-engine`'s
//!   [`LookupService`]: it replays churn from live [`UpdateStream`]s,
//!   reads the merged trie's measured merging efficiency α after every
//!   batch, and prices the resulting memory-footprint drift in watts
//!   with `vr-power`'s BRAM model.
//!
//! The division of labour: `vr-engine` owns the mechanism (dirty-bucket
//! repaints of the live trie, generation-counted snapshot swaps), this crate
//! owns the *policy* (what a batch is, what it cost in α and watts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod plane;

pub use coalesce::{coalesce, CoalesceStats};
pub use plane::{BatchOutcome, ControlConfig, ControlPlane};

use vr_engine::EngineError;
#[allow(unused_imports)] // doc links
use vr_net::UpdateStream;

#[allow(unused_imports)] // doc links
use vr_engine::LookupService;

/// Errors from control-plane construction and replay.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// A configuration value was out of its valid domain.
    InvalidConfig(&'static str),
    /// The underlying lookup service failed.
    Engine(EngineError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::InvalidConfig(msg) => write!(f, "invalid control config: {msg}"),
            ControlError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<EngineError> for ControlError {
    fn from(e: EngineError) -> Self {
        ControlError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        let e: ControlError = EngineError::InvalidParameter("x").into();
        assert!(e.to_string().contains("engine error"));
        assert!(ControlError::InvalidConfig("y").to_string().contains('y'));
    }

    #[test]
    fn update_stream_reexport_is_usable() {
        // The crate re-surfaces vr-net's stream type for replay callers.
        let _ = UpdateStream::new(vec![], vr_net::UpdateMix::default(), 4, 1).unwrap_err();
    }
}
