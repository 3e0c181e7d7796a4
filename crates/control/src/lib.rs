//! # vr-control — incremental route-update control plane
//!
//! §V-B of the paper assumes routing tables churn at a 1 % write rate
//! while the datapath forwards; the authors' follow-up work (paper
//! ref. \[6\]) makes those updates incremental on FPGA. This crate is
//! the software control plane that drives that story end to end:
//!
//! * [`coalesce`] — batches of announce/withdraw updates are deduped
//!   per `(vnid, prefix)` with **last-writer-wins** semantics before
//!   they touch the data plane, so a flapping route dirties its buckets
//!   once instead of many times;
//! * [`ControlPlane`] — a supervisor wrapping `vr-engine`'s
//!   [`LookupService`]: it replays churn traces (live
//!   [`UpdateStream`]s or parsed text traces), watches the merged
//!   trie's measured merging efficiency α after every batch, prices
//!   the resulting memory-footprint drift in watts with `vr-power`'s
//!   BRAM model, and — when α sags below a configured floor — triggers
//!   a background re-merge and RCU republish with hysteresis, cooldown
//!   and a bounded retry against audit rejections.
//!
//! The division of labour: `vr-engine` owns the mechanism (dirty-bucket
//! repaints of the live trie, generation-counted snapshot swaps), this crate
//! owns the *policy* (when to coalesce, when to fall back, when a
//! re-merge is worth the rebuild cost).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod plane;

pub use coalesce::{coalesce, CoalesceStats};
pub use plane::{BatchOutcome, ControlConfig, ControlPlane};

use vr_engine::EngineError;
use vr_net::NetError;
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
    /// Trace parsing or stream construction failed.
    Net(NetError),
    /// Every bounded re-merge attempt was rejected by the audit gate;
    /// the previous generation keeps serving.
    RemergeFailed {
        /// Attempts made before giving up.
        attempts: usize,
        /// The last audit rejection summary.
        last: String,
    },
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::InvalidConfig(msg) => write!(f, "invalid control config: {msg}"),
            ControlError::Engine(e) => write!(f, "engine error: {e}"),
            ControlError::Net(e) => write!(f, "net error: {e}"),
            ControlError::RemergeFailed { attempts, last } => {
                write!(f, "re-merge rejected {attempts} time(s); last: {last}")
            }
        }
    }
}

impl std::error::Error for ControlError {}

impl From<EngineError> for ControlError {
    fn from(e: EngineError) -> Self {
        ControlError::Engine(e)
    }
}

impl From<NetError> for ControlError {
    fn from(e: NetError) -> Self {
        ControlError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        let e: ControlError = EngineError::InvalidParameter("x").into();
        assert!(e.to_string().contains("engine error"));
        let e: ControlError = NetError::InvalidPrefixLen(40).into();
        assert!(e.to_string().contains("net error"));
        assert!(ControlError::InvalidConfig("y").to_string().contains('y'));
        let e = ControlError::RemergeFailed {
            attempts: 3,
            last: "boom".into(),
        };
        assert!(e.to_string().contains('3') && e.to_string().contains("boom"));
    }

    #[test]
    fn update_stream_reexport_is_usable() {
        // The crate re-surfaces vr-net's stream type for replay callers.
        let _ = UpdateStream::new(vec![], vr_net::UpdateMix::default(), 4, 1).unwrap_err();
    }
}
