//! # vr-engine — the serving datapath
//!
//! The production-shaped lookup datapath over the `vr-trie` structures:
//! one private service core — an immutable `JumpTrie` behind an
//! RCU-style generation-counted snapshot swap, with one lookup path that
//! walks the published snapshot in place on the calling thread, one
//! publish protocol, one audit gate and one telemetry
//! vocabulary — and two public facades over it, as the paper's VM and VS
//! organizations are one pipeline reached two ways: [`service`]'s
//! [`LookupService`] owns the incremental route-update path;
//! [`ShardedService`] serves whole-table publishes only. No service
//! spawns a thread. Route updates never stall a lookup in progress.
//! Every lookup walks the trie, with no result cache in front;
//! [`LpmCache`] is the generation-tagged LPM result cache, a standalone
//! type the benchmarks price against that walk. With
//! [`ServiceConfig::trace_sample`](service::ServiceConfig::trace_sample)
//! set, the core records a sampled `vr-obs` [`Tracer`] stage chain
//! (lane walk → complete) for 1-in-N calls, and publishes / update
//! batches land as control-plane spans on the same timeline —
//! exportable as Chrome trace JSON and servable over the vr-obs HTTP
//! plane.
//!
//! The paper's hardware is modelled elsewhere: the cycle-level pipeline
//! simulator lives in `vr-power` beside the equations it validates, and
//! nothing here links it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod metrics;
pub mod service;
mod service_core;
mod sharded;

pub use cache::{CacheStats, LpmCache, DEFAULT_CACHE_SLOTS};
pub use service::{LookupService, ServiceConfig, TableSnapshot};
pub use sharded::{ShardedConfig, ShardedService};
// Re-exported so service users can consume traces without naming the
// observability crate themselves.
pub use vr_obs::{BatchTrace, Stage, TraceSnapshot, Tracer};

/// Errors from service construction, publishing and updates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// A parameter was out of its valid domain.
    InvalidParameter(&'static str),
    /// Underlying trie construction failed.
    Trie(vr_trie::TrieError),
    /// The structural audit rejected a table before it could be published
    /// to the datapath (the message is the violation summary).
    AuditRejected(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            EngineError::Trie(e) => write!(f, "trie error: {e}"),
            EngineError::AuditRejected(summary) => {
                write!(f, "table rejected by structural audit: {summary}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<vr_trie::TrieError> for EngineError {
    fn from(e: vr_trie::TrieError) -> Self {
        EngineError::Trie(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        let e: EngineError = vr_trie::TrieError::ZeroStages.into();
        assert!(e.to_string().contains("trie error"));
        assert!(EngineError::InvalidParameter("x").to_string().contains('x'));
    }
}
