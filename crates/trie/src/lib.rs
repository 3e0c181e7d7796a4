//! # vr-trie — trie structures for pipelined IP lookup
//!
//! The paper's lookup substrate is a **uni-bit binary trie with leaf
//! pushing, mapped level-per-stage onto a linear pipeline** (§V-D). Most
//! router-virtualization solutions it models are trie based, and the merged
//! virtualization scheme overlays K tries into one whose leaves hold K-wide
//! next-hop (NHI) vectors indexed by VNID.
//!
//! This crate implements that whole layer:
//!
//! * [`UnibitTrie`] — arena-based uni-bit trie with longest-prefix match,
//!   incremental insert/withdraw, and per-level statistics;
//! * [`LeafPushedTrie`] — the leaf-pushing transform (Ruiz-Sánchez et al.,
//!   paper ref. \[16\]): a *full* binary trie whose NHI lives only in
//!   leaves, which is what the pipeline stages store. It carries its
//!   arity K — a leaf holds a K-wide NHI vector indexed by VNID — so the
//!   single-table trie (K = 1) and the merged scheme's are one type built
//!   by one recursion;
//! * [`FlatStrideTrie`] — level-ordered flat storage of the multi-bit
//!   trie: one contiguous slab of packed `u64` entries per pipeline
//!   stage, plus a stage-lockstep `lookup_batch` (software pipelining)
//!   to hide cache-miss latency on the lookup path;
//! * [`JumpTrie`] — the serving structure, DIR-16-8-8: a 2^16-entry
//!   direct-index root resolving the first 16 bits in one load, over a
//!   tail of 256-entry stride-8 blocks for the > /16 remainder, so a
//!   lookup is at most three slab loads and one NHI load ([`jump`]
//!   defines the entry and NHI codec, the block filler and the interning
//!   NHI-slab writer);
//! * [`MergedTrie`] — the K-way overlay used by the virtualized-merged
//!   scheme, with *measured* merging efficiency α (Assumption 4);
//!   [`MergedTrie::leaf_pushed`] is its [`LeafPushedTrie`] of arity K;
//! * [`JumpSlabs`] / [`DirtyBuckets`] — per-/16-bucket block store for
//!   the control plane: route updates re-derive only dirty buckets and
//!   assemble a publishable [`JumpTrie`] without a from-scratch rebuild;
//! * [`pipeline_map`] — level→stage mapping and per-stage memory sizing
//!   (Mᵢ,ⱼ in the paper's notation), separating pointer memory from NHI
//!   memory exactly as Fig. 4 does;
//! * [`calibrate`] — searches the synthetic family generator's shared
//!   fraction for a target α (the paper sweeps α ∈ {0.2, 0.8});
//! * [`LookupBackend`] — the two-method trait (`lookup_vn`, and a
//!   `lookup_batch_vn` that defaults to the scalar loop) the benchmark,
//!   audit and parity drivers are written against; only
//!   [`FlatStrideTrie`] carries a batch walk of its own.
//!
//! All structures are index-arena based (no `Box` chains): node identity is
//! a `u32`, which keeps tries compact and traversals cache-friendly — the
//! same reasons the paper's hardware keeps per-stage memories dense.

// `deny`, not `forbid`: the prefetch module carries the one sanctioned
// `#[allow(unsafe_code)]` in the workspace — the prefetch intrinsic
// behind a bounds-checked wrapper. A `vr-audit` lint rule pins the
// intrinsic to that module; every other crate keeps `forbid`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calibrate;
pub mod flat;
pub mod jump;
pub mod leafpush;
pub mod merge;
pub mod multibit;
pub mod pipeline_map;
pub mod prefetch;
pub mod stats;
pub mod subslab;
pub mod unibit;

pub use backend::LookupBackend;
pub use flat::{FlatStrideParts, FlatStrideTrie};
pub use jump::{JumpTrie, JumpTrieParts};
pub use leafpush::LeafPushedTrie;
pub use multibit::StrideTrie;
pub use merge::MergedTrie;
pub use pipeline_map::{MemoryLayout, PipelineProfile, StageProfile};
pub use stats::TrieStats;
pub use subslab::{DirtyBuckets, JumpSlabs};
pub use unibit::{NodeId, UnibitTrie};

/// Errors produced by trie construction and mapping.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrieError {
    /// A merge was requested for zero tables or more than 64 tables (the
    /// presence bookkeeping uses a 64-bit mask; the paper evaluates K ≤ 15).
    BadMergeArity(usize),
    /// The pipeline mapping was asked for zero stages.
    ZeroStages,
    /// A calibration search could not reach the target α.
    CalibrationFailed {
        /// Target merging efficiency.
        target: f64,
        /// Closest achieved value.
        achieved: f64,
    },
    /// An invalid parameter was supplied (message explains which).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for TrieError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrieError::BadMergeArity(k) => {
                write!(f, "cannot merge {k} tables (supported: 1..=64)")
            }
            TrieError::ZeroStages => write!(f, "pipeline must have at least one stage"),
            TrieError::CalibrationFailed { target, achieved } => write!(
                f,
                "could not calibrate merging efficiency to {target} (closest: {achieved})"
            ),
            TrieError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for TrieError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(TrieError::BadMergeArity(0).to_string().contains('0'));
        assert!(TrieError::ZeroStages.to_string().contains("stage"));
        let c = TrieError::CalibrationFailed {
            target: 0.8,
            achieved: 0.5,
        };
        assert!(c.to_string().contains("0.8"));
        assert!(TrieError::InvalidParameter("x").to_string().contains('x'));
    }
}
