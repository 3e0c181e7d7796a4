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
//! * [`MergedTrie`] — the one pointer trie: the arena-based uni-bit trie
//!   with its next hop widened to a K-entry vector indexed by VNID, so a
//!   single table is K = 1 and the virtualized-merged scheme's K-way
//!   overlay is the same type. Longest-prefix match, incremental
//!   announce/withdraw per VN, per-level statistics, and *measured*
//!   merging efficiency α (Assumption 4); [`MergedTrie::leaf_pushed`] is
//!   its [`LeafPushedTrie`] of arity K;
//! * [`SweepStats`] — the statistics of the leaf-pushed trie over every
//!   VN prefix `0..k` and of every VN's own, with α at each k: counted
//!   off K tables' sorted routes in the bulk build's one preorder pass
//!   ([`SweepStats::from_tables`], no trie built), or off a live trie in
//!   one walk ([`MergedTrie::sweep_stats`]);
//! * [`LeafPushedTrie`] — the leaf-pushing transform (Ruiz-Sánchez et al.,
//!   paper ref. \[16\]): a *full* binary trie whose NHI lives only in
//!   leaves, which is what the pipeline stages store. It carries its
//!   arity K — a leaf holds a K-wide NHI vector indexed by VNID — so the
//!   single-table trie (K = 1) and the merged scheme's are one type built
//!   by one recursion;
//! * [`JumpTrie`] — the serving structure, DIR-16-8-8: a 2^16-entry
//!   direct-index root resolving the first 16 bits in one load, over a
//!   tail of 256-entry stride-8 blocks for the > /16 remainder, so a
//!   lookup is at most three slab loads and one NHI load (its private
//!   `jump` module also holds the entry and NHI codec, the block filler
//!   and the interning NHI-slab writer);
//! * [`DirtyBuckets`] — the /16 buckets an update batch touched: the
//!   batch's [`JumpTrie::repaint`] paints those from the merged trie and
//!   copies the rest from the live jump trie;
//! * [`pipeline_map`] — level→stage mapping and per-stage memory sizing
//!   (Mᵢ,ⱼ in the paper's notation), separating pointer memory from NHI
//!   memory exactly as Fig. 4 does, and the closed-form per-stage entry
//!   count of a fixed-stride multi-bit pipeline (refs. \[7\]\[8\]);
//! * [`calibrate`] — searches the synthetic family generator's shared
//!   fraction for a target α (the paper sweeps α ∈ {0.2, 0.8});
//! * [`LookupBackend`] — the one-method trait (`lookup_vn`) the
//!   benchmark drivers and the audit's oracle parity are written against;
//! * [`audit`] — the structural verifier for every encoding above: it
//!   re-derives each invariant a lookup loop relies on from the raw slabs
//!   and reports violations with their coordinates, so a corrupt table is
//!   rejected before a service publishes it.
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

pub mod audit;
pub mod backend;
pub mod calibrate;
mod jump;
pub mod leafpush;
pub mod merge;
pub mod pipeline_map;
pub mod prefetch;
pub mod stats;
pub mod subslab;

pub use backend::LookupBackend;
pub use jump::{JumpTrie, JumpTrieParts};
pub use leafpush::LeafPushedTrie;
pub use merge::{MergedTrie, NodeId};
pub use pipeline_map::{MemoryLayout, PipelineProfile, StageProfile};
pub use stats::{SweepStats, TrieStats};
pub use subslab::DirtyBuckets;

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
