//! Per-level trie statistics.
//!
//! The pipeline mapping assigns trie levels to stages, so everything the
//! power models need from a trie reduces to *per-level node counts* split
//! into leaves (NHI words) and internal nodes (pointer words).

use serde::{Deserialize, Serialize};

/// Node counts for one trie level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Nodes at this level with no children (leaves).
    pub leaves: usize,
    /// Nodes at this level with at least one child.
    pub internal: usize,
    /// Nodes at this level storing a prefix (pre-leaf-pushing property).
    pub prefix_nodes: usize,
}

impl LevelStats {
    /// Total nodes at this level.
    #[must_use]
    pub fn total(&self) -> usize {
        self.leaves + self.internal
    }
}

/// What a sweep over K prices, read off one arity-K
/// [`crate::MergedTrie`] by [`crate::MergedTrie::sweep_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// At index `k - 1`: the leaf-pushed trie over VNs `0..k`.
    pub by_prefix: Vec<TrieStats>,
    /// At index `k - 1`: the merging efficiency α of that trie.
    pub alpha: Vec<f64>,
    /// At index `vn`: VN `vn`'s own leaf-pushed trie.
    pub per_vn: Vec<TrieStats>,
}

/// Aggregated per-level statistics for a trie.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrieStats {
    /// One entry per populated level, index = depth.
    pub levels: Vec<LevelStats>,
    /// Total node count.
    pub total_nodes: usize,
    /// Total leaf count.
    pub leaves: usize,
    /// Total internal-node count.
    pub internal: usize,
    /// Total nodes carrying a prefix.
    pub prefix_nodes: usize,
}

impl TrieStats {
    /// Records one node at `depth`.
    pub fn record(&mut self, depth: u8, is_leaf: bool, has_prefix: bool) {
        let [leaves, internal, prefix] = [is_leaf, !is_leaf, has_prefix].map(usize::from);
        self.add(usize::from(depth), leaves, internal, prefix);
    }

    /// Adds `leaves` and `internal` nodes, `prefixes` of them carrying
    /// a prefix, at `depth`.
    pub(crate) fn add(&mut self, depth: usize, leaves: usize, internal: usize, prefixes: usize) {
        if self.levels.len() <= depth {
            self.levels.resize(depth + 1, LevelStats::default());
        }
        let level = &mut self.levels[depth];
        level.leaves += leaves;
        level.internal += internal;
        level.prefix_nodes += prefixes;
        self.leaves += leaves;
        self.internal += internal;
        self.prefix_nodes += prefixes;
        self.total_nodes += leaves + internal;
    }

    /// Number of populated levels (max depth + 1); 0 for a statless trie.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total nodes at `level` (0 when the level is beyond the trie).
    #[must_use]
    pub fn nodes_at_level(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, LevelStats::total)
    }

    /// Leaves at `level`.
    #[must_use]
    pub fn leaves_at_level(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, |l| l.leaves)
    }

    /// Internal nodes at `level`.
    #[must_use]
    pub fn internal_at_level(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, |l| l.internal)
    }

    /// Cross-checks the aggregate counters against the per-level entries.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let leaves: usize = self.levels.iter().map(|l| l.leaves).sum();
        let internal: usize = self.levels.iter().map(|l| l.internal).sum();
        let prefixes: usize = self.levels.iter().map(|l| l.prefix_nodes).sum();
        leaves == self.leaves
            && internal == self.internal
            && prefixes == self.prefix_nodes
            && leaves + internal == self.total_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = TrieStats::default();
        s.record(0, false, false);
        s.record(1, true, true);
        s.record(1, true, false);
        assert_eq!(s.total_nodes, 3);
        assert_eq!(s.leaves, 2);
        assert_eq!(s.internal, 1);
        assert_eq!(s.prefix_nodes, 1);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.nodes_at_level(1), 2);
        assert_eq!(s.leaves_at_level(1), 2);
        assert_eq!(s.internal_at_level(0), 1);
        assert!(s.check_invariants());
    }

    #[test]
    fn sparse_levels_are_zero_filled() {
        let mut s = TrieStats::default();
        s.record(3, true, false);
        assert_eq!(s.depth(), 4);
        assert_eq!(s.nodes_at_level(0), 0);
        assert_eq!(s.nodes_at_level(2), 0);
        assert_eq!(s.nodes_at_level(3), 1);
        assert_eq!(s.nodes_at_level(99), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn invariant_detects_corruption() {
        let mut s = TrieStats::default();
        s.record(0, true, false);
        s.total_nodes = 5;
        assert!(!s.check_invariants());
    }
}
