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

/// What a sweep over K prices about K tables: read off their sorted
/// routes by [`SweepStats::from_tables`], which builds no trie, or off a
/// live arity-K [`crate::MergedTrie`] by
/// [`crate::MergedTrie::sweep_stats`]. Both feed one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// At index `k - 1`: the leaf-pushed trie over VNs `0..k`.
    pub by_prefix: Vec<TrieStats>,
    /// At index `k - 1`: the merging efficiency α of that trie.
    pub alpha: Vec<f64>,
    /// At index `vn`: VN `vn`'s own leaf-pushed trie.
    pub per_vn: Vec<TrieStats>,
}

/// Trie levels: the root's, then one per prefix bit.
const LEVELS: usize = 33;

/// Per-level counts a sweep accumulates, indexed by the constants below.
type Counts = [isize; 3];
const LEAF: usize = 0;
const INNER: usize = 1;
/// Leaves with a route for some VN.
const ROUTED: usize = 2;

/// The per-node counting behind [`SweepStats`]: each node of the arity-K
/// trie goes in once, in any order, and [`SweepCounter::finish`] gives for
/// each k in `1..=K` the `leaf_pushed().stats()` and
/// `merging_efficiency()` of the trie over VNs `0..k`, and each VN's own
/// `leaf_pushed().stats()`, building none of them.
pub(crate) struct SweepCounter {
    k: usize,
    /// Rows of `Counts`, one per level: for each k in `0..=K + 1` a
    /// difference array over k.
    by_k: Vec<Counts>,
    /// Level by level, each VN's trie's `Counts`, with a spare level
    /// under the deepest.
    per_vn: Vec<Counts>,
    nodes: NodeCounts,
}

impl SweepCounter {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            by_k: vec![[0; 3]; (k + 2) * LEVELS],
            per_vn: vec![[0; 3]; (LEVELS + 1) * k],
            nodes: NodeCounts::new(k),
        }
    }

    /// Counts the node at `depth` whose `presence` mask (bit v ⇔ the node
    /// is in VN v's trie), children's masks `kids` (0 for a missing child)
    /// and `routed` mask (the VNs with an entry on its root path, its own
    /// included) are final.
    ///
    /// A node is in the trie over VNs `0..k` once k passes its lowest
    /// presence bit (the root at every k), internal once k passes its
    /// children's lowest, and leaves a synthetic leaf one level down until
    /// k passes both children's. A leaf is routed once k passes the lowest
    /// routed VN (a synthetic leaf's are its parent's). Each such span of k
    /// goes into a difference array.
    pub(crate) fn node(&mut self, depth: usize, presence: u64, kids: [u64; 2], routed: u64) {
        let k = self.k;
        // k > from(mask) ⇔ a VN of `mask` is below k.
        let from = |mask: u64| (mask.trailing_zeros() as usize).min(k);
        // The root is in every VN's trie, announced or not.
        let present = presence | if depth == 0 { full_mask(k) } else { 0 };
        let (inner, lone) = (kids[0] | kids[1], kids[0] ^ kids[1]);
        let (k_in, k_inner, k_routed) = (from(present), from(inner), from(routed));
        let k_both = from(kids[0]).max(from(kids[1]));
        let by_k = &mut self.by_k;
        span(by_k, depth, LEAF, k_in, k_inner);
        span(by_k, depth, ROUTED, k_in.max(k_routed), k_inner);
        span(by_k, depth, INNER, k_inner, k);
        span(by_k, depth + 1, LEAF, k_inner, k_both);
        span(by_k, depth + 1, ROUTED, k_inner.max(k_routed), k_both);
        self.nodes.node(presence);
        let leaf = present & !inner;
        let (here, below) = self.per_vn[depth * k..(depth + 2) * k].split_at_mut(k);
        count_vns(here, INNER, inner);
        count_vns(here, LEAF, leaf);
        count_vns(here, ROUTED, leaf & routed);
        count_vns(below, LEAF, lone);
        count_vns(below, ROUTED, lone & routed);
    }

    /// The statistics of every node counted.
    pub(crate) fn finish(self) -> SweepStats {
        let Self {
            k,
            mut by_k,
            per_vn,
            nodes,
        } = self;
        for row in LEVELS..by_k.len() {
            let earlier = by_k[row - LEVELS];
            by_k[row] = std::array::from_fn(|i| by_k[row][i] + earlier[i]);
        }
        let stats = |rows: &[Counts]| {
            let mut stats = TrieStats::default();
            // Levels below the trie's deepest hold no node.
            for (depth, counts) in rows.iter().enumerate().filter(|(_, c)| **c != [0; 3]) {
                let [leaves, internal, prefixes] = counts.map(|count| count as usize);
                stats.add(depth, leaves, internal, prefixes);
            }
            stats
        };
        SweepStats {
            by_prefix: by_k.chunks(LEVELS).skip(1).take(k).map(stats).collect(),
            alpha: (1..=k).map(|k| nodes.alpha(k)).collect(),
            per_vn: (0..k)
                .map(|vn| {
                    stats(
                        &per_vn
                            .iter()
                            .skip(vn)
                            .step_by(k)
                            .copied()
                            .collect::<Vec<_>>(),
                    )
                })
                .collect(),
        }
    }
}

/// The node counts α reads: the nodes in each VN's trie, and nodes by how
/// many of VNs 0, 1, … in a row their tries share.
pub(crate) struct NodeCounts {
    per_vn: Vec<usize>,
    ones: Vec<usize>,
}

impl NodeCounts {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            per_vn: vec![0; k],
            ones: vec![0; k + 1],
        }
    }

    /// Counts a node whose presence mask (bit v ⇔ the node is in VN v's
    /// trie) is final.
    pub(crate) fn node(&mut self, presence: u64) {
        self.ones[(presence.trailing_ones() as usize).min(self.per_vn.len())] += 1;
        let mut vns = presence;
        while vns != 0 {
            self.per_vn[vns.trailing_zeros() as usize] += 1;
            vns &= vns - 1;
        }
    }

    /// The merging efficiency of the trie over VNs `0..k`.
    pub(crate) fn alpha(&self, k: usize) -> f64 {
        efficiency(&self.per_vn[..k], self.ones[k..].iter().sum())
    }
}

/// Counts one node as `count` in the row of each VN in `vns`.
fn count_vns(rows: &mut [Counts], count: usize, mut vns: u64) {
    while vns != 0 {
        rows[vns.trailing_zeros() as usize][count] += 1;
        vns &= vns - 1;
    }
}

/// Counts one node at `level` in the difference array `by_k` for every k
/// in `lo + 1..=hi`.
fn span(by_k: &mut [Counts], level: usize, count: usize, lo: usize, hi: usize) {
    if lo < hi {
        by_k[(lo + 1) * LEVELS + level][count] += 1;
        by_k[(hi + 1) * LEVELS + level][count] -= 1;
    }
}

/// α over per-VN node counts `per_vn` and `common` nodes, in the one
/// expression order every reader shares, so equal counts give equal bits.
pub(crate) fn efficiency(per_vn: &[usize], common: usize) -> f64 {
    let mean: f64 = per_vn.iter().sum::<usize>() as f64 / per_vn.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    (common as f64 / mean).min(1.0)
}

/// The presence mask of a node in all `k` VNs' tries.
pub(crate) fn full_mask(k: usize) -> u64 {
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
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
