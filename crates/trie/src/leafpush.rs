//! Leaf pushing (paper ref. [16], §V-D).
//!
//! Leaf pushing turns a uni-bit trie into a *full* binary trie in which
//! next-hop information (NHI) is stored only at leaves: every internal node
//! with a missing child gets a synthetic leaf inheriting the longest
//! matching prefix seen on the path. The pipeline then stores pointer words
//! for internal nodes and NHI words for leaves, never both — which is why
//! the paper's Fig. 4 can split memory into "pointer" and "NHI" cleanly.
//!
//! For the paper's worst-case table, leaf pushing grows the trie from 9726
//! to 16127 nodes (§V-E); the calibration test in this module keeps our
//! synthetic generator in that growth regime.

use crate::stats::TrieStats;
use crate::unibit::{NodeId, UnibitTrie};
use vr_net::table::NextHop;

#[derive(Debug, Clone)]
struct LpNode {
    /// `Some((left, right))` for internal nodes; `None` for leaves.
    children: Option<(NodeId, NodeId)>,
    /// NHI; meaningful only at leaves (always `None` on internal nodes).
    nhi: Option<NextHop>,
}

/// A leaf-pushed (full) binary trie.
#[derive(Debug, Clone)]
pub struct LeafPushedTrie {
    nodes: Vec<LpNode>,
    root: NodeId,
}

impl LeafPushedTrie {
    /// Applies leaf pushing to `trie`.
    #[must_use]
    pub fn from_unibit(trie: &UnibitTrie) -> Self {
        let mut nodes = Vec::with_capacity(trie.node_count() * 2);
        let root = push(trie, NodeId::ROOT, None, &mut nodes);
        Self { nodes, root }
    }

    /// Total node count (internal + leaves).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (NHI words in the pipeline memories).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_none()).count()
    }

    /// Number of internal nodes (pointer words in the pipeline memories).
    #[must_use]
    pub fn internal_count(&self) -> usize {
        self.node_count() - self.leaf_count()
    }

    /// Longest-prefix match: walk destination bits to a leaf and read its
    /// NHI. Exactly the pipeline's per-stage behaviour.
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        let mut cur = self.root;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[cur.idx()];
            match node.children {
                None => return node.nhi,
                Some((l, r)) => {
                    debug_assert!(depth < 32, "full trie deeper than address width");
                    let bit = (ip >> (31 - depth)) & 1;
                    cur = if bit == 0 { l } else { r };
                    depth += 1;
                }
            }
        }
    }

    /// The root node id (entry point for stage-by-stage traversal in the
    /// pipeline simulator).
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Children of a node: `Some((left, right))` for internal nodes,
    /// `None` for leaves.
    #[must_use]
    pub fn node_children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[id.idx()].children
    }

    /// The NHI stored at a node (meaningful only for leaves).
    #[must_use]
    pub fn node_nhi(&self, id: NodeId) -> Option<NextHop> {
        self.nodes[id.idx()].nhi
    }

    /// Whether the trie is full (every internal node has both children) —
    /// structural invariant guaranteed by construction, checked in tests.
    #[must_use]
    pub fn is_full(&self) -> bool {
        // Fullness is encoded in the type (children is a pair); check the
        // complementary leaf/internal count identity instead.
        self.leaf_count() == self.internal_count() + 1
    }

    /// Per-level statistics (prefix nodes = leaves carrying an NHI).
    #[must_use]
    pub fn stats(&self) -> TrieStats {
        let mut stats = TrieStats::default();
        let mut stack = vec![(self.root, 0u8)];
        while let Some((id, depth)) = stack.pop() {
            let node = &self.nodes[id.idx()];
            match node.children {
                None => stats.record(depth, true, node.nhi.is_some()),
                Some((l, r)) => {
                    stats.record(depth, false, false);
                    stack.push((r, depth + 1));
                    stack.push((l, depth + 1));
                }
            }
        }
        stats
    }
}

/// Recursively leaf-pushes the subtree rooted at `id`, carrying the longest
/// matching NHI seen so far. Returns the new node's id in `nodes`.
fn push(
    trie: &UnibitTrie,
    id: NodeId,
    inherited: Option<NextHop>,
    nodes: &mut Vec<LpNode>,
) -> NodeId {
    let effective = trie.node_next_hop(id).or(inherited);
    let children = trie.children(id);
    let slot = NodeId(u32::try_from(nodes.len()).expect("leaf-pushed trie exceeds u32 nodes"));
    nodes.push(LpNode {
        children: None,
        nhi: None,
    });
    if children[0].is_none() && children[1].is_none() {
        nodes[slot.idx()].nhi = effective;
        return slot;
    }
    let left = match children[0] {
        Some(child) => push(trie, child, effective, nodes),
        None => alloc_leaf(nodes, effective),
    };
    let right = match children[1] {
        Some(child) => push(trie, child, effective, nodes),
        None => alloc_leaf(nodes, effective),
    };
    nodes[slot.idx()].children = Some((left, right));
    slot
}

fn alloc_leaf(nodes: &mut Vec<LpNode>, nhi: Option<NextHop>) -> NodeId {
    let id = NodeId(u32::try_from(nodes.len()).expect("leaf-pushed trie exceeds u32 nodes"));
    nodes.push(LpNode {
        children: None,
        nhi,
    });
    id
}

impl crate::LookupBackend for LeafPushedTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        debug_assert_eq!(vn, 0, "single-table encoding hosts only VN 0");
        self.lookup(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::TableSpec;
    use vr_net::{Ipv4Prefix, RoutingTable};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn trie_of(entries: &[(&str, u8)]) -> UnibitTrie {
        let table = RoutingTable::from_entries(
            entries
                .iter()
                .map(|(s, nh)| vr_net::RouteEntry::new(p(s), *nh)),
        );
        UnibitTrie::from_table(&table)
    }

    #[test]
    fn empty_trie_becomes_single_nhi_less_leaf() {
        let lp = LeafPushedTrie::from_unibit(&UnibitTrie::new());
        assert_eq!(lp.node_count(), 1);
        assert_eq!(lp.leaf_count(), 1);
        assert_eq!(lp.lookup(0), None);
        assert!(lp.is_full());
    }

    #[test]
    fn single_prefix_pushes_to_both_sides() {
        let lp = LeafPushedTrie::from_unibit(&trie_of(&[("128.0.0.0/1", 1)]));
        // Root becomes internal with two leaves: left (no match), right (1).
        assert_eq!(lp.node_count(), 3);
        assert_eq!(lp.lookup(0x0000_0000), None);
        assert_eq!(lp.lookup(0x8000_0000), Some(1));
        assert!(lp.is_full());
    }

    #[test]
    fn default_route_fills_every_leaf() {
        let lp = LeafPushedTrie::from_unibit(&trie_of(&[("0.0.0.0/0", 9), ("128.0.0.0/1", 1)]));
        assert_eq!(lp.lookup(0x0000_0000), Some(9));
        assert_eq!(lp.lookup(0x8000_0000), Some(1));
    }

    #[test]
    fn nested_prefixes_push_longest_match() {
        let lp = LeafPushedTrie::from_unibit(&trie_of(&[
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
        ]));
        assert_eq!(lp.lookup(0x0A01_0203), Some(2)); // inside /16
        assert_eq!(lp.lookup(0x0A02_0203), Some(1)); // inside /8 only
        assert_eq!(lp.lookup(0x0B00_0000), None);
        assert!(lp.is_full());
    }

    #[test]
    fn lookup_agrees_with_unibit_on_paper_scale_table() {
        let table = TableSpec::paper_worst_case(77).generate().unwrap();
        let trie = UnibitTrie::from_table(&table);
        let lp = LeafPushedTrie::from_unibit(&trie);
        let mut probes: Vec<u32> = table.prefixes().map(|q| q.addr().wrapping_add(3)).collect();
        probes.extend([0, u32::MAX, 0x7FFF_FFFF]);
        for ip in probes {
            assert_eq!(lp.lookup(ip), trie.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn growth_matches_paper_regime() {
        // §V-E: 9726 -> 16127 nodes, a growth factor of ~1.66.
        let table = TableSpec::paper_worst_case(2012).generate().unwrap();
        let trie = UnibitTrie::from_table(&table);
        let lp = LeafPushedTrie::from_unibit(&trie);
        let factor = lp.node_count() as f64 / trie.node_count() as f64;
        assert!(
            (1.2..=2.0).contains(&factor),
            "leaf-pushing growth factor {factor} outside the paper's regime"
        );
        assert!(lp.is_full());
    }

    #[test]
    fn stats_agree_with_counts() {
        let table = TableSpec::paper_worst_case(5).generate().unwrap();
        let lp = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let s = lp.stats();
        assert_eq!(s.total_nodes, lp.node_count());
        assert_eq!(s.leaves, lp.leaf_count());
        assert_eq!(s.internal, lp.internal_count());
        assert!(s.check_invariants());
    }
}
