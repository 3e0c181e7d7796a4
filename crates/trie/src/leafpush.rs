//! Leaf pushing (paper ref. \[16\], §V-D): the one leaf-pushed full binary
//! trie, for one table or for K merged ones.
//!
//! Leaf pushing turns a uni-bit trie into a *full* binary trie in which
//! next-hop information (NHI) is stored only at leaves: every internal node
//! with a missing child gets a synthetic leaf inheriting the longest
//! matching prefix seen on the path. The pipeline then stores pointer words
//! for internal nodes and NHI words for leaves, never both — which is why
//! the paper's Fig. 4 can split memory into "pointer" and "NHI" cleanly.
//!
//! The merged scheme (§IV-C) is the same trie with the leaf's next hop
//! widened to a K-entry vector indexed by VNID, so [`LeafPushedTrie`]
//! carries its arity K: [`LeafPushedTrie::from_unibit`] builds the K = 1
//! case, [`LeafPushedTrie::from_merged`] the K-wide one, both through the
//! same `push` recursion, and Eq. 5's memory term is the single-engine one
//! with the NHI word × K.
//!
//! For the paper's worst-case table, leaf pushing grows the trie from 9726
//! to 16127 nodes (§V-E); the calibration test in this module keeps our
//! synthetic generator in that growth regime.

use crate::merge::MergedTrie;
use crate::stats::TrieStats;
use crate::unibit::{NodeId, UnibitTrie};
use vr_net::table::NextHop;

#[derive(Debug, Clone, Copy)]
enum LpNode {
    /// Both children — a leaf-pushed trie is full.
    Internal(NodeId, NodeId),
    /// Offset of the leaf's K-wide vector in the NHI slab.
    Leaf(u32),
}

/// A leaf-pushed (full) binary trie whose leaves store K-wide NHI vectors,
/// one entry per virtual network, indexed by VNID (K = 1 for a single
/// table).
#[derive(Debug, Clone)]
pub struct LeafPushedTrie {
    /// Pre-order arena: the root is [`NodeId::ROOT`], as in the source
    /// tries.
    nodes: Vec<LpNode>,
    /// Leaf NHI vectors, `k` consecutive entries per leaf.
    nhis: Vec<Option<NextHop>>,
    k: usize,
}

impl LeafPushedTrie {
    /// Applies leaf pushing to a single table's trie (K = 1).
    #[must_use]
    pub fn from_unibit(trie: &UnibitTrie) -> Self {
        let own = |id| [trie.node_next_hop(id)];
        Pusher::run(1, trie.node_count(), |id| trie.children(id), own)
    }

    /// Applies leaf pushing to a K-way merged trie.
    #[must_use]
    pub fn from_merged(merged: &MergedTrie) -> Self {
        let children = |id| [merged.node_child(id, 0), merged.node_child(id, 1)];
        let own = |id| merged.node_nhis(id);
        Pusher::run(merged.arity(), merged.node_count(), children, own)
    }

    /// Number of virtual networks K (the NHI vector width).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Total node count (internal + leaves).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves — each stores a K-wide NHI vector.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nhis.len() / self.k
    }

    /// Number of internal nodes (pointer words in the pipeline memories).
    #[must_use]
    pub fn internal_count(&self) -> usize {
        self.node_count() - self.leaf_count()
    }

    /// Total NHI entries stored (leaves × K): the hardware provisions the
    /// full vector width per leaf regardless of empty entries (§V-D).
    #[must_use]
    pub fn nhi_entries(&self) -> usize {
        self.nhis.len()
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`: walk
    /// destination bits to a leaf, then index its vector by VNID. Exactly
    /// the pipeline's per-stage behaviour.
    ///
    /// # Panics
    /// Panics if `vnid ≥ arity`.
    #[must_use]
    pub fn lookup_vn(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        let mut cur = NodeId::ROOT;
        let mut depth = 0u32;
        while let Some((l, r)) = self.node_children(cur) {
            debug_assert!(depth < 32, "full trie deeper than address width");
            cur = if (ip >> (31 - depth)) & 1 == 0 { l } else { r };
            depth += 1;
        }
        self.node_nhis(cur)[vnid]
    }

    /// Children of a node: `Some((left, right))` for internal nodes,
    /// `None` for leaves.
    #[must_use]
    pub fn node_children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        match self.nodes[id.idx()] {
            LpNode::Internal(l, r) => Some((l, r)),
            LpNode::Leaf(_) => None,
        }
    }

    /// The K-wide NHI vector stored at a leaf, indexed by VNID (empty for
    /// an internal node).
    #[must_use]
    pub fn node_nhis(&self, id: NodeId) -> &[Option<NextHop>] {
        match self.nodes[id.idx()] {
            LpNode::Internal(..) => &[],
            LpNode::Leaf(at) => &self.nhis[at as usize..][..self.k],
        }
    }

    /// Whether the trie is full (every internal node has both children) —
    /// structural invariant guaranteed by construction, checked in tests.
    #[must_use]
    pub fn is_full(&self) -> bool {
        // Fullness is encoded in the type (children is a pair); check the
        // complementary leaf/internal count identity instead.
        self.leaf_count() == self.internal_count() + 1
    }

    /// Per-level statistics (prefix nodes = leaves with ≥1 NHI entry).
    #[must_use]
    pub fn stats(&self) -> TrieStats {
        let mut stats = TrieStats::default();
        let mut stack = vec![(NodeId::ROOT, 0u8)];
        while let Some((id, depth)) = stack.pop() {
            match self.node_children(id) {
                None => {
                    let routed = self.node_nhis(id).iter().any(Option::is_some);
                    stats.record(depth, true, routed);
                }
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

/// The one leaf-pushing recursion, over a source trie read through two
/// accessors: a node's two child edges, and the next hops stored at it,
/// indexed by VNID (one entry for a uni-bit trie, K for a merged one).
struct Pusher<C, O> {
    children: C,
    own: O,
    out: LeafPushedTrie,
    /// Longest match seen so far on the current path, per VN. One vector
    /// for the whole build: a node overwrites the entries it stores and
    /// `undo` restores them on the way back up, so no node allocates and
    /// none copies all K entries.
    inherited: Vec<Option<NextHop>>,
    /// `(vnid, previous entry)` for every overwrite still in effect.
    undo: Vec<(usize, Option<NextHop>)>,
}

impl<C, O, N> Pusher<C, O>
where
    C: Fn(NodeId) -> [Option<NodeId>; 2],
    O: Fn(NodeId) -> N,
    N: AsRef<[Option<NextHop>]>,
{
    fn run(k: usize, src_nodes: usize, children: C, own: O) -> LeafPushedTrie {
        // A full binary trie has one more leaf than internal nodes, and
        // every internal node is a source node.
        let mut pusher = Pusher {
            children,
            own,
            out: LeafPushedTrie {
                nodes: Vec::with_capacity(src_nodes * 2 + 1),
                nhis: Vec::with_capacity((src_nodes + 1) * k),
                k,
            },
            inherited: vec![None; k],
            undo: Vec::new(),
        };
        pusher.push(NodeId::ROOT);
        pusher.out
    }

    /// Recursively leaf-pushes the subtree rooted at `id`, carrying the
    /// longest matching NHI seen so far per VN. Returns the new node's id.
    fn push(&mut self, id: NodeId) -> NodeId {
        let mark = self.undo.len();
        for (vn, nh) in (self.own)(id).as_ref().iter().enumerate() {
            if let Some(nh) = *nh {
                self.undo.push((vn, self.inherited[vn].replace(nh)));
            }
        }
        let slot = match (self.children)(id) {
            [None, None] => self.alloc_leaf(),
            children => {
                let slot = node_id(self.out.nodes.len());
                self.out.nodes.push(LpNode::Leaf(0)); // patched below
                let [left, right] = children.map(|child| match child {
                    Some(child) => self.push(child),
                    None => self.alloc_leaf(),
                });
                self.out.nodes[slot.idx()] = LpNode::Internal(left, right);
                slot
            }
        };
        for &(vn, previous) in self.undo[mark..].iter().rev() {
            self.inherited[vn] = previous;
        }
        self.undo.truncate(mark);
        slot
    }

    /// A leaf holding the vector in effect at the current node.
    fn alloc_leaf(&mut self) -> NodeId {
        let id = node_id(self.out.nodes.len());
        let at = u32::try_from(self.out.nhis.len()).expect("NHI slab exceeds u32 entries");
        self.out.nodes.push(LpNode::Leaf(at));
        self.out.nhis.extend_from_slice(&self.inherited);
        id
    }
}

fn node_id(index: usize) -> NodeId {
    NodeId(u32::try_from(index).expect("leaf-pushed trie exceeds u32 nodes"))
}

impl crate::LookupBackend for LeafPushedTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        LeafPushedTrie::lookup_vn(self, vn, ip)
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
        assert_eq!(lp.lookup_vn(0, 0), None);
        assert!(lp.is_full());
    }

    #[test]
    fn single_prefix_pushes_to_both_sides() {
        let lp = LeafPushedTrie::from_unibit(&trie_of(&[("128.0.0.0/1", 1)]));
        // Root becomes internal with two leaves: left (no match), right (1).
        assert_eq!(lp.node_count(), 3);
        assert_eq!(lp.lookup_vn(0, 0x0000_0000), None);
        assert_eq!(lp.lookup_vn(0, 0x8000_0000), Some(1));
        assert!(lp.is_full());
    }

    #[test]
    fn default_route_fills_every_leaf() {
        let lp = LeafPushedTrie::from_unibit(&trie_of(&[("0.0.0.0/0", 9), ("128.0.0.0/1", 1)]));
        assert_eq!(lp.lookup_vn(0, 0x0000_0000), Some(9));
        assert_eq!(lp.lookup_vn(0, 0x8000_0000), Some(1));
    }

    #[test]
    fn nested_prefixes_push_longest_match() {
        let lp = LeafPushedTrie::from_unibit(&trie_of(&[
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
        ]));
        assert_eq!(lp.lookup_vn(0, 0x0A01_0203), Some(2)); // inside /16
        assert_eq!(lp.lookup_vn(0, 0x0A02_0203), Some(1)); // inside /8 only
        assert_eq!(lp.lookup_vn(0, 0x0B00_0000), None);
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
            assert_eq!(lp.lookup_vn(0, ip), trie.lookup(ip), "ip {ip:#010x}");
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
