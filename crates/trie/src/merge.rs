//! The pointer trie: the uni-bit trie of §V-D with its next hop widened
//! to a K-entry vector indexed by VNID (§IV-C). A single table is K = 1.
//!
//! One trie level per prefix bit: a prefix of length L lives at depth L,
//! the root at depth 0 holds the default route, and a lookup walks the
//! destination bits MSB-first remembering the last next hop seen. The
//! merged scheme overlays the K virtual networks' tries into one: a node
//! exists wherever *any* constituent trie has a node, and stores one NHI
//! entry per VN. Structural similarity between tries means merged size ≪
//! sum of sizes; the paper quantifies this with the **merging
//! efficiency** α (Assumption 4: common nodes / total nodes).
//!
//! We measure α on the built structure as
//! `common nodes (present in all K tries) / mean per-trie node count`,
//! which is 1.0 for identical tries and →0 for structurally disjoint ones,
//! and coincides with the paper's common/total reading for equal-size
//! tables. [`MergedTrie::overlap_ratio`] additionally reports the laxer
//! `shared (≥2 tries) / merged total` metric for comparison.
//!
//! The trie is fully **incremental** (the authors' follow-up work, paper
//! ref. \[6\], adds on-the-fly updates to virtualized routers):
//! [`MergedTrie::insert`] and [`MergedTrie::remove`] announce/withdraw one
//! virtual network's route, maintaining per-VN subtree accounting so
//! presence masks, per-VN node counts and pruning stay exact under churn.
//! A sweep over K reads every trie it prices off one arity-K trie:
//! [`MergedTrie::sweep_stats`] walks it once for each k's leaf-pushed
//! statistics and α over VNs `0..k`, and each VN's own, building none.
//!
//! Per-VN state lives in two flat slabs of `k` entries per node (NHI
//! entries and subtree counters): no node owns a heap allocation, and an
//! update keeps its root-to-node path on the stack.
//!
//! This module holds the overlay only. The structure the pipeline stores
//! is its leaf-pushed form, [`MergedTrie::leaf_pushed`] — a
//! [`LeafPushedTrie`] of arity K.

use crate::leafpush::LeafPushedTrie;
use crate::stats::{SweepStats, TrieStats};
use crate::TrieError;
use std::ops::Range;
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};

/// Maximum number of tables a merge supports (presence mask is 64-bit; the
/// paper evaluates K ≤ 15, Fig. 4 sweeps to 30).
pub const MAX_MERGE_ARITY: usize = 64;

/// Index of a node in a trie arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node's id (always 0 in a live trie).
    pub const ROOT: NodeId = NodeId(0);

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct MergedNode {
    children: [Option<NodeId>; 2],
    /// Bit k set ⇔ VN k has ≥1 prefix at or below this node — i.e. the
    /// node lies in VN k's own trie.
    presence: u64,
}

impl MergedNode {
    const EMPTY: MergedNode = MergedNode {
        children: [None, None],
        presence: 0,
    };

    fn is_leaf(&self) -> bool {
        self.children[0].is_none() && self.children[1].is_none()
    }
}

/// The K-way overlay of uni-bit tries (before leaf pushing), supporting
/// incremental announce/withdraw per virtual network. One routing table
/// is the K = 1 case.
///
/// ```
/// use vr_trie::MergedTrie;
///
/// let mut merged = MergedTrie::new(2).unwrap();
/// let p = "10.0.0.0/8".parse().unwrap();
/// merged.insert(0, p, 7); // VN 0 announces
/// merged.insert(1, p, 9); // VN 1 announces the same prefix, other hop
/// assert_eq!(merged.lookup(0, 0x0A000001), Some(7));
/// assert_eq!(merged.lookup(1, 0x0A000001), Some(9));
/// assert_eq!(merged.lookup(2, 0x0A000001), None); // VN 2 is not hosted
/// assert_eq!(merged.merging_efficiency(), 1.0); // identical structures
/// merged.remove(1, &p);
/// assert_eq!(merged.lookup(1, 0x0A000001), None);
/// ```
#[derive(Debug, Clone)]
pub struct MergedTrie {
    nodes: Vec<MergedNode>,
    /// Per-VN prefix NHI stored at each node (pre leaf pushing), `k`
    /// consecutive entries per node, indexed by VNID.
    nhis: Vec<Option<NextHop>>,
    /// Per-VN count of prefixes in each node's subtree (itself included),
    /// laid out like `nhis`; drives presence maintenance and pruning under
    /// withdrawals.
    subtree: Vec<u32>,
    free: Vec<NodeId>,
    live_nodes: usize,
    k: usize,
    /// Live merged nodes belonging to each VN's trie (presence bit set).
    per_vn_nodes: Vec<usize>,
    /// Live nodes present in *all* K tries (presence == full mask),
    /// maintained incrementally so α reads are O(1) under churn.
    common_nodes: usize,
}

impl MergedTrie {
    /// Creates an empty merged trie for `k` virtual networks.
    ///
    /// # Errors
    /// Rejects arity 0 and arity above [`MAX_MERGE_ARITY`].
    pub fn new(k: usize) -> Result<Self, TrieError> {
        if k == 0 || k > MAX_MERGE_ARITY {
            return Err(TrieError::BadMergeArity(k));
        }
        Ok(Self {
            nodes: vec![MergedNode::EMPTY],
            nhis: vec![None; k],
            subtree: vec![0; k],
            free: Vec::new(),
            live_nodes: 1,
            k,
            per_vn_nodes: vec![0; k],
            common_nodes: 0,
        })
    }

    /// Builds the merged trie from routing tables (VNID = index); one
    /// table builds the single-table trie.
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tables(tables: &[RoutingTable]) -> Result<Self, TrieError> {
        let mut merged = Self::new(tables.len())?;
        // Merging overlays the K tries, so the node count is bounded by the
        // largest member plus the unshared tails of the others; reserve for
        // a typical ~3-nodes-per-prefix fill of the biggest table to avoid
        // repeated arena reallocation during the bulk build.
        let largest = tables.iter().map(RoutingTable::len).max().unwrap_or(0);
        let nodes = largest.saturating_mul(3) + 1;
        merged.nodes.reserve(nodes);
        merged.nhis.reserve(nodes * merged.k);
        merged.subtree.reserve(nodes * merged.k);
        for (vnid, table) in tables.iter().enumerate() {
            for entry in table.iter() {
                merged.insert(vnid, entry.prefix, entry.next_hop);
            }
        }
        Ok(merged)
    }

    /// Number of virtual networks merged.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Total live merged node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Live merged nodes belonging to VN `vnid`'s trie.
    #[must_use]
    pub fn vn_node_count(&self, vnid: usize) -> usize {
        self.per_vn_nodes[vnid]
    }

    /// Node `id`'s `k` entries in the per-VN slabs.
    #[inline]
    fn row(&self, id: NodeId) -> Range<usize> {
        id.idx() * self.k..(id.idx() + 1) * self.k
    }

    /// Announces (or replaces) a route for virtual network `vnid`.
    /// Returns the previous next hop, if the prefix was already present.
    ///
    /// # Panics
    /// Panics if `vnid ≥ arity`.
    pub fn insert(&mut self, vnid: usize, prefix: Ipv4Prefix, next_hop: NextHop) -> Option<NextHop> {
        assert!(vnid < self.k, "vnid out of range");
        // Walk/create the path: the root, then one node per prefix bit.
        let mut path = [NodeId::ROOT; 33];
        let mut cur = NodeId::ROOT;
        for (depth, bit) in prefix.bits().enumerate() {
            let slot = usize::from(bit);
            cur = match self.nodes[cur.idx()].children[slot] {
                Some(child) => child,
                None => {
                    let child = self.alloc();
                    self.nodes[cur.idx()].children[slot] = Some(child);
                    child
                }
            };
            path[depth + 1] = cur;
        }
        let prev = self.nhis[cur.idx() * self.k + vnid].replace(next_hop);
        if prev.is_none() {
            let bit = 1u64 << vnid;
            let full = full_mask(self.k);
            for id in &path[..=usize::from(prefix.len())] {
                self.subtree[id.idx() * self.k + vnid] += 1;
                let node = &mut self.nodes[id.idx()];
                if node.presence & bit == 0 {
                    node.presence |= bit;
                    self.per_vn_nodes[vnid] += 1;
                    if node.presence == full {
                        self.common_nodes += 1;
                    }
                }
            }
        }
        prev
    }

    /// Withdraws a route for virtual network `vnid`, pruning merged nodes
    /// no VN uses anymore. Returns the removed next hop, if present.
    ///
    /// # Panics
    /// Panics if `vnid ≥ arity`.
    pub fn remove(&mut self, vnid: usize, prefix: &Ipv4Prefix) -> Option<NextHop> {
        assert!(vnid < self.k, "vnid out of range");
        let mut path = [NodeId::ROOT; 33];
        let mut cur = NodeId::ROOT;
        for (depth, bit) in prefix.bits().enumerate() {
            cur = self.nodes[cur.idx()].children[usize::from(bit)]?;
            path[depth + 1] = cur;
        }
        let removed = self.nhis[cur.idx() * self.k + vnid].take()?;
        let bit = 1u64 << vnid;
        let full = full_mask(self.k);
        let len = usize::from(prefix.len());
        for id in &path[..=len] {
            let count = &mut self.subtree[id.idx() * self.k + vnid];
            *count -= 1;
            let node = &mut self.nodes[id.idx()];
            if *count == 0 && node.presence & bit != 0 {
                if node.presence == full {
                    self.common_nodes -= 1;
                }
                node.presence &= !bit;
                self.per_vn_nodes[vnid] -= 1;
            }
        }
        // Prune orphaned nodes bottom-up (never the root). A node with
        // zero presence has no prefixes in its subtree for any VN, hence
        // no live descendants and no NHI entries either.
        for depth in (1..=len).rev() {
            let id = path[depth];
            let node = &self.nodes[id.idx()];
            if node.presence != 0 || !node.is_leaf() {
                break;
            }
            let parent = &mut self.nodes[path[depth - 1].idx()];
            parent.children[usize::from(parent.children[1] == Some(id))] = None;
            self.free.push(id);
            self.live_nodes -= 1;
        }
        Some(removed)
    }

    fn alloc(&mut self) -> NodeId {
        self.live_nodes += 1;
        if let Some(id) = self.free.pop() {
            // Its slab rows are clear already: a node is freed only once
            // no VN has a prefix at or below it.
            self.nodes[id.idx()] = MergedNode::EMPTY;
            id
        } else {
            let id =
                NodeId(u32::try_from(self.nodes.len()).expect("merged trie exceeds u32 nodes"));
            self.nodes.push(MergedNode::EMPTY);
            self.nhis.resize(self.nhis.len() + self.k, None);
            self.subtree.resize(self.subtree.len() + self.k, 0);
            id
        }
    }

    /// Iterates the live nodes with their depths (root first,
    /// depth-first, children in bit order).
    fn walk(&self) -> impl Iterator<Item = (NodeId, u8)> + '_ {
        let mut stack = vec![(NodeId::ROOT, 0u8)];
        std::iter::from_fn(move || {
            let (id, depth) = stack.pop()?;
            // Push right then left so left is visited first.
            let [left, right] = self.nodes[id.idx()].children;
            stack.extend(right.into_iter().chain(left).map(|c| (c, depth + 1)));
            Some((id, depth))
        })
    }

    /// Nodes present in *all* K constituent tries. O(1): the count is
    /// maintained incrementally by [`MergedTrie::insert`] /
    /// [`MergedTrie::remove`], so α can be sampled after every update
    /// batch without re-walking the arena.
    #[must_use]
    pub fn common_node_count(&self) -> usize {
        self.common_nodes
    }

    /// Nodes present in at least two constituent tries.
    #[must_use]
    pub fn shared_node_count(&self) -> usize {
        self.walk()
            .filter(|(id, _)| self.nodes[id.idx()].presence.count_ones() >= 2)
            .count()
    }

    /// Measured merging efficiency α ∈ [0, 1]: nodes common to all K tries
    /// over the mean per-trie node count. 1.0 for identical tries.
    #[must_use]
    pub fn merging_efficiency(&self) -> f64 {
        efficiency(&self.per_vn_nodes, self.common_nodes)
    }

    /// Laxer overlap metric: nodes shared by ≥2 tries over merged total.
    #[must_use]
    pub fn overlap_ratio(&self) -> f64 {
        if self.live_nodes == 0 {
            return 0.0;
        }
        self.shared_node_count() as f64 / self.live_nodes as f64
    }

    /// Node-count saving vs. keeping the K tries separate:
    /// `1 − merged / Σ per-trie`.
    #[must_use]
    pub fn node_saving(&self) -> f64 {
        let total: usize = self.per_vn_nodes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.node_count() as f64 / total as f64
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`; `None`
    /// for a VN the trie does not host, in every build profile.
    ///
    /// Walks the merged structure but only honours NHI entries belonging to
    /// `vnid` — a software rendition of the VNID-indexed lookup (§IV-C).
    #[must_use]
    pub fn lookup(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        // Load-bearing in release: past `k`, the slab index below lands
        // in the next node's entries instead of failing.
        if vnid >= self.k {
            return None;
        }
        let mut cur = 0usize;
        let mut best = self.nhis[vnid];
        for depth in 0..32u8 {
            let bit = ((ip >> (31 - depth)) & 1) as usize;
            match self.nodes[cur].children[bit] {
                Some(child) => {
                    cur = child.idx();
                    if let Some(nh) = self.nhis[cur * self.k + vnid] {
                        best = Some(nh);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Applies leaf pushing, producing the structure the pipeline stores:
    /// a full binary trie whose leaves hold K-wide NHI vectors.
    #[must_use]
    pub fn leaf_pushed(&self) -> LeafPushedTrie {
        LeafPushedTrie::from_merged(self)
    }

    /// Per-level statistics of the live trie (a prefix node stores an
    /// entry for at least one VN).
    #[must_use]
    pub fn stats(&self) -> TrieStats {
        let mut stats = TrieStats::default();
        for (id, depth) in self.walk() {
            let routed = self.node_nhis(id).iter().any(Option::is_some);
            stats.record(depth, self.nodes[id.idx()].is_leaf(), routed);
        }
        stats
    }

    /// Everything a sweep over K prices, read off this arity-K trie in one
    /// walk that builds no other trie: for each k in `1..=K` the
    /// `leaf_pushed().stats()` and `merging_efficiency()` of
    /// `from_tables(&tables[..k])`, and each VN's own `leaf_pushed().stats()`.
    ///
    /// A node is in the trie over VNs `0..k` once k passes its lowest
    /// presence bit (the root at every k), internal once k passes its
    /// children's lowest, and leaves a synthetic leaf one level down until
    /// k passes both children's. A leaf is routed once k passes the lowest
    /// VN with an entry on its root path (a synthetic leaf's ends at its
    /// parent). Each such span of k goes into a difference array.
    #[must_use]
    pub fn sweep_stats(&self) -> SweepStats {
        let k = self.k;
        // Rows of `Counts`, one per level: for each k in `0..=K + 1` a
        // difference array over k, and per VN its trie's, with a spare
        // level under the deepest.
        let mut by_k = vec![[0; 3]; (k + 2) * LEVELS];
        let mut per_vn = vec![[0; 3]; k * (LEVELS + 1)];
        // Nodes by how many of VNs 0, 1, … in a row their tries share.
        let mut ones = vec![0; k + 1];
        // k > from(mask) ⇔ a VN of `mask` is below k.
        let from = |mask: u64| (mask.trailing_zeros() as usize).min(k);
        let presence = |child: Option<NodeId>| child.map_or(0, |c| self.nodes[c.idx()].presence);
        let mut stack = vec![(NodeId::ROOT, 0usize, 0u64)];
        while let Some((id, depth, above)) = stack.pop() {
            let node = &self.nodes[id.idx()];
            // VNs with an entry on the root path, this node included.
            let mut routed = above;
            for (vn, nh) in self.node_nhis(id).iter().enumerate() {
                routed |= u64::from(nh.is_some()) << vn;
            }
            // The root is in every VN's trie, announced or not.
            let present = node.presence | if depth == 0 { full_mask(k) } else { 0 };
            let kids = node.children.map(presence);
            let (inner, lone) = (kids[0] | kids[1], kids[0] ^ kids[1]);
            let (k_in, k_inner, k_routed) = (from(present), from(inner), from(routed));
            let k_both = from(kids[0]).max(from(kids[1]));
            span(&mut by_k, depth, LEAF, k_in, k_inner);
            span(&mut by_k, depth, ROUTED, k_in.max(k_routed), k_inner);
            span(&mut by_k, depth, INNER, k_inner, k);
            span(&mut by_k, depth + 1, LEAF, k_inner, k_both);
            span(&mut by_k, depth + 1, ROUTED, k_inner.max(k_routed), k_both);
            ones[(node.presence.trailing_ones() as usize).min(k)] += 1;
            let leaf = present & !inner;
            let masks = [inner, leaf, leaf & routed, lone, lone & routed];
            let mut vns = present;
            while vns != 0 {
                let vn = vns.trailing_zeros() as usize;
                vns &= vns - 1;
                let [inner, leaf, routed_leaf, lone, routed_lone] =
                    masks.map(|mask| isize::from(mask >> vn & 1 == 1));
                let levels = &mut per_vn[vn * (LEVELS + 1) + depth..];
                levels[0][INNER] += inner;
                levels[0][LEAF] += leaf;
                levels[0][ROUTED] += routed_leaf;
                levels[1][LEAF] += lone;
                levels[1][ROUTED] += routed_lone;
            }
            for child in node.children.into_iter().flatten() {
                stack.push((child, depth + 1, routed));
            }
        }
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
            alpha: (1..=k)
                .map(|k| efficiency(&self.per_vn_nodes[..k], ones[k..].iter().sum()))
                .collect(),
            per_vn: per_vn.chunks(LEVELS + 1).map(stats).collect(),
        }
    }

    /// Internal-consistency check used by property tests: reachability,
    /// depth, counters and presence/subtree invariants all agree.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut reachable = 0usize;
        let mut per_vn = vec![0usize; self.k];
        let mut prefix_totals = vec![0u64; self.k];
        let mut common = 0usize;
        let full = full_mask(self.k);
        for (id, depth) in self.walk() {
            if depth > 32 {
                return false;
            }
            reachable += 1;
            let node = &self.nodes[id.idx()];
            if node.presence == full {
                common += 1;
            }
            let row = self.row(id);
            let entries = self.nhis[row.clone()].iter().zip(&self.subtree[row]);
            for (vn, (nhi, &count)) in entries.enumerate() {
                let bit_set = node.presence & (1u64 << vn) != 0;
                if bit_set != (count > 0) {
                    return false;
                }
                if bit_set {
                    per_vn[vn] += 1;
                }
                if nhi.is_some() {
                    prefix_totals[vn] += 1;
                }
            }
            // A live non-root node must serve someone.
            if id != NodeId::ROOT && node.presence == 0 && node.is_leaf() {
                return false;
            }
        }
        // Root subtree counters must equal total prefixes per VN.
        let root = &self.subtree[self.row(NodeId::ROOT)];
        root.iter().map(|&count| u64::from(count)).eq(prefix_totals)
            && reachable == self.live_nodes
            && per_vn == self.per_vn_nodes
            && common == self.common_nodes
            && self.live_nodes + self.free.len() == self.nodes.len()
            && self.nhis.len() == self.nodes.len() * self.k
            && self.subtree.len() == self.nodes.len() * self.k
    }

    /// Child of node `id` along branch `bit` (0 = left, 1 = right).
    ///
    /// Exposes the merged structure read-only so leaf pushing and the
    /// sub-slab builder ([`crate::subslab::JumpSlabs`]) can descend
    /// without cloning.
    ///
    /// # Panics
    /// Panics if `bit > 1` or `id` is not a live node id.
    #[must_use]
    pub fn node_child(&self, id: NodeId, bit: usize) -> Option<NodeId> {
        self.nodes[id.idx()].children[bit]
    }

    /// Per-VN next-hop entries stored at node `id` (pre leaf pushing),
    /// indexed by VNID.
    ///
    /// # Panics
    /// Panics if `id` is not a live node id.
    #[must_use]
    pub fn node_nhis(&self, id: NodeId) -> &[Option<NextHop>] {
        &self.nhis[self.row(id)]
    }
}

/// α over per-VN node counts `per_vn` and `common` nodes, in the one
/// expression order every reader shares, so equal counts give equal bits.
fn efficiency(per_vn: &[usize], common: usize) -> f64 {
    let mean: f64 = per_vn.iter().sum::<usize>() as f64 / per_vn.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    (common as f64 / mean).min(1.0)
}

/// Trie levels: the root's, then one per prefix bit.
const LEVELS: usize = 33;

/// Per-level counts a sweep accumulates, indexed by the constants below.
type Counts = [isize; 3];
const LEAF: usize = 0;
const INNER: usize = 1;
/// Leaves with a route for some VN.
const ROUTED: usize = 2;

/// Counts one node at `level` in the difference array `by_k` for every k
/// in `lo + 1..=hi`.
fn span(by_k: &mut [Counts], level: usize, count: usize, lo: usize, hi: usize) {
    if lo < hi {
        by_k[(lo + 1) * LEVELS + level][count] += 1;
        by_k[(hi + 1) * LEVELS + level][count] -= 1;
    }
}

fn full_mask(k: usize) -> u64 {
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl crate::LookupBackend for MergedTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        self.lookup(vn, ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vr_net::synth::{FamilySpec, TableSpec};

    fn family(k: usize, shared: f64, seed: u64) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: 400,
            shared_fraction: shared,
            seed,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap()
    }

    /// One table's trie: K = 1.
    fn single(table: &RoutingTable) -> MergedTrie {
        MergedTrie::from_tables(std::slice::from_ref(table)).unwrap()
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn arity_bounds_are_enforced() {
        assert!(matches!(
            MergedTrie::from_tables(&[]),
            Err(TrieError::BadMergeArity(0))
        ));
        let too_many = vec![RoutingTable::new(); 65];
        assert!(matches!(
            MergedTrie::from_tables(&too_many),
            Err(TrieError::BadMergeArity(65))
        ));
    }

    /// K identical tables overlay into the single table's K = 1 trie,
    /// before and after leaf pushing.
    #[test]
    fn merging_identical_tables_is_free() {
        let t = TableSpec::paper_worst_case(4).generate().unwrap();
        let single = single(&t);
        let merged = MergedTrie::from_tables(&[t.clone(), t.clone(), t]).unwrap();
        assert_eq!(merged.node_count(), single.node_count());
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
        assert!((merged.node_saving() - 2.0 / 3.0).abs() < 1e-9);
        let (pushed, plain) = (merged.leaf_pushed(), single.leaf_pushed());
        assert_eq!(pushed.node_count(), plain.node_count());
        assert_eq!(pushed.leaf_count(), plain.leaf_count());
    }

    /// Leaf pushing a K = 1 trie is plain leaf pushing: the pointer trie's
    /// internal nodes stay, level by level, and new leaves complete them
    /// into a full binary trie.
    #[test]
    fn single_table_merge_equals_plain_leaf_pushing() {
        let merged = single(&TableSpec::paper_worst_case(8).generate().unwrap());
        let (plain, pushed) = (merged.stats(), merged.leaf_pushed().stats());
        assert_eq!(pushed.levels.len(), plain.levels.len());
        for (p, q) in pushed.levels.iter().zip(&plain.levels) {
            assert_eq!(p.internal, q.internal);
        }
        assert_eq!(pushed.leaves, pushed.internal + 1);
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merging_disjoint_tables_has_low_alpha() {
        let tables = family(4, 0.0, 9);
        let merged = MergedTrie::from_tables(&tables).unwrap();
        // Only top-of-trie nodes coincide by chance.
        assert!(merged.merging_efficiency() < 0.35);
        assert!(merged.node_saving() < 0.45);
    }

    #[test]
    fn alpha_increases_with_shared_fraction() {
        let lo = MergedTrie::from_tables(&family(4, 0.1, 7)).unwrap();
        let hi = MergedTrie::from_tables(&family(4, 0.9, 7)).unwrap();
        assert!(
            hi.merging_efficiency() > lo.merging_efficiency() + 0.2,
            "alpha lo={} hi={}",
            lo.merging_efficiency(),
            hi.merging_efficiency()
        );
    }

    #[test]
    fn merged_lookup_matches_per_table_lookup() {
        let tables = family(3, 0.5, 21);
        let merged = MergedTrie::from_tables(&tables).unwrap();
        for (vnid, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(100) {
                let probe = prefix.addr() | 1;
                assert_eq!(
                    merged.lookup(vnid, probe),
                    table.lookup(probe),
                    "vn {vnid} probe {probe:#010x}"
                );
            }
        }
    }

    #[test]
    fn leaf_pushed_merged_lookup_matches_per_table_lookup() {
        let tables = family(3, 0.5, 22);
        let pushed = MergedTrie::from_tables(&tables).unwrap().leaf_pushed();
        assert!(pushed.is_full());
        for (vnid, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(100) {
                let probe = prefix.addr().wrapping_add(2);
                assert_eq!(
                    pushed.lookup_vn(vnid, probe),
                    table.lookup(probe),
                    "vn {vnid} probe {probe:#010x}"
                );
            }
        }
    }

    #[test]
    fn nhi_entries_scale_with_arity() {
        let tables = family(5, 0.8, 3);
        let pushed = MergedTrie::from_tables(&tables).unwrap().leaf_pushed();
        assert_eq!(pushed.arity(), 5);
        assert_eq!(pushed.nhi_entries(), pushed.leaf_count() * 5);
    }

    #[test]
    fn merged_node_count_between_max_and_sum() {
        let tables = family(4, 0.5, 31);
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let counts: Vec<usize> = tables.iter().map(|t| single(t).node_count()).collect();
        let max = *counts.iter().max().unwrap();
        let sum: usize = counts.iter().sum();
        assert!(merged.node_count() >= max);
        assert!(merged.node_count() <= sum);
    }

    #[test]
    fn overlap_ratio_is_bounded() {
        let merged = MergedTrie::from_tables(&family(3, 0.4, 2)).unwrap();
        let r = merged.overlap_ratio();
        assert!((0.0..=1.0).contains(&r));
        assert!(merged.shared_node_count() >= merged.common_node_count());
    }

    #[test]
    fn incremental_insert_then_remove_restores_structure() {
        let tables = family(3, 0.5, 41);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        assert!(merged.check_invariants());
        let nodes_before = merged.node_count();
        let vn_counts_before: Vec<usize> = (0..3).map(|v| merged.vn_node_count(v)).collect();

        let p: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
        assert_eq!(merged.insert(1, p, 7), None);
        assert!(merged.check_invariants());
        assert_eq!(merged.lookup(1, 0xCB00_7105), Some(7));
        assert!(merged.node_count() > nodes_before);

        assert_eq!(merged.remove(1, &p), Some(7));
        assert!(merged.check_invariants());
        assert_eq!(merged.node_count(), nodes_before);
        let vn_counts_after: Vec<usize> = (0..3).map(|v| merged.vn_node_count(v)).collect();
        assert_eq!(vn_counts_before, vn_counts_after);
    }

    #[test]
    fn withdrawing_one_vn_keeps_shared_paths_for_others() {
        let t = TableSpec::paper_worst_case(43).generate().unwrap();
        // Two identical tables; withdraw every route of VN 1.
        let mut merged = MergedTrie::from_tables(&[t.clone(), t.clone()]).unwrap();
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
        let nodes = merged.node_count();
        for prefix in t.prefixes() {
            assert!(merged.remove(1, &prefix).is_some());
        }
        assert!(merged.check_invariants());
        // Shared paths survive (VN 0 still uses every node), so the node
        // count is unchanged — the whole point of merging.
        assert_eq!(merged.node_count(), nodes);
        assert_eq!(merged.vn_node_count(1), 0);
        // VN 0 still forwards; VN 1 resolves nothing.
        let probe = t.prefixes().nth(10).unwrap().addr() | 1;
        assert_eq!(merged.lookup(0, probe), t.lookup(probe));
        assert_eq!(merged.lookup(1, probe), None);
        // α collapses: mean per-VN nodes halved, common nodes zero.
        assert_eq!(merged.common_node_count(), 0);
    }

    #[test]
    fn churn_preserves_oracle_equivalence() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut tables = family(3, 0.5, 44);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        // Apply 300 random announce/withdraw operations, mirroring them
        // into the reference tables.
        for _ in 0..300 {
            let vn = rng.gen_range(0..3usize);
            if rng.gen_bool(0.5) {
                let prefix = Ipv4Prefix::must(rng.gen(), rng.gen_range(8..=28));
                let nh = rng.gen_range(0..16u8);
                merged.insert(vn, prefix, nh);
                tables[vn].insert(prefix, nh);
            } else {
                let idx = rng.gen_range(0..tables[vn].len());
                let prefix = tables[vn].prefixes().nth(idx);
                if let Some(prefix) = prefix {
                    assert_eq!(merged.remove(vn, &prefix), tables[vn].remove(&prefix));
                }
            }
        }
        assert!(merged.check_invariants());
        for (vn, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(60) {
                let probe = prefix.addr() | 3;
                assert_eq!(merged.lookup(vn, probe), table.lookup(probe), "vn {vn}");
            }
        }
        // The leaf-pushed view built after churn is equally correct.
        let pushed = merged.leaf_pushed();
        for (vn, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(60) {
                let probe = prefix.addr().wrapping_add(9);
                assert_eq!(pushed.lookup_vn(vn, probe), table.lookup(probe), "vn {vn}");
            }
        }
    }

    #[test]
    fn common_node_counter_matches_walk_under_churn() {
        let mut merged = MergedTrie::from_tables(&family(3, 0.7, 51)).unwrap();
        let p: Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
        // Counter transitions both ways: last VN arriving at a node makes
        // it common; first VN leaving makes it non-common again.
        let before = merged.common_node_count();
        merged.insert(0, p, 1);
        merged.insert(1, p, 2);
        assert!(merged.check_invariants());
        merged.insert(2, p, 3);
        assert!(merged.check_invariants());
        assert!(merged.common_node_count() > before);
        merged.remove(2, &p);
        assert!(merged.check_invariants());
        merged.remove(1, &p);
        merged.remove(0, &p);
        assert!(merged.check_invariants());
        assert_eq!(merged.common_node_count(), before);
    }

    #[test]
    fn remove_missing_is_noop() {
        let tables = family(2, 0.5, 45);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let nodes = merged.node_count();
        let absent: Ipv4Prefix = "198.51.100.0/31".parse().unwrap();
        assert_eq!(merged.remove(0, &absent), None);
        assert_eq!(merged.node_count(), nodes);
        assert!(merged.check_invariants());
    }

    #[test]
    fn freed_merged_nodes_are_reused() {
        let mut merged = MergedTrie::new(2).unwrap();
        let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        merged.insert(0, p, 1);
        let arena = merged.nodes.len();
        merged.remove(0, &p);
        merged.insert(1, "172.16.0.0/12".parse().unwrap(), 2);
        assert!(merged.nodes.len() <= arena, "free list must be reused");
        assert!(merged.check_invariants());
    }

    #[test]
    fn default_route_at_root() {
        let mut t = MergedTrie::new(1).unwrap();
        t.insert(0, Ipv4Prefix::DEFAULT_ROUTE, 7);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.lookup(0, 0xDEAD_BEEF), Some(7));
        assert!(t.check_invariants());
    }

    #[test]
    fn remove_prunes_chains() {
        let mut t = MergedTrie::new(1).unwrap();
        t.insert(0, p("10.1.2.0/24"), 1);
        assert_eq!(t.node_count(), 25);
        assert_eq!(t.remove(0, &p("10.1.2.0/24")), Some(1));
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.vn_node_count(0), 0);
        assert!(t.check_invariants());
        // Only the /8 → /16 tail goes when a /16 under a /8 is withdrawn.
        t.insert(0, p("10.0.0.0/8"), 1);
        t.insert(0, p("10.1.0.0/16"), 2);
        let n = t.node_count();
        t.remove(0, &p("10.1.0.0/16"));
        assert_eq!(t.node_count(), n - 8);
        assert_eq!(t.lookup(0, 0x0A01_0000), Some(1));
        assert!(t.check_invariants());
    }

    #[test]
    fn remove_inner_prefix_keeps_descendants() {
        let mut t = MergedTrie::new(1).unwrap();
        t.insert(0, p("10.0.0.0/8"), 1);
        t.insert(0, p("10.1.0.0/16"), 2);
        let n = t.node_count();
        assert_eq!(t.remove(0, &p("10.0.0.0/8")), Some(1));
        assert_eq!(t.node_count(), n); // nothing prunable
        assert_eq!(t.lookup(0, 0x0A01_0000), Some(2));
        assert_eq!(t.lookup(0, 0x0A02_0000), None);
        assert!(t.check_invariants());
    }

    #[test]
    fn stats_count_levels() {
        let mut t = MergedTrie::new(1).unwrap();
        t.insert(0, p("128.0.0.0/1"), 1);
        t.insert(0, p("0.0.0.0/1"), 2);
        let s = t.stats();
        assert_eq!(s.total_nodes, 3);
        assert_eq!(s.nodes_at_level(0), 1);
        assert_eq!(s.nodes_at_level(1), 2);
        assert_eq!(s.leaves, 2);
        assert_eq!(s.prefix_nodes, 2);
        assert!(s.check_invariants());
    }

    #[test]
    fn paper_scale_trie_node_counts_are_in_regime() {
        // §V-E: 3725 prefixes -> 9726 trie nodes (no leaf pushing). The
        // synthetic generator must land in the same order of magnitude.
        let table = TableSpec::paper_worst_case(2012).generate().unwrap();
        let nodes = single(&table).node_count();
        assert!(
            (6_000..=40_000).contains(&nodes),
            "node count {nodes} out of the paper's regime"
        );
    }

    /// Strategy: 1–7 tables drawing routes (/0 to /32) from one pool of up
    /// to 40, so they overlap; about one table in five is empty.
    fn arb_family() -> impl Strategy<Value = Vec<RoutingTable>> {
        let mask = (0u8..5, any::<u64>()).prop_map(|(pick, mask)| if pick == 0 { 0 } else { mask });
        let route = (any::<u32>(), 0u8..=32, any::<NextHop>())
            .prop_map(|(addr, len, nh)| vr_net::RouteEntry::new(Ipv4Prefix::must(addr, len), nh));
        let pool = prop::collection::vec(route, 0..40);
        (pool, prop::collection::vec(mask, 1..=7)).prop_map(|(pool, masks)| {
            let picked = |mask: u64| (0..pool.len()).filter(move |i| mask >> i & 1 == 1);
            let table = |mask| RoutingTable::from_entries(picked(mask).map(|i| pool[i]));
            masks.into_iter().map(table).collect()
        })
    }

    /// `merged.sweep_stats()` is what building and leaf-pushing the trie
    /// over `tables[..k]` at every k, and each VN's own, gives.
    fn assert_sweep_exact(merged: &MergedTrie, tables: &[RoutingTable]) {
        let sweep = merged.sweep_stats();
        let lens = [sweep.by_prefix.len(), sweep.alpha.len(), sweep.per_vn.len()];
        assert_eq!(lens, [tables.len(); 3]);
        for k in 1..=tables.len() {
            let fresh = MergedTrie::from_tables(&tables[..k]).unwrap();
            let pushed = fresh.leaf_pushed().stats();
            assert_eq!(sweep.by_prefix[k - 1], pushed, "k = {k}");
            let alpha = fresh.merging_efficiency().to_bits();
            assert_eq!(sweep.alpha[k - 1].to_bits(), alpha, "k = {k}");
        }
        for (vn, table) in tables.iter().enumerate() {
            let pushed = single(table).leaf_pushed().stats();
            assert_eq!(sweep.per_vn[vn], pushed, "vn {vn}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One walk reads off exactly the tries a K sweep prices, before
        /// and after churn prunes nodes and reuses their free-list slots.
        #[test]
        fn sweep_stats_equal_built_and_pushed_tries(
            tables in arb_family(),
            churn in prop::collection::vec((any::<usize>(), any::<u32>(), 0u8..=32, any::<NextHop>()), 24),
        ) {
            let mut merged = MergedTrie::from_tables(&tables).unwrap();
            assert_sweep_exact(&merged, &tables);
            let mut tables = tables;
            for (pick, addr, len, nh) in churn {
                let vn = pick % tables.len();
                let victim = tables[vn].prefixes().nth(pick % tables[vn].len().max(1));
                if let Some(prefix) = victim {
                    prop_assert_eq!(merged.remove(vn, &prefix), tables[vn].remove(&prefix));
                }
                let prefix = Ipv4Prefix::must(addr, len);
                prop_assert_eq!(merged.insert(vn, prefix, nh), tables[vn].insert(prefix, nh));
            }
            prop_assert!(merged.check_invariants());
            assert_sweep_exact(&merged, &tables);
        }
    }

    /// At K = 64 a node in every VN's trie has all 64 presence bits set.
    #[test]
    fn sweep_stats_are_exact_at_the_arity_limit() {
        let base: Vec<_> = family(1, 1.0, 61)[0].iter().take(30).collect();
        let own = |vn| vr_net::RouteEntry::new(Ipv4Prefix::must(vn << 26, 6 + vn as u8 % 20), 1);
        let table = |vn| RoutingTable::from_entries(base.iter().copied().chain([own(vn)]));
        let tables: Vec<_> = (0..MAX_MERGE_ARITY as u32).map(table).collect();
        let merged = MergedTrie::from_tables(&tables).unwrap();
        assert!(merged.common_node_count() > 0);
        assert_sweep_exact(&merged, &tables);
    }

    /// Slots freed by a withdrawal and taken again by a later announcement
    /// carry no stale presence bits into the walk.
    #[test]
    fn sweep_stats_are_exact_over_recycled_slots() {
        let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        let q: Ipv4Prefix = "172.16.0.0/24".parse().unwrap();
        let mut tables = vec![RoutingTable::new(), RoutingTable::new()];
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        merged.insert(0, p, 1);
        merged.remove(0, &p);
        assert!(!merged.free.is_empty());
        merged.insert(1, q, 2);
        tables[1].insert(q, 2);
        assert!(merged.free.is_empty());
        assert!(merged.check_invariants());
        assert_sweep_exact(&merged, &tables);
    }

    /// Over an empty VN 0 the trie is the root alone, a routeless leaf.
    #[test]
    fn sweep_stats_start_from_an_empty_first_vn() {
        let mut tables = family(2, 0.5, 62);
        tables.insert(0, RoutingTable::new());
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let sweep = merged.sweep_stats();
        let root = single(&tables[0]).leaf_pushed().stats();
        assert_eq!((root.total_nodes, root.prefix_nodes), (1, 0));
        assert_eq!([&sweep.by_prefix[0], &sweep.per_vn[0]], [&root; 2]);
        assert_eq!(sweep.alpha[0], 0.0);
        assert_sweep_exact(&merged, &tables);
    }

    #[test]
    fn stats_of_leaf_pushed_merged_are_consistent() {
        let pushed = MergedTrie::from_tables(&family(3, 0.6, 13)).unwrap().leaf_pushed();
        let s = pushed.stats();
        assert_eq!(s.total_nodes, pushed.node_count());
        assert_eq!(s.leaves, pushed.leaf_count());
        assert!(s.check_invariants());
    }
}
