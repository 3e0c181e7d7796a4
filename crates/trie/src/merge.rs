//! K-way trie merging for the virtualized-merged scheme (§IV-C, §V-D).
//!
//! The merged scheme overlays the K virtual networks' tries into one: a
//! merged node exists wherever *any* constituent trie has a node, and a
//! merged leaf stores a K-wide NHI vector indexed by VNID. Structural
//! similarity between tries means merged size ≪ sum of sizes; the paper
//! quantifies this with the **merging efficiency** α (Assumption 4:
//! common nodes / total nodes).
//!
//! We measure α on the built structure as
//! `common nodes (present in all K tries) / mean per-trie node count`,
//! which is 1.0 for identical tries and →0 for structurally disjoint ones,
//! and coincides with the paper's common/total reading for equal-size
//! tables. [`MergedTrie::overlap_ratio`] additionally reports the laxer
//! `shared (≥2 tries) / merged total` metric for comparison.
//!
//! The merged trie is fully **incremental** (the authors' follow-up work,
//! paper ref. \[6\], adds on-the-fly updates to virtualized routers):
//! [`MergedTrie::insert`] and [`MergedTrie::remove`] announce/withdraw one
//! virtual network's route, maintaining per-VN subtree accounting so
//! presence masks, per-VN node counts and pruning stay exact under churn.
//! It also grows: [`MergedTrie::add_vn`] widens a built arity-K trie to
//! K + 1, so a sweep over K announces each table of a family once into one
//! trie (K tables for K merged engines) instead of re-merging tables
//! `0..K` from scratch at every K (K(K+1)/2 tables).
//!
//! This module holds the overlay only. The structure the pipeline stores
//! is its leaf-pushed form, [`MergedTrie::leaf_pushed`] — a
//! [`LeafPushedTrie`] of arity K, the same type (and the same `push`
//! recursion) a single table leaf-pushes into at K = 1.

use crate::leafpush::LeafPushedTrie;
use crate::unibit::{NodeId, UnibitTrie};
use crate::TrieError;
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};

/// Maximum number of tables a merge supports (presence mask is 64-bit; the
/// paper evaluates K ≤ 15, Fig. 4 sweeps to 30).
pub const MAX_MERGE_ARITY: usize = 64;

#[derive(Debug, Clone)]
struct MergedNode {
    children: [Option<NodeId>; 2],
    /// Bit k set ⇔ VN k has ≥1 prefix at or below this node — i.e. the
    /// node lies in VN k's own trie.
    presence: u64,
    /// Per-VN prefix NHI stored at this position (pre leaf pushing).
    nhis: Vec<Option<NextHop>>,
    /// Per-VN count of prefixes in this node's subtree (incl. itself);
    /// drives presence maintenance and pruning under withdrawals.
    subtree_prefixes: Vec<u32>,
}

impl MergedNode {
    fn empty(k: usize) -> Self {
        Self {
            children: [None, None],
            presence: 0,
            nhis: vec![None; k],
            subtree_prefixes: vec![0; k],
        }
    }

    fn is_leaf(&self) -> bool {
        self.children[0].is_none() && self.children[1].is_none()
    }
}

/// The K-way overlay of uni-bit tries (before leaf pushing), supporting
/// incremental announce/withdraw per virtual network.
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
/// assert_eq!(merged.merging_efficiency(), 1.0); // identical structures
/// merged.remove(1, &p);
/// assert_eq!(merged.lookup(1, 0x0A000001), None);
/// ```
#[derive(Debug, Clone)]
pub struct MergedTrie {
    nodes: Vec<MergedNode>,
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
            nodes: vec![MergedNode::empty(k)],
            free: Vec::new(),
            live_nodes: 1,
            k,
            per_vn_nodes: vec![0; k],
            common_nodes: 0,
        })
    }

    /// Merges `tries` (one per virtual network, VNID = index) by
    /// re-announcing every stored route.
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tries(tries: &[UnibitTrie]) -> Result<Self, TrieError> {
        let tables: Vec<RoutingTable> = tries.iter().map(UnibitTrie::to_table).collect();
        Self::from_tables(&tables)
    }

    /// Builds the merged trie from routing tables.
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
        merged.nodes.reserve(largest.saturating_mul(3) + 1);
        for (vnid, table) in tables.iter().enumerate() {
            for entry in table.iter() {
                merged.insert(vnid, entry.prefix, entry.next_hop);
            }
        }
        Ok(merged)
    }

    /// Widens the trie by one virtual network and returns its VNID (the
    /// old arity). The new network announces nothing yet, so no node lies
    /// in all K + 1 tries and the common-node count restarts at 0.
    ///
    /// Announcing table K into the widened arity-K trie replays exactly
    /// the insertions [`MergedTrie::from_tables`] makes for
    /// `&tables[..=K]`, so node ids, counters and the leaf-pushed arena
    /// come out identical: a K sweep over one family grows one trie
    /// instead of re-merging tables `0..K` at every K.
    ///
    /// # Errors
    /// [`TrieError::BadMergeArity`] past [`MAX_MERGE_ARITY`]; the trie is
    /// left unchanged.
    pub fn add_vn(&mut self) -> Result<usize, TrieError> {
        if self.k == MAX_MERGE_ARITY {
            return Err(TrieError::BadMergeArity(self.k + 1));
        }
        for node in &mut self.nodes {
            node.nhis.push(None);
            node.subtree_prefixes.push(0);
        }
        self.per_vn_nodes.push(0);
        self.common_nodes = 0;
        self.k += 1;
        Ok(self.k - 1)
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

    /// Announces (or replaces) a route for virtual network `vnid`.
    /// Returns the previous next hop, if the prefix was already present.
    ///
    /// # Panics
    /// Panics if `vnid ≥ arity`.
    pub fn insert(&mut self, vnid: usize, prefix: Ipv4Prefix, next_hop: NextHop) -> Option<NextHop> {
        assert!(vnid < self.k, "vnid out of range");
        // Walk/create the path.
        let mut path = Vec::with_capacity(usize::from(prefix.len()) + 1);
        let mut cur = NodeId::ROOT;
        path.push(cur);
        for bit in prefix.bits() {
            let slot = usize::from(bit);
            cur = match self.nodes[cur.idx()].children[slot] {
                Some(child) => child,
                None => {
                    let child = self.alloc();
                    self.nodes[cur.idx()].children[slot] = Some(child);
                    child
                }
            };
            path.push(cur);
        }
        let prev = self.nodes[cur.idx()].nhis[vnid].replace(next_hop);
        if prev.is_none() {
            let bit = 1u64 << vnid;
            let full = full_mask(self.k);
            for id in path {
                let node = &mut self.nodes[id.idx()];
                node.subtree_prefixes[vnid] += 1;
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
        let mut path = Vec::with_capacity(usize::from(prefix.len()) + 1);
        let mut cur = NodeId::ROOT;
        path.push((cur, 0u8));
        for bit in prefix.bits() {
            let slot = usize::from(bit);
            cur = self.nodes[cur.idx()].children[slot]?;
            path.push((cur, slot as u8));
        }
        let removed = self.nodes[cur.idx()].nhis[vnid].take()?;
        let bit = 1u64 << vnid;
        let full = full_mask(self.k);
        for (id, _) in &path {
            let node = &mut self.nodes[id.idx()];
            node.subtree_prefixes[vnid] -= 1;
            if node.subtree_prefixes[vnid] == 0 && node.presence & bit != 0 {
                if node.presence == full {
                    self.common_nodes -= 1;
                }
                node.presence &= !bit;
                self.per_vn_nodes[vnid] -= 1;
            }
        }
        // Prune orphaned nodes bottom-up (never the root). A node with
        // zero presence has no prefixes in its subtree for any VN, hence
        // no live descendants either.
        while path.len() > 1 {
            let (id, slot) = *path.last().expect("path non-empty");
            let node = &self.nodes[id.idx()];
            if node.presence != 0 || !node.is_leaf() {
                break;
            }
            path.pop();
            let (parent, _) = *path.last().expect("root remains");
            self.nodes[parent.idx()].children[usize::from(slot)] = None;
            self.free.push(id);
            self.live_nodes -= 1;
        }
        Some(removed)
    }

    fn alloc(&mut self) -> NodeId {
        self.live_nodes += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id.idx()] = MergedNode::empty(self.k);
            id
        } else {
            let id =
                NodeId(u32::try_from(self.nodes.len()).expect("merged trie exceeds u32 nodes"));
            self.nodes.push(MergedNode::empty(self.k));
            id
        }
    }

    /// Iterates the live nodes (root first, depth-first).
    fn walk(&self) -> Walk<'_> {
        Walk {
            trie: self,
            stack: vec![NodeId::ROOT],
        }
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
            .filter(|id| self.nodes[id.idx()].presence.count_ones() >= 2)
            .count()
    }

    /// Measured merging efficiency α ∈ [0, 1]: nodes common to all K tries
    /// over the mean per-trie node count. 1.0 for identical tries.
    #[must_use]
    pub fn merging_efficiency(&self) -> f64 {
        let mean: f64 =
            self.per_vn_nodes.iter().sum::<usize>() as f64 / self.per_vn_nodes.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        (self.common_node_count() as f64 / mean).min(1.0)
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

    /// Longest-prefix match for `ip` in virtual network `vnid`.
    ///
    /// Walks the merged structure but only honours NHI entries belonging to
    /// `vnid` — a software rendition of the VNID-indexed lookup (§IV-C).
    #[must_use]
    pub fn lookup(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        debug_assert!(vnid < self.k);
        let mut cur = 0usize;
        let mut best = self.nodes[cur].nhis[vnid];
        for depth in 0..32u8 {
            let bit = ((ip >> (31 - depth)) & 1) as usize;
            match self.nodes[cur].children[bit] {
                Some(child) => {
                    cur = child.idx();
                    if let Some(nh) = self.nodes[cur].nhis[vnid] {
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

    /// Internal-consistency check used by property tests: reachability,
    /// counters and presence/subtree invariants all agree.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut reachable = 0usize;
        let mut per_vn = vec![0usize; self.k];
        let mut prefix_totals = vec![0u64; self.k];
        let mut common = 0usize;
        let full = full_mask(self.k);
        for id in self.walk() {
            reachable += 1;
            let node = &self.nodes[id.idx()];
            if node.presence == full {
                common += 1;
            }
            for vn in 0..self.k {
                let bit_set = node.presence & (1u64 << vn) != 0;
                if bit_set != (node.subtree_prefixes[vn] > 0) {
                    return false;
                }
                if bit_set {
                    per_vn[vn] += 1;
                }
                if node.nhis[vn].is_some() {
                    prefix_totals[vn] += 1;
                }
            }
            // A live non-root node must serve someone.
            if id != NodeId::ROOT && node.presence == 0 && node.is_leaf() {
                return false;
            }
        }
        // Root subtree counters must equal total prefixes per VN.
        let root = &self.nodes[NodeId::ROOT.idx()];
        for (vn, total) in prefix_totals.iter().enumerate() {
            if u64::from(root.subtree_prefixes[vn]) != *total {
                return false;
            }
        }
        reachable == self.live_nodes
            && per_vn == self.per_vn_nodes
            && common == self.common_nodes
            && self.live_nodes + self.free.len() == self.nodes.len()
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
        &self.nodes[id.idx()].nhis
    }
}

struct Walk<'a> {
    trie: &'a MergedTrie,
    stack: Vec<NodeId>,
}

impl Iterator for Walk<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.stack.pop()?;
        let node = &self.trie.nodes[id.idx()];
        if let Some(r) = node.children[1] {
            self.stack.push(r);
        }
        if let Some(l) = node.children[0] {
            self.stack.push(l);
        }
        Some(id)
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

    #[test]
    fn merging_identical_tables_is_free() {
        let t = TableSpec::paper_worst_case(4).generate().unwrap();
        let single = UnibitTrie::from_table(&t);
        let merged = MergedTrie::from_tables(&[t.clone(), t.clone(), t]).unwrap();
        assert_eq!(merged.node_count(), single.node_count());
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
        assert!((merged.node_saving() - 2.0 / 3.0).abs() < 1e-9);
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
    fn single_table_merge_equals_plain_leaf_pushing() {
        let t = TableSpec::paper_worst_case(8).generate().unwrap();
        let merged = MergedTrie::from_tables(std::slice::from_ref(&t)).unwrap();
        let pushed = merged.leaf_pushed();
        let plain = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&t));
        assert_eq!(merged.node_count(), UnibitTrie::from_table(&t).node_count());
        assert_eq!(pushed.node_count(), plain.node_count());
        assert_eq!(pushed.leaf_count(), plain.leaf_count());
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_node_count_between_max_and_sum() {
        let tables = family(4, 0.5, 31);
        let tries: Vec<UnibitTrie> = tables.iter().map(UnibitTrie::from_table).collect();
        let merged = MergedTrie::from_tries(&tries).unwrap();
        let max = tries.iter().map(UnibitTrie::node_count).max().unwrap();
        let sum: usize = tries.iter().map(UnibitTrie::node_count).sum();
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
    fn add_vn_past_the_arity_limit_is_a_typed_error() {
        let mut merged = MergedTrie::new(MAX_MERGE_ARITY - 1).unwrap();
        assert_eq!(merged.add_vn(), Ok(MAX_MERGE_ARITY - 1));
        assert_eq!(merged.arity(), MAX_MERGE_ARITY);
        assert_eq!(
            merged.add_vn(),
            Err(TrieError::BadMergeArity(MAX_MERGE_ARITY + 1))
        );
        assert_eq!(merged.arity(), MAX_MERGE_ARITY);
        assert!(merged.check_invariants());
    }

    #[test]
    fn add_vn_with_a_free_list_keeps_recycled_slots_consistent() {
        let mut merged = MergedTrie::new(1).unwrap();
        let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        let q: Ipv4Prefix = "172.16.0.0/12".parse().unwrap();
        merged.insert(0, p, 1);
        merged.remove(0, &p);
        assert!(!merged.free.is_empty());
        assert_eq!(merged.add_vn(), Ok(1));
        // The new VN's announcement reuses slots freed at arity 1.
        merged.insert(1, q, 2);
        merged.insert(0, q, 3);
        assert!(merged.check_invariants());
        assert_eq!(merged.lookup(1, 0xAC10_0001), Some(2));
        assert_eq!(merged.lookup(0, 0xAC10_0001), Some(3));
        assert_eq!(merged.common_node_count(), merged.node_count());
    }

    /// Strategy: an arbitrary routing table of up to `max` routes.
    fn arb_table(max: usize) -> impl Strategy<Value = RoutingTable> {
        prop::collection::vec((any::<u32>(), 0u8..=32, any::<NextHop>()), 0..max).prop_map(
            |routes| {
                RoutingTable::from_entries(routes.into_iter().map(|(addr, len, nh)| {
                    vr_net::table::RouteEntry::new(Ipv4Prefix::must(addr, len), nh)
                }))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The growth chain is `from_tables(&tables[..k])` at every k, and
        /// the grown trie keeps its accounting under churn on old and new
        /// VNs alike.
        #[test]
        fn grown_trie_equals_from_tables_at_every_k(
            tables in prop::collection::vec(arb_table(40), 1..7),
            probes in prop::collection::vec(any::<u32>(), 16),
            churn in prop::collection::vec((any::<usize>(), any::<u32>(), 0u8..=32, any::<NextHop>()), 24),
        ) {
            let mut grown = MergedTrie::new(1).unwrap();
            for (vn, table) in tables.iter().enumerate() {
                if vn > 0 {
                    prop_assert_eq!(grown.add_vn(), Ok(vn));
                    prop_assert_eq!(grown.common_node_count(), 0);
                    prop_assert!(grown.check_invariants());
                }
                for entry in table.iter() {
                    grown.insert(vn, entry.prefix, entry.next_hop);
                }
                let k = vn + 1;
                let fresh = MergedTrie::from_tables(&tables[..k]).unwrap();
                prop_assert!(grown.check_invariants());
                prop_assert_eq!(grown.arity(), k);
                prop_assert_eq!(grown.node_count(), fresh.node_count());
                for v in 0..k {
                    prop_assert_eq!(grown.vn_node_count(v), fresh.vn_node_count(v));
                }
                prop_assert_eq!(grown.common_node_count(), fresh.common_node_count());
                prop_assert_eq!(
                    grown.merging_efficiency().to_bits(),
                    fresh.merging_efficiency().to_bits()
                );
                let (pushed, expected) = (grown.leaf_pushed(), fresh.leaf_pushed());
                prop_assert_eq!(pushed.stats(), expected.stats());
                prop_assert_eq!(pushed.node_count(), expected.node_count());
                prop_assert_eq!(pushed.leaf_count(), expected.leaf_count());
                for (v, table) in tables[..k].iter().enumerate() {
                    for &ip in &probes {
                        prop_assert_eq!(grown.lookup(v, ip), table.lookup(ip));
                        prop_assert_eq!(pushed.lookup_vn(v, ip), expected.lookup_vn(v, ip));
                    }
                }
            }

            // Withdraw / re-announce churn across every VN of the grown
            // trie, mirrored into the reference tables.
            let mut tables = tables;
            let k = tables.len();
            for (pick, addr, len, nh) in churn {
                let vn = pick % k;
                let victim = tables[vn].prefixes().nth(pick % tables[vn].len().max(1));
                if let Some(prefix) = victim {
                    prop_assert_eq!(grown.remove(vn, &prefix), tables[vn].remove(&prefix));
                }
                let prefix = Ipv4Prefix::must(addr, len);
                prop_assert_eq!(grown.insert(vn, prefix, nh), tables[vn].insert(prefix, nh));
                prop_assert!(grown.check_invariants());
            }
            let fresh = MergedTrie::from_tables(&tables).unwrap();
            prop_assert_eq!(grown.node_count(), fresh.node_count());
            prop_assert_eq!(grown.common_node_count(), fresh.common_node_count());
            for (v, table) in tables.iter().enumerate() {
                prop_assert_eq!(grown.vn_node_count(v), fresh.vn_node_count(v));
                for &ip in &probes {
                    prop_assert_eq!(grown.lookup(v, ip), table.lookup(ip));
                }
            }
        }
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
