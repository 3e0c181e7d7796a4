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
//! [`MergedTrie::from_tables`] builds the trie in one preorder pass over
//! the K tables' routes, sorted together; it never inserts route by route.
//! After that the trie is fully **incremental** (the authors' follow-up
//! work, paper ref. \[6\], adds on-the-fly updates to virtualized
//! routers): [`MergedTrie::insert`] and [`MergedTrie::remove`]
//! announce/withdraw one virtual network's route. Both keep one invariant
//! exact — a node's presence bit v is set iff it holds an entry for VN v
//! or a child has bit v — so a withdrawal finds where VN v's trie ends by
//! reading its path's entries and children, with no per-VN counters, and
//! per-VN node counts and pruning stay exact under churn.
//! A sweep over K needs each k's leaf-pushed statistics and α over VNs
//! `0..k`, and each VN's own, not a trie: [`SweepStats::from_tables`]
//! counts them in the same preorder pass with nothing allocated per node,
//! and [`MergedTrie::sweep_stats`] reads them off a live trie in one walk.
//! The pass is written once; it drives the arena, the sweep's counter,
//! for a calibration step α's node counts alone, or the DIR-16-8-8
//! painter of the [`JumpTrie`] — alone ([`JumpTrie::from_tables`]) or
//! beside the arena ([`MergedTrie::from_tables_with_jump`], what a
//! service builds). `replay` streams a built leaf-pushed trie's events
//! in the same order, and [`JumpTrie::repaint`] a live arena's, with the
//! /16 buckets an update left clean copied from the live jump trie.
//!
//! Per-VN state lives in one flat slab of `k` NHI entries per node: no
//! node owns a heap allocation, and an update keeps its root-to-node path
//! on the stack.
//!
//! This module holds the overlay only. The structure the pipeline stores
//! is its leaf-pushed form, [`MergedTrie::leaf_pushed`] — a
//! [`LeafPushedTrie`] of arity K.

use crate::jump::{JumpTrie, Painter, JUMP_BITS, TAIL_STRIDE};
use crate::leafpush::LeafPushedTrie;
use crate::stats::{efficiency, full_mask, NodeCounts, SweepCounter, SweepStats, TrieStats};
use crate::TrieError;
use std::num::NonZeroU32;
use std::ops::Range;
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};

/// Maximum number of tables a merge supports (presence mask is 64-bit; the
/// paper evaluates K ≤ 15, Fig. 4 sweeps to 30).
pub const MAX_MERGE_ARITY: usize = 64;

/// Index of a node in a trie arena. It is stored plus one, so an
/// `Option<NodeId>` child link is four bytes, not eight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// The root node's id (always 0 in a live trie).
    pub const ROOT: NodeId = NodeId(NonZeroU32::MIN);

    /// The id of the node at `index` in an arena.
    ///
    /// # Panics
    /// Panics past `u32::MAX - 1` nodes.
    pub(crate) fn new(index: usize) -> Self {
        let raw = u32::try_from(index + 1).ok().and_then(NonZeroU32::new);
        NodeId(raw.expect("trie exceeds u32 nodes"))
    }

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0.get() - 1
    }

    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.raw() as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct MergedNode {
    children: [Option<NodeId>; 2],
    /// Bit k set ⇔ VN k has ≥1 prefix at or below this node — i.e. the
    /// node lies in VN k's own trie.
    presence: u64,
}

const _: () = assert!(std::mem::size_of::<MergedNode>() == 16);

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
        check_arity(k)?;
        Ok(Self {
            nodes: vec![MergedNode::EMPTY],
            nhis: vec![None; k],
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
    /// One preorder pass over the K tables' routes, sorted together.
    /// Nodes are allocated in preorder, and a closed node's presence is
    /// final, so it is counted then and folded into its parent's. No route
    /// goes through [`MergedTrie::insert`].
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tables(tables: &[RoutingTable]) -> Result<Self, TrieError> {
        check_arity(tables.len())?;
        let routes = sorted_routes(tables);
        let mut merged = Self::sized_for(tables.len(), &routes);
        preorder(&routes, NodeId::ROOT, &mut merged);
        Ok(merged.built())
    }

    /// [`MergedTrie::from_tables`] and [`JumpTrie::from_tables`] in one
    /// preorder pass: the arena and the DIR-16-8-8 painter take the same
    /// open / entry / close events, so the routing state and the
    /// structure a service publishes for it cost one walk of the routes.
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tables_with_jump(tables: &[RoutingTable]) -> Result<(Self, JumpTrie), TrieError> {
        check_arity(tables.len())?;
        let routes = sorted_routes(tables);
        let (painter, brush) = Painter::whole(tables.len(), block_total(&routes));
        let mut both = (Self::sized_for(tables.len(), &routes), painter);
        preorder(&routes, (NodeId::ROOT, brush), &mut both);
        let (merged, painter) = both;
        Ok((merged.built(), painter.finish()))
    }

    /// An empty arena for the bulk build over `routes`: counted exactly
    /// and allocated once, with room for an eighth more nodes. A
    /// service's first announcements would otherwise copy the whole arena
    /// and slab to grow them (2.5–3 ms on the paper family); a trie that
    /// is never updated never writes the room.
    fn sized_for(k: usize, routes: &[Route]) -> Self {
        let total = node_total(routes);
        let room = total + total / 8;
        let mut nodes = Vec::with_capacity(room);
        nodes.push(MergedNode::EMPTY);
        // Every node's row is written in place as the pass opens it.
        let mut nhis = Vec::with_capacity(room * k);
        nhis.resize(total * k, None);
        Self {
            nodes,
            nhis,
            free: Vec::new(),
            live_nodes: 1,
            k,
            per_vn_nodes: vec![0; k],
            common_nodes: 0,
        }
    }

    /// The arena after the bulk build's pass has allocated every node.
    fn built(mut self) -> Self {
        debug_assert_eq!(self.nhis.len(), self.nodes.len() * self.k);
        self.live_nodes = self.nodes.len();
        self
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
    pub fn insert(
        &mut self,
        vnid: usize,
        prefix: Ipv4Prefix,
        next_hop: NextHop,
    ) -> Option<NextHop> {
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
        // Bottom-up, a node leaves VN `vnid`'s trie unless it keeps an
        // entry for it or a child is still in that trie; once one stays,
        // every node above it does too.
        for id in path[..=len].iter().rev() {
            let node = self.nodes[id.idx()];
            let below = node.children.into_iter().flatten();
            let below = below.fold(0, |mask, c| mask | self.nodes[c.idx()].presence);
            if below & bit != 0 || self.nhis[id.idx() * self.k + vnid].is_some() {
                break;
            }
            if node.presence == full {
                self.common_nodes -= 1;
            }
            self.nodes[id.idx()].presence &= !bit;
            self.per_vn_nodes[vnid] -= 1;
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
            // Its slab row is clear already: a node is freed only once
            // no VN has a prefix at or below it.
            self.nodes[id.idx()] = MergedNode::EMPTY;
            id
        } else {
            let id = NodeId::new(self.nodes.len());
            self.nodes.push(MergedNode::EMPTY);
            self.nhis.resize(self.nhis.len() + self.k, None);
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

    /// Everything a sweep over K prices, read off this live arity-K trie
    /// in one walk that builds no other trie: what
    /// [`SweepStats::from_tables`] gives for the tables it holds.
    #[must_use]
    pub fn sweep_stats(&self) -> SweepStats {
        let mut counter = SweepCounter::new(self.k);
        let presence = |child: Option<NodeId>| child.map_or(0, |c| self.nodes[c.idx()].presence);
        let mut stack = vec![(NodeId::ROOT, 0usize, 0u64)];
        while let Some((id, depth, above)) = stack.pop() {
            let node = &self.nodes[id.idx()];
            // VNs with an entry on the root path, this node included.
            let mut routed = above;
            for (vn, nh) in self.node_nhis(id).iter().enumerate() {
                routed |= u64::from(nh.is_some()) << vn;
            }
            counter.node(depth, node.presence, node.children.map(presence), routed);
            for child in node.children.into_iter().flatten() {
                stack.push((child, depth + 1, routed));
            }
        }
        counter.finish()
    }

    /// Internal-consistency check used by property tests: reachability,
    /// depth, counters and the presence recursion all agree.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut reachable = 0usize;
        let mut per_vn = vec![0usize; self.k];
        let mut common = 0usize;
        let full = full_mask(self.k);
        for (id, depth) in self.walk() {
            if depth > 32 {
                return false;
            }
            reachable += 1;
            let node = &self.nodes[id.idx()];
            // Bit v ⇔ an entry for VN v here, or bit v in a child.
            let mut expected = 0u64;
            for (vn, nhi) in self.node_nhis(id).iter().enumerate() {
                expected |= u64::from(nhi.is_some()) << vn;
            }
            for child in node.children.into_iter().flatten() {
                expected |= self.nodes[child.idx()].presence;
            }
            if node.presence != expected {
                return false;
            }
            for (vn, count) in per_vn.iter_mut().enumerate() {
                *count += usize::from(node.presence >> vn & 1 == 1);
            }
            common += usize::from(node.presence == full);
            // A live non-root node must serve someone.
            if id != NodeId::ROOT && node.presence == 0 {
                return false;
            }
        }
        reachable == self.live_nodes
            && per_vn == self.per_vn_nodes
            && common == self.common_nodes
            && self.live_nodes + self.free.len() == self.nodes.len()
            && self.nhis.len() == self.nodes.len() * self.k
    }

    /// Child of node `id` along branch `bit` (0 = left, 1 = right).
    ///
    /// Exposes the merged structure read-only so leaf pushing and
    /// [`JumpTrie::repaint`](crate::JumpTrie::repaint) can descend
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

/// Rejects a merge of `k` tables outside `1..=MAX_MERGE_ARITY`.
pub(crate) fn check_arity(k: usize) -> Result<(), TrieError> {
    if k == 0 || k > MAX_MERGE_ARITY {
        return Err(TrieError::BadMergeArity(k));
    }
    Ok(())
}

impl SweepStats {
    /// What a sweep over K prices, counted straight off the tables' sorted
    /// routes: `MergedTrie::from_tables(tables)?.sweep_stats()`, with no
    /// node or NHI entry allocated. It is the bulk build's preorder pass,
    /// keeping per open node only three masks: the VNs with an entry
    /// there, each child's presence, and the VNs routed on its root path.
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tables(tables: &[RoutingTable]) -> Result<Self, TrieError> {
        check_arity(tables.len())?;
        let mut counter = SweepCounter::new(tables.len());
        preorder(&sorted_routes(tables), OpenNode::default(), &mut counter);
        Ok(counter.finish())
    }
}

/// `MergedTrie::from_tables(tables)?.merging_efficiency()`, counted in the
/// same preorder pass, which keeps only each open node's presence mask.
///
/// # Errors
/// Same arity constraints as [`MergedTrie::new`].
pub(crate) fn merging_efficiency_of(tables: &[RoutingTable]) -> Result<f64, TrieError> {
    check_arity(tables.len())?;
    let mut counts = NodeCounts::new(tables.len());
    preorder(&sorted_routes(tables), 0, &mut counts);
    Ok(counts.alpha(tables.len()))
}

/// One VN's route as the bulk build sorts them, packed into a word: the
/// prefix's address and length (the sort key), then VNID and next hop.
#[derive(Clone, Copy)]
pub(crate) struct Route(u64);

impl Route {
    /// Bits below the sort key.
    const KEY_SHIFT: u32 = 24;

    fn new(prefix: Ipv4Prefix, vn: u8, next_hop: NextHop) -> Self {
        let key = u64::from(prefix.addr()) << 8 | u64::from(prefix.len());
        Self(key << Self::KEY_SHIFT | u64::from(vn) << 8 | u64::from(next_hop))
    }

    fn prefix(self) -> Ipv4Prefix {
        Ipv4Prefix::must((self.0 >> 32) as u32, (self.0 >> Self::KEY_SHIFT) as u8)
    }

    fn vn(self) -> u8 {
        (self.0 >> 8) as u8
    }

    fn next_hop(self) -> NextHop {
        self.0 as NextHop
    }
}

/// The K tables' routes in preorder, each tagged with its VNID: sorted by
/// `(addr, len)`, VNs in order within a prefix.
pub(crate) fn sorted_routes(tables: &[RoutingTable]) -> Vec<Route> {
    const DIGIT_BITS: u32 = 10;
    let mut routes = Vec::with_capacity(tables.iter().map(RoutingTable::len).sum());
    for (vn, table) in tables.iter().enumerate() {
        routes.extend(
            table
                .iter()
                .map(|e| Route::new(e.prefix, vn as u8, e.next_hop)),
        );
    }
    // Least significant digit first over the key: each pass is stable, so
    // a prefix's routes keep the VN order they were gathered in.
    let mut spare = vec![Route(0); routes.len()];
    for shift in (Route::KEY_SHIFT..u64::BITS).step_by(DIGIT_BITS as usize) {
        let digit = |route: &Route| (route.0 >> shift) as usize % (1 << DIGIT_BITS);
        let mut starts = [0usize; 1 << DIGIT_BITS];
        for route in &routes {
            starts[digit(route)] += 1;
        }
        let mut at = 0;
        for start in &mut starts {
            (*start, at) = (at, at + *start);
        }
        for &route in &routes {
            let start = &mut starts[digit(&route)];
            spare[*start] = route;
            *start += 1;
        }
        std::mem::swap(&mut routes, &mut spare);
    }
    routes
}

/// What [`preorder`] drives over the trie of sorted routes, and [`replay`]
/// over a built one. `Open` is what it keeps of each node on the open
/// path, the top node's given.
pub(crate) trait Preorder {
    type Open: Copy;
    /// The child of the open node `parent` on branch `bit`, opened.
    fn open(&mut self, parent: Self::Open, bit: usize) -> Self::Open;
    /// VN `vn`'s route ends at the open `node`.
    fn entry(&mut self, node: &mut Self::Open, vn: u8, next_hop: NextHop);
    /// No route below `node`, at `depth`, is still to come. `up` is its
    /// parent and the branch from there, except at the root.
    fn close(&mut self, depth: usize, node: Self::Open, up: Option<(&mut Self::Open, usize)>);
}

/// One pass in preorder over `routes`: the path to the route before stays
/// open, and each route closes the nodes below the prefix it shares with
/// that route and opens its own path below it. A node's own routes arrive
/// before any below it, and once it is closed nothing more can reach it.
pub(crate) fn preorder<P: Preorder>(routes: &[Route], root: P::Open, pass: &mut P) {
    let mut path = [root; 33];
    let mut depth = 0;
    let mut prev = Ipv4Prefix::DEFAULT_ROUTE;
    // The open path is `prev`'s, so its bit above a node is the node's branch.
    let close = |pass: &mut P, path: &mut [P::Open; 33], depth: usize, prev: Ipv4Prefix| {
        let (above, here) = path.split_at_mut(depth);
        let up = above
            .last_mut()
            .map(|parent| (parent, usize::from(prev.bit(depth as u8 - 1))));
        pass.close(depth, here[0], up);
    };
    for &route in routes {
        let (prefix, vn, next_hop) = (route.prefix(), route.vn(), route.next_hop());
        let (len, shared) = (
            usize::from(prefix.len()),
            usize::from(shared_len(prefix, prev)),
        );
        while depth > shared {
            close(pass, &mut path, depth, prev);
            depth -= 1;
        }
        while depth < len {
            path[depth + 1] = pass.open(path[depth], usize::from(prefix.bit(depth as u8)));
            depth += 1;
        }
        pass.entry(&mut path[len], vn, next_hop);
        prev = prefix;
    }
    for depth in (0..=depth).rev() {
        close(pass, &mut path, depth, prev);
    }
}

/// Streams the subtree at `id`, `depth` bits down, to `pass` in the order
/// [`preorder`] streams the routes it was built from — a node's entries,
/// then its children's subtrees, each child closed into it — and closes
/// `id` itself last, as a top node. `node` reads a node of the trie: its
/// children and its own entries.
pub(crate) fn replay<'t, P: Preorder>(
    node: &impl Fn(NodeId) -> ([Option<NodeId>; 2], &'t [Option<NextHop>]),
    id: NodeId,
    depth: usize,
    mut open: P::Open,
    pass: &mut P,
) {
    fn below<'t, P: Preorder>(
        node: &impl Fn(NodeId) -> ([Option<NodeId>; 2], &'t [Option<NextHop>]),
        id: NodeId,
        depth: usize,
        open: &mut P::Open,
        pass: &mut P,
    ) {
        let (children, entries) = node(id);
        for (vn, next_hop) in entries.iter().enumerate() {
            if let Some(next_hop) = *next_hop {
                pass.entry(open, vn as u8, next_hop);
            }
        }
        for (bit, child) in children.into_iter().enumerate() {
            if let Some(child) = child {
                let mut kid = pass.open(*open, bit);
                below(node, child, depth + 1, &mut kid, pass);
                pass.close(depth + 1, kid, Some((open, bit)));
            }
        }
    }
    below(node, id, depth, &mut open, pass);
    pass.close(depth, open, None);
}

/// Two visitors fed one pass: each event goes to the first, then the
/// second.
impl<A: Preorder, B: Preorder> Preorder for (A, B) {
    type Open = (A::Open, B::Open);

    #[inline]
    fn open(&mut self, parent: Self::Open, bit: usize) -> Self::Open {
        (self.0.open(parent.0, bit), self.1.open(parent.1, bit))
    }

    #[inline]
    fn entry(&mut self, node: &mut Self::Open, vn: u8, next_hop: NextHop) {
        self.0.entry(&mut node.0, vn, next_hop);
        self.1.entry(&mut node.1, vn, next_hop);
    }

    #[inline]
    fn close(&mut self, depth: usize, node: Self::Open, up: Option<(&mut Self::Open, usize)>) {
        match up {
            Some((parent, bit)) => {
                self.0.close(depth, node.0, Some((&mut parent.0, bit)));
                self.1.close(depth, node.1, Some((&mut parent.1, bit)));
            }
            None => {
                self.0.close(depth, node.0, None);
                self.1.close(depth, node.1, None);
            }
        }
    }
}

/// The bulk build: each node opened is allocated in preorder, and a closed
/// node's presence is counted into the per-VN and common totals and folded
/// into its parent's.
impl Preorder for MergedTrie {
    type Open = NodeId;

    fn open(&mut self, parent: NodeId, bit: usize) -> NodeId {
        let child = NodeId::new(self.nodes.len());
        self.nodes.push(MergedNode::EMPTY);
        self.nodes[parent.idx()].children[bit] = Some(child);
        child
    }

    fn entry(&mut self, node: &mut NodeId, vn: u8, next_hop: NextHop) {
        self.nhis[node.idx() * self.k + usize::from(vn)] = Some(next_hop);
        self.nodes[node.idx()].presence |= 1u64 << vn;
    }

    fn close(&mut self, _: usize, node: NodeId, up: Option<(&mut NodeId, usize)>) {
        let presence = self.nodes[node.idx()].presence;
        let mut vns = presence;
        while vns != 0 {
            self.per_vn_nodes[vns.trailing_zeros() as usize] += 1;
            vns &= vns - 1;
        }
        self.common_nodes += usize::from(presence == full_mask(self.k));
        if let Some((parent, _)) = up {
            self.nodes[parent.idx()].presence |= presence;
        }
    }
}

/// A node on the streamed pass's open path: the VNs with an entry here,
/// each child's presence mask so far, and the VNs with an entry on the
/// root path, this node's included.
#[derive(Clone, Copy, Default)]
pub(crate) struct OpenNode {
    entries: u64,
    kids: [u64; 2],
    routed: u64,
}

/// The streamed pass: a closed node's presence is its entries and its
/// children's, all final, so it is counted then and folded into its
/// parent's slot for it.
impl Preorder for SweepCounter {
    type Open = OpenNode;

    fn open(&mut self, parent: OpenNode, _: usize) -> OpenNode {
        // The parent's own routes came before this child was opened.
        OpenNode {
            routed: parent.routed,
            ..OpenNode::default()
        }
    }

    fn entry(&mut self, node: &mut OpenNode, vn: u8, _: NextHop) {
        node.entries |= 1u64 << vn;
        node.routed |= 1u64 << vn;
    }

    fn close(&mut self, depth: usize, node: OpenNode, up: Option<(&mut OpenNode, usize)>) {
        let presence = node.entries | node.kids[0] | node.kids[1];
        self.node(depth, presence, node.kids, node.routed);
        if let Some((parent, slot)) = up {
            parent.kids[slot] |= presence;
        }
    }
}

/// α alone: a closed node's presence is its entries and its children's,
/// counted then and folded into its parent's.
impl Preorder for NodeCounts {
    type Open = u64;

    fn open(&mut self, _: u64, _: usize) -> u64 {
        0
    }

    fn entry(&mut self, presence: &mut u64, vn: u8, _: NextHop) {
        *presence |= 1u64 << vn;
    }

    fn close(&mut self, _: usize, presence: u64, up: Option<(&mut u64, usize)>) {
        self.node(presence);
        if let Some((parent, _)) = up {
            *parent |= presence;
        }
    }
}

/// Length of the longest prefix `a` and `b` share.
fn shared_len(a: Ipv4Prefix, b: Ipv4Prefix) -> u8 {
    let diverge = (a.addr() ^ b.addr()).leading_zeros() as u8;
    diverge.min(a.len()).min(b.len())
}

/// Nodes in the trie over `routes` (sorted in preorder): the root, and
/// for each route the levels below the longest prefix it shares with the
/// route before it — in preorder no earlier route shares more.
fn node_total(routes: &[Route]) -> usize {
    let mut prev = Ipv4Prefix::DEFAULT_ROUTE;
    let fresh = routes.iter().map(|route| {
        let prefix = route.prefix();
        let shared = shared_len(prefix, prev);
        prev = prefix;
        usize::from(prefix.len() - shared)
    });
    1 + fresh.sum::<usize>()
}

/// Blocks the DIR-16-8-8 slabs over `routes` (sorted in preorder) hold:
/// one level-1 block per /16 and one level-2 block per /24 with a longer
/// route below it, for each is an internal node of the trie.
pub(crate) fn block_total(routes: &[Route]) -> usize {
    let below = |bits: u32| {
        let mut last = None;
        let longer = routes
            .iter()
            .map(|route| route.prefix())
            .filter(|p| u32::from(p.len()) > bits);
        // Sorted by address, so equal tops are adjacent.
        longer
            .filter(|prefix| {
                let top = prefix.addr() >> (u32::BITS - bits);
                last.replace(top) != Some(top)
            })
            .count()
    };
    below(JUMP_BITS) + below(JUMP_BITS + TAIL_STRIDE)
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
        assert!(matches!(
            SweepStats::from_tables(&[]),
            Err(TrieError::BadMergeArity(0))
        ));
        let too_many = vec![RoutingTable::new(); 65];
        assert!(matches!(
            MergedTrie::from_tables(&too_many),
            Err(TrieError::BadMergeArity(65))
        ));
        assert!(matches!(
            SweepStats::from_tables(&too_many),
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

    /// Strategy: 1–8 tables drawing routes (/0 to /32) from one pool of up
    /// to 40, so they overlap; about one table in five is empty.
    fn arb_family() -> impl Strategy<Value = Vec<RoutingTable>> {
        let mask = (0u8..5, any::<u64>()).prop_map(|(pick, mask)| if pick == 0 { 0 } else { mask });
        let route = (any::<u32>(), 0u8..=32, any::<NextHop>())
            .prop_map(|(addr, len, nh)| vr_net::RouteEntry::new(Ipv4Prefix::must(addr, len), nh));
        let pool = prop::collection::vec(route, 0..40);
        (pool, prop::collection::vec(mask, 1..=8)).prop_map(|(pool, masks)| {
            let picked = |mask: u64| (0..pool.len()).filter(move |i| mask >> i & 1 == 1);
            let table = |mask| RoutingTable::from_entries(picked(mask).map(|i| pool[i]));
            masks.into_iter().map(table).collect()
        })
    }

    /// The streamed pass over `tables` counts what the walk of `merged`,
    /// their trie, does, and its last α is `merged`'s, bit for bit.
    fn assert_streamed(merged: &MergedTrie, tables: &[RoutingTable]) {
        let streamed = SweepStats::from_tables(tables).unwrap();
        assert_eq!(streamed, merged.sweep_stats());
        let alpha = merged.merging_efficiency().to_bits();
        assert_eq!(
            streamed.alpha.last().map(|alpha| alpha.to_bits()),
            Some(alpha)
        );
        assert_eq!(merging_efficiency_of(tables).unwrap().to_bits(), alpha);
    }

    /// `merged.sweep_stats()` and the streamed pass over `tables` are what
    /// building and leaf-pushing the trie over `tables[..k]` at every k,
    /// and each VN's own, gives.
    fn assert_sweep_exact(merged: &MergedTrie, tables: &[RoutingTable]) {
        assert_streamed(merged, tables);
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

    /// The update path's trie over `tables`: every route inserted in a
    /// seeded shuffled order, then a seeded third of them withdrawn and
    /// announced again.
    fn inserted(tables: &[RoutingTable], seed: u64) -> MergedTrie {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let routes = tables
            .iter()
            .enumerate()
            .map(|(vn, t)| t.iter().map(move |e| (vn, e)));
        let mut routes: Vec<_> = routes.flatten().collect();
        for i in (1..routes.len()).rev() {
            routes.swap(i, rng.gen_range(0..=i));
        }
        let mut trie = MergedTrie::new(tables.len()).unwrap();
        for &(vn, e) in &routes {
            assert_eq!(trie.insert(vn, e.prefix, e.next_hop), None);
        }
        let churned: Vec<_> = routes.into_iter().filter(|_| rng.gen_bool(0.3)).collect();
        for &(vn, e) in &churned {
            assert_eq!(trie.remove(vn, &e.prefix), Some(e.next_hop));
        }
        assert!(trie.check_invariants());
        for &(vn, e) in churned.iter().rev() {
            assert_eq!(trie.insert(vn, e.prefix, e.next_hop), None);
        }
        trie
    }

    /// Addresses that tell tries over `tables` apart: each route's first
    /// and last address and the one just below it, and both ends of the
    /// address space.
    fn probes(tables: &[RoutingTable]) -> Vec<u32> {
        let edges = tables
            .iter()
            .flat_map(RoutingTable::prefixes)
            .flat_map(|prefix| {
                let addr = prefix.addr();
                [addr, addr | !prefix.netmask(), addr.wrapping_sub(1)]
            });
        edges.chain([0, u32::MAX]).collect()
    }

    /// `bulk` and `grown` are one trie up to node ids: the same node
    /// counts, α, sweep, answers and served encoding.
    fn assert_same_trie(bulk: &MergedTrie, grown: &MergedTrie, probes: &[u32]) {
        assert!(bulk.check_invariants() && grown.check_invariants());
        assert_eq!(bulk.node_count(), grown.node_count());
        for vn in 0..bulk.arity() {
            assert_eq!(bulk.vn_node_count(vn), grown.vn_node_count(vn), "vn {vn}");
        }
        assert_eq!(bulk.common_node_count(), grown.common_node_count());
        let alpha = |t: &MergedTrie| t.merging_efficiency().to_bits();
        assert_eq!(alpha(bulk), alpha(grown));
        assert_eq!(bulk.sweep_stats(), grown.sweep_stats());
        for &ip in probes {
            for vn in 0..bulk.arity() {
                assert_eq!(
                    bulk.lookup(vn, ip),
                    grown.lookup(vn, ip),
                    "vn {vn} ip {ip:#010x}"
                );
            }
        }
        let jump = |t: &MergedTrie| crate::JumpTrie::from_leaf_pushed(&t.leaf_pushed());
        assert_eq!(jump(bulk).raw_parts(), jump(grown).raw_parts());
    }

    /// Routes at both ends of the length range, an empty VN 0, and all 64
    /// VNs: the bulk build and the update path agree.
    #[test]
    fn bulk_build_equals_insertion_at_the_edges() {
        let base: Vec<_> = family(1, 1.0, 63)[0].iter().take(30).collect();
        let own = |vn: u32| {
            let prefix = Ipv4Prefix::must(vn.wrapping_mul(0x9E37_79B9), (vn % 33) as u8);
            vr_net::RouteEntry::new(prefix, vn as NextHop)
        };
        let table = |vn| match vn {
            0 => RoutingTable::new(),
            vn => RoutingTable::from_entries(base.iter().copied().chain([own(vn)])),
        };
        let tables: Vec<_> = (0..MAX_MERGE_ARITY as u32).map(table).collect();
        let prefixes = || tables.iter().flat_map(RoutingTable::prefixes);
        assert!(prefixes().any(|p| p.len() == 0) && prefixes().any(|p| p.len() == 32));
        let (bulk, probes) = (MergedTrie::from_tables(&tables).unwrap(), probes(&tables));
        for seed in 0..4 {
            assert_same_trie(&bulk, &inserted(&tables, seed), &probes);
        }
    }

    /// Withdrawing every route of every VN leaves the root alone, in no
    /// VN's trie.
    #[test]
    fn withdrawing_everything_leaves_the_root() {
        let mut tables = family(4, 0.5, 64);
        tables[0].insert(Ipv4Prefix::DEFAULT_ROUTE, 1);
        tables[1].insert(Ipv4Prefix::must(0xC633_6401, 32), 2);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        for (vn, table) in tables.iter().enumerate() {
            for prefix in table.prefixes() {
                assert!(merged.remove(vn, &prefix).is_some());
            }
        }
        assert!(merged.check_invariants());
        assert_eq!(merged.node_count(), 1);
        assert_eq!(merged.nodes[0].presence, 0);
        assert!(merged.nodes[0].is_leaf());
        assert!((0..4).all(|vn| merged.vn_node_count(vn) == 0));
        assert_eq!(merged.common_node_count(), 0);
        assert_eq!(merged.lookup(0, 0xC633_6401), None);
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

        /// The streamed pass counts what the walk of the built trie does,
        /// and still does after a seeded batch withdraws a third of the
        /// routes from the trie and the tables and re-announces half of
        /// those with a new next hop.
        #[test]
        fn streamed_stats_equal_the_arena_walk(tables in arb_family(), seed in any::<u64>()) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut merged = MergedTrie::from_tables(&tables).unwrap();
            assert_streamed(&merged, &tables);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tables = tables;
            let routes = tables.iter().enumerate().map(|(vn, t)| t.iter().map(move |e| (vn, e)));
            let routes: Vec<_> = routes.flatten().collect();
            let withdrawn: Vec<_> = routes.into_iter().filter(|_| rng.gen_bool(0.3)).collect();
            for &(vn, e) in &withdrawn {
                prop_assert_eq!(merged.remove(vn, &e.prefix), tables[vn].remove(&e.prefix));
            }
            assert_streamed(&merged, &tables);
            for &(vn, e) in withdrawn.iter().filter(|_| rng.gen_bool(0.5)) {
                let nh = e.next_hop.wrapping_add(1);
                prop_assert_eq!(merged.insert(vn, e.prefix, nh), tables[vn].insert(e.prefix, nh));
            }
            prop_assert!(merged.check_invariants());
            assert_streamed(&merged, &tables);
        }

        /// The bulk build and the update path do not fork: the same
        /// routes inserted one at a time, in any order and through a
        /// withdraw / re-announce pass, give the same trie.
        #[test]
        fn bulk_build_equals_insertion(tables in arb_family(), seed in any::<u64>()) {
            let bulk = MergedTrie::from_tables(&tables).unwrap();
            assert_same_trie(&bulk, &inserted(&tables, seed), &probes(&tables));
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

    /// At K = 64, the streamed pass counts what the walk does over
    /// families at the edges: /0 and /32 routes in several VNs beside an
    /// empty VN 0, identical tables (α = 1), pairwise-disjoint tables, and
    /// no route at all.
    #[test]
    fn streamed_stats_equal_the_arena_walk_at_the_edges() {
        let base: Vec<_> = family(1, 1.0, 65)[0].iter().take(30).collect();
        let edge = |vn: u32| {
            let host = Ipv4Prefix::must(0xC633_6400 | (vn % 3), 32);
            let routes = [
                (Ipv4Prefix::DEFAULT_ROUTE, vn % 4 == 1),
                (host, !vn.is_multiple_of(5)),
            ];
            let routes = routes.into_iter().filter(|&(_, keep)| keep);
            routes.map(move |(prefix, _)| vr_net::RouteEntry::new(prefix, vn as NextHop))
        };
        let edges = |vn| match vn {
            0 => RoutingTable::new(),
            vn => RoutingTable::from_entries(base.iter().copied().chain(edge(vn))),
        };
        let disjoint = |vn: u32| {
            let own = (0..4).map(|i| Ipv4Prefix::must(vn << 26 | i << 20, 12 + i as u8 * 5));
            RoutingTable::from_entries(own.map(|prefix| vr_net::RouteEntry::new(prefix, 1)))
        };
        let identical = |_| RoutingTable::from_entries(base.iter().copied());
        let families: [&dyn Fn(u32) -> RoutingTable; 4] =
            [&edges, &identical, &disjoint, &|_| RoutingTable::new()];
        let mut alphas = Vec::new();
        for table in families {
            let tables: Vec<_> = (0..MAX_MERGE_ARITY as u32).map(table).collect();
            let merged = MergedTrie::from_tables(&tables).unwrap();
            assert_streamed(&merged, &tables);
            alphas.push(merged.merging_efficiency());
        }
        let with_len = |len| {
            let vns = 1..MAX_MERGE_ARITY as u32;
            vns.filter(|&vn| edges(vn).prefixes().any(|p| p.len() == len))
                .count()
        };
        assert!(with_len(0) > 1 && with_len(32) > 1);
        assert_eq!(alphas[1], 1.0);
        assert!(alphas[2] < 0.1 && alphas[3] == 0.0);
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
        let pushed = MergedTrie::from_tables(&family(3, 0.6, 13))
            .unwrap()
            .leaf_pushed();
        let s = pushed.stats();
        assert_eq!(s.total_nodes, pushed.node_count());
        assert_eq!(s.leaves, pushed.leaf_count());
        assert!(s.check_invariants());
    }
}
