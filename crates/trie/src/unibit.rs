//! Arena-based uni-bit binary trie with incremental updates.
//!
//! One trie level per prefix bit: a prefix of length L lives at depth L,
//! the root at depth 0 holds the default route. Lookup walks destination
//! bits MSB-first, remembering the last next-hop seen (longest-prefix
//! match). This is exactly the structure the paper maps onto the lookup
//! pipeline (§V-D), before leaf pushing.

use crate::stats::TrieStats;
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};

/// Index of a node in the trie arena.
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

#[derive(Debug, Clone)]
struct Node {
    children: [Option<NodeId>; 2],
    next_hop: Option<NextHop>,
}

impl Node {
    const EMPTY: Node = Node {
        children: [None, None],
        next_hop: None,
    };

    fn is_leaf(&self) -> bool {
        self.children[0].is_none() && self.children[1].is_none()
    }
}

/// A uni-bit binary trie over IPv4 prefixes.
///
/// Nodes live in a flat arena; removed nodes go on a free list and are
/// reused by later inserts, so long simulation runs with route churn do not
/// grow the arena unboundedly.
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::UnibitTrie;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.0.0/16 2\n".parse().unwrap();
/// let mut trie = UnibitTrie::from_table(&table);
/// assert_eq!(trie.lookup(0x0A01_0000), Some(2));
/// trie.remove(&"10.1.0.0/16".parse().unwrap());
/// assert_eq!(trie.lookup(0x0A01_0000), Some(1)); // falls back to the /8
/// ```
#[derive(Debug, Clone)]
pub struct UnibitTrie {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    live_nodes: usize,
    prefix_count: usize,
}

impl Default for UnibitTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl UnibitTrie {
    /// Creates a trie containing only the (empty) root.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::EMPTY],
            free: Vec::new(),
            live_nodes: 1,
            prefix_count: 0,
        }
    }

    /// Builds a trie from a routing table.
    #[must_use]
    pub fn from_table(table: &RoutingTable) -> Self {
        let mut trie = Self::new();
        // Real tables fill roughly 2–4 nodes per prefix once paths start
        // sharing; reserving up front keeps the bulk build from paying
        // repeated arena reallocation + copy of every node.
        trie.nodes.reserve(table.len().saturating_mul(3) + 1);
        for entry in table.iter() {
            trie.insert(entry.prefix, entry.next_hop);
        }
        trie
    }

    /// Number of live nodes, including the root.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of stored prefixes.
    #[must_use]
    pub fn prefix_count(&self) -> usize {
        self.prefix_count
    }

    /// Whether any prefix is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prefix_count == 0
    }

    fn alloc(&mut self) -> NodeId {
        self.live_nodes += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id.idx()] = Node::EMPTY;
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("trie exceeds u32 nodes"));
            self.nodes.push(Node::EMPTY);
            id
        }
    }

    /// Inserts (or replaces) a prefix. Returns the previous next hop if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, next_hop: NextHop) -> Option<NextHop> {
        let mut cur = NodeId::ROOT;
        for bit in prefix_bits(&prefix) {
            let slot = usize::from(bit);
            cur = match self.nodes[cur.idx()].children[slot] {
                Some(child) => child,
                None => {
                    let child = self.alloc();
                    self.nodes[cur.idx()].children[slot] = Some(child);
                    child
                }
            };
        }
        let prev = self.nodes[cur.idx()].next_hop.replace(next_hop);
        if prev.is_none() {
            self.prefix_count += 1;
        }
        prev
    }

    /// Withdraws a prefix, pruning any nodes left with no prefix and no
    /// children. Returns the removed next hop, or `None` if absent.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<NextHop> {
        // Record the path root→target so pruning can walk back up.
        let mut path = Vec::with_capacity(usize::from(prefix.len()) + 1);
        let mut cur = NodeId::ROOT;
        path.push((cur, 0u8));
        for bit in prefix_bits(prefix) {
            let slot = usize::from(bit);
            cur = self.nodes[cur.idx()].children[slot]?;
            path.push((cur, slot as u8));
        }
        let removed = self.nodes[cur.idx()].next_hop.take()?;
        self.prefix_count -= 1;

        // Prune childless, prefix-less nodes bottom-up (never the root).
        while path.len() > 1 {
            let (id, slot) = *path.last().expect("path non-empty");
            let node = &self.nodes[id.idx()];
            if node.next_hop.is_some() || !node.is_leaf() {
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

    /// Longest-prefix match for `ip`.
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        let mut best = self.nodes[NodeId::ROOT.idx()].next_hop;
        let mut cur = NodeId::ROOT;
        for depth in 0..32u8 {
            let bit = (ip >> (31 - depth)) & 1;
            match self.nodes[cur.idx()].children[bit as usize] {
                Some(child) => {
                    cur = child;
                    if let Some(nh) = self.nodes[cur.idx()].next_hop {
                        best = Some(nh);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Exact-match query: the next hop stored *at* `prefix`, if any.
    #[must_use]
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<NextHop> {
        let mut cur = NodeId::ROOT;
        for bit in prefix_bits(prefix) {
            cur = self.nodes[cur.idx()].children[usize::from(bit)]?;
        }
        self.nodes[cur.idx()].next_hop
    }

    /// Children of a node (used by the leaf-pushing and merge transforms).
    #[must_use]
    pub fn children(&self, id: NodeId) -> [Option<NodeId>; 2] {
        self.nodes[id.idx()].children
    }

    /// The next hop stored at a node.
    #[must_use]
    pub fn node_next_hop(&self, id: NodeId) -> Option<NextHop> {
        self.nodes[id.idx()].next_hop
    }

    /// Depth-first traversal yielding `(node, depth)` pairs, children in
    /// bit order. Root first.
    pub fn walk(&self) -> impl Iterator<Item = (NodeId, u8)> + '_ {
        Walk {
            trie: self,
            stack: vec![(NodeId::ROOT, 0)],
        }
    }

    /// Per-level statistics of the live trie.
    #[must_use]
    pub fn stats(&self) -> TrieStats {
        let mut stats = TrieStats::default();
        for (id, depth) in self.walk() {
            let node = &self.nodes[id.idx()];
            stats.record(depth, node.is_leaf(), node.next_hop.is_some());
        }
        stats
    }

    /// Reconstructs the routing table stored in the trie (canonical order).
    #[must_use]
    pub fn to_table(&self) -> RoutingTable {
        let mut table = RoutingTable::new();
        let mut stack = vec![(NodeId::ROOT, 0u32, 0u8)];
        while let Some((id, addr, depth)) = stack.pop() {
            let node = &self.nodes[id.idx()];
            if let Some(nh) = node.next_hop {
                table.insert(Ipv4Prefix::must(addr, depth), nh);
            }
            for (bit, child) in node.children.iter().enumerate() {
                if let Some(child) = *child {
                    let child_addr = if bit == 1 {
                        addr | (1u32 << (31 - depth))
                    } else {
                        addr
                    };
                    stack.push((child, child_addr, depth + 1));
                }
            }
        }
        table
    }

    /// Internal-consistency check used by property tests: the arena's live
    /// set matches reachability from the root, and counters agree.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut reachable = 0usize;
        let mut prefixes = 0usize;
        for (id, depth) in self.walk() {
            if depth > 32 {
                return false;
            }
            reachable += 1;
            if self.nodes[id.idx()].next_hop.is_some() {
                prefixes += 1;
            }
        }
        reachable == self.live_nodes
            && prefixes == self.prefix_count
            && self.live_nodes + self.free.len() == self.nodes.len()
    }
}

struct Walk<'a> {
    trie: &'a UnibitTrie,
    stack: Vec<(NodeId, u8)>,
}

impl Iterator for Walk<'_> {
    type Item = (NodeId, u8);

    fn next(&mut self) -> Option<Self::Item> {
        let (id, depth) = self.stack.pop()?;
        let node = &self.trie.nodes[id.idx()];
        // Push right then left so left is visited first.
        if let Some(r) = node.children[1] {
            self.stack.push((r, depth + 1));
        }
        if let Some(l) = node.children[0] {
            self.stack.push((l, depth + 1));
        }
        Some((id, depth))
    }
}

fn prefix_bits(prefix: &Ipv4Prefix) -> impl Iterator<Item = bool> + '_ {
    prefix.bits()
}

impl crate::LookupBackend for UnibitTrie {
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
    use vr_net::table::RouteEntry;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_trie_has_only_root() {
        let t = UnibitTrie::new();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.prefix_count(), 0);
        assert!(t.is_empty());
        assert_eq!(t.lookup(0x0A000000), None);
        assert!(t.check_invariants());
    }

    #[test]
    fn insert_creates_path_nodes() {
        let mut t = UnibitTrie::new();
        t.insert(p("128.0.0.0/1"), 1);
        assert_eq!(t.node_count(), 2);
        t.insert(p("192.0.0.0/2"), 2);
        assert_eq!(t.node_count(), 3);
        // Reinsert replaces without new nodes.
        assert_eq!(t.insert(p("192.0.0.0/2"), 3), Some(2));
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.prefix_count(), 2);
        assert!(t.check_invariants());
    }

    #[test]
    fn lookup_matches_reference_oracle() {
        let table = TableSpec::paper_worst_case(17).generate().unwrap();
        let trie = UnibitTrie::from_table(&table);
        // Probe addresses derived from table prefixes plus random ones.
        let mut probes: Vec<u32> = table.prefixes().map(|p| p.addr() | 0x1).collect();
        probes.extend([0u32, u32::MAX, 0x8000_0000, 0x0102_0304]);
        for ip in probes {
            assert_eq!(trie.lookup(ip), table.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn default_route_at_root() {
        let mut t = UnibitTrie::new();
        t.insert(Ipv4Prefix::DEFAULT_ROUTE, 7);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.lookup(0xDEAD_BEEF), Some(7));
    }

    #[test]
    fn remove_prunes_chains() {
        let mut t = UnibitTrie::new();
        t.insert(p("10.1.2.0/24"), 1);
        assert_eq!(t.node_count(), 25);
        assert_eq!(t.remove(&p("10.1.2.0/24")), Some(1));
        assert_eq!(t.node_count(), 1);
        assert!(t.is_empty());
        assert!(t.check_invariants());
    }

    #[test]
    fn remove_keeps_shared_path() {
        let mut t = UnibitTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        let n = t.node_count();
        t.remove(&p("10.1.0.0/16"));
        assert_eq!(t.node_count(), n - 8); // only the /8→/16 tail pruned
        assert_eq!(t.lookup(0x0A01_0000), Some(1));
        assert!(t.check_invariants());
    }

    #[test]
    fn remove_inner_prefix_keeps_descendants() {
        let mut t = UnibitTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        let n = t.node_count();
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(1));
        assert_eq!(t.node_count(), n); // nothing prunable
        assert_eq!(t.lookup(0x0A01_0000), Some(2));
        assert_eq!(t.lookup(0x0A02_0000), None);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut t = UnibitTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.remove(&p("11.0.0.0/8")), None);
        assert_eq!(t.remove(&p("10.0.0.0/9")), None);
        assert_eq!(t.node_count(), 9);
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut t = UnibitTrie::new();
        t.insert(p("10.1.2.0/24"), 1);
        let arena_after_insert = t.nodes.len();
        t.remove(&p("10.1.2.0/24"));
        t.insert(p("172.16.0.0/12"), 2);
        assert!(
            t.nodes.len() <= arena_after_insert,
            "free list must be reused"
        );
        assert!(t.check_invariants());
    }

    #[test]
    fn to_table_round_trips() {
        let table = RoutingTable::from_entries([
            RouteEntry::new(p("0.0.0.0/0"), 9),
            RouteEntry::new(p("10.0.0.0/8"), 1),
            RouteEntry::new(p("10.1.0.0/16"), 2),
            RouteEntry::new(p("192.168.0.0/16"), 3),
        ]);
        let trie = UnibitTrie::from_table(&table);
        assert_eq!(trie.to_table(), table);
    }

    #[test]
    fn get_is_exact_match_only() {
        let mut t = UnibitTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(1));
        assert_eq!(t.get(&p("10.0.0.0/16")), None);
        assert_eq!(t.get(&p("10.0.0.0/4")), None);
    }

    #[test]
    fn stats_count_levels() {
        let mut t = UnibitTrie::new();
        t.insert(p("128.0.0.0/1"), 1);
        t.insert(p("0.0.0.0/1"), 2);
        let s = t.stats();
        assert_eq!(s.total_nodes, 3);
        assert_eq!(s.nodes_at_level(0), 1);
        assert_eq!(s.nodes_at_level(1), 2);
        assert_eq!(s.leaves, 2);
        assert_eq!(s.prefix_nodes, 2);
    }

    #[test]
    fn paper_scale_trie_node_counts_are_in_regime() {
        // §V-E: 3725 prefixes -> 9726 trie nodes (no leaf pushing). The
        // synthetic generator must land in the same order of magnitude.
        let table = TableSpec::paper_worst_case(2012).generate().unwrap();
        let trie = UnibitTrie::from_table(&table);
        let nodes = trie.node_count();
        assert!(
            (6_000..=40_000).contains(&nodes),
            "node count {nodes} out of the paper's regime"
        );
    }

    #[test]
    fn walk_visits_each_node_once() {
        let table = TableSpec::paper_worst_case(3).generate().unwrap();
        let trie = UnibitTrie::from_table(&table);
        let visited: std::collections::HashSet<_> = trie.walk().map(|(id, _)| id).collect();
        assert_eq!(visited.len(), trie.node_count());
    }
}
