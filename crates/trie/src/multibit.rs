//! Fixed-stride multi-bit tries with controlled prefix expansion (CPE).
//!
//! The paper's engine is a uni-bit trie (one level per stage, 28+ stages).
//! Its own references explore the depth/memory trade-off: multi-bit tries
//! consume several address bits per stage, shortening the pipeline (fewer
//! logic stages → less logic power, lower latency) at the cost of
//! expanding each node into 2^stride entries (more memory → more BRAM
//! power). Ref. \[8\] ("depth-bounded ... power-efficient IP lookup")
//! exploits exactly this knob; the `ablation_stride` bench quantifies it
//! inside this reproduction's power models.
//!
//! Prefixes whose length falls inside a stride are handled by controlled
//! prefix expansion (ref. \[16\]): the prefix is copied into every entry
//! it covers, with the *longest original length* winning collisions so
//! longest-prefix-match semantics are preserved.

use crate::stats::TrieStats;
use crate::unibit::NodeId;
use crate::TrieError;
use vr_net::table::NextHop;
use vr_net::RoutingTable;

/// One slot of a multi-bit node: the best (longest) expanded prefix
/// covering this slot, plus an optional child for longer prefixes.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    nhi: Option<NextHop>,
    /// Original length of the prefix stored in `nhi` (CPE priority).
    nhi_len: u8,
    child: Option<NodeId>,
}

#[derive(Debug, Clone)]
struct MbNode {
    /// Stride level of this node (index into `strides`).
    level: usize,
    entries: Vec<Entry>,
}

/// A fixed-stride multi-bit trie over IPv4 prefixes.
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::StrideTrie;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.32.0.0/11 2\n".parse().unwrap();
/// // Four 8-bit strides: a 4-stage pipeline instead of a 33-level trie.
/// let trie = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
/// assert_eq!(trie.levels(), 4);
/// assert_eq!(trie.lookup(0x0A20_0001), Some(2)); // CPE kept the /11
/// assert_eq!(trie.lookup(0x0A00_0001), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct StrideTrie {
    strides: Vec<u8>,
    /// Cumulative consumed bits *before* each level (prefix sums).
    boundaries: Vec<u8>,
    nodes: Vec<MbNode>,
    /// Original (pre-expansion) prefixes stored. A CPE-expanded prefix can
    /// be fully shadowed by longer same-node prefixes and leave no visible
    /// slot, so the count cannot be recovered from the entries.
    prefixes: std::collections::HashSet<(u32, u8)>,
}

impl StrideTrie {
    /// Builds an empty trie with the given stride schedule.
    ///
    /// # Errors
    /// Strides must be non-zero, each ≤ 8 (hardware keeps per-stage memory
    /// words addressable), and sum to exactly 32.
    pub fn new(strides: &[u8]) -> Result<Self, TrieError> {
        if strides.is_empty() {
            return Err(TrieError::InvalidParameter("stride schedule is empty"));
        }
        if strides.iter().any(|&s| s == 0 || s > 8) {
            return Err(TrieError::InvalidParameter("each stride must be 1..=8"));
        }
        let total: u32 = strides.iter().map(|&s| u32::from(s)).sum();
        if total != 32 {
            return Err(TrieError::InvalidParameter("strides must sum to 32"));
        }
        let mut boundaries = Vec::with_capacity(strides.len());
        let mut acc = 0u8;
        for &s in strides {
            boundaries.push(acc);
            acc += s;
        }
        let root = MbNode {
            level: 0,
            entries: vec![Entry::default(); 1 << strides[0]],
        };
        Ok(Self {
            strides: strides.to_vec(),
            boundaries,
            nodes: vec![root],
            prefixes: std::collections::HashSet::new(),
        })
    }

    /// A uniform stride schedule (e.g. `uniform(4)` → eight 4-bit levels).
    ///
    /// # Errors
    /// `stride` must be in `1..=8` and divide 32.
    pub fn uniform(stride: u8) -> Result<Self, TrieError> {
        if stride == 0 || stride > 8 || 32 % u32::from(stride) != 0 {
            return Err(TrieError::InvalidParameter(
                "uniform stride must be in 1..=8 and divide 32",
            ));
        }
        let levels = 32 / usize::from(stride);
        Self::new(&vec![stride; levels])
    }

    /// Builds a trie from a routing table.
    ///
    /// # Errors
    /// Same stride-schedule constraints as [`StrideTrie::new`].
    pub fn from_table(table: &RoutingTable, strides: &[u8]) -> Result<Self, TrieError> {
        let mut trie = Self::new(strides)?;
        // Each prefix can materialize at most one node per level beyond the
        // root; in practice sharing keeps it near one node per prefix, so a
        // table-sized reservation absorbs the bulk build without repeated
        // reallocation of the (large, entry-vector-holding) node arena.
        trie.nodes.reserve(table.len());
        trie.prefixes.reserve(table.len());
        for entry in table.iter() {
            trie.insert(entry.prefix, entry.next_hop);
        }
        Ok(trie)
    }

    /// The stride schedule.
    #[must_use]
    pub fn strides(&self) -> &[u8] {
        &self.strides
    }

    /// Number of pipeline stages this trie maps onto (= stride levels).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.strides.len()
    }

    /// Number of multi-bit nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of stored prefixes (original, pre-expansion).
    #[must_use]
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// Total entry slots across nodes (each slot is one memory word).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.nodes.iter().map(|n| n.entries.len()).sum()
    }

    /// Inserts (or replaces) a prefix. A prefix of length 0 (default
    /// route) expands into every root entry of length 0.
    pub fn insert(&mut self, prefix: vr_net::Ipv4Prefix, next_hop: NextHop) {
        self.prefixes.insert((prefix.addr(), prefix.len()));
        self.insert_at(0, prefix, next_hop);
    }

    /// Inserts into the subtree rooted at `node`.
    fn insert_at(&mut self, node: usize, prefix: vr_net::Ipv4Prefix, next_hop: NextHop) {
        let level = self.nodes[node].level;
        let consumed = self.boundaries[level];
        let stride = self.strides[level];
        let end = consumed + stride;

        if prefix.len() <= end {
            // Expand within this node: the prefix covers a contiguous run
            // of entries determined by its bits inside the stride.
            let inside = prefix.len() - consumed; // bits the prefix fixes here
            let fixed = if inside == 0 {
                0
            } else {
                extract_bits(prefix.addr(), consumed, inside)
            };
            let free = stride - inside;
            let run_start = (fixed as usize) << free;
            let run_len = 1usize << free;
            for slot in run_start..run_start + run_len {
                let entry = &mut self.nodes[node].entries[slot];
                if entry.nhi.is_none() || entry.nhi_len <= prefix.len() {
                    entry.nhi = Some(next_hop);
                    entry.nhi_len = prefix.len();
                }
            }
        } else {
            // Descend: the slot index is the prefix's next `stride` bits.
            let slot = extract_bits(prefix.addr(), consumed, stride) as usize;
            let child = match self.nodes[node].entries[slot].child {
                Some(c) => c.idx(),
                None => {
                    let next_level = level + 1;
                    let id = NodeId(
                        u32::try_from(self.nodes.len()).expect("stride trie exceeds u32 nodes"),
                    );
                    self.nodes.push(MbNode {
                        level: next_level,
                        entries: vec![Entry::default(); 1 << self.strides[next_level]],
                    });
                    self.nodes[node].entries[slot].child = Some(id);
                    id.idx()
                }
            };
            self.insert_at(child, prefix, next_hop);
        }
    }

    /// Longest-prefix match for `ip`.
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        let mut best: Option<(u8, NextHop)> = None;
        let mut node = 0usize;
        loop {
            let level = self.nodes[node].level;
            let consumed = self.boundaries[level];
            let stride = self.strides[level];
            let slot = extract_bits(ip, consumed, stride) as usize;
            let entry = self.nodes[node].entries[slot];
            if let Some(nh) = entry.nhi {
                if best.is_none_or(|(len, _)| entry.nhi_len >= len) {
                    best = Some((entry.nhi_len, nh));
                }
            }
            match entry.child {
                Some(child) => node = child.idx(),
                None => break,
            }
        }
        best.map(|(_, nh)| nh)
    }

    /// Per-level statistics: every entry slot is a memory word; a slot
    /// counts as a "prefix node" when it stores an expanded NHI.
    #[must_use]
    pub fn stats(&self) -> TrieStats {
        let mut stats = TrieStats::default();
        for node in &self.nodes {
            for entry in &node.entries {
                stats.record(
                    node.level as u8,
                    entry.child.is_none(),
                    entry.nhi.is_some(),
                );
            }
        }
        stats
    }

    /// One hardware walk step from `node_idx` (the pipeline-stage view):
    /// reads the slot selected by `ip`'s bits for that node's stride and
    /// returns `(expanded NHI stored there, child node to continue at)`.
    /// Deeper NHIs are always longer, so the caller may simply overwrite
    /// its running result.
    #[must_use]
    pub fn walk_step(&self, node_idx: u32, ip: u32) -> (Option<NextHop>, Option<u32>) {
        let node = &self.nodes[node_idx as usize];
        let consumed = self.boundaries[node.level];
        let stride = self.strides[node.level];
        let slot = extract_bits(ip, consumed, stride) as usize;
        let entry = node.entries[slot];
        (entry.nhi, entry.child.map(|c| c.idx() as u32))
    }

    /// Per-stage memory bits: entries × (NHI + original-length tag +
    /// child pointer), one stage per stride level.
    #[must_use]
    pub fn per_stage_memory_bits(&self, entry_bits: u32) -> Vec<u64> {
        let mut per_level = vec![0u64; self.levels()];
        for node in &self.nodes {
            per_level[node.level] += node.entries.len() as u64 * u64::from(entry_bits);
        }
        per_level
    }
}

/// Extracts `count` bits of `addr` starting `offset` bits from the MSB.
fn extract_bits(addr: u32, offset: u8, count: u8) -> u32 {
    debug_assert!(offset + count <= 32 && count > 0);
    let shifted = addr >> (32 - u32::from(offset) - u32::from(count));
    shifted & ((1u64 << count) as u32).wrapping_sub(1)
}

impl crate::LookupBackend for StrideTrie {
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
    use vr_net::{Ipv4Prefix, RouteEntry};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn schedule_validation() {
        assert!(StrideTrie::new(&[]).is_err());
        assert!(StrideTrie::new(&[0, 32]).is_err());
        assert!(StrideTrie::new(&[16, 16]).is_err()); // stride > 8
        assert!(StrideTrie::new(&[8, 8, 8, 4]).is_err()); // sums to 28
        assert!(StrideTrie::new(&[8, 8, 8, 8]).is_ok());
        assert!(StrideTrie::uniform(4).is_ok());
        assert!(StrideTrie::uniform(5).is_err()); // does not divide 32
        assert!(StrideTrie::uniform(0).is_err());
    }

    #[test]
    fn uniform_levels() {
        assert_eq!(StrideTrie::uniform(1).unwrap().levels(), 32);
        assert_eq!(StrideTrie::uniform(4).unwrap().levels(), 8);
        assert_eq!(StrideTrie::uniform(8).unwrap().levels(), 4);
    }

    #[test]
    fn cpe_expands_mid_stride_prefixes() {
        // /6 prefix inside an 8-bit stride expands into 4 slots.
        let table = RoutingTable::from_entries([RouteEntry::new(p("4.0.0.0/6"), 7)]);
        let trie = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
        assert_eq!(trie.lookup(0x0400_0000), Some(7)); // 4.0.0.0
        assert_eq!(trie.lookup(0x0700_0000), Some(7)); // 7.255... still /6
        assert_eq!(trie.lookup(0x0800_0000), None); // outside
        assert_eq!(trie.node_count(), 1);
    }

    #[test]
    fn cpe_priority_keeps_longest_prefix() {
        // /4 and /6 overlap in the same stride; /6 must win inside its
        // range regardless of insertion order.
        for order in [[0usize, 1], [1, 0]] {
            let entries = [
                RouteEntry::new(p("0.0.0.0/4"), 1),
                RouteEntry::new(p("4.0.0.0/6"), 2),
            ];
            let mut trie = StrideTrie::uniform(8).unwrap();
            for &i in &order {
                trie.insert(entries[i].prefix, entries[i].next_hop);
            }
            assert_eq!(trie.lookup(0x0400_0000), Some(2), "order {order:?}");
            assert_eq!(trie.lookup(0x0100_0000), Some(1), "order {order:?}");
        }
    }

    #[test]
    fn default_route_fills_root() {
        let table = RoutingTable::from_entries([RouteEntry::new(p("0.0.0.0/0"), 9)]);
        let trie = StrideTrie::from_table(&table, &[4, 4, 4, 4, 4, 4, 4, 4]).unwrap();
        assert_eq!(trie.lookup(0xDEAD_BEEF), Some(9));
    }

    #[test]
    fn matches_oracle_on_paper_scale_table() {
        let table = TableSpec::paper_worst_case(33).generate().unwrap();
        for strides in [vec![8u8, 8, 8, 8], vec![4; 8], vec![2; 16], vec![6, 6, 6, 6, 4, 4]] {
            let trie = StrideTrie::from_table(&table, &strides).unwrap();
            assert_eq!(trie.prefix_count(), table.len());
            let mut probes: Vec<u32> =
                table.prefixes().map(|q| q.addr().wrapping_add(5)).collect();
            probes.extend([0u32, u32::MAX, 0x8080_8080]);
            for ip in probes {
                assert_eq!(
                    trie.lookup(ip),
                    table.lookup(ip),
                    "strides {strides:?} ip {ip:#010x}"
                );
            }
        }
    }

    #[test]
    fn wider_strides_trade_depth_for_memory() {
        let table = TableSpec::paper_worst_case(34).generate().unwrap();
        let narrow = StrideTrie::from_table(&table, &[2; 16]).unwrap();
        let wide = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
        assert!(wide.levels() < narrow.levels());
        assert!(
            wide.entry_count() > narrow.entry_count(),
            "wide {} vs narrow {}",
            wide.entry_count(),
            narrow.entry_count()
        );
    }

    #[test]
    fn per_stage_memory_accounts_every_entry() {
        let table = TableSpec::paper_worst_case(35).generate().unwrap();
        let trie = StrideTrie::from_table(&table, &[4; 8]).unwrap();
        let per_stage = trie.per_stage_memory_bits(32);
        assert_eq!(per_stage.len(), 8);
        let total: u64 = per_stage.iter().sum();
        assert_eq!(total, trie.entry_count() as u64 * 32);
    }

    #[test]
    fn stats_cover_all_slots() {
        let table = TableSpec::paper_worst_case(36).generate().unwrap();
        let trie = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
        let stats = trie.stats();
        assert_eq!(stats.total_nodes, trie.entry_count());
        assert!(stats.check_invariants());
        assert!(stats.depth() <= 4);
    }

    #[test]
    fn extract_bits_examples() {
        assert_eq!(extract_bits(0xF000_0000, 0, 4), 0xF);
        assert_eq!(extract_bits(0x0F00_0000, 4, 4), 0xF);
        assert_eq!(extract_bits(0xFFFF_FFFF, 24, 8), 0xFF);
        assert_eq!(extract_bits(0x0000_0001, 31, 1), 1);
    }
}
