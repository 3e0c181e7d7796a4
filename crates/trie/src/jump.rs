//! DIR-16 jump-table front end: a 2^16-entry direct-index root table
//! fused with level-ordered sub-trie slabs.
//!
//! A level-ordered slab per trie level fixes the *layout* of the paper's
//! pipeline memories (§V-D) but keeps its *depth*: a /24 route still
//! costs up to 24 dependent loads from the root. Hardware IP-lookup
//! engines (DIR-24-8 and its FPGA tilings — see PAPERS.md) spend cheap
//! dense memory on the top of the trie instead: the first address bits
//! index a direct table in **one** load, and only the minority of longer
//! prefixes continue into a deeper structure.
//!
//! [`JumpTrie`] is the software rendition at a 16-bit split (DIR-16):
//!
//! * `root` — 65 536 `u32` entries, indexed by `ip >> 16`. A leaf entry
//!   (high bit set) resolves the lookup immediately with an NHI-slab
//!   slot; an internal entry is the child-base word of the covering
//!   depth-16 trie node, continuing into `words`.
//! * `words` — the depth ≥ 17 remainder of the leaf-pushed trie, stored
//!   breadth-first, one contiguous slab per level, one `u32` per node.
//!   An internal word holds the absolute index of its left child
//!   (children of a full binary trie are emitted adjacently, so one
//!   offset addresses both); a leaf word ([`LEAF_BIT`] set) holds an
//!   NHI-slab slot — the paper's split of pipeline memory into "pointer"
//!   and "NHI" words (Fig. 4). Because ~90 % of real routes sit at
//!   /16–/24, the remainder is shallow *and small*, so it stays
//!   cache-resident even when the whole trie would not.
//! * `nhis` — K-wide VNID-indexed NHI vectors shared by both tiers, so
//!   one structure serves single tables (K = 1) and the virtualized
//!   merged scheme (§IV-C). Identical vectors share one slot: every
//!   writer of the slab goes through `NhiInterner`, which belongs to
//!   the codec defined here, so the from-scratch builder and
//!   [`JumpSlabs::assemble`](crate::subslab::JumpSlabs::assemble)
//!   publish the same footprint for the same tables.
//!
//! A lookup therefore bottoms out in 1 load for prefixes at /16 or
//! shorter and `1 + (depth − 16)` loads beyond — 2–3 dependent loads for
//! the common /16–/24 band instead of 16–24.
//!
//! The structure is immutable by design: route updates build a fresh
//! `JumpTrie` and publish it atomically (see `vr-engine`'s
//! `LookupService` RCU-style swap), exactly like the hardware reloads a
//! shadow bank while the live bank keeps serving.

use crate::leafpush::LeafPushedTrie;
use crate::unibit::{NodeId, UnibitTrie};
use serde::{Deserialize, Serialize};
use vr_net::table::{NextHop, RoutingTable};

/// High bit of a root entry or node word: set for leaves.
pub const LEAF_BIT: u32 = 1 << 31;
/// Low 31 bits: child base (internal) or NHI-slab slot (leaf).
pub const PAYLOAD_MASK: u32 = LEAF_BIT - 1;

/// Bits resolved by the direct-index root table.
pub const JUMP_BITS: u32 = 16;
/// Number of root-table entries (2^16).
pub const ROOT_ENTRIES: usize = 1 << JUMP_BITS;

/// Encoded `Option<NextHop>`: `0` = no route, `1 + nh` = `Some(nh)`.
pub(crate) type NhiCode = u16;

#[inline]
pub(crate) fn encode_nhi(nhi: Option<NextHop>) -> NhiCode {
    match nhi {
        Some(nh) => 1 + NhiCode::from(nh),
        None => 0,
    }
}

#[inline]
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn decode_nhi(code: NhiCode) -> Option<NextHop> {
    code.checked_sub(1).map(|v| v as NextHop)
}

/// The NHI slab's writer: deduplicates K-wide vectors into the growing
/// slab, returning each vector's slot. Both builders of a [`JumpTrie`]
/// ([`JumpTrie::from_leaf_pushed`] and
/// [`JumpSlabs::assemble`](crate::subslab::JumpSlabs::assemble)) emit
/// their leaves through it, so the same tables publish the same-sized
/// structure whichever path built it — the hardware's shared NHI memory,
/// and the footprint the control plane prices in watts.
///
/// A build interns one vector per direct bucket (up to 65,536) plus one
/// per leaf word, while the distinct-vector count is orders of magnitude
/// smaller — and repeats arrive in long address-space runs (an empty /8
/// is thousands of consecutive identical direct buckets). Two levels
/// exploit that shape:
///
/// * a **last-vector memo** short-circuits consecutive repeats with one
///   slice compare, no hashing;
/// * misses go through an open-addressed table keyed by an FNV-1a hash,
///   with keys stored as slots into the slab itself (no owned `Vec`
///   keys, no `SipHash`) — the per-publish assembly is on the control
///   plane's per-batch path, so constant factors here are throughput.
pub(crate) struct NhiInterner {
    k: usize,
    /// The growing NHI slab (k entries per interned vector).
    slab: Vec<NhiCode>,
    /// Open-addressed table of `(fnv_hash, slot + 1)`; 0 means empty.
    table: Vec<(u64, u32)>,
    /// Live entries, to trigger growth at 1/2 load.
    len: usize,
    /// Memo of the most recently interned vector's slot.
    last: Option<u32>,
}

impl NhiInterner {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            slab: Vec::new(),
            table: vec![(0, 0); 1024],
            len: 0,
            last: None,
        }
    }

    fn hash(vector: &[NhiCode]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &x in vector {
            h = (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn slot_slice(&self, slot: u32) -> &[NhiCode] {
        let start = slot as usize * self.k;
        &self.slab[start..start + self.k]
    }

    pub(crate) fn intern(&mut self, vector: &[NhiCode]) -> u32 {
        debug_assert_eq!(vector.len(), self.k);
        if let Some(slot) = self.last {
            if self.slot_slice(slot) == vector {
                return slot;
            }
        }
        let hash = Self::hash(vector);
        let mask = self.table.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, tagged) = self.table[i];
            if tagged == 0 {
                break;
            }
            let slot = tagged - 1;
            if h == hash && self.slot_slice(slot) == vector {
                self.last = Some(slot);
                return slot;
            }
            i = (i + 1) & mask;
        }
        let slot = u32::try_from(self.slab.len() / self.k).expect("NHI slab overflow");
        debug_assert_eq!(slot & LEAF_BIT, 0, "jump trie too large");
        self.slab.extend_from_slice(vector);
        self.table[i] = (hash, slot + 1);
        self.len += 1;
        self.last = Some(slot);
        if self.len * 2 >= self.table.len() {
            self.grow();
        }
        slot
    }

    fn grow(&mut self) {
        let next = vec![(0u64, 0u32); self.table.len() * 2];
        let old = std::mem::replace(&mut self.table, next);
        let mask = self.table.len() - 1;
        for (h, tagged) in old {
            if tagged == 0 {
                continue;
            }
            let mut i = (h as usize) & mask;
            while self.table[i].1 != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = (h, tagged);
        }
    }

    pub(crate) fn into_slab(self) -> Vec<NhiCode> {
        self.slab
    }
}

/// Two-tier lookup structure: direct-indexed first 16 bits, level-slab
/// binary trie for the remainder.
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::JumpTrie;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let jump = JumpTrie::from_table(&table);
/// assert_eq!(jump.lookup(0x0A01_0103), Some(2)); // 3 loads: root + 2 levels
/// assert_eq!(jump.lookup(0x0A02_0000), Some(1)); // 1 load: root entry is final
///
/// let dsts = [0x0A01_0103, 0x0A02_0000, 0x0B00_0000];
/// let mut out = [None; 3];
/// jump.lookup_batch(&dsts, &mut out);
/// assert_eq!(out, [Some(2), Some(1), None]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JumpTrie {
    /// 2^16 direct-index entries, one per /16 bucket.
    root: Vec<u32>,
    /// Depth ≥ 17 node words, levels concatenated breadth-first
    /// (level 0 holds the depth-17 nodes).
    words: Vec<u32>,
    /// Start of each sub-slab level in `words`, plus one end sentinel.
    level_offsets: Vec<u32>,
    /// Leaf NHI vectors: `k` consecutive codes per leaf, VNID-indexed.
    nhis: Vec<NhiCode>,
    /// NHI vector width (1 for single tries, K for merged).
    k: usize,
}

/// Borrowed view of a [`JumpTrie`]'s raw encoding, consumed by the
/// `vr-audit` structural verifier. Field meanings match the private
/// fields of [`JumpTrie`] one for one.
#[derive(Debug, Clone, Copy)]
pub struct JumpTrieParts<'a> {
    /// 2^16 direct-index entries, one per /16 bucket.
    pub root: &'a [u32],
    /// Depth ≥ 17 node words, levels concatenated breadth-first.
    pub words: &'a [u32],
    /// Start of each sub-slab level in `words`, plus one end sentinel.
    pub level_offsets: &'a [u32],
    /// Leaf NHI vectors, `k` consecutive codes per leaf.
    pub nhis: &'a [u16],
    /// NHI vector width.
    pub k: usize,
}

impl JumpTrie {
    /// The raw encoding, for structural auditing and serialization.
    #[must_use]
    pub fn raw_parts(&self) -> JumpTrieParts<'_> {
        JumpTrieParts {
            root: &self.root,
            words: &self.words,
            level_offsets: &self.level_offsets,
            nhis: &self.nhis,
            k: self.k,
        }
    }

    /// Reassembles a trie from raw encoding parts **without validation** —
    /// the inverse of [`JumpTrie::raw_parts`]. This is the ingestion path
    /// for serialized table artifacts (and for the mutation tests that
    /// feed deliberately corrupt encodings to the verifier): nothing here
    /// proves the words well-formed, so callers must run the `vr-audit`
    /// structural checks before publishing the result to a datapath.
    #[must_use]
    pub fn from_raw_parts(
        root: Vec<u32>,
        words: Vec<u32>,
        level_offsets: Vec<u32>,
        nhis: Vec<u16>,
        k: usize,
    ) -> Self {
        Self {
            root,
            words,
            level_offsets,
            nhis,
            k,
        }
    }

    /// Builds the jump trie from a leaf-pushed trie of any arity; leaves
    /// keep their K-wide VNID-indexed NHI vectors, interned into one slab.
    ///
    /// Descends the full binary trie to depth 16, writing final entries
    /// for leaves met on the way, then flattens the surviving depth-16
    /// subtrees breadth-first into `words`.
    #[must_use]
    pub fn from_leaf_pushed(trie: &LeafPushedTrie) -> Self {
        let k = trie.arity();
        let mut table = vec![0u32; ROOT_ENTRIES];
        let mut interner = NhiInterner::new(k);
        let mut codes: Vec<NhiCode> = vec![0; k];
        let mut emit_leaf = |id: NodeId| -> u32 {
            for (code, nhi) in codes.iter_mut().zip(trie.node_nhis(id)) {
                *code = encode_nhi(*nhi);
            }
            LEAF_BIT | interner.intern(&codes)
        };

        // Iterative descent to depth 16. `stack` holds (node, index of the
        // first covered /16 bucket, depth); a leaf above the cut covers a
        // whole aligned run of buckets and is emitted once.
        let mut subtrees: Vec<NodeId> = Vec::new(); // depth-16 internal nodes
        let mut subtree_buckets: Vec<usize> = Vec::new(); // their root slots
        let mut stack: Vec<(NodeId, usize, u32)> = vec![(NodeId::ROOT, 0, 0)];
        while let Some((id, bucket, depth)) = stack.pop() {
            match trie.node_children(id) {
                None => {
                    let entry = emit_leaf(id);
                    let run = 1usize << (JUMP_BITS - depth);
                    table[bucket..bucket + run].fill(entry);
                }
                Some((l, r)) if depth < JUMP_BITS => {
                    let half = 1usize << (JUMP_BITS - depth - 1);
                    stack.push((r, bucket + half, depth + 1));
                    stack.push((l, bucket, depth + 1));
                }
                Some(_) => {
                    // Internal node exactly at the cut: its children open
                    // the sub-slab; the entry is patched below once the
                    // child base is known.
                    subtree_buckets.push(bucket);
                    subtrees.push(id);
                }
            }
        }

        // Flatten all surviving subtrees together, level by level: the
        // frontier of depth-17 nodes is the children of every depth-16
        // internal node, emitted adjacently — so a root entry is simply
        // the base index of its two children, the same encoding as an
        // internal sub-slab word.
        let mut words: Vec<u32> = Vec::new();
        let mut level_offsets = vec![0u32];
        let mut frontier: Vec<NodeId> = Vec::with_capacity(subtrees.len() * 2);
        for (&id, &bucket) in subtrees.iter().zip(&subtree_buckets) {
            let (l, r) = trie.node_children(id).expect("subtree roots are internal");
            let child_base = u32::try_from(frontier.len()).expect("jump trie too large");
            debug_assert_eq!(child_base & LEAF_BIT, 0, "jump trie too large");
            table[bucket] = child_base;
            frontier.push(l);
            frontier.push(r);
        }
        let mut next: Vec<NodeId> = Vec::new();
        while !frontier.is_empty() {
            let next_offset = u32::try_from(words.len() + frontier.len())
                .expect("jump trie exceeds u32 words");
            for &id in &frontier {
                match trie.node_children(id) {
                    Some((l, r)) => {
                        let child_base = next_offset + u32::try_from(next.len()).unwrap();
                        debug_assert_eq!(child_base & LEAF_BIT, 0, "jump trie too large");
                        words.push(child_base);
                        next.push(l);
                        next.push(r);
                    }
                    None => words.push(emit_leaf(id)),
                }
            }
            level_offsets.push(next_offset);
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        Self {
            root: table,
            words,
            level_offsets,
            nhis: interner.into_slab(),
            k,
        }
    }

    /// Leaf-pushes and converts a uni-bit trie (`K = 1`).
    #[must_use]
    pub fn from_unibit(trie: &UnibitTrie) -> Self {
        Self::from_leaf_pushed(&LeafPushedTrie::from_unibit(trie))
    }

    /// Builds directly from a routing table (`K = 1`).
    #[must_use]
    pub fn from_table(table: &RoutingTable) -> Self {
        Self::from_unibit(&UnibitTrie::from_table(table))
    }

    /// [`JumpTrie::from_leaf_pushed`] under its pre-unification name, kept
    /// only because `benchmark/src/layers.rs` spells
    /// `JumpTrie::from_leaf_pushed(&merged.leaf_pushed())` and a PR that changes
    /// the library may not edit the benchmark; it goes when a
    /// `benchmark`-type PR switches that call.
    #[must_use]
    pub fn from_merged(trie: &LeafPushedTrie) -> Self {
        Self::from_leaf_pushed(trie)
    }

    /// NHI vector width (1, or K for merged tries).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Node words stored below the jump table (depth ≥ 17 remainder).
    #[must_use]
    pub fn sub_node_count(&self) -> usize {
        self.words.len()
    }

    /// Number of sub-slab levels (the deepest lookup costs one root load
    /// plus this many word loads).
    #[must_use]
    pub fn sub_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Number of NHI vectors stored.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nhis.len() / self.k
    }

    /// Fraction of root entries that resolve in a single load.
    #[must_use]
    pub fn direct_hit_fraction(&self) -> f64 {
        let direct = self.root.iter().filter(|&&e| e & LEAF_BIT != 0).count();
        direct as f64 / ROOT_ENTRIES as f64
    }

    /// Memory footprint in bits `(root, sub-slab pointer words, NHI
    /// entries)`, the Fig. 4-style split extended with the DIR table.
    #[must_use]
    pub fn memory_bits(&self, nhi_bits: u64) -> (u64, u64, u64) {
        (
            self.root.len() as u64 * 32,
            self.words.len() as u64 * 32,
            self.nhis.len() as u64 * nhi_bits,
        )
    }

    /// Longest-prefix match in VN 0 (the only VN for single tries).
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        self.lookup_vn(0, ip)
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`.
    #[must_use]
    pub fn lookup_vn(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        debug_assert!(vnid < self.k);
        let mut word = self.root[(ip >> JUMP_BITS) as usize];
        let mut level = JUMP_BITS;
        while word & LEAF_BIT == 0 {
            debug_assert!(level < 32, "full trie deeper than address width");
            let bit = (ip >> (31 - level)) & 1;
            word = self.words[(word + bit) as usize];
            level += 1;
        }
        let slot = (word & PAYLOAD_MASK) as usize;
        decode_nhi(self.nhis[slot * self.k + vnid])
    }

    /// Batched longest-prefix match in VN 0: element `i` of `out`
    /// receives exactly `self.lookup(dsts[i])`.
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch(&self, dsts: &[u32], out: &mut [Option<NextHop>]) {
        self.lookup_batch_vn(0, dsts, out);
    }

    /// Batched longest-prefix match in one virtual network, via the
    /// lane-interleaved stepper (see [`crate::lane`]): a fixed-width
    /// group of in-flight keys advances one DIR-16 + sub-slab stage per
    /// iteration with each lane's next word prefetched a stage ahead,
    /// retiring and refilling lanes so divergent-depth keys never stall
    /// the group. Allocation-free.
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch_vn(&self, vnid: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        crate::lane::lookup_lanes_vn::<{ crate::lane::DEFAULT_LANE_WIDTH }>(
            self, vnid, dsts, out,
        );
    }
}

/// Forwards to the inherent methods (which win name resolution over the
/// trait's), so generic drivers time the same walks callers name directly.
impl crate::LookupBackend for JumpTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        JumpTrie::lookup_vn(self, vn, ip)
    }

    #[inline]
    fn lookup_batch_vn(&self, vn: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        JumpTrie::lookup_batch_vn(self, vn, dsts, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergedTrie;
    use vr_net::synth::TableSpec;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn probes(table: &RoutingTable) -> Vec<u32> {
        let mut probes: Vec<u32> = table
            .prefixes()
            .flat_map(|p| [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)])
            .collect();
        probes.extend([0, 1, u32::MAX, 0x8000_0000, 0x0000_FFFF, 0x0001_0000]);
        probes
    }

    #[test]
    fn empty_trie_resolves_everything_to_none() {
        let jump = JumpTrie::from_unibit(&UnibitTrie::new());
        assert_eq!(jump.sub_node_count(), 0);
        assert_eq!(jump.sub_levels(), 0);
        assert_eq!(jump.leaf_count(), 1);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        assert_eq!(jump.lookup(0), None);
        assert_eq!(jump.lookup(u32::MAX), None);
        let mut out = [Some(7)];
        jump.lookup_batch(&[123], &mut out);
        assert_eq!(out, [None]);
    }

    #[test]
    fn matches_table_oracle_across_prefix_lengths() {
        let t = table(
            "0.0.0.0/0 9\n10.0.0.0/8 1\n10.1.0.0/16 2\n10.1.1.0/24 3\n\
             10.1.1.1/32 4\n192.168.0.0/17 5\n128.0.0.0/1 6\n",
        );
        let jump = JumpTrie::from_table(&t);
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn short_prefixes_resolve_in_the_root_table() {
        // All routes at /16 or shorter: no sub-slab at all.
        let t = table("10.0.0.0/8 1\n10.1.0.0/16 2\n0.0.0.0/0 3\n");
        let jump = JumpTrie::from_table(&t);
        assert_eq!(jump.sub_node_count(), 0);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip));
        }
    }

    #[test]
    fn paper_scale_parity_with_oracle() {
        let t = TableSpec::paper_worst_case(11).generate().unwrap();
        let pushed = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&t));
        let jump = JumpTrie::from_leaf_pushed(&pushed);
        let dsts = probes(&t);
        let mut out = vec![None; dsts.len()];
        jump.lookup_batch(&dsts, &mut out);
        for (i, &ip) in dsts.iter().enumerate() {
            let expect = t.lookup(ip);
            assert_eq!(jump.lookup(ip), expect, "scalar ip {ip:#010x}");
            assert_eq!(out[i], expect, "batch ip {ip:#010x}");
        }
        // The sub-slabs only hold the > /16 remainder.
        assert!(jump.sub_levels() <= 16);
        assert!(jump.sub_node_count() < pushed.node_count());
    }

    #[test]
    fn merged_jump_serves_every_vn() {
        let tables = [
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n172.16.5.0/26 9\n"),
            table(""),
        ];
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let jump = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert_eq!(jump.arity(), 3);
        for (vn, t) in tables.iter().enumerate() {
            for ip in probes(t) {
                assert_eq!(jump.lookup_vn(vn, ip), t.lookup(ip), "vn {vn} ip {ip:#010x}");
            }
            let dsts = probes(t);
            let mut out = vec![None; dsts.len()];
            jump.lookup_batch_vn(vn, &dsts, &mut out);
            for (i, &ip) in dsts.iter().enumerate() {
                assert_eq!(out[i], t.lookup(ip));
            }
        }
    }

    #[test]
    fn memory_split_accounts_every_word() {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let jump = JumpTrie::from_table(&t);
        let (root_bits, word_bits, nhi_bits) = jump.memory_bits(8);
        assert_eq!(root_bits, (ROOT_ENTRIES as u64) * 32);
        assert_eq!(word_bits, jump.sub_node_count() as u64 * 32);
        assert_eq!(nhi_bits, jump.leaf_count() as u64 * 8);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let jump = JumpTrie::from_unibit(&UnibitTrie::new());
        jump.lookup_batch(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "batch destination and output slices must match")]
    fn mismatched_batch_lengths_panic() {
        let jump = JumpTrie::from_unibit(&UnibitTrie::new());
        let mut out = [None; 2];
        jump.lookup_batch(&[1, 2, 3], &mut out);
    }
}
