//! Level-ordered (CSR-style) flat trie storage — the software rendition of
//! the paper's per-stage pipeline BRAMs (§V-D).
//!
//! The pointer tries in this crate ([`UnibitTrie`], [`LeafPushedTrie`],
//! [`MergedLeafPushed`]) allocate nodes in insertion order, so a lookup
//! walking root→leaf hops across unrelated arena slots: every level is a
//! potential cache miss on a line holding mostly foreign nodes. The
//! hardware design has no such problem — stage `i` owns a private BRAM
//! holding *exactly* the level-`i` nodes, addressed by a compact offset
//! from stage `i−1`.
//!
//! [`FlatTrie`] mirrors that layout in memory: nodes are stored
//! breadth-first, one contiguous slab per level, each node packed into a
//! single `u32` word. Internal-node words hold the absolute index of the
//! left child (children of a full binary trie are emitted adjacently, so
//! one offset addresses both); leaf words hold an index into a separate
//! NHI slab, matching the paper's split of pipeline memory into "pointer"
//! and "NHI" words (Fig. 4). The NHI slab is `K` entries wide per leaf so
//! one structure serves both single tries (`K = 1`) and the K-way merged
//! scheme's VNID-indexed vectors (§IV-C).
//!
//! [`FlatStrideTrie`] applies the same discipline to the fixed-stride
//! multi-bit trie: per-level entry slabs, one `u64` word per entry
//! (expanded NHI + child base offset).
//!
//! Both types offer `lookup` (scalar oracle shape) and `lookup_batch`
//! (stage-lockstep software pipelining): a batch of B destinations is
//! advanced one level per pass, so each pass streams through a single
//! level slab with B independent loads in flight instead of B dependent
//! pointer chases — the same trick that lets the hardware keep one lookup
//! per stage per cycle.

use crate::leafpush::LeafPushedTrie;
use crate::merge::MergedLeafPushed;
use crate::multibit::StrideTrie;
use crate::unibit::{NodeId, UnibitTrie};
use serde::{Deserialize, Serialize};
use vr_net::table::NextHop;

/// High bit of a node word: set for leaves.
pub const LEAF_BIT: u32 = 1 << 31;
/// Low 31 bits of a node word: child base (internal) or NHI-slab slot (leaf).
pub const PAYLOAD_MASK: u32 = LEAF_BIT - 1;

/// Encoded `Option<NextHop>`: `0` = no route, `1 + nh` = `Some(nh)`.
type NhiCode = u16;

#[inline]
fn encode_nhi(nhi: Option<NextHop>) -> NhiCode {
    match nhi {
        Some(nh) => 1 + NhiCode::from(nh),
        None => 0,
    }
}

#[inline]
#[allow(clippy::cast_possible_truncation)]
fn decode_nhi(code: NhiCode) -> Option<NextHop> {
    code.checked_sub(1).map(|v| v as NextHop)
}

/// A full binary trie stored level-by-level in contiguous arrays.
///
/// Built from any of the crate's binary-trie representations; lookups are
/// semantically identical to the source structure's (leaf pushing
/// preserves longest-prefix-match results).
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::{FlatTrie, UnibitTrie};
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.0.0/16 2\n".parse().unwrap();
/// let flat = FlatTrie::from_unibit(&UnibitTrie::from_table(&table));
/// assert_eq!(flat.lookup(0x0A01_0000), Some(2));
///
/// let dsts = [0x0A01_0000, 0x0A02_0000, 0x0B00_0000];
/// let mut out = [None; 3];
/// flat.lookup_batch(&dsts, &mut out);
/// assert_eq!(out, [Some(2), Some(1), None]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatTrie {
    /// Node words, levels concatenated in breadth-first order.
    words: Vec<u32>,
    /// Start of each level in `words`, plus one end sentinel.
    level_offsets: Vec<u32>,
    /// Leaf NHI vectors: `k` consecutive codes per leaf, indexed by VNID.
    nhis: Vec<NhiCode>,
    /// NHI vector width (1 for single tries, K for merged).
    k: usize,
}

/// Borrowed view of a [`FlatTrie`]'s raw encoding, consumed by the
/// `vr-audit` structural verifier. Field meanings match the private
/// fields of [`FlatTrie`] one for one.
#[derive(Debug, Clone, Copy)]
pub struct FlatTrieParts<'a> {
    /// Node words, levels concatenated breadth-first.
    pub words: &'a [u32],
    /// Start of each level in `words`, plus one end sentinel.
    pub level_offsets: &'a [u32],
    /// Leaf NHI vectors, `k` consecutive codes per leaf.
    pub nhis: &'a [u16],
    /// NHI vector width.
    pub k: usize,
}

impl FlatTrie {
    /// Flattens a leaf-pushed trie (`K = 1`).
    #[must_use]
    pub fn from_leaf_pushed(trie: &LeafPushedTrie) -> Self {
        Self::build(
            trie.root(),
            trie.node_count(),
            1,
            |id| trie.node_children(id),
            |id, _vn| trie.node_nhi(id),
        )
    }

    /// Leaf-pushes and flattens a uni-bit trie (`K = 1`).
    #[must_use]
    pub fn from_unibit(trie: &UnibitTrie) -> Self {
        Self::from_leaf_pushed(&LeafPushedTrie::from_unibit(trie))
    }

    /// Flattens a K-way merged leaf-pushed trie; leaves keep their K-wide
    /// VNID-indexed NHI vectors.
    #[must_use]
    pub fn from_merged(trie: &MergedLeafPushed) -> Self {
        Self::build(
            trie.root(),
            trie.node_count(),
            trie.arity(),
            |id| trie.node_children(id),
            |id, vn| trie.node_nhi_for(id, vn),
        )
    }

    /// Breadth-first flattening over any full-binary node accessor pair.
    fn build(
        root: NodeId,
        node_count: usize,
        k: usize,
        children: impl Fn(NodeId) -> Option<(NodeId, NodeId)>,
        nhi: impl Fn(NodeId, usize) -> Option<NextHop>,
    ) -> Self {
        assert!(k >= 1, "NHI vector width must be at least 1");
        let mut words = Vec::with_capacity(node_count);
        let mut level_offsets = vec![0u32];
        let mut nhis = Vec::new();
        let mut frontier = vec![root];
        let mut next = Vec::new();
        while !frontier.is_empty() {
            // Children of this level are emitted adjacently into the next
            // level's slab, whose absolute start is already known.
            let next_offset = u32::try_from(words.len() + frontier.len())
                .expect("flat trie exceeds u32 words");
            for &id in &frontier {
                match children(id) {
                    Some((l, r)) => {
                        let child_base = next_offset + u32::try_from(next.len()).unwrap();
                        debug_assert_eq!(child_base & LEAF_BIT, 0, "flat trie too large");
                        words.push(child_base);
                        next.push(l);
                        next.push(r);
                    }
                    None => {
                        let slot = u32::try_from(nhis.len() / k).expect("NHI slab overflow");
                        words.push(LEAF_BIT | slot);
                        for vn in 0..k {
                            nhis.push(encode_nhi(nhi(id, vn)));
                        }
                    }
                }
            }
            level_offsets.push(next_offset);
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        Self {
            words,
            level_offsets,
            nhis,
            k,
        }
    }

    /// The raw encoding, for structural auditing and serialization.
    #[must_use]
    pub fn raw_parts(&self) -> FlatTrieParts<'_> {
        FlatTrieParts {
            words: &self.words,
            level_offsets: &self.level_offsets,
            nhis: &self.nhis,
            k: self.k,
        }
    }

    /// Reassembles a trie from raw encoding parts **without validation** —
    /// the inverse of [`FlatTrie::raw_parts`]. Intended for deserialized
    /// artifacts and for the mutation tests that feed deliberately corrupt
    /// encodings to the `vr-audit` verifier. Lookups on malformed parts
    /// may panic or return wrong routes; run the audit first.
    #[must_use]
    pub fn from_raw_parts(
        words: Vec<u32>,
        level_offsets: Vec<u32>,
        nhis: Vec<u16>,
        k: usize,
    ) -> Self {
        Self {
            words,
            level_offsets,
            nhis,
            k,
        }
    }

    /// NHI vector width (1, or K for merged tries).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Total node words.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.words.len()
    }

    /// Number of levels (pipeline stages a lookup can traverse).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Number of leaves (NHI vectors stored).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nhis.len() / self.k
    }

    /// The node words of one level — the contents of that stage's BRAM.
    #[must_use]
    pub fn stage_slab(&self, level: usize) -> &[u32] {
        let lo = self.level_offsets[level] as usize;
        let hi = self.level_offsets[level + 1] as usize;
        &self.words[lo..hi]
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
        let mut word = self.words[0];
        let mut level = 0u32;
        while word & LEAF_BIT == 0 {
            debug_assert!(level < 32, "full trie deeper than address width");
            let bit = (ip >> (31 - level)) & 1;
            word = self.words[(word + bit) as usize];
            level += 1;
        }
        let slot = (word & PAYLOAD_MASK) as usize;
        decode_nhi(self.nhis[slot * self.k + vnid])
    }

    /// Batched longest-prefix match in VN 0: element `i` of `out` receives
    /// exactly `self.lookup(dsts[i])`.
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch(&self, dsts: &[u32], out: &mut [Option<NextHop>]) {
        self.lookup_batch_vn(0, dsts, out);
    }

    /// Batched longest-prefix match in one virtual network, advancing every
    /// in-flight destination one level per pass (stage lockstep).
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch_vn(&self, vnid: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        assert_eq!(
            dsts.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        debug_assert!(vnid < self.k);
        let root = self.words[0];
        if root & LEAF_BIT != 0 {
            let nh = decode_nhi(self.nhis[(root & PAYLOAD_MASK) as usize * self.k + vnid]);
            out.fill(nh);
            return;
        }
        // `cursor[i]` is the word packet `i` is parked at. Each pass is one
        // linear lane sweep advancing every unresolved packet one level —
        // the loads within a pass are independent, so they overlap instead
        // of forming one long dependency chain per packet. While most lanes
        // are live, resolved lanes keep their leaf word and are skipped by
        // the `LEAF_BIT` test: a dense zip sweep beats maintaining an index
        // list. Once under an eighth of the batch survives, the stragglers
        // finish with plain scalar chases — a handful of lanes gains
        // nothing from lockstep, and this stops a single /32 route from
        // dragging the whole batch through 32 tag-test passes (the cause
        // of the flat batch speedup collapsing to ~1x at paper scale).
        let mut cursor: Vec<u32> = vec![root; dsts.len()];
        let mut remaining = dsts.len();
        let mut level = 0u32;
        while remaining * 8 >= dsts.len() && remaining > 0 {
            debug_assert!(level < 32, "full trie deeper than address width");
            for (cur, (&dst, slot)) in cursor.iter_mut().zip(dsts.iter().zip(out.iter_mut())) {
                let word = *cur;
                if word & LEAF_BIT != 0 {
                    continue;
                }
                let bit = (dst >> (31 - level)) & 1;
                let next = self.words[(word + bit) as usize];
                if next & LEAF_BIT != 0 {
                    *slot = decode_nhi(self.nhis[(next & PAYLOAD_MASK) as usize * self.k + vnid]);
                    remaining -= 1;
                }
                *cur = next;
            }
            level += 1;
        }
        if remaining > 0 {
            for (cur, (&dst, slot)) in cursor.iter().zip(dsts.iter().zip(out.iter_mut())) {
                let mut word = *cur;
                if word & LEAF_BIT != 0 {
                    continue;
                }
                let mut lvl = level;
                while word & LEAF_BIT == 0 {
                    debug_assert!(lvl < 32, "full trie deeper than address width");
                    let bit = (dst >> (31 - lvl)) & 1;
                    word = self.words[(word + bit) as usize];
                    lvl += 1;
                }
                *slot = decode_nhi(self.nhis[(word & PAYLOAD_MASK) as usize * self.k + vnid]);
            }
        }
    }

    /// Pointer-word and NHI-entry memory footprint in bits, mirroring the
    /// paper's Fig. 4 split (pointer words vs NHI words).
    #[must_use]
    pub fn memory_bits(&self, nhi_bits: u64) -> (u64, u64) {
        let pointer_bits = self.words.len() as u64 * 32;
        let nhi_total = self.nhis.len() as u64 * nhi_bits;
        (pointer_bits, nhi_total)
    }
}

/// A fixed-stride multi-bit trie flattened into per-level entry slabs.
///
/// Each entry is one `u64` word packing the expanded NHI with the absolute
/// base offset of the child node's entry block in the next level's slab
/// (`0` = no child; stored offset is `base + 1`).
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::{FlatStrideTrie, StrideTrie};
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.32.0.0/11 2\n".parse().unwrap();
/// let stride = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
/// let flat = FlatStrideTrie::from_stride(&stride);
/// assert_eq!(flat.lookup(0x0A20_0001), Some(2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatStrideTrie {
    /// Entry words, levels concatenated; each node is a `2^stride` run.
    entries: Vec<u64>,
    /// Start of each level in `entries`, plus one end sentinel.
    level_offsets: Vec<u64>,
    /// Stride schedule (bits consumed per level).
    strides: Vec<u8>,
    /// Bits consumed before each level.
    boundaries: Vec<u8>,
}

/// Borrowed view of a [`FlatStrideTrie`]'s raw encoding, consumed by the
/// `vr-audit` structural verifier.
#[derive(Debug, Clone, Copy)]
pub struct FlatStrideParts<'a> {
    /// Entry words, levels concatenated; each node is a `2^stride` run.
    pub entries: &'a [u64],
    /// Start of each level in `entries`, plus one end sentinel.
    pub level_offsets: &'a [u64],
    /// Stride schedule (bits consumed per level).
    pub strides: &'a [u8],
}

/// Bit position of the expanded NHI code inside a stride entry word.
pub const NHI_SHIFT: u32 = 32;

#[inline]
fn pack_entry(nhi: Option<NextHop>, child_base: Option<u64>) -> u64 {
    let child = match child_base {
        Some(base) => base + 1,
        None => 0,
    };
    debug_assert!(child <= u64::from(u32::MAX), "flat stride trie too large");
    (u64::from(encode_nhi(nhi)) << NHI_SHIFT) | child
}

impl FlatStrideTrie {
    /// Flattens a stride trie, preserving its stride schedule.
    #[must_use]
    pub fn from_stride(trie: &StrideTrie) -> Self {
        let strides = trie.strides().to_vec();
        let mut boundaries = Vec::with_capacity(strides.len());
        let mut acc = 0u8;
        for &s in &strides {
            boundaries.push(acc);
            acc += s;
        }

        let mut entries = Vec::with_capacity(trie.entry_count());
        let mut level_offsets = vec![0u64];
        // Frontier of source node ids (root is node 0 by construction).
        let mut frontier: Vec<u32> = vec![0];
        let mut next: Vec<u32> = Vec::new();
        let mut level = 0usize;
        while !frontier.is_empty() {
            let node_width = 1u64 << strides[level];
            let next_width = strides.get(level + 1).map(|&s| 1u64 << s);
            let next_offset = entries.len() as u64 + frontier.len() as u64 * node_width;
            for &node in &frontier {
                for slot in 0..node_width {
                    // Re-read the source entry through the per-stage walk
                    // API by synthesizing an address whose bits at this
                    // level select `slot`.
                    let shift = 32 - boundaries[level] - strides[level];
                    #[allow(clippy::cast_possible_truncation)]
                    let probe = (slot as u32) << shift;
                    let (nhi, child) = trie.walk_step(node, probe);
                    let packed = match child {
                        Some(child_id) => {
                            let width = next_width.expect("child below deepest level");
                            let base = next_offset + next.len() as u64 * width;
                            next.push(child_id);
                            pack_entry(nhi, Some(base))
                        }
                        None => pack_entry(nhi, None),
                    };
                    entries.push(packed);
                }
            }
            level_offsets.push(next_offset);
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            level += 1;
        }
        // Levels the table never reached still get (empty) slabs so
        // `level_offsets` always covers the full schedule.
        while level_offsets.len() <= strides.len() {
            level_offsets.push(entries.len() as u64);
        }
        Self {
            entries,
            level_offsets,
            strides,
            boundaries,
        }
    }

    /// The raw encoding, for structural auditing and serialization.
    #[must_use]
    pub fn raw_parts(&self) -> FlatStrideParts<'_> {
        FlatStrideParts {
            entries: &self.entries,
            level_offsets: &self.level_offsets,
            strides: &self.strides,
        }
    }

    /// Reassembles a trie from raw encoding parts **without validation**
    /// (boundaries are recomputed from the stride schedule). Intended for
    /// deserialized artifacts and the `vr-audit` mutation tests; run the
    /// audit before trusting lookups.
    #[must_use]
    pub fn from_raw_parts(entries: Vec<u64>, level_offsets: Vec<u64>, strides: Vec<u8>) -> Self {
        let mut boundaries = Vec::with_capacity(strides.len());
        let mut acc = 0u8;
        for &s in &strides {
            boundaries.push(acc);
            acc = acc.saturating_add(s);
        }
        Self {
            entries,
            level_offsets,
            strides,
            boundaries,
        }
    }

    /// The stride schedule.
    #[must_use]
    pub fn strides(&self) -> &[u8] {
        &self.strides
    }

    /// Total entry words.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The entry words of one level — that stage's BRAM contents.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn stage_slab(&self, level: usize) -> &[u64] {
        let lo = self.level_offsets[level] as usize;
        let hi = self.level_offsets[level + 1] as usize;
        &self.entries[lo..hi]
    }

    #[inline]
    fn slot_bits(&self, ip: u32, level: usize) -> u64 {
        let stride = self.strides[level];
        let shift = 32 - self.boundaries[level] - stride;
        u64::from((ip >> shift) & ((1u32 << stride) - 1))
    }

    /// Longest-prefix match for `ip`.
    ///
    /// Expanded NHIs found deeper always stem from longer prefixes, so the
    /// running result is simply overwritten per level (same argument as
    /// [`StrideTrie::walk_step`]).
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        let mut base = 0u64;
        let mut best = 0u16;
        for level in 0..self.strides.len() {
            #[allow(clippy::cast_possible_truncation)]
            let word = self.entries[(base + self.slot_bits(ip, level)) as usize];
            let nhi = (word >> NHI_SHIFT) as u16;
            if nhi != 0 {
                best = nhi;
            }
            let child = word & u64::from(u32::MAX);
            if child == 0 {
                break;
            }
            base = child - 1;
        }
        decode_nhi(best)
    }

    /// Batched longest-prefix match, stage-lockstep: element `i` of `out`
    /// receives exactly `self.lookup(dsts[i])`.
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch(&self, dsts: &[u32], out: &mut [Option<NextHop>]) {
        assert_eq!(
            dsts.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        // `base[i]` is the node-block base packet `i` reads next level
        // (`DONE` once the walk fell off the trie). A plain lane sweep per
        // level keeps the per-level entry loads independent without the
        // cost of compacting an index list — stride schedules are at most
        // a handful of levels deep, so there is no long tail to trim.
        const DONE: u64 = u64::MAX;
        let mut base: Vec<u64> = vec![0; dsts.len()];
        let mut best: Vec<u16> = vec![0; dsts.len()];
        let mut remaining = dsts.len();
        for level in 0..self.strides.len() {
            if remaining == 0 {
                break;
            }
            for (cur, (&dst, best)) in base.iter_mut().zip(dsts.iter().zip(best.iter_mut())) {
                let node = *cur;
                if node == DONE {
                    continue;
                }
                #[allow(clippy::cast_possible_truncation)]
                let word = self.entries[(node + self.slot_bits(dst, level)) as usize];
                let nhi = (word >> NHI_SHIFT) as u16;
                if nhi != 0 {
                    *best = nhi;
                }
                let child = word & u64::from(u32::MAX);
                if child == 0 {
                    *cur = DONE;
                    remaining -= 1;
                } else {
                    *cur = child - 1;
                }
            }
        }
        for (slot, nhi) in out.iter_mut().zip(best) {
            *slot = decode_nhi(nhi);
        }
    }
}

/// Forwards to the inherent methods (which win name resolution over the
/// trait's), so generic drivers time the same walks callers name directly.
impl crate::LookupBackend for FlatTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        FlatTrie::lookup_vn(self, vn, ip)
    }

    #[inline]
    fn lookup_batch_vn(&self, vn: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        FlatTrie::lookup_batch_vn(self, vn, dsts, out);
    }
}

impl crate::LookupBackend for FlatStrideTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        debug_assert_eq!(vn, 0, "single-table encoding hosts only VN 0");
        self.lookup(ip)
    }

    #[inline]
    fn lookup_batch_vn(&self, vn: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        debug_assert_eq!(vn, 0, "single-table encoding hosts only VN 0");
        self.lookup_batch(dsts, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergedTrie;
    use vr_net::synth::TableSpec;
    use vr_net::RoutingTable;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn probes(table: &RoutingTable) -> Vec<u32> {
        let mut probes: Vec<u32> = table
            .prefixes()
            .flat_map(|p| [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)])
            .collect();
        probes.extend([0, 1, u32::MAX, 0x8000_0000]);
        probes
    }

    #[test]
    fn empty_trie_is_a_single_leaf() {
        let flat = FlatTrie::from_unibit(&UnibitTrie::new());
        assert_eq!(flat.node_count(), 1);
        assert_eq!(flat.levels(), 1);
        assert_eq!(flat.leaf_count(), 1);
        assert_eq!(flat.lookup(0), None);
        let mut out = [Some(7)];
        flat.lookup_batch(&[123], &mut out);
        assert_eq!(out, [None]);
    }

    #[test]
    fn flat_matches_source_structures() {
        let t = table("0.0.0.0/0 9\n10.0.0.0/8 1\n10.1.0.0/16 2\n192.168.0.0/24 3\n");
        let unibit = UnibitTrie::from_table(&t);
        let pushed = LeafPushedTrie::from_unibit(&unibit);
        let flat = FlatTrie::from_leaf_pushed(&pushed);
        assert_eq!(flat.node_count(), pushed.node_count());
        for ip in probes(&t) {
            assert_eq!(flat.lookup(ip), t.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn level_offsets_partition_the_words() {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let flat = FlatTrie::from_unibit(&UnibitTrie::from_table(&t));
        let total: usize = (0..flat.levels()).map(|l| flat.stage_slab(l).len()).sum();
        assert_eq!(total, flat.node_count());
        // Level 0 is exactly the root.
        assert_eq!(flat.stage_slab(0).len(), 1);
    }

    #[test]
    fn batch_matches_scalar_at_paper_scale() {
        let t = TableSpec::paper_worst_case(11).generate().unwrap();
        let flat = FlatTrie::from_unibit(&UnibitTrie::from_table(&t));
        let dsts = probes(&t);
        let mut out = vec![None; dsts.len()];
        flat.lookup_batch(&dsts, &mut out);
        for (i, &ip) in dsts.iter().enumerate() {
            assert_eq!(out[i], t.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn merged_flat_serves_every_vn() {
        let tables = [
            table("10.0.0.0/8 1\n10.1.0.0/16 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
            table(""),
        ];
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let flat = FlatTrie::from_merged(&merged.leaf_pushed());
        assert_eq!(flat.arity(), 3);
        for (vn, t) in tables.iter().enumerate() {
            for ip in probes(t) {
                assert_eq!(flat.lookup_vn(vn, ip), t.lookup(ip), "vn {vn} ip {ip:#010x}");
            }
            let dsts = probes(t);
            let mut out = vec![None; dsts.len()];
            flat.lookup_batch_vn(vn, &dsts, &mut out);
            for (i, &ip) in dsts.iter().enumerate() {
                assert_eq!(out[i], t.lookup(ip));
            }
        }
    }

    #[test]
    fn flat_stride_matches_source() {
        let t = TableSpec::paper_worst_case(5).generate().unwrap();
        for strides in [&[8u8, 8, 8, 8][..], &[4; 8][..], &[6, 6, 6, 6, 4, 4][..]] {
            let stride = StrideTrie::from_table(&t, strides).unwrap();
            let flat = FlatStrideTrie::from_stride(&stride);
            assert_eq!(flat.entry_count(), stride.entry_count());
            let dsts = probes(&t);
            let mut out = vec![None; dsts.len()];
            flat.lookup_batch(&dsts, &mut out);
            for (i, &ip) in dsts.iter().enumerate() {
                assert_eq!(flat.lookup(ip), t.lookup(ip), "scalar ip {ip:#010x}");
                assert_eq!(out[i], t.lookup(ip), "batch ip {ip:#010x}");
            }
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let flat = FlatTrie::from_unibit(&UnibitTrie::new());
        flat.lookup_batch(&[], &mut []);
        let stride = StrideTrie::from_table(&table(""), &[8, 8, 8, 8]).unwrap();
        let flat = FlatStrideTrie::from_stride(&stride);
        flat.lookup_batch(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "batch destination and output slices must match")]
    fn mismatched_batch_lengths_panic() {
        let flat = FlatTrie::from_unibit(&UnibitTrie::new());
        let mut out = [None; 2];
        flat.lookup_batch(&[1, 2, 3], &mut out);
    }
}
