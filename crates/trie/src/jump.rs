//! DIR-16-8-8: a 2^16-entry direct-index root table over a tail of
//! 256-entry stride-8 blocks — the serving structure.
//!
//! The paper's engine (§V-D) answers one lookup per cycle whatever the
//! prefix depth, because each pipeline stage owns one trie level. Software
//! pays for depth: every level is a dependent load. Hardware IP-lookup
//! engines (DIR-24-8 and its FPGA tilings, MashUp's fixed-stride tiles —
//! see PAPERS.md) spend dense memory to bound it, and [`JumpTrie`] does
//! the same with three fixed strides, 16 + 8 + 8:
//!
//! * `root` — 65 536 `u32` entries, indexed by `ip >> 16`. A leaf entry
//!   ([`LEAF_BIT`] set) resolves the lookup with an NHI-slab slot; an
//!   internal entry is the base in `tail` of the bucket's level-1 block.
//! * `tail` — 256-entry blocks, each the leaf-pushed trie below one node
//!   expanded over the next 8 address bits. A level-1 block (bits 16–23)
//!   holds leaves or bases of level-2 blocks (bits 24–31); a level-2
//!   block holds leaves only, since a full trie over 32-bit addresses has
//!   no internal node at depth 32. Blocks lie bucket by bucket in address
//!   order, a bucket's level-1 block ahead of its level-2 blocks.
//! * `nhis` — K-wide VNID-indexed NHI vectors shared by every tier, so
//!   one structure serves single tables (K = 1) and the virtualized
//!   merged scheme (§IV-C). Identical vectors share one slot: every
//!   writer goes through `NhiInterner`.
//!
//! A lookup is `root[ip >> 16]` → `tail[e + ((ip >> 8) & 255)]` →
//! `tail[e + (ip & 255)]` → `nhis[slot·K + vn]`: **at most three slab
//! loads and one NHI load, two forward branches, no loop**. The price is
//! the DIR-24-8 trade — a leaf `d` bits into a block is stored `2^(8−d)`
//! times — so the K = 15 paper family's tail is 4 433 KiB (4 294 level-1
//! and 139 level-2 blocks) where one word per binary node was 342 KiB,
//! and a 1 M-prefix table's is 18.3 MiB where it was 5.6 MiB. The walk
//! is 2–5× shorter at every measured scale (DESIGN.md §9).
//!
//! Both builders — [`JumpTrie::from_leaf_pushed`] from scratch and
//! [`JumpSlabs::assemble`](crate::subslab::JumpSlabs::assemble) from the
//! control plane's per-bucket store — fill blocks through the one
//! [`fill_blocks`] and intern vectors in address order, so they publish
//! identical slabs for the same tables, field for field.
//!
//! The structure is immutable by design: route updates build a fresh
//! `JumpTrie` and publish it atomically (see `vr-engine`'s
//! `LookupService` RCU-style swap), exactly like the hardware reloads a
//! shadow bank while the live bank keeps serving.

use crate::leafpush::LeafPushedTrie;
use crate::unibit::{NodeId, UnibitTrie};
use serde::{Deserialize, Serialize};
use vr_net::table::{NextHop, RoutingTable};

/// High bit of a root or block entry: set for leaves.
pub const LEAF_BIT: u32 = 1 << 31;
/// Low 31 bits: child block base (internal) or NHI-slab slot (leaf).
pub const PAYLOAD_MASK: u32 = LEAF_BIT - 1;

/// Bits resolved by the direct-index root table.
pub const JUMP_BITS: u32 = 16;
/// Number of root-table entries (2^16).
pub const ROOT_ENTRIES: usize = 1 << JUMP_BITS;
/// Address bits one tail block resolves: two block levels finish the
/// address below the root.
const TAIL_STRIDE: u32 = 8;
const _: () = assert!(JUMP_BITS + 2 * TAIL_STRIDE == u32::BITS);
/// Entries in one tail block (2^8).
pub const BLOCK_ENTRIES: usize = 1 << TAIL_STRIDE;

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
/// It is called once per leaf of the leaf-pushed trie — never once per
/// block entry, which outnumber leaves tenfold — while the
/// distinct-vector count is orders of magnitude smaller, and repeats
/// arrive in long address-space runs. The per-bucket store
/// ([`JumpSlabs`](crate::subslab::JumpSlabs)) keeps one small interner's
/// output per bucket, so the table starts small. Two levels exploit the
/// shape:
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
            table: vec![(0, 0); 64],
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

/// Walks the top `bits` levels of a full binary trie below `node` in
/// address order, reading it through `children` (`None` for a leaf).
/// `visit(at, run, node, internal)` receives each leaf met `d` bits down
/// with the aligned run of `2^(bits − d)` slots it covers, and each
/// internal node surviving to the cut with its one slot.
///
/// The one descent of both [`JumpTrie`] builders, at the root
/// (`bits` = 16) and inside [`fill_blocks`] (`bits` = 8).
pub(crate) fn descend<N>(
    node: N,
    bits: u32,
    children: &impl Fn(&N) -> Option<(N, N)>,
    mut visit: impl FnMut(usize, usize, N, bool),
) {
    let mut stack = vec![(node, 0usize, 0u32)];
    while let Some((node, at, depth)) = stack.pop() {
        match children(&node) {
            Some((left, right)) if depth < bits => {
                let half = 1usize << (bits - depth - 1);
                stack.push((right, at + half, depth + 1));
                stack.push((left, at, depth + 1));
            }
            kids => visit(at, 1 << (bits - depth), node, kids.is_some()),
        }
    }
}

/// Appends to `tail` the blocks of the subtree below the internal `node`
/// — its own block first, then the blocks of the internal nodes 8 bits
/// down, in address order — and returns the first block's base. A leaf
/// `fill`s its whole run in one call; `leaf` turns it into its entry
/// (`LEAF_BIT | slot`) and is called once per leaf, in address order.
/// Internal entries are indices into `tail`, so a bucket-local `tail`
/// yields bucket-local bases.
pub(crate) fn fill_blocks<N>(
    node: N,
    children: &impl Fn(&N) -> Option<(N, N)>,
    tail: &mut Vec<u32>,
    leaf: &mut impl FnMut(&N) -> u32,
) -> u32 {
    let base = tail.len();
    tail.resize(base + BLOCK_ENTRIES, 0);
    descend(node, TAIL_STRIDE, children, |at, run, node, internal| {
        let entry = if internal {
            fill_blocks(node, children, tail, leaf)
        } else {
            leaf(&node)
        };
        tail[base + at..base + at + run].fill(entry);
    });
    let base = u32::try_from(base).expect("jump trie tail exceeds u32 entries");
    debug_assert_eq!(base & LEAF_BIT, 0, "jump trie too large");
    base
}

/// Three-tier lookup structure: direct-indexed first 16 bits, then two
/// levels of 256-entry stride-8 blocks.
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::{JumpTrie, LookupBackend};
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let jump = JumpTrie::from_table(&table);
/// assert_eq!(jump.lookup(0x0A01_0103), Some(2)); // 2 loads: root + level-1 block
/// assert_eq!(jump.lookup(0x0A02_0000), Some(1)); // 1 load: root entry is final
///
/// let dsts = [0x0A01_0103, 0x0A02_0000, 0x0B00_0000];
/// let mut out = [None; 3];
/// jump.lookup_batch_vn(0, &dsts, &mut out); // the trait's scalar loop
/// assert_eq!(out, [Some(2), Some(1), None]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JumpTrie {
    /// 2^16 direct-index entries, one per /16 bucket.
    root: Vec<u32>,
    /// 256-entry blocks below the root, bucket by bucket, a bucket's
    /// level-1 block ahead of its level-2 blocks.
    tail: Vec<u32>,
    /// Leaf NHI vectors: `k` consecutive codes per leaf, VNID-indexed.
    nhis: Vec<NhiCode>,
    /// NHI vector width (1 for single tries, K for merged).
    k: usize,
}

/// Borrowed view of a [`JumpTrie`]'s raw encoding, consumed by the
/// `vr-audit` structural verifier. Field meanings match the private
/// fields of [`JumpTrie`] one for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpTrieParts<'a> {
    /// 2^16 direct-index entries, one per /16 bucket.
    pub root: &'a [u32],
    /// 256-entry blocks below the root.
    pub tail: &'a [u32],
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
            tail: &self.tail,
            nhis: &self.nhis,
            k: self.k,
        }
    }

    /// Reassembles a trie from raw encoding parts **without validation** —
    /// the inverse of [`JumpTrie::raw_parts`]. This is the ingestion path
    /// for serialized table artifacts (and for the mutation tests that
    /// feed deliberately corrupt encodings to the verifier): nothing here
    /// proves the entries well-formed, so callers must run the `vr-audit`
    /// structural checks before publishing the result to a datapath.
    #[must_use]
    pub fn from_raw_parts(root: Vec<u32>, tail: Vec<u32>, nhis: Vec<u16>, k: usize) -> Self {
        Self {
            root,
            tail,
            nhis,
            k,
        }
    }

    /// Builds the jump trie from a leaf-pushed trie of any arity; leaves
    /// keep their K-wide VNID-indexed NHI vectors, interned into one slab.
    ///
    /// Descends the full binary trie to depth 16, writing final entries
    /// for leaves met on the way, and expands each surviving depth-16
    /// subtree into its blocks.
    #[must_use]
    pub fn from_leaf_pushed(trie: &LeafPushedTrie) -> Self {
        let k = trie.arity();
        let children = |id: &NodeId| trie.node_children(*id);
        // One block per internal node at depth 16 and at depth 24, counted
        // first so the tail is allocated once. The two partial walks cost
        // 0.7 ms on the paper family; growing a 4.4 MiB tail by doubling
        // instead first-touches ~850 more pages, 2.5 ms on the build host.
        let internal_at = |depth| {
            let mut count = 0usize;
            descend(NodeId::ROOT, depth, &children, |_, _, _, internal| {
                count += usize::from(internal);
            });
            count
        };
        let blocks = internal_at(JUMP_BITS) + internal_at(JUMP_BITS + TAIL_STRIDE);
        let mut root = vec![0u32; ROOT_ENTRIES];
        let mut tail = Vec::with_capacity(blocks * BLOCK_ENTRIES);
        let mut interner = NhiInterner::new(k);
        let mut codes: Vec<NhiCode> = vec![0; k];
        let mut leaf = |id: &NodeId| -> u32 {
            for (code, nhi) in codes.iter_mut().zip(trie.node_nhis(*id)) {
                *code = encode_nhi(*nhi);
            }
            LEAF_BIT | interner.intern(&codes)
        };
        descend(NodeId::ROOT, JUMP_BITS, &children, |bucket, run, id, internal| {
            let entry = if internal {
                fill_blocks(id, &children, &mut tail, &mut leaf)
            } else {
                leaf(&id)
            };
            root[bucket..bucket + run].fill(entry);
        });
        debug_assert_eq!(tail.len(), blocks * BLOCK_ENTRIES);
        Self {
            root,
            tail,
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
    /// `JumpTrie::from_merged(&merged.leaf_pushed())` and a PR that changes
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

    /// Memory footprint in bits `(root, tail blocks, NHI entries)`, the
    /// Fig. 4-style split extended with the DIR table. Every block entry
    /// is priced, the `2^(8−d)` copies of an expanded leaf included.
    #[must_use]
    pub fn memory_bits(&self, nhi_bits: u64) -> (u64, u64, u64) {
        (
            self.root.len() as u64 * 32,
            self.tail.len() as u64 * 32,
            self.nhis.len() as u64 * nhi_bits,
        )
    }

    /// Longest-prefix match in VN 0 (the only VN for single tries).
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        self.lookup_vn(0, ip)
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`; `None`
    /// for a VN the structure does not host, in every build profile.
    #[must_use]
    #[inline]
    pub fn lookup_vn(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        if vnid >= self.k {
            return None;
        }
        const BLOCK_MASK: usize = BLOCK_ENTRIES - 1;
        let mut entry = self.root[(ip >> JUMP_BITS) as usize];
        if entry & LEAF_BIT == 0 {
            entry = self.tail[entry as usize + ((ip >> TAIL_STRIDE) as usize & BLOCK_MASK)];
            if entry & LEAF_BIT == 0 {
                entry = self.tail[entry as usize + (ip as usize & BLOCK_MASK)];
                debug_assert_ne!(entry & LEAF_BIT, 0, "internal entry in a level-2 block");
            }
        }
        let slot = (entry & PAYLOAD_MASK) as usize;
        decode_nhi(self.nhis[slot * self.k + vnid])
    }
}

/// Forwards to the inherent walk (which wins name resolution over the
/// trait's), so generic drivers time the walk callers name directly; the
/// batch path is the trait's scalar loop.
impl crate::LookupBackend for JumpTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        JumpTrie::lookup_vn(self, vn, ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergedTrie;
    use crate::LookupBackend;
    use vr_net::synth::TableSpec;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    /// Blocks below the root table, level 1 and level 2 together.
    fn block_count(jump: &JumpTrie) -> usize {
        assert_eq!(jump.tail.len() % BLOCK_ENTRIES, 0);
        jump.tail.len() / BLOCK_ENTRIES
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
        let parts = jump.raw_parts();
        assert!(parts.tail.is_empty());
        assert!(parts.root.iter().all(|&e| e & LEAF_BIT != 0));
        assert_eq!(jump.leaf_count(), 1);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        assert_eq!(jump.lookup(0), None);
        assert_eq!(jump.lookup(u32::MAX), None);
        let mut out = [Some(7)];
        jump.lookup_batch_vn(0, &[123], &mut out);
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
        // 10.1/16 opens a level-1 block and 10.1.1/24 a level-2 block
        // under it; 192.168/16 opens a level-1 block only.
        assert_eq!(block_count(&jump), 3);
    }

    #[test]
    fn short_prefixes_resolve_in_the_root_table() {
        // All routes at /16 or shorter: no block at all.
        let t = table("10.0.0.0/8 1\n10.1.0.0/16 2\n0.0.0.0/0 3\n");
        let jump = JumpTrie::from_table(&t);
        assert_eq!(block_count(&jump), 0);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip));
        }
    }

    #[test]
    fn all_host_routes_fill_level_two_blocks() {
        // Every route a /32: each populated /24 costs one level-2 block
        // under its /16's level-1 block, and every answer is two blocks
        // deep.
        let t = table("10.1.1.1/32 1\n10.1.1.2/32 2\n10.1.9.200/32 3\n10.7.0.0/32 4\n");
        let jump = JumpTrie::from_table(&t);
        assert_eq!(block_count(&jump), 2 + 3);
        let parts = jump.raw_parts();
        let level_one = parts.root[0x0A01] as usize;
        assert_eq!(level_one & LEAF_BIT as usize, 0);
        let level_two = parts.tail[level_one + 1] as usize;
        assert_eq!(level_two, level_one + BLOCK_ENTRIES, "level-2 blocks follow their level-1 block");
        assert!(parts.tail[level_two..level_two + BLOCK_ENTRIES].iter().all(|&e| e & LEAF_BIT != 0));
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn paper_scale_parity_with_oracle() {
        let t = TableSpec::paper_worst_case(11).generate().unwrap();
        let pushed = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&t));
        let jump = JumpTrie::from_leaf_pushed(&pushed);
        let dsts = probes(&t);
        let mut out = vec![None; dsts.len()];
        jump.lookup_batch_vn(0, &dsts, &mut out);
        for (i, &ip) in dsts.iter().enumerate() {
            let expect = t.lookup(ip);
            assert_eq!(jump.lookup(ip), expect, "scalar ip {ip:#010x}");
            assert_eq!(pushed.lookup_vn(0, ip), expect, "leaf-pushed ip {ip:#010x}");
            assert_eq!(out[i], expect, "batch ip {ip:#010x}");
        }
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
            let dsts = probes(t);
            let mut out = vec![None; dsts.len()];
            jump.lookup_batch_vn(vn, &dsts, &mut out);
            for (i, &ip) in dsts.iter().enumerate() {
                assert_eq!(jump.lookup_vn(vn, ip), t.lookup(ip), "vn {vn} ip {ip:#010x}");
                assert_eq!(out[i], t.lookup(ip));
            }
        }
    }

    /// An unhosted VN is `None`, not its neighbour's column of the next
    /// leaf vector (runs under `--release` too: the guard is not a
    /// `debug_assert`).
    #[test]
    fn unhosted_vn_resolves_to_none() {
        let t = table("0.0.0.0/0 9\n10.1.1.0/24 3\n");
        let merged = MergedTrie::from_tables(&[t.clone(), t]).unwrap();
        let jump = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        for ip in [0, 0x0A01_0101, u32::MAX] {
            assert_eq!(jump.lookup_vn(1, ip), jump.lookup_vn(0, ip));
            assert_eq!(jump.lookup_vn(2, ip), None);
            assert_eq!(jump.lookup_vn(usize::MAX, ip), None);
        }
    }

    #[test]
    fn memory_split_accounts_every_word() {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let jump = JumpTrie::from_table(&t);
        let parts = jump.raw_parts();
        let (root_bits, tail_bits, nhi_bits) = jump.memory_bits(8);
        assert_eq!(root_bits, (ROOT_ENTRIES as u64) * 32);
        assert_eq!(tail_bits, parts.tail.len() as u64 * 32);
        assert!(block_count(&jump) > 0);
        assert_eq!(nhi_bits, jump.leaf_count() as u64 * 8);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let jump = JumpTrie::from_unibit(&UnibitTrie::new());
        jump.lookup_batch_vn(0, &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "batch destination and output slices must match")]
    fn mismatched_batch_lengths_panic() {
        let jump = JumpTrie::from_unibit(&UnibitTrie::new());
        let mut out = [None; 2];
        jump.lookup_batch_vn(0, &[1, 2, 3], &mut out);
    }
}
