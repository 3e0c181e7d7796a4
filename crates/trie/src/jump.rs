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
//! One block filler, the `Painter`, fills the slabs from the preorder
//! events of a trie, whoever streams them: the bulk build's pass over the
//! sorted routes ([`JumpTrie::from_tables`], and beside the merge arena
//! in [`MergedTrie::from_tables_with_jump`](crate::MergedTrie::from_tables_with_jump),
//! which is what a service builds), a walk of a live merged trie's arena
//! that copies the /16 buckets an update batch left clean from the live
//! jump trie ([`JumpTrie::repaint`], what every update publishes), or a
//! walk of a materialised leaf-pushed trie ([`JumpTrie::from_leaf_pushed`],
//! the reference). No leaf-pushed trie is built on the way, and leaves
//! are interned in address order whatever the feed, so every builder
//! publishes identical slabs for the same tables, field for field.
//!
//! The structure is immutable by design: route updates build a fresh
//! `JumpTrie` and publish it atomically (see `vr-engine`'s
//! `LookupService` RCU-style swap), exactly like the hardware reloads a
//! shadow bank while the live bank keeps serving.

use crate::leafpush::LeafPushedTrie;
use crate::merge::{block_total, check_arity, preorder, replay, sorted_routes, NodeId, Preorder};
use crate::{DirtyBuckets, MergedTrie, TrieError};
use std::ops::Range;
use vr_net::table::{NextHop, RoutingTable};

/// High bit of a root or block entry: set for leaves.
pub(crate) const LEAF_BIT: u32 = 1 << 31;
/// Low 31 bits: child block base (internal) or NHI-slab slot (leaf).
pub(crate) const PAYLOAD_MASK: u32 = LEAF_BIT - 1;

/// Bits resolved by the direct-index root table.
pub(crate) const JUMP_BITS: u32 = 16;
/// Number of root-table entries (2^16).
pub(crate) const ROOT_ENTRIES: usize = 1 << JUMP_BITS;
/// Address bits one tail block resolves: two block levels finish the
/// address below the root.
pub(crate) const TAIL_STRIDE: u32 = 8;
const _: () = assert!(JUMP_BITS + 2 * TAIL_STRIDE == u32::BITS);
/// Entries in one tail block (2^8).
pub(crate) const BLOCK_ENTRIES: usize = 1 << TAIL_STRIDE;

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
/// slab, returning each vector's slot. The [`Painter`] emits every leaf,
/// painted or copied, through it, so the same tables publish the
/// same-sized structure whichever path built it — the hardware's shared
/// NHI memory, and the footprint the control plane prices in watts.
///
/// It is called at most once per leaf of the leaf-pushed view — never
/// once per block entry, which outnumber leaves tenfold — while the
/// distinct-vector count is orders of magnitude smaller, and repeats
/// arrive in long address-space runs. Two levels exploit the shape:
///
/// * a **last-vector memo** short-circuits consecutive repeats with one
///   slice compare, no hashing;
/// * misses go through an open-addressed table keyed by an FNV-1a hash,
///   with keys stored as slots into the slab itself (no owned `Vec`
///   keys, no `SipHash`) — every update batch's repaint interns its
///   whole slab again, so constant factors here are throughput.
pub(crate) struct NhiInterner {
    k: usize,
    /// The growing NHI slab (k entries per interned vector).
    slab: Vec<NhiCode>,
    /// Open-addressed table of `(hash, slot + 1)`; 0 means empty. Eight
    /// bytes an entry, so the table a paper family grows touches half the
    /// pages a 64-bit hash would.
    table: Vec<(u32, u32)>,
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

    /// The FNV-1a hash's high half, its best-mixed bits: the table indexes
    /// by it and keeps it, so growing re-reads no vector.
    fn hash(vector: &[NhiCode]) -> u32 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &x in vector {
            h = (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h >> 32) as u32
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
        let mut i = hash as usize & mask;
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
        let next = vec![(0, 0); self.table.len() * 2];
        let old = std::mem::replace(&mut self.table, next);
        let mask = self.table.len() - 1;
        for (h, tagged) in old {
            if tagged == 0 {
                continue;
            }
            let mut i = h as usize & mask;
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

/// A node on the [`Painter`]'s open path: its depth, and bit `b` set once
/// its child on branch `b` has closed.
#[derive(Clone, Copy)]
pub(crate) struct Brush {
    depth: u8,
    kids: u8,
}

/// Fills the DIR-16-8-8 slabs from the preorder events of a trie: the bulk
/// build's pass over sorted routes, or a [`replay`](crate::merge::replay)
/// of a built [`MergedTrie`] or [`LeafPushedTrie`].
///
/// The leaves of the leaf-pushed view tile the address space, and a
/// preorder pass meets them in address order, so the painter keeps only
/// the next address to paint, one K-wide row per depth (the vector in
/// effect at the open node there: its own entries over its ancestors'),
/// and the bases of the open level-1 and level-2 blocks. Nothing is
/// allocated per node, and no leaf-pushed trie is built:
///
/// * a node that closes with no child is a leaf, painted over its run;
/// * a missing left half is painted, in its parent's vector, just
///   before the right child opens, and a missing right half when the
///   parent closes — so leaves are interned in address order;
/// * the first node opened below depth 16 or 24 opens its parent's
///   block, in preorder, so blocks lie bucket by bucket, a level-1 block
///   ahead of its level-2 blocks.
///
/// The same events give the same `raw_parts()`, whichever trie streams
/// them. [`JumpTrie::repaint`] also copies runs of /16 buckets from a
/// live trie between the events, in address order too.
pub(crate) struct Painter {
    k: usize,
    /// Row `d`: the vector in effect at the open node of depth `d`.
    rows: Vec<NhiCode>,
    /// Row `d`'s leaf entry once interned, `0` (no leaf bit) until then.
    /// A node without entries has its parent's vector, so it takes its
    /// parent's entry and most leaves skip the interner.
    entries: [u32; u32::BITS as usize + 1],
    root: Vec<u32>,
    tail: Vec<u32>,
    interner: NhiInterner,
    /// First address not yet painted.
    at: u64,
    /// Bases in `tail` of the open level-1 and level-2 blocks.
    blocks: [usize; 2],
}

impl Painter {
    /// A painter for the whole address space, its tail allocated for
    /// `blocks` blocks, and the root's brush.
    pub(crate) fn whole(k: usize, blocks: usize) -> (Self, Brush) {
        let painter = Self {
            k,
            rows: vec![0; (u32::BITS as usize + 1) * k],
            entries: [0; u32::BITS as usize + 1],
            root: vec![0; ROOT_ENTRIES],
            tail: Vec::with_capacity(blocks * BLOCK_ENTRIES),
            interner: NhiInterner::new(k),
            at: 0,
            blocks: [0; 2],
        };
        (painter, Brush { depth: 0, kids: 0 })
    }

    /// Interns row `row`'s vector and writes it over the run of the leaf
    /// `depth` bits down at the next address, then moves past it.
    fn paint(&mut self, depth: usize, row: usize) {
        if self.entries[row] == 0 {
            self.entries[row] =
                LEAF_BIT | self.interner.intern(&self.rows[row * self.k..][..self.k]);
        }
        let entry = self.entries[row];
        let at = self.at;
        self.at += 1 << (u32::BITS as usize - depth);
        let (slab, start, bits) = if depth <= JUMP_BITS as usize {
            (&mut self.root, (at >> JUMP_BITS) as usize, JUMP_BITS)
        } else if depth <= (JUMP_BITS + TAIL_STRIDE) as usize {
            let index = (at >> TAIL_STRIDE) as usize % BLOCK_ENTRIES;
            (
                &mut self.tail,
                self.blocks[0] + index,
                JUMP_BITS + TAIL_STRIDE,
            )
        } else {
            (
                &mut self.tail,
                self.blocks[1] + at as usize % BLOCK_ENTRIES,
                u32::BITS,
            )
        };
        slab[start..start + (1 << (bits as usize - depth))].fill(entry);
    }

    /// Appends the block below the depth-16 (`level` 0) or depth-24
    /// (`level` 1) node at the next address, and points its entry there.
    fn open_block(&mut self, level: usize) {
        let base = self.tail.len();
        self.tail.resize(base + BLOCK_ENTRIES, 0);
        let entry = u32::try_from(base).expect("jump trie tail exceeds u32 entries");
        debug_assert_eq!(entry & LEAF_BIT, 0, "jump trie too large");
        let at = self.at;
        if level == 0 {
            self.root[(at >> JUMP_BITS) as usize] = entry;
        } else {
            self.tail[self.blocks[0] + (at >> TAIL_STRIDE) as usize % BLOCK_ENTRIES] = entry;
        }
        self.blocks[level] = base;
    }

    /// The jump trie over the whole address space.
    pub(crate) fn finish(self) -> JumpTrie {
        debug_assert_eq!(self.at, 1 << u32::BITS);
        let nhis = self.interner.into_slab();
        JumpTrie {
            root: self.root,
            tail: self.tail,
            nhis,
            k: self.k,
        }
    }

    /// Paints the subtree of `merged` at `id`, open as `node` over the
    /// buckets from `first` on, copying from `from` each child's run of
    /// buckets that no dirty bucket falls in. Below depth 16 every run
    /// lies in one dirty bucket, so the rest is a plain replay.
    fn repaint_below(
        &mut self,
        merged: &MergedTrie,
        id: NodeId,
        first: usize,
        node: &mut Brush,
        from: &mut Source<'_>,
    ) {
        for (vn, next_hop) in merged.node_nhis(id).iter().enumerate() {
            if let Some(next_hop) = *next_hop {
                self.entry(node, vn as u8, next_hop);
            }
        }
        let depth = u32::from(node.depth);
        let half = (depth < JUMP_BITS).then(|| 1usize << (JUMP_BITS - depth - 1));
        for bit in 0..2 {
            let start = first + bit * half.unwrap_or(0);
            match half {
                Some(half) if !from.dirty.any_in(start..start + half) => {
                    if bit == 1 && node.kids & 1 == 0 {
                        // The missing left half, in this node's vector.
                        self.paint(depth as usize + 1, depth as usize);
                    }
                    self.copy(from, start..start + half);
                    node.kids |= 1 << bit;
                }
                _ => {
                    if let Some(child) = merged.node_child(id, bit) {
                        let mut kid = self.open(*node, bit);
                        self.repaint_below(merged, child, start, &mut kid, from);
                        self.close(depth as usize + 1, kid, Some((node, bit)));
                    }
                }
            }
        }
    }

    /// Copies the buckets `run`, the next to paint, from `from`'s trie:
    /// a leaf's vector is interned on first sight, and a block's leaves
    /// are copied in address order, a level-2 block's at its level-1
    /// entry, so vectors are interned and blocks laid out as painted.
    fn copy(&mut self, from: &mut Source<'_>, run: Range<usize>) {
        debug_assert_eq!(self.at, (run.start as u64) << JUMP_BITS);
        for bucket in run.clone() {
            let entry = from.live.root[bucket];
            self.root[bucket] = if entry & LEAF_BIT != 0 {
                from.leaf(&mut self.interner, entry)
            } else {
                let base = self.copy_block(from, entry);
                for index in base as usize..base as usize + BLOCK_ENTRIES {
                    let entry = self.tail[index];
                    self.tail[index] = if entry & LEAF_BIT != 0 {
                        from.leaf(&mut self.interner, entry)
                    } else {
                        let below = self.copy_block(from, entry);
                        for index in below as usize..below as usize + BLOCK_ENTRIES {
                            self.tail[index] = from.leaf(&mut self.interner, self.tail[index]);
                        }
                        below
                    };
                }
                base
            };
        }
        self.at = (run.end as u64) << JUMP_BITS;
    }

    /// Appends the block at `base` in `from`'s tail, entries as they are,
    /// and returns its new base.
    fn copy_block(&mut self, from: &Source<'_>, base: u32) -> u32 {
        let new = u32::try_from(self.tail.len()).expect("jump trie tail exceeds u32 entries");
        debug_assert_eq!(new & LEAF_BIT, 0, "jump trie too large");
        let base = base as usize;
        self.tail
            .extend_from_slice(&from.live.tail[base..base + BLOCK_ENTRIES]);
        new
    }
}

/// What [`JumpTrie::repaint`] copies clean buckets from: the live trie,
/// which of its buckets are dirty, and each of its NHI slots' leaf entry
/// in the trie being painted, `0` until first copied.
struct Source<'a> {
    live: &'a JumpTrie,
    dirty: &'a DirtyBuckets,
    slots: Vec<u32>,
    /// The last leaf entry copied and its copy (`0`, no leaf, at first):
    /// block entries repeat in runs.
    last: (u32, u32),
}

impl Source<'_> {
    /// The live trie's leaf `entry` in the trie being painted, its vector
    /// interned on first sight.
    #[inline]
    fn leaf(&mut self, interner: &mut NhiInterner, entry: u32) -> u32 {
        if entry == self.last.0 {
            return self.last.1;
        }
        let slot = (entry & PAYLOAD_MASK) as usize;
        if self.slots[slot] == 0 {
            let k = self.live.k;
            self.slots[slot] = LEAF_BIT | interner.intern(&self.live.nhis[slot * k..][..k]);
        }
        self.last = (entry, self.slots[slot]);
        self.slots[slot]
    }
}

impl Preorder for Painter {
    type Open = Brush;

    #[inline]
    fn open(&mut self, parent: Brush, bit: usize) -> Brush {
        let depth = usize::from(parent.depth) + 1;
        let k = self.k;
        self.rows.copy_within((depth - 1) * k..depth * k, depth * k);
        self.entries[depth] = self.entries[depth - 1];
        if parent.kids == 0 {
            if depth == (JUMP_BITS + 1) as usize {
                self.open_block(0);
            } else if depth == (JUMP_BITS + TAIL_STRIDE + 1) as usize {
                self.open_block(1);
            }
        }
        if bit == 1 && parent.kids & 1 == 0 {
            // The missing left half, in the parent's vector just copied.
            self.paint(depth, depth);
        }
        Brush {
            depth: depth as u8,
            kids: 0,
        }
    }

    #[inline]
    fn entry(&mut self, node: &mut Brush, vn: u8, next_hop: NextHop) {
        let depth = usize::from(node.depth);
        self.rows[depth * self.k + usize::from(vn)] = encode_nhi(Some(next_hop));
        self.entries[depth] = 0;
    }

    #[inline]
    fn close(&mut self, depth: usize, node: Brush, up: Option<(&mut Brush, usize)>) {
        match node.kids {
            0 => self.paint(depth, depth),
            // The missing right half.
            1 => self.paint(depth + 1, depth),
            _ => {}
        }
        if let Some((parent, bit)) = up {
            parent.kids |= 1 << bit;
        }
    }
}

/// Three-tier lookup structure: direct-indexed first 16 bits, then two
/// levels of 256-entry stride-8 blocks.
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::JumpTrie;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let jump = JumpTrie::from_table(&table);
/// assert_eq!(jump.lookup(0x0A01_0103), Some(2)); // 2 loads: root + level-1 block
/// assert_eq!(jump.lookup(0x0A02_0000), Some(1)); // 1 load: root entry is final
/// assert_eq!(jump.lookup(0x0B00_0000), None);
/// ```
#[derive(Debug, Clone)]
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

/// Borrowed view of a [`JumpTrie`]'s raw encoding, which the
/// [`audit`](crate::audit) verifier re-derives every invariant from and
/// tests compare field for field. Field meanings match the private
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
    /// The raw encoding, for structural auditing and field-for-field
    /// comparison.
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
    /// the inverse of [`JumpTrie::raw_parts`]. It is the seam through
    /// which tests feed deliberately corrupt encodings to the
    /// [`audit`](crate::audit) verifier and the services' publish gate:
    /// nothing here proves the entries well-formed, so a caller must run
    /// [`audit_jump`](crate::audit::audit_jump) before publishing the
    /// result to a datapath.
    #[must_use]
    pub fn from_raw_parts(root: Vec<u32>, tail: Vec<u32>, nhis: Vec<u16>, k: usize) -> Self {
        Self {
            root,
            tail,
            nhis,
            k,
        }
    }

    /// Builds the jump trie over K routing tables (VNID = index) in one
    /// preorder pass over their sorted routes, building no other trie —
    /// what a service publishes for a table family.
    ///
    /// # Errors
    /// Rejects arity 0 and arity above
    /// [`MAX_MERGE_ARITY`](crate::merge::MAX_MERGE_ARITY).
    pub fn from_tables(tables: &[RoutingTable]) -> Result<Self, TrieError> {
        check_arity(tables.len())?;
        let routes = sorted_routes(tables);
        let blocks = block_total(&routes);
        let (mut painter, root) = Painter::whole(tables.len(), blocks);
        preorder(&routes, root, &mut painter);
        let trie = painter.finish();
        debug_assert_eq!(
            trie.tail.len(),
            blocks * BLOCK_ENTRIES,
            "the block count is exact"
        );
        Ok(trie)
    }

    /// Builds directly from a routing table (`K = 1`).
    #[must_use]
    pub fn from_table(table: &RoutingTable) -> Self {
        Self::from_tables(std::slice::from_ref(table)).expect("one table is merge arity 1")
    }

    /// Builds the jump trie from a materialised leaf-pushed trie of any
    /// arity, by a walk that feeds its leaves to the same painter — the
    /// reference the one-pass builds are held to.
    #[must_use]
    pub fn from_leaf_pushed(trie: &LeafPushedTrie) -> Self {
        // One block per internal node at depth 16 and at depth 24, counted
        // first so the tail is allocated once: grown by doubling instead,
        // repeated builds leave the heap holding ~10 MB more.
        fn blocks(trie: &LeafPushedTrie, id: NodeId, depth: u32) -> usize {
            match trie.node_children(id) {
                Some(_) if depth == JUMP_BITS + TAIL_STRIDE => 1,
                Some((left, right)) => {
                    let below = blocks(trie, left, depth + 1) + blocks(trie, right, depth + 1);
                    usize::from(depth == JUMP_BITS) + below
                }
                None => 0,
            }
        }
        let node = |id: NodeId| match trie.node_children(id) {
            Some((left, right)) => ([Some(left), Some(right)], &[][..]),
            None => ([None, None], trie.node_nhis(id)),
        };
        let (mut painter, root) = Painter::whole(trie.arity(), blocks(trie, NodeId::ROOT, 0));
        replay(&node, NodeId::ROOT, 0, root, &mut painter);
        painter.finish()
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

    /// The jump trie of `merged`, painted by one walk of its arena with
    /// the buckets `dirty` does not name copied from `self` — what a
    /// route-update batch publishes. A clean bucket's internal entries
    /// are rebased and its leaves' vectors interned again, in address
    /// order like every painted leaf, so the result is
    /// [`JumpTrie::from_leaf_pushed`]`(&merged.leaf_pushed())` field for
    /// field, provided `self` was painted from `merged` before the updates
    /// that dirtied `dirty`. With every bucket dirty
    /// ([`DirtyBuckets::all`]) only the length of `self`'s tail is read,
    /// to size the new one: the full paint of the arena.
    ///
    /// # Panics
    /// Panics if a bucket is to be copied and `self` has a different
    /// arity from `merged`.
    #[must_use]
    pub fn repaint(&self, merged: &MergedTrie, dirty: &DirtyBuckets) -> JumpTrie {
        let copying = dirty.len() < ROOT_ENTRIES;
        if copying {
            assert_eq!(
                self.k,
                merged.arity(),
                "a repaint copies only from its own arity"
            );
        }
        let slots = vec![0; if copying { self.leaf_count() } else { 0 }];
        // Room for a new block per dirty bucket, which a batch seldom
        // outgrows: past it the tail is copied to grow.
        let blocks = self.tail.len() / BLOCK_ENTRIES + if copying { dirty.len() } else { 0 };
        let mut from = Source {
            live: self,
            dirty,
            slots,
            last: (0, 0),
        };
        let (mut painter, mut root) = Painter::whole(merged.arity(), blocks);
        painter.repaint_below(merged, NodeId::ROOT, 0, &mut root, &mut from);
        painter.close(0, root, None);
        painter.finish()
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
/// trait's), so generic drivers time the walk callers name directly.
impl crate::LookupBackend for JumpTrie {
    #[inline]
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        JumpTrie::lookup_vn(self, vn, ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergedTrie;
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
        let jump = JumpTrie::from_table(&RoutingTable::new());
        let parts = jump.raw_parts();
        assert!(parts.tail.is_empty());
        assert!(parts.root.iter().all(|&e| e & LEAF_BIT != 0));
        assert_eq!(jump.leaf_count(), 1);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        assert_eq!(jump.lookup(0), None);
        assert_eq!(jump.lookup(u32::MAX), None);
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
        assert_eq!(
            level_two,
            level_one + BLOCK_ENTRIES,
            "level-2 blocks follow their level-1 block"
        );
        assert!(parts.tail[level_two..level_two + BLOCK_ENTRIES]
            .iter()
            .all(|&e| e & LEAF_BIT != 0));
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn paper_scale_parity_with_oracle() {
        let t = TableSpec::paper_worst_case(11).generate().unwrap();
        let pushed = MergedTrie::from_tables(std::slice::from_ref(&t))
            .unwrap()
            .leaf_pushed();
        let jump = JumpTrie::from_leaf_pushed(&pushed);
        for ip in probes(&t) {
            let expect = t.lookup(ip);
            assert_eq!(jump.lookup(ip), expect, "jump ip {ip:#010x}");
            assert_eq!(pushed.lookup_vn(0, ip), expect, "leaf-pushed ip {ip:#010x}");
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
            for ip in probes(t) {
                assert_eq!(
                    jump.lookup_vn(vn, ip),
                    t.lookup(ip),
                    "vn {vn} ip {ip:#010x}"
                );
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
}
