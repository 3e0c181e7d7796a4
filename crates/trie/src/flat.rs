//! Level-ordered (CSR-style) flat storage for the fixed-stride multi-bit
//! trie — the software rendition of the paper's per-stage pipeline BRAMs
//! (§V-D), one stride per stage.
//!
//! The pointer [`StrideTrie`] allocates nodes in insertion order, so a
//! lookup walking root→leaf hops across unrelated arena slots: every
//! level is a potential cache miss on a line holding mostly foreign
//! nodes. The hardware design has no such problem — stage `i` owns a
//! private BRAM holding *exactly* the level-`i` nodes, addressed by a
//! compact offset from stage `i−1`.
//!
//! [`FlatStrideTrie`] mirrors that layout in memory: per-level entry
//! slabs stored breadth-first, one `u64` word per entry (expanded NHI +
//! child base offset). The binary (uni-bit) level-slab layout, and the
//! NHI code both layouts share, live in [`crate::jump`].
//!
//! It offers `lookup` (scalar oracle shape) and `lookup_batch`
//! (stage-lockstep software pipelining): a batch of B destinations is
//! advanced one level per pass, so each pass streams through a single
//! level slab with B independent loads in flight instead of B dependent
//! pointer chases — the same trick that lets the hardware keep one lookup
//! per stage per cycle.

use crate::jump::{decode_nhi, encode_nhi};
use crate::multibit::StrideTrie;
use serde::{Deserialize, Serialize};
use vr_net::table::NextHop;

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
    use vr_net::synth::TableSpec;
    use vr_net::RoutingTable;

    fn probes(table: &RoutingTable) -> Vec<u32> {
        let mut probes: Vec<u32> = table
            .prefixes()
            .flat_map(|p| [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)])
            .collect();
        probes.extend([0, 1, u32::MAX, 0x8000_0000]);
        probes
    }

    fn empty_8888() -> FlatStrideTrie {
        let stride = StrideTrie::from_table(&RoutingTable::new(), &[8, 8, 8, 8]).unwrap();
        FlatStrideTrie::from_stride(&stride)
    }

    #[test]
    fn level_offsets_partition_the_words() {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let stride = StrideTrie::from_table(&t, &[8, 8, 8, 8]).unwrap();
        let flat = FlatStrideTrie::from_stride(&stride);
        let total: usize = (0..flat.strides().len())
            .map(|l| flat.stage_slab(l).len())
            .sum();
        assert_eq!(total, flat.entry_count());
        // Level 0 is exactly the root node's 2^8 entries.
        assert_eq!(flat.stage_slab(0).len(), 256);
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
        empty_8888().lookup_batch(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "batch destination and output slices must match")]
    fn mismatched_batch_lengths_panic() {
        let mut out = [None; 2];
        empty_8888().lookup_batch(&[1, 2, 3], &mut out);
    }
}
