//! Per-bucket block store for incremental [`JumpTrie`] rebuilds.
//!
//! [`JumpTrie`] is immutable by design: the RCU publish model wants a
//! fresh structure per generation. Rebuilding that structure from
//! scratch after every update batch, however, costs O(K·table) — the
//! paper's §V-B churn assumption (~1 % write rate) makes that the
//! dominant control-plane cost long before the datapath notices.
//!
//! [`JumpSlabs`] keeps the same DIR-16 decomposition as [`JumpTrie`] but
//! stores each /16 bucket's blocks *separately*, in bucket-local
//! encoding. A route update only perturbs the buckets its prefix covers
//! ([`DirtyBuckets`] tracks which), so an update batch:
//!
//! 1. applies announce/withdraw to the incremental [`MergedTrie`],
//! 2. re-derives only the dirty buckets with [`JumpSlabs::rebuild_bucket`]
//!    (a 16-bit descent plus typically one 256-entry block),
//! 3. concatenates all buckets with [`JumpSlabs::assemble`] into a
//!    publishable [`JumpTrie`] — one rebase-and-remap pass over the
//!    entries, no trie walks.
//!
//! Buckets are filled by the painter every [`JumpTrie`] builder runs, fed
//! a replay of the merged trie's arena below the bucket's depth-16 node;
//! [`JumpSlabs::from_merged`] walks the arena's top 16 levels once to
//! reach every bucket, [`JumpSlabs::rebuild_bucket`] one path. Each
//! bucket numbers its vectors in address order and assembly interns
//! them in that order, exactly as a from-scratch build does — so the two
//! publish identical slabs for the same tables, field for field (the
//! tests here and in `tests/` hold `raw_parts()` equal, after churn too),
//! and the control plane prices one footprint whichever path built it.

use crate::jump::{
    encode_nhi, JumpTrie, NhiCode, NhiInterner, Painter, JUMP_BITS, LEAF_BIT, PAYLOAD_MASK,
    ROOT_ENTRIES,
};
use crate::merge::{MergedTrie, NodeId};
use std::ops::Range;
use vr_net::Ipv4Prefix;

/// One /16 bucket in bucket-local encoding.
///
/// * `blocks` holds the bucket's 256-entry blocks, level-1 block first:
///   an internal entry is the *local* base of a level-2 block, a leaf
///   entry is `LEAF_BIT | local NHI slot`. A **direct** bucket (resolved
///   wholly by the root table) has none.
/// * `nhis` holds the bucket's distinct K-wide vectors in order of first
///   appearance by address — exactly one for a direct bucket.
#[derive(Debug, Clone)]
struct Bucket {
    blocks: Vec<u32>,
    nhis: Vec<NhiCode>,
}

/// The full DIR-16 decomposition of a [`MergedTrie`], one [`Bucket`] per
/// root entry, supporting per-bucket rebuild and O(entries) assembly into
/// a publishable [`JumpTrie`].
#[derive(Debug, Clone)]
pub struct JumpSlabs {
    k: usize,
    buckets: Vec<Bucket>,
}

impl JumpSlabs {
    /// Decomposes a merged trie into per-bucket blocks: one walk of the
    /// arena's top 16 levels, each bucket painted as
    /// [`JumpSlabs::rebuild_bucket`] paints it.
    #[must_use]
    pub fn from_merged(merged: &MergedTrie) -> Self {
        let empty = Bucket {
            blocks: Vec::new(),
            nhis: Vec::new(),
        };
        let mut slabs = Self {
            k: merged.arity(),
            buckets: vec![empty; ROOT_ENTRIES],
        };
        slabs.paint(merged, &(0..ROOT_ENTRIES));
        slabs
    }

    /// Re-derives one /16 bucket from the (already updated) merged trie:
    /// a descent of at most 16 nodes gathering the vector in effect, then
    /// a replay of the bucket's depth-16 node, if it has children,
    /// through a painter of that bucket alone.
    ///
    /// # Panics
    /// Panics if `bucket ≥ 65536` or `merged` has a different arity.
    pub fn rebuild_bucket(&mut self, merged: &MergedTrie, bucket: usize) {
        assert!(bucket < ROOT_ENTRIES, "bucket index out of range");
        assert_eq!(merged.arity(), self.k, "arity mismatch");
        self.paint(merged, &(bucket..bucket + 1));
    }

    /// Re-derives the `wanted` buckets from `merged`.
    fn paint(&mut self, merged: &MergedTrie, wanted: &Range<usize>) {
        let mut rows = vec![0; (JUMP_BITS as usize + 1) * self.k];
        self.paint_below(merged, Some(NodeId::ROOT), 0, 0, wanted, &mut rows);
    }

    /// Re-derives the `wanted` buckets among those below `node`, `depth`
    /// bits down, whose run starts at bucket `first`; `None` is a missing
    /// child, a leaf in its parent's vector. Row `d` of `rows` is the
    /// vector in effect at the node on the path `d` bits down: its own
    /// entries over its parent's.
    fn paint_below(
        &mut self,
        merged: &MergedTrie,
        node: Option<NodeId>,
        depth: u32,
        first: usize,
        wanted: &Range<usize>,
        rows: &mut [NhiCode],
    ) {
        let (k, at) = (self.k, depth as usize * self.k);
        if depth > 0 {
            rows.copy_within(at - k..at, at);
        }
        let row = &mut rows[at..at + k];
        let children = node.map_or([None; 2], |id| {
            for (code, nhi) in row.iter_mut().zip(merged.node_nhis(id)) {
                if nhi.is_some() {
                    *code = encode_nhi(*nhi);
                }
            }
            [merged.node_child(id, 0), merged.node_child(id, 1)]
        });
        let run = first..first + (1 << (JUMP_BITS - depth));
        match (node, children) {
            // A leaf at depth 16 or above: each bucket of its run is one
            // leaf.
            (_, [None, None]) => {
                for bucket in run.start.max(wanted.start)..run.end.min(wanted.end) {
                    self.buckets[bucket] = Bucket {
                        blocks: Vec::new(),
                        nhis: row.to_vec(),
                    };
                }
            }
            (Some(id), _) if depth == JUMP_BITS => {
                let (mut painter, brush) = Painter::bucket(first, row);
                merged.replay(id, JUMP_BITS as usize, brush, &mut painter);
                let (_, blocks, nhis) = painter.into_slabs();
                self.buckets[first] = Bucket { blocks, nhis };
            }
            _ => {
                let half = run.len() / 2;
                for (bit, child) in children.into_iter().enumerate() {
                    let start = first + bit * half;
                    if start < wanted.end && wanted.start < start + half {
                        self.paint_below(merged, child, depth + 1, start, wanted, rows);
                    }
                }
            }
        }
    }

    /// Concatenates all buckets into a publishable [`JumpTrie`]: each
    /// bucket's few vectors are interned once into a local→global slot
    /// table, then its blocks are appended with the bucket's base added
    /// to internal entries and leaf slots mapped through the table. No
    /// trie walks and no per-entry interning — cost is O(entries).
    #[must_use]
    pub fn assemble(&self) -> JumpTrie {
        let mut root = vec![0u32; ROOT_ENTRIES];
        let mut tail = Vec::with_capacity(self.buckets.iter().map(|b| b.blocks.len()).sum());
        let mut interner = NhiInterner::new(self.k);
        let mut global: Vec<u32> = Vec::new();
        for (entry, bucket) in root.iter_mut().zip(&self.buckets) {
            global.clear();
            global.extend(
                bucket
                    .nhis
                    .chunks_exact(self.k)
                    .map(|vector| LEAF_BIT | interner.intern(vector)),
            );
            if bucket.blocks.is_empty() {
                *entry = global[0];
                continue;
            }
            let base = u32::try_from(tail.len()).expect("jump trie tail exceeds u32 entries");
            debug_assert_eq!(
                (base as usize + bucket.blocks.len()) & LEAF_BIT as usize,
                0,
                "assembled jump trie too large"
            );
            *entry = base;
            tail.extend(bucket.blocks.iter().map(|&local| {
                if local & LEAF_BIT != 0 {
                    global[(local & PAYLOAD_MASK) as usize]
                } else {
                    base + local
                }
            }));
        }
        JumpTrie::from_raw_parts(root, tail, interner.into_slab(), self.k)
    }
}

/// Bitmap over the 65 536 /16 buckets a batch of updates has touched.
///
/// A prefix of length ≥ 16 dirties the single bucket `addr >> 16`; a
/// shorter prefix dirties its full aligned run of `2^(16 − len)` buckets
/// (its NHI may leaf-push into any of them).
#[derive(Debug, Clone)]
pub struct DirtyBuckets {
    bits: Vec<u64>,
    count: usize,
}

impl Default for DirtyBuckets {
    fn default() -> Self {
        Self::new()
    }
}

impl DirtyBuckets {
    /// An empty (all-clean) bucket set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bits: vec![0u64; ROOT_ENTRIES / 64],
            count: 0,
        }
    }

    /// Marks one bucket dirty.
    ///
    /// # Panics
    /// Panics if `bucket ≥ 65536`.
    pub fn mark(&mut self, bucket: usize) {
        assert!(bucket < ROOT_ENTRIES, "bucket index out of range");
        let (word, bit) = (bucket / 64, 1u64 << (bucket % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.count += 1;
        }
    }

    /// Marks every bucket whose sub-slab (or direct entry) an update to
    /// `prefix` can perturb.
    pub fn mark_prefix(&mut self, prefix: &Ipv4Prefix) {
        let len = u32::from(prefix.len());
        if len >= JUMP_BITS {
            self.mark((prefix.addr() >> JUMP_BITS) as usize);
        } else {
            let run = 1usize << (JUMP_BITS - len);
            let start = (prefix.addr() >> JUMP_BITS) as usize & !(run - 1);
            for bucket in start..start + run {
                self.mark(bucket);
            }
        }
    }

    /// Number of dirty buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no bucket is dirty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates dirty bucket indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(word * 64 + bit)
            })
        })
    }

    /// Resets every bucket to clean.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::{FamilySpec, PrefixLenDistribution};
    use vr_net::{Ipv4Prefix, RoutingTable};

    fn family(k: usize, n: usize, shared: f64, seed: u64) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: n,
            shared_fraction: shared,
            seed,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 12,
        }
        .generate()
        .unwrap()
    }

    fn probes(tables: &[RoutingTable]) -> Vec<u32> {
        let mut probes: Vec<u32> = tables
            .iter()
            .flat_map(|t| t.prefixes())
            .flat_map(|p| [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)])
            .collect();
        probes.extend([0, 1, u32::MAX, 0x8000_0000, 0x0000_FFFF, 0x0001_0000]);
        probes
    }

    /// The assembled trie is the from-scratch build of the same merged
    /// trie, field for field, and answers like the source tables.
    fn assert_parity(slabs: &JumpSlabs, merged: &MergedTrie, tables: &[RoutingTable]) {
        let assembled = slabs.assemble();
        let scratch = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert!(assembled.raw_parts() == scratch.raw_parts(), "builders disagree");
        for (vn, table) in tables.iter().enumerate() {
            for ip in probes(tables) {
                assert_eq!(assembled.lookup_vn(vn, ip), table.lookup(ip), "vn {vn} ip {ip:#010x}");
            }
        }
    }

    #[test]
    fn empty_trie_assembles_to_all_none() {
        let merged = MergedTrie::new(2).unwrap();
        let slabs = JumpSlabs::from_merged(&merged);
        let trie = slabs.assemble();
        assert!(trie.raw_parts().tail.is_empty());
        assert_eq!(trie.lookup_vn(0, 0), None);
        assert_eq!(trie.lookup_vn(1, u32::MAX), None);
        // Interning collapses 65536 identical direct vectors to one slot.
        assert_eq!(trie.leaf_count(), 1);
    }

    #[test]
    fn from_merged_matches_jump_trie_at_paper_scale() {
        let tables = family(4, 3725, 0.7, 17);
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let slabs = JumpSlabs::from_merged(&merged);
        assert_parity(&slabs, &merged, &tables);
    }

    /// The K = 15 paper family is where one structure with two writers
    /// cost watts: the from-scratch build published 861 840 NHI codes and
    /// the first update batch 181 815, a phantom −1.4 W power delta. The
    /// builders now agree by construction — one block filler, one
    /// interning order — so `raw_parts()` is equal field for field, from
    /// a fresh decomposition and after 1 000 seeded updates patched in
    /// through `rebuild_bucket`.
    #[test]
    fn both_builders_publish_one_footprint_for_the_paper_family() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut tables = FamilySpec::paper_worst_case(15, 0.5, 2012).generate().unwrap();
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let mut slabs = JumpSlabs::from_merged(&merged);
        let scratch = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert!(slabs.assemble().raw_parts() == scratch.raw_parts(), "fresh decomposition");

        let mut rng = SmallRng::seed_from_u64(2012);
        let mut dirty = DirtyBuckets::new();
        for _ in 0..1000 {
            let vn = rng.gen_range(0..tables.len());
            let prefix = if rng.gen_bool(0.5) {
                let prefix = Ipv4Prefix::must(rng.gen(), rng.gen_range(8..=32));
                let nh = rng.gen_range(0..12u8);
                merged.insert(vn, prefix, nh);
                tables[vn].insert(prefix, nh);
                prefix
            } else {
                let nth = rng.gen_range(0..tables[vn].len());
                let prefix = tables[vn].prefixes().nth(nth).expect("nth < len");
                merged.remove(vn, &prefix);
                tables[vn].remove(&prefix);
                prefix
            };
            dirty.mark_prefix(&prefix);
        }
        for bucket in dirty.iter() {
            slabs.rebuild_bucket(&merged, bucket);
        }
        assert_parity(&slabs, &merged, &tables[..1]);
    }

    #[test]
    fn rebuilt_buckets_track_churn() {
        let mut tables = family(3, 500, 0.6, 23);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let mut slabs = JumpSlabs::from_merged(&merged);
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for round in 0..6 {
            let mut dirty = DirtyBuckets::new();
            for _ in 0..40 {
                let vn = rng.gen_range(0..3usize);
                if rng.gen_bool(0.5) {
                    let prefix = Ipv4Prefix::must(rng.gen(), rng.gen_range(6..=28));
                    let nh = rng.gen_range(0..12u8);
                    merged.insert(vn, prefix, nh);
                    tables[vn].insert(prefix, nh);
                    dirty.mark_prefix(&prefix);
                } else {
                    let nth = rng.gen_range(0..tables[vn].len());
                    let prefix = tables[vn].prefixes().nth(nth);
                    if let Some(prefix) = prefix {
                        merged.remove(vn, &prefix);
                        tables[vn].remove(&prefix);
                        dirty.mark_prefix(&prefix);
                    }
                }
            }
            for bucket in dirty.iter().collect::<Vec<_>>() {
                slabs.rebuild_bucket(&merged, bucket);
            }
            assert!(merged.check_invariants(), "round {round}");
            assert_parity(&slabs, &merged, &tables);
        }
    }

    #[test]
    fn dirty_buckets_cover_prefix_runs() {
        let mut dirty = DirtyBuckets::new();
        dirty.mark_prefix(&"10.1.2.0/24".parse().unwrap());
        assert_eq!(dirty.iter().collect::<Vec<_>>(), vec![0x0A01]);
        // The /14 run covers 4 buckets, one of which was already dirty.
        dirty.mark_prefix(&"10.0.0.0/14".parse().unwrap());
        assert_eq!(dirty.len(), 4);
        assert_eq!(
            dirty.iter().collect::<Vec<_>>(),
            vec![0x0A00, 0x0A01, 0x0A02, 0x0A03]
        );
        dirty.clear();
        assert!(dirty.is_empty());
        dirty.mark_prefix(&"0.0.0.0/0".parse().unwrap());
        assert_eq!(dirty.len(), ROOT_ENTRIES);
    }

    #[test]
    fn duplicate_marks_count_once() {
        let mut dirty = DirtyBuckets::new();
        dirty.mark(42);
        dirty.mark(42);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty.iter().collect::<Vec<_>>(), vec![42]);
    }
}
