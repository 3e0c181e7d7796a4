//! Per-bucket sub-slab store for incremental [`JumpTrie`] rebuilds.
//!
//! [`JumpTrie`] is immutable by design: the RCU publish model wants a
//! fresh structure per generation. Rebuilding that structure from
//! scratch after every update batch, however, costs O(K·table) — the
//! paper's §V-B churn assumption (~1 % write rate) makes that the
//! dominant control-plane cost long before the datapath notices.
//!
//! [`JumpSlabs`] keeps the same DIR-16 decomposition as [`JumpTrie`] but
//! stores each /16 bucket's sub-trie *separately*, in bucket-local
//! encoding. A route update only perturbs the buckets its prefix covers
//! ([`DirtyBuckets`] tracks which), so an update batch:
//!
//! 1. applies announce/withdraw to the incremental [`MergedTrie`],
//! 2. re-derives only the dirty buckets with [`JumpSlabs::rebuild_bucket`]
//!    (a 16-bit descent plus a sub-trie typically a handful of nodes),
//! 3. concatenates all buckets level-by-level with [`JumpSlabs::assemble`]
//!    into a publishable [`JumpTrie`] — a straight copy, no trie walks.
//!
//! The assembled trie is bit-compatible with [`JumpTrie`]'s invariants
//! (leaf-push completeness, even child pairs, level-ordered slabs) and is
//! expected to pass the `vr-audit` structural verifier on every publish;
//! property tests in this module and in `tests/` hold it to lookup parity
//! and to the same footprint as the from-scratch
//! [`JumpTrie::from_leaf_pushed`] build.
//!
//! Leaf NHI vectors are interned during assembly through the same
//! `NhiInterner` the from-scratch builder uses (identical K-wide
//! vectors share one slab slot), mirroring the hardware's shared NHI
//! memory, so per-bucket duplication does not inflate the published slab
//! and both builders publish the same-sized structure.

use crate::jump::{encode_nhi, JumpTrie, NhiCode, NhiInterner, JUMP_BITS, LEAF_BIT, ROOT_ENTRIES};
use crate::merge::MergedTrie;
use crate::unibit::NodeId;
use vr_net::Ipv4Prefix;

/// One /16 bucket's sub-trie in bucket-local level-slab encoding.
///
/// * `levels[0]` holds the bucket's depth-17 node pair; an internal word
///   at level `l` is the *local* index of its left child in
///   `levels[l + 1]`, a leaf word is `LEAF_BIT | local NHI slot`.
/// * A **direct** bucket (resolved wholly by the root table) has no
///   levels and exactly one K-wide NHI vector.
#[derive(Debug, Clone)]
struct Bucket {
    levels: Vec<Vec<u32>>,
    nhis: Vec<NhiCode>,
}

impl Bucket {
    fn direct(nhis: Vec<NhiCode>) -> Self {
        Self {
            levels: Vec::new(),
            nhis,
        }
    }

    fn push_leaf(&mut self, k: usize, vector: &[NhiCode]) -> u32 {
        let slot = u32::try_from(self.nhis.len() / k).expect("bucket NHI slab overflow");
        self.nhis.extend_from_slice(vector);
        slot
    }
}

/// A child position in the leaf-pushed view of the merged trie: either a
/// real merged node (with the NHI vector inherited so far) or a synthetic
/// leaf filling the missing side of an internal node.
enum Virt {
    Node(NodeId, Vec<NhiCode>),
    Leaf(Vec<NhiCode>),
}

/// The full DIR-16 decomposition of a [`MergedTrie`], one [`Bucket`] per
/// root entry, supporting per-bucket rebuild and O(words) assembly into a
/// publishable [`JumpTrie`].
#[derive(Debug, Clone)]
pub struct JumpSlabs {
    k: usize,
    buckets: Vec<Bucket>,
}

impl JumpSlabs {
    /// Decomposes a merged trie into per-bucket sub-slabs (the
    /// incremental counterpart of [`JumpTrie::from_leaf_pushed`],
    /// leaf-pushing on the fly instead of reading a materialized
    /// [`crate::LeafPushedTrie`]).
    #[must_use]
    pub fn from_merged(merged: &MergedTrie) -> Self {
        let k = merged.arity();
        let mut slabs = Self {
            k,
            buckets: vec![Bucket::direct(vec![0; k]); ROOT_ENTRIES],
        };
        // Iterative leaf-pushing descent to the 16-bit cut. Each stack
        // entry carries the NHI vector inherited from ancestors; a leaf
        // (or a missing child) above the cut covers an aligned run of
        // buckets with one direct vector.
        let mut stack: Vec<(NodeId, usize, u32, Vec<NhiCode>)> =
            vec![(NodeId::ROOT, 0, 0, vec![0; k])];
        while let Some((id, bucket, depth, inherited)) = stack.pop() {
            let eff = effective(merged, id, &inherited);
            let left = merged.node_child(id, 0);
            let right = merged.node_child(id, 1);
            if left.is_none() && right.is_none() {
                let run = 1usize << (JUMP_BITS - depth);
                for b in bucket..bucket + run {
                    slabs.buckets[b] = Bucket::direct(eff.clone());
                }
            } else if depth < JUMP_BITS {
                let half = 1usize << (JUMP_BITS - depth - 1);
                match right {
                    Some(child) => stack.push((child, bucket + half, depth + 1, eff.clone())),
                    None => {
                        for b in bucket + half..bucket + 2 * half {
                            slabs.buckets[b] = Bucket::direct(eff.clone());
                        }
                    }
                }
                match left {
                    Some(child) => stack.push((child, bucket, depth + 1, eff.clone())),
                    None => {
                        for b in bucket..bucket + half {
                            slabs.buckets[b] = Bucket::direct(eff.clone());
                        }
                    }
                }
            } else {
                slabs.buckets[bucket] = build_bucket(merged, id, &eff);
            }
        }
        slabs
    }

    /// Re-derives one /16 bucket from the (already updated) merged trie:
    /// a 16-bit descent tracking the inherited NHI vector, then a
    /// breadth-first rebuild of the bucket's sub-trie if one survives.
    ///
    /// # Panics
    /// Panics if `bucket ≥ 65536` or `merged` has a different arity.
    pub fn rebuild_bucket(&mut self, merged: &MergedTrie, bucket: usize) {
        assert!(bucket < ROOT_ENTRIES, "bucket index out of range");
        assert_eq!(merged.arity(), self.k, "arity mismatch");
        let mut id = NodeId::ROOT;
        let mut eff = effective(merged, id, &vec![0; self.k]);
        for depth in 0..JUMP_BITS {
            if merged.node_child(id, 0).is_none() && merged.node_child(id, 1).is_none() {
                self.buckets[bucket] = Bucket::direct(eff);
                return;
            }
            let bit = (bucket >> (JUMP_BITS - 1 - depth)) & 1;
            match merged.node_child(id, bit) {
                None => {
                    self.buckets[bucket] = Bucket::direct(eff);
                    return;
                }
                Some(child) => {
                    id = child;
                    eff = effective(merged, id, &eff);
                }
            }
        }
        self.buckets[bucket] =
            if merged.node_child(id, 0).is_none() && merged.node_child(id, 1).is_none() {
                Bucket::direct(eff)
            } else {
                build_bucket(merged, id, &eff)
            };
    }

    /// Concatenates all buckets into a publishable [`JumpTrie`]: one pass
    /// computing per-level totals, then a straight level-major copy with
    /// local→global index translation and NHI-vector interning. No trie
    /// walks — cost is O(total words), independent of K and table size
    /// beyond the structure itself.
    #[must_use]
    pub fn assemble(&self) -> JumpTrie {
        let depth = self.buckets.iter().map(|b| b.levels.len()).max().unwrap_or(0);
        let mut totals = vec![0usize; depth];
        for b in &self.buckets {
            for (l, level) in b.levels.iter().enumerate() {
                totals[l] += level.len();
            }
        }
        let mut level_start = Vec::with_capacity(depth + 1);
        level_start.push(0usize);
        for t in &totals {
            let last = *level_start.last().expect("level_start is non-empty");
            level_start.push(last + t);
        }
        let words_len = *level_start.last().expect("level_start is non-empty");
        let level_offsets: Vec<u32> = level_start
            .iter()
            .map(|&s| u32::try_from(s).expect("assembled jump trie exceeds u32 words"))
            .collect();

        let mut root = vec![0u32; ROOT_ENTRIES];
        let mut words = vec![0u32; words_len];
        let mut cursor = vec![0usize; depth]; // next free local base per level
        let mut interner = NhiInterner::new(self.k);

        let mut bases: Vec<usize> = Vec::with_capacity(depth);
        for (bidx, bucket) in self.buckets.iter().enumerate() {
            if bucket.levels.is_empty() {
                root[bidx] = LEAF_BIT | interner.intern(&bucket.nhis);
                continue;
            }
            // Claim this bucket's contiguous block in every level it uses.
            bases.clear();
            for (l, level) in bucket.levels.iter().enumerate() {
                bases.push(cursor[l]);
                cursor[l] += level.len();
            }
            let entry = level_start[0] + bases[0];
            debug_assert_eq!(entry & LEAF_BIT as usize, 0, "assembled jump trie too large");
            root[bidx] = u32::try_from(entry).expect("assembled jump trie exceeds u32 words");
            for (l, level) in bucket.levels.iter().enumerate() {
                let out = level_start[l] + bases[l];
                for (i, &word) in level.iter().enumerate() {
                    words[out + i] = if word & LEAF_BIT != 0 {
                        let slot = (word & !LEAF_BIT) as usize;
                        let vector = &bucket.nhis[slot * self.k..(slot + 1) * self.k];
                        LEAF_BIT | interner.intern(vector)
                    } else {
                        let target = level_start[l + 1] + bases[l + 1] + word as usize;
                        u32::try_from(target).expect("assembled jump trie exceeds u32 words")
                    };
                }
            }
        }
        JumpTrie::from_raw_parts(root, words, level_offsets, interner.into_slab(), self.k)
    }
}

/// NHI vector at `id` after leaf pushing: own entries override inherited.
fn effective(merged: &MergedTrie, id: NodeId, inherited: &[NhiCode]) -> Vec<NhiCode> {
    let own = merged.node_nhis(id);
    let mut eff = inherited.to_vec();
    for (slot, nhi) in eff.iter_mut().zip(own) {
        if nhi.is_some() {
            *slot = encode_nhi(*nhi);
        }
    }
    eff
}

fn virt_child(merged: &MergedTrie, id: NodeId, bit: usize, eff: &[NhiCode]) -> Virt {
    match merged.node_child(id, bit) {
        Some(child) => Virt::Node(child, eff.to_vec()),
        None => Virt::Leaf(eff.to_vec()),
    }
}

/// Breadth-first leaf-pushed build of one bucket's sub-trie, rooted at an
/// internal merged node sitting exactly at the 16-bit cut.
fn build_bucket(merged: &MergedTrie, id: NodeId, eff: &[NhiCode]) -> Bucket {
    let k = merged.arity();
    let mut bucket = Bucket {
        levels: Vec::new(),
        nhis: Vec::new(),
    };
    let mut frontier = vec![
        virt_child(merged, id, 0, eff),
        virt_child(merged, id, 1, eff),
    ];
    while !frontier.is_empty() {
        let mut level = Vec::with_capacity(frontier.len());
        let mut next = Vec::new();
        for virt in frontier {
            match virt {
                Virt::Leaf(vector) => level.push(LEAF_BIT | bucket.push_leaf(k, &vector)),
                Virt::Node(node, inherited) => {
                    let eff = effective(merged, node, &inherited);
                    if merged.node_child(node, 0).is_none()
                        && merged.node_child(node, 1).is_none()
                    {
                        level.push(LEAF_BIT | bucket.push_leaf(k, &eff));
                    } else {
                        let base =
                            u32::try_from(next.len()).expect("bucket sub-trie exceeds u32");
                        debug_assert_eq!(base & LEAF_BIT, 0, "bucket sub-trie too large");
                        level.push(base);
                        next.push(virt_child(merged, node, 0, &eff));
                        next.push(virt_child(merged, node, 1, &eff));
                    }
                }
            }
        }
        bucket.levels.push(level);
        frontier = next;
    }
    bucket
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

    fn assert_parity(slabs: &JumpSlabs, merged: &MergedTrie, tables: &[RoutingTable]) {
        let assembled = slabs.assemble();
        let oracle = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert_eq!(assembled.memory_bits(8), oracle.memory_bits(8), "footprint");
        for (vn, table) in tables.iter().enumerate() {
            for ip in probes(tables) {
                assert_eq!(
                    assembled.lookup_vn(vn, ip),
                    table.lookup(ip),
                    "vn {vn} ip {ip:#010x} vs table"
                );
                assert_eq!(
                    assembled.lookup_vn(vn, ip),
                    oracle.lookup_vn(vn, ip),
                    "vn {vn} ip {ip:#010x} vs from_leaf_pushed"
                );
            }
        }
    }

    #[test]
    fn empty_trie_assembles_to_all_none() {
        let merged = MergedTrie::new(2).unwrap();
        let slabs = JumpSlabs::from_merged(&merged);
        let trie = slabs.assemble();
        assert_eq!(trie.sub_node_count(), 0);
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
    /// the first update batch 181 815, a phantom −1.4 W power delta.
    #[test]
    fn both_builders_publish_one_footprint_for_the_paper_family() {
        let tables = FamilySpec::paper_worst_case(15, 0.5, 2012).generate().unwrap();
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let scratch = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        let assembled = JumpSlabs::from_merged(&merged).assemble();
        assert_eq!(assembled.memory_bits(8), scratch.memory_bits(8));
        for (vn, table) in tables.iter().enumerate() {
            for ip in probes(std::slice::from_ref(table)) {
                assert_eq!(assembled.lookup_vn(vn, ip), scratch.lookup_vn(vn, ip), "vn {vn}");
            }
        }
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
