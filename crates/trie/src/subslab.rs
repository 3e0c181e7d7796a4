//! The /16 buckets an update batch dirties, which is all it repaints.
//!
//! [`JumpTrie`](crate::JumpTrie) is immutable by design: the RCU publish
//! model wants a fresh structure per generation. Rebuilding that
//! structure from the routes after every update batch, however, costs
//! O(K·table) — the paper's §V-B churn assumption (~1 % write rate)
//! makes that the dominant control-plane cost long before the datapath
//! notices.
//!
//! A route update only perturbs the /16 buckets its prefix covers, and
//! [`DirtyBuckets`] tracks which. An update batch:
//!
//! 1. applies announce/withdraw to the incremental
//!    [`MergedTrie`](crate::MergedTrie),
//! 2. builds the next snapshot with
//!    [`JumpTrie::repaint`](crate::JumpTrie::repaint): one walk of the
//!    merged trie's top 16 levels that copies each run of clean buckets
//!    from the live snapshot (rebasing internal entries, interning leaf
//!    vectors again in address order) and paints the dirty ones from the
//!    arena, through the one painter every jump-trie builder runs.
//!
//! So the repaint publishes what a from-scratch build of the same tables
//! publishes, field for field (the tests here and in `tests/` hold
//! `raw_parts()` equal, after chains of churn batches too), and the
//! control plane prices one footprint whichever path built it.

use crate::jump::{JUMP_BITS, ROOT_ENTRIES};
use std::ops::Range;
use vr_net::Ipv4Prefix;

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

    /// Every bucket dirty: a [`JumpTrie::repaint`](crate::JumpTrie::repaint)
    /// that copies nothing.
    #[must_use]
    pub fn all() -> Self {
        Self {
            bits: vec![u64::MAX; ROOT_ENTRIES / 64],
            count: ROOT_ENTRIES,
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

    /// Marks every bucket whose blocks (or direct entry) an update to
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

    /// True when a bucket of `run`, an aligned run of a power-of-two
    /// length, is dirty.
    pub(crate) fn any_in(&self, run: Range<usize>) -> bool {
        if run.len() >= 64 {
            self.bits[run.start / 64..run.end / 64]
                .iter()
                .any(|&word| word != 0)
        } else {
            let mask = ((1u64 << run.len()) - 1) << (run.start % 64);
            self.bits[run.start / 64] & mask != 0
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

    /// Resets every bucket to clean.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JumpTrie, MergedTrie};
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

    /// The repainted trie is the from-scratch build of the same merged
    /// trie, field for field, and answers like the source tables.
    fn assert_parity(repainted: &JumpTrie, merged: &MergedTrie, tables: &[RoutingTable]) {
        let scratch = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert!(
            repainted.raw_parts() == scratch.raw_parts(),
            "builders disagree"
        );
        for (vn, table) in tables.iter().enumerate() {
            for ip in probes(tables) {
                assert_eq!(
                    repainted.lookup_vn(vn, ip),
                    table.lookup(ip),
                    "vn {vn} ip {ip:#010x}"
                );
            }
        }
    }

    /// The full paint of `merged`, from a trie it never reads.
    fn paint_all(merged: &MergedTrie) -> JumpTrie {
        let nothing = JumpTrie::from_raw_parts(Vec::new(), Vec::new(), Vec::new(), 0);
        nothing.repaint(merged, &DirtyBuckets::all())
    }

    #[test]
    fn empty_trie_assembles_to_all_none() {
        let merged = MergedTrie::new(2).unwrap();
        let trie = paint_all(&merged);
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
        let trie = paint_all(&merged);
        assert_parity(&trie, &merged, &tables);
        // With nothing dirty every bucket is copied, into the same trie.
        let copied = trie.repaint(&merged, &DirtyBuckets::new());
        assert!(copied.raw_parts() == trie.raw_parts());
    }

    /// The K = 15 paper family is where one structure with two writers
    /// cost watts: the from-scratch build published 861 840 NHI codes and
    /// the first update batch 181 815, a phantom −1.4 W power delta. The
    /// builders now agree by construction — one block filler, one
    /// interning order — so `raw_parts()` is equal field for field, from
    /// a full paint of the arena and after 1 000 seeded updates repainted
    /// over the from-scratch build.
    #[test]
    fn both_builders_publish_one_footprint_for_the_paper_family() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut tables = FamilySpec::paper_worst_case(15, 0.5, 2012)
            .generate()
            .unwrap();
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let scratch = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert!(
            paint_all(&merged).raw_parts() == scratch.raw_parts(),
            "full paint"
        );

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
        assert_parity(&scratch.repaint(&merged, &dirty), &merged, &tables[..1]);
    }

    #[test]
    fn rebuilt_buckets_track_churn() {
        let mut tables = family(3, 500, 0.6, 23);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let mut live = paint_all(&merged);
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
            live = live.repaint(&merged, &dirty);
            assert!(merged.check_invariants(), "round {round}");
            assert_parity(&live, &merged, &tables);
        }
    }

    #[test]
    fn dirty_buckets_cover_prefix_runs() {
        let mut dirty = DirtyBuckets::new();
        dirty.mark_prefix(&"10.1.2.0/24".parse().unwrap());
        assert_eq!(dirty.len(), 1);
        assert!(dirty.any_in(0x0A01..0x0A02) && !dirty.any_in(0x0A00..0x0A01));
        // The /14 run covers 4 buckets, one of which was already dirty.
        dirty.mark_prefix(&"10.0.0.0/14".parse().unwrap());
        assert_eq!(dirty.len(), 4);
        assert!((0x0A00..0x0A04).all(|bucket| dirty.any_in(bucket..bucket + 1)));
        assert!(!dirty.any_in(0x09FC..0x0A00) && !dirty.any_in(0x0A04..0x0A08));
        dirty.clear();
        assert!(dirty.is_empty() && !dirty.any_in(0..ROOT_ENTRIES));
        dirty.mark_prefix(&"0.0.0.0/0".parse().unwrap());
        assert_eq!(dirty.len(), ROOT_ENTRIES);
        assert_eq!(dirty.bits, DirtyBuckets::all().bits);
    }

    #[test]
    fn duplicate_marks_count_once() {
        let mut dirty = DirtyBuckets::new();
        dirty.mark(42);
        dirty.mark(42);
        assert_eq!(dirty.len(), 1);
        assert!(dirty.any_in(42..43) && !dirty.any_in(0..32));
        assert!(dirty.any_in(32..64) && dirty.any_in(0..256) && !dirty.any_in(64..128));
        assert!(!dirty.any_in(43..44) && !dirty.any_in(40..42));
    }
}
