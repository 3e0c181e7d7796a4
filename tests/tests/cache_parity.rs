//! Property-based parity for the LPM result cache: an [`LpmCache`] in
//! front of `lookup_batch_mixed` must be **bit-identical** to the walk
//! alone under arbitrary Zipf-skewed traffic across generation bumps.
//! The cache is deliberately tiny (64–256 slots, far below any working
//! set these streams draw) so every property also exercises eviction by
//! collision, and a stale hit surviving a generation bump is exactly the
//! bug class these properties hunt.
//!
//! No service runs this cache (every lane walks the trie); the type
//! stays as the one the benchmarks price, and its probe/fill unit proofs
//! live in `vr-engine`.

use proptest::prelude::*;
use vr_engine::service::lookup_batch_mixed;
use vr_engine::LpmCache;
use vr_net::synth::FamilySpec;
use vr_net::{RoutingTable, SkewedSpec, SkewedTraffic};
use vr_trie::{JumpTrie, MergedTrie};

const K: usize = 3;

fn family(seed: u64) -> Vec<RoutingTable> {
    FamilySpec {
        k: K,
        prefixes_per_table: 96,
        shared_fraction: 0.5,
        seed,
        distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
        next_hops: 8,
    }
    .generate()
    .expect("family generation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The probe/fill layer itself, single-threaded: an `LpmCache` in
    /// front of `lookup_batch_mixed` must match the uncached walk for
    /// arbitrary batches across generation bumps, with a cache small
    /// enough that collisions evict constantly.
    #[test]
    fn lpm_cache_layer_matches_uncached_walk(
        seed in 0u64..1_000,
        batches in prop::collection::vec(1usize..300, 1..10),
    ) {
        let tables = family(seed);
        let trie = JumpTrie::from_leaf_pushed(
            &MergedTrie::from_tables(&tables).expect("merge").leaf_pushed(),
        );
        let mut cache = LpmCache::new(64).expect("cache");
        let mut stream = SkewedTraffic::new(SkewedSpec::zipf(K, 1.0, seed), &tables)
            .expect("traffic stream");
        for (generation, &len) in batches.iter().enumerate() {
            // A fresh generation every batch: every probe of this batch
            // sees only tags from older generations, so correctness can
            // never lean on a stale fill.
            let packets = stream.pairs(len);
            let mut want = vec![None; packets.len()];
            let mut got = vec![None; packets.len()];
            lookup_batch_mixed(&trie, &packets, &mut want);
            cache.lookup_batch(&trie, generation as u64, &packets, &mut got);
            assert_eq!(got, want, "generation {generation} diverged");
        }
    }
}

/// Deterministic regression: slots filled under one generation never
/// answer for the next. The same trie under a bumped generation re-walks
/// every key (and agrees); a trie over empty tables under the next one
/// must not serve a single old hop.
#[test]
fn publish_invalidates_cached_results_exactly() {
    let tables = family(7);
    let trie = JumpTrie::from_tables(&tables).expect("trie");
    let mut cache = LpmCache::new(256).expect("cache");
    let mut stream =
        SkewedTraffic::new(SkewedSpec::zipf(K, 1.2, 7), &tables).expect("traffic stream");
    let packets = stream.pairs(512);
    let mut before = vec![None; packets.len()];
    cache.lookup_batch(&trie, 0, &packets, &mut before);
    // Same contents, generation bumped: every probe misses.
    let misses = cache.stats().misses;
    let mut after = vec![None; packets.len()];
    cache.lookup_batch(&trie, 1, &packets, &mut after);
    assert_eq!(before, after, "same tables must resolve identically");
    assert_eq!(cache.stats().misses - misses, packets.len() as u64);
    // A genuinely different table: the old cached hops must not leak.
    let empty: Vec<RoutingTable> = tables
        .iter()
        .map(|_| RoutingTable::from_entries(std::iter::empty()))
        .collect();
    let cleared_trie = JumpTrie::from_tables(&empty).expect("empty trie");
    let mut cleared = vec![None; packets.len()];
    cache.lookup_batch(&cleared_trie, 2, &packets, &mut cleared);
    assert!(
        cleared.iter().all(Option::is_none),
        "stale cache slots served hops from a dead generation"
    );
}
