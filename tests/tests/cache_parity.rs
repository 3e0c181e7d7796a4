//! Property-based parity for the hot-path LPM result cache: a cached
//! service must be **bit-identical** to an uncached one under arbitrary
//! traffic (uniform and Zipf-skewed) interleaved with arbitrary route
//! churn. The cache is deliberately tiny (64–256 slots, far below any
//! working set these streams draw) so every property also exercises
//! eviction by collision, and every `apply_updates`/`publish_tables`
//! bumps the RCU generation the slots are tagged with — a stale hit
//! surviving a publish is exactly the bug class these properties hunt.
//!
//! The direct `LpmCache` probe/fill layer has its own unit proofs in
//! `vr-engine` (including generation-bump-invalidates-without-touching-
//! slots); here the properties go through the full services, channels
//! and snapshots included.

use proptest::prelude::*;
use vr_engine::service::lookup_batch_mixed;
use vr_engine::{
    LookupService, LpmCache, ServiceConfig, ShardedConfig, ShardedService, TableSnapshot,
};
use vr_net::synth::FamilySpec;
use vr_net::{SkewedSpec, SkewedTraffic, UpdateMix, UpdateStream};
use vr_trie::{JumpTrie, MergedTrie};

const K: usize = 3;

fn family(seed: u64) -> Vec<vr_net::RoutingTable> {
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

/// One step of a generated schedule: resolve a batch of packets, or
/// publish a burst of route updates (which bumps the generation and
/// must invalidate every cached slot at once).
#[derive(Debug, Clone)]
enum Step {
    Batch { len: usize, skew_bucket: u8 },
    Churn { updates: usize },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // (kind, len, skew_bucket): kind 0 is churn (1 in 4 — route bursts
    // are rarer than batches, as in the replay traces), anything else a
    // traffic batch of the given length and skew.
    prop::collection::vec((0u8..4, 1usize..400, 0u8..3), 1..12).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, len, skew_bucket)| {
                if kind == 0 {
                    Step::Churn {
                        updates: len % 47 + 1,
                    }
                } else {
                    Step::Batch { len, skew_bucket }
                }
            })
            .collect()
    })
}

/// Buckets keep the strategy shrinkable while still covering the
/// uniform / moderate / heavy-tail regimes.
fn skew_of(bucket: u8) -> f64 {
    match bucket {
        0 => 0.0,
        1 => 0.8,
        _ => 1.4,
    }
}

/// Drives one schedule through a cached and an uncached
/// [`LookupService`] and asserts element-wise identical results at
/// every step. Each `skew_bucket` gets its own traffic stream so a
/// single schedule mixes distributions.
fn check_service_parity(seed: u64, cache_slots: usize, steps: &[Step]) {
    let tables = family(seed);
    let cached_cfg = ServiceConfig {
        workers: 2,
        lookup_cache: Some(cache_slots),
        ..ServiceConfig::default()
    };
    let uncached_cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let mut cached = LookupService::new(tables.clone(), cached_cfg).expect("cached service");
    let mut uncached = LookupService::new(tables.clone(), uncached_cfg).expect("uncached service");
    let mut updates =
        UpdateStream::new(tables.clone(), UpdateMix::default(), 8, seed).expect("update stream");
    let mut streams: Vec<SkewedTraffic> = (0..3u8)
        .map(|b| {
            let spec = SkewedSpec::zipf(K, skew_of(b), seed ^ u64::from(b));
            SkewedTraffic::new(spec, &tables).expect("traffic stream")
        })
        .collect();

    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Batch { len, skew_bucket } => {
                let packets = streams[usize::from(skew_bucket)].pairs(len);
                let want = uncached.process(&packets);
                let got = cached.process(&packets);
                assert_eq!(got, want, "step {i}: cached diverged on a batch");
            }
            Step::Churn { updates: n } => {
                let burst = updates.batch(n);
                let g1 = cached.apply_updates(&burst).expect("cached churn");
                let g2 = uncached.apply_updates(&burst).expect("uncached churn");
                assert_eq!(g1, g2, "step {i}: generations diverged");
            }
        }
    }
    // One final batch after the last churn so every schedule ends by
    // proving the post-publish state, not just the interleaving.
    let packets = streams[0].pairs(256);
    assert_eq!(
        cached.process(&packets),
        uncached.process(&packets),
        "post-schedule batch diverged"
    );
    let _ = cached.shutdown();
    let _ = uncached.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached vs uncached `LookupService` under arbitrary interleavings
    /// of mixed-skew traffic and route-update churn.
    #[test]
    fn cached_service_is_bit_identical_under_churn(
        seed in 0u64..1_000,
        slots_pow in 6u32..9, // 64..256 slots: tiny, eviction-heavy
        steps in arb_steps(),
    ) {
        check_service_parity(seed, 1usize << slots_pow, &steps);
    }

    /// Same property through the sharded organization: shard threads own
    /// their snapshots and caches, and adopt publishes via the job FIFO,
    /// so the generation tag must invalidate per-shard caches too.
    #[test]
    fn cached_sharded_service_is_bit_identical_across_publishes(
        seed in 0u64..1_000,
        steps in arb_steps(),
    ) {
        let tables = family(seed);
        let cached_cfg = ShardedConfig {
            shards: 2,
            lookup_cache: Some(128),
            ..ShardedConfig::default()
        };
        let uncached_cfg = ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        };
        let mut cached =
            ShardedService::new(tables.clone(), cached_cfg).expect("cached sharded");
        let mut uncached =
            ShardedService::new(tables.clone(), uncached_cfg).expect("uncached sharded");
        let mut updates = UpdateStream::new(tables.clone(), UpdateMix::default(), 8, seed)
            .expect("update stream");
        let mut tables_now = tables;
        let mut stream = SkewedTraffic::new(SkewedSpec::zipf(K, 1.0, seed), &tables_now)
            .expect("traffic stream");
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Batch { len, .. } => {
                    let packets = stream.pairs(len);
                    let mut want = vec![None; packets.len()];
                    let mut got = vec![None; packets.len()];
                    uncached.process_into(&packets, &mut want);
                    cached.process_into(&packets, &mut got);
                    assert_eq!(got, want, "step {i}: cached shard diverged");
                }
                Step::Churn { updates: n } => {
                    // The sharded service republishes whole tables; the
                    // update stream's burst is applied to our copy so
                    // both sides see the identical new family.
                    for u in updates.batch(n) {
                        let t = &mut tables_now[usize::from(u.vnid())];
                        match u {
                            vr_net::RouteUpdate::Announce { prefix, next_hop, .. } => {
                                t.insert(prefix, next_hop);
                            }
                            vr_net::RouteUpdate::Withdraw { prefix, .. } => {
                                t.remove(&prefix);
                            }
                        }
                    }
                    let g1 = cached.publish_tables(tables_now.clone()).expect("publish");
                    let g2 = uncached.publish_tables(tables_now.clone()).expect("publish");
                    assert_eq!(g1, g2, "step {i}: generations diverged");
                }
            }
        }
        let packets = stream.pairs(256);
        let mut want = vec![None; packets.len()];
        let mut got = vec![None; packets.len()];
        uncached.process_into(&packets, &mut want);
        cached.process_into(&packets, &mut got);
        assert_eq!(got, want, "post-schedule sharded batch diverged");
        let _ = cached.shutdown();
        let _ = uncached.shutdown();
    }

    /// The probe/fill layer itself, single-threaded: an `LpmCache` in
    /// front of `lookup_batch_mixed` must match the uncached walk for
    /// arbitrary batches across generation bumps, with a cache small
    /// enough that collisions evict constantly.
    #[test]
    fn lpm_cache_layer_matches_uncached_walk(
        seed in 0u64..1_000,
        batches in prop::collection::vec((1usize..300, 0u8..3), 1..10),
    ) {
        let tables = family(seed);
        let trie = JumpTrie::from_leaf_pushed(
            &MergedTrie::from_tables(&tables).expect("merge").leaf_pushed(),
        );
        let mut cache = LpmCache::new(64).expect("cache");
        let mut stream = SkewedTraffic::new(SkewedSpec::zipf(K, 1.0, seed), &tables)
            .expect("traffic stream");
        for (generation, &(len, _)) in batches.iter().enumerate() {
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

/// Deterministic regression: the published snapshot generation a worker
/// pins is the same value the cache tags slots with — publish, and the
/// very next batch must re-walk (miss) rather than serve the old hops.
#[test]
fn publish_invalidates_cached_results_exactly() {
    let tables = family(7);
    let mut svc = LookupService::new(
        tables.clone(),
        ServiceConfig {
            workers: 1,
            lookup_cache: Some(256),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let mut stream =
        SkewedTraffic::new(SkewedSpec::zipf(K, 1.2, 7), &tables).expect("traffic stream");
    let packets = stream.pairs(512);
    let before = svc.process(&packets);
    // Republish the same tables: contents identical, generation bumped.
    let generation = svc.publish_tables(tables.clone()).expect("republish");
    assert!(generation > 0);
    let after = svc.process(&packets);
    assert_eq!(before, after, "same tables must resolve identically");
    // And against a genuinely different snapshot the old cached hops
    // must not leak: drop every table to empty.
    let empty: Vec<vr_net::RoutingTable> = tables
        .iter()
        .map(|_| vr_net::RoutingTable::from_entries(std::iter::empty()))
        .collect();
    svc.publish_tables(empty).expect("publish empty");
    let cleared = svc.process(&packets);
    assert!(
        cleared.iter().all(Option::is_none),
        "stale cache slots served hops from a dead generation"
    );
    let snapshot: vr_sync::SyncArc<TableSnapshot> = svc.snapshot();
    assert!(snapshot.generation >= 2);
    let _ = svc.shutdown();
}
