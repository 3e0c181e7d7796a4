//! Property-based equivalence: every fast lookup path (uni-bit trie,
//! leaf-pushed trie, merged trie, cycle-level pipeline) must agree with
//! the linear-scan oracle on arbitrary tables and probe addresses.

use proptest::prelude::*;
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::{LeafPushedTrie, MergedTrie, UnibitTrie};

/// Strategy: an arbitrary routing table of up to `max` routes.
fn arb_table(max: usize) -> impl Strategy<Value = RoutingTable> {
    prop::collection::vec((any::<u32>(), 0u8..=32, any::<NextHop>()), 0..max).prop_map(|routes| {
        RoutingTable::from_entries(
            routes
                .into_iter()
                .map(|(addr, len, nh)| RouteEntry::new(Ipv4Prefix::must(addr, len), nh)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_matches_oracle(table in arb_table(64), probes in prop::collection::vec(any::<u32>(), 32)) {
        let trie = UnibitTrie::from_table(&table);
        prop_assert!(trie.check_invariants());
        for ip in probes {
            prop_assert_eq!(trie.lookup(ip), table.lookup(ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn leaf_pushed_matches_oracle(table in arb_table(64), probes in prop::collection::vec(any::<u32>(), 32)) {
        let trie = UnibitTrie::from_table(&table);
        let pushed = LeafPushedTrie::from_unibit(&trie);
        prop_assert!(pushed.is_full());
        for ip in probes {
            prop_assert_eq!(pushed.lookup_vn(0, ip), table.lookup(ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn merged_matches_every_oracle(
        tables in prop::collection::vec(arb_table(32), 1..5),
        probes in prop::collection::vec(any::<u32>(), 16),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let pushed = merged.leaf_pushed();
        prop_assert!(pushed.is_full());
        let alpha = merged.merging_efficiency();
        prop_assert!((0.0..=1.0).contains(&alpha));
        for (vnid, table) in tables.iter().enumerate() {
            for &ip in &probes {
                prop_assert_eq!(merged.lookup(vnid, ip), table.lookup(ip));
                prop_assert_eq!(pushed.lookup_vn(vnid, ip), table.lookup(ip));
            }
        }
    }

    /// K = 1 really is K: leaf-pushing one table through the merged
    /// overlay gives the trie leaf-pushing it directly gives.
    #[test]
    fn single_table_merge_leaf_pushes_like_the_table(
        table in arb_table(64),
        probes in prop::collection::vec(any::<u32>(), 32),
    ) {
        let merged = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
        let via_merge = LeafPushedTrie::from_merged(&merged);
        let direct = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        prop_assert_eq!(via_merge.arity(), 1);
        prop_assert_eq!(via_merge.node_count(), direct.node_count());
        prop_assert_eq!(via_merge.leaf_count(), direct.leaf_count());
        prop_assert_eq!(via_merge.stats(), direct.stats());
        for ip in probes {
            prop_assert_eq!(via_merge.lookup_vn(0, ip), direct.lookup_vn(0, ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn insert_remove_round_trip(table in arb_table(48), extra in (any::<u32>(), 1u8..=32, any::<NextHop>())) {
        let mut trie = UnibitTrie::from_table(&table);
        let nodes_before = trie.node_count();
        let prefix = Ipv4Prefix::must(extra.0, extra.1);
        let existing = table.get(&prefix);
        trie.insert(prefix, extra.2);
        prop_assert_eq!(trie.get(&prefix), Some(extra.2));
        match existing {
            Some(nh) => {
                // Restore and expect identical structure.
                trie.insert(prefix, nh);
                prop_assert_eq!(trie.node_count(), nodes_before);
            }
            None => {
                trie.remove(&prefix);
                prop_assert_eq!(trie.node_count(), nodes_before);
                prop_assert_eq!(trie.get(&prefix), None);
            }
        }
        prop_assert!(trie.check_invariants());
        prop_assert_eq!(trie.to_table().len(), trie.prefix_count());
    }

    #[test]
    fn merged_node_count_is_bounded(tables in prop::collection::vec(arb_table(32), 1..5)) {
        let tries: Vec<UnibitTrie> = tables.iter().map(UnibitTrie::from_table).collect();
        let merged = MergedTrie::from_tries(&tries).unwrap();
        let max = tries.iter().map(UnibitTrie::node_count).max().unwrap();
        let sum: usize = tries.iter().map(UnibitTrie::node_count).sum();
        prop_assert!(merged.node_count() >= max);
        prop_assert!(merged.node_count() <= sum);
        // Leaf pushing preserves fullness and never shrinks the trie.
        let pushed = merged.leaf_pushed();
        prop_assert!(pushed.node_count() >= merged.node_count());
    }

    #[test]
    fn stride_trie_matches_oracle(
        table in arb_table(48),
        probes in prop::collection::vec(any::<u32>(), 24),
        stride_pick in 0usize..3,
    ) {
        use vr_trie::StrideTrie;
        let strides: &[u8] = [&[8u8, 8, 8, 8][..], &[4; 8][..], &[2; 16][..]][stride_pick];
        let trie = StrideTrie::from_table(&table, strides).unwrap();
        prop_assert_eq!(trie.prefix_count(), table.len());
        for ip in probes {
            prop_assert_eq!(trie.lookup(ip), table.lookup(ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn merged_churn_preserves_invariants_and_oracle(
        start in prop::collection::vec(arb_table(24), 1..4),
        ops in prop::collection::vec(
            (0usize..4, any::<u32>(), 1u8..=32, any::<NextHop>(), any::<bool>()),
            0..60,
        ),
    ) {
        let mut merged = MergedTrie::from_tables(&start).unwrap();
        let mut shadow = start;
        let k = shadow.len();
        for (vn, addr, len, nh, announce) in ops {
            let vn = vn % k;
            let prefix = Ipv4Prefix::must(addr, len);
            if announce {
                prop_assert_eq!(
                    merged.insert(vn, prefix, nh),
                    shadow[vn].insert(prefix, nh)
                );
            } else {
                prop_assert_eq!(merged.remove(vn, &prefix), shadow[vn].remove(&prefix));
            }
        }
        prop_assert!(merged.check_invariants());
        for (vn, table) in shadow.iter().enumerate() {
            for prefix in table.prefixes().take(16) {
                let probe = prefix.addr() | 1;
                prop_assert_eq!(merged.lookup(vn, probe), table.lookup(probe));
            }
        }
    }

    #[test]
    fn pipeline_engine_matches_oracle(seed in any::<u64>()) {
        use vr_engine::{EngineConfig, PipelineEngine};
        use vr_trie::pipeline_map::{MemoryLayout, PipelineProfile};

        let table = vr_net::synth::TableSpec {
            prefixes: 120,
            seed,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            clustering: None,
            include_default_route: seed % 2 == 0,
            next_hops: 8,
        }
        .generate()
        .unwrap();
        let pushed = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let profile = PipelineProfile::for_trie(&pushed, 28, MemoryLayout::default()).unwrap();
        let mut engine =
            PipelineEngine::new(pushed, &profile, EngineConfig::paper_default()).unwrap();

        let probes: Vec<u32> = table.prefixes().map(|p| p.addr() ^ (seed as u32)).collect();
        let mut outputs = Vec::new();
        for &ip in &probes {
            if let Some(done) = engine.tick(Some((0, ip))) {
                outputs.push(done);
            }
        }
        outputs.extend(engine.drain());
        prop_assert_eq!(outputs.len(), probes.len());
        for done in outputs {
            prop_assert_eq!(done.next_hop, table.lookup(done.dst));
        }
    }
}

/// Non-proptest sanity anchor: deterministic mixed workload through all
/// three data structures simultaneously.
#[test]
fn three_structures_agree_on_paper_scale_table() {
    let table = vr_net::synth::TableSpec::paper_worst_case(42)
        .generate()
        .unwrap();
    let trie = UnibitTrie::from_table(&table);
    let pushed = LeafPushedTrie::from_unibit(&trie);
    let merged = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
    let merged_pushed = merged.leaf_pushed();
    let mut checked = 0usize;
    for p in table.prefixes() {
        for probe in [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)] {
            let expect = table.lookup(probe);
            assert_eq!(trie.lookup(probe), expect);
            assert_eq!(pushed.lookup_vn(0, probe), expect);
            assert_eq!(merged.lookup(0, probe), expect);
            assert_eq!(merged_pushed.lookup_vn(0, probe), expect);
            checked += 1;
        }
    }
    assert!(checked > 10_000, "must cover a paper-scale probe set");
}
