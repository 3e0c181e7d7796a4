//! Property-based equivalence: every fast lookup path (uni-bit trie,
//! leaf-pushed trie, merged trie, DIR-16-8-8 jump trie, cycle-level
//! pipeline) must agree with the linear-scan oracle on arbitrary tables
//! and probe addresses, and the stride pipeline's closed-form sizing
//! with the uni-bit trie's node counts.

use proptest::prelude::*;
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::pipeline_map::stride_stage_entries;
use vr_trie::{JumpSlabs, JumpTrie, LeafPushedTrie, MergedTrie, UnibitTrie};

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

    /// The closed-form stride-pipeline sizing against an oracle that
    /// shares none of its code: a stage below the root holds one node per
    /// uni-bit node at the depth it starts that has a child.
    #[test]
    fn stride_entries_count_unibit_internal_nodes(
        table in arb_table(64),
        stride_pick in 0usize..4,
    ) {
        let stride = [1u8, 2, 4, 8][stride_pick];
        let strides = vec![stride; 32 / usize::from(stride)];
        let entries = stride_stage_entries(&table, &strides).unwrap();
        let stats = UnibitTrie::from_table(&table).stats();
        prop_assert_eq!(entries.len(), strides.len());
        prop_assert_eq!(entries[0], 1u64 << stride);
        for (stage, &got) in entries.iter().enumerate().skip(1) {
            let consumed = stage * usize::from(stride);
            let nodes = stats.internal_at_level(consumed) as u64;
            prop_assert_eq!(got, nodes << stride, "stride {} stage {}", stride, stage);
        }
    }

    /// Both `JumpTrie` builders publish the same structure for the same
    /// family, field for field, and it answers every network's lookups.
    #[test]
    fn jump_builders_agree_and_match_every_oracle(
        tables in prop::collection::vec(arb_table(32), 1..5),
        probes in prop::collection::vec(any::<u32>(), 32),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let jump = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        let assembled = JumpSlabs::from_merged(&merged).assemble();
        prop_assert!(assembled.raw_parts() == jump.raw_parts());
        for (vn, table) in tables.iter().enumerate() {
            for &ip in &probes {
                prop_assert_eq!(jump.lookup_vn(vn, ip), table.lookup(ip), "vn {} ip {:#010x}", vn, ip);
            }
        }
    }

    /// The block layout on the tables that stress it: K ∈ {1, 3, 15}
    /// networks of mostly /25–/32 routes packed into four /16s, so
    /// buckets open level-2 blocks and networks share them. `JumpTrie`,
    /// the leaf-pushed trie it was filled from and each network's own
    /// table agree at every prefix's first address, last host and
    /// predecessor, and at both ends of every /24 of each populated /16.
    #[test]
    fn jump_blocks_match_both_oracles_on_deep_families(
        routes in prop::collection::vec(
            prop::collection::vec((0u32..4, any::<u16>(), any::<u8>(), any::<NextHop>()), 0..16),
            15..16,
        ),
        k_pick in 0usize..3,
    ) {
        let tables: Vec<RoutingTable> = routes[..[1, 3, 15][k_pick]]
            .iter()
            .map(|routes| {
                RoutingTable::from_entries(routes.iter().map(|&(bucket, low, len, nh)| {
                    let len = if len % 5 == 0 { len % 25 } else { 25 + len % 8 };
                    let addr = (0x0A0A + bucket * 0x0101) << 16 | u32::from(low);
                    RouteEntry::new(Ipv4Prefix::must(addr, len), nh)
                }))
            })
            .collect();
        let pushed = MergedTrie::from_tables(&tables).unwrap().leaf_pushed();
        let jump = JumpTrie::from_leaf_pushed(&pushed);
        let mut probes = Vec::new();
        for prefix in tables.iter().flat_map(RoutingTable::prefixes) {
            let first = prefix.addr();
            let last = first | u32::MAX.checked_shr(u32::from(prefix.len())).unwrap_or(0);
            probes.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
            if prefix.len() >= 16 {
                let bucket = first & 0xFFFF_0000;
                probes.extend((0..256).flat_map(|i| [bucket | i << 8, bucket | i << 8 | 0xFF]));
            }
        }
        probes.sort_unstable();
        probes.dedup();
        for (vn, table) in tables.iter().enumerate() {
            for &ip in &probes {
                let want = table.lookup(ip);
                prop_assert_eq!(pushed.lookup_vn(vn, ip), want, "leaf-pushed vn {} ip {:#010x}", vn, ip);
                prop_assert_eq!(jump.lookup_vn(vn, ip), want, "jump vn {} ip {:#010x}", vn, ip);
            }
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

/// Edge lengths the direct-index front end must get right: a /0 default
/// route (fills every root bucket), /16 prefixes (exactly the jump
/// width), and /32 host routes (two blocks deep).
#[test]
fn jump_handles_length_extremes() {
    let table = RoutingTable::from_entries([
        RouteEntry::new(Ipv4Prefix::must(0, 0), 1),
        RouteEntry::new(Ipv4Prefix::must(0x0A00_0000, 8), 2),
        RouteEntry::new(Ipv4Prefix::must(0x0A14_0000, 16), 3),
        RouteEntry::new(Ipv4Prefix::must(0x0A14_001E, 32), 4),
        RouteEntry::new(Ipv4Prefix::must(0xC0A8_0100, 24), 5),
    ]);
    let jump = JumpTrie::from_table(&table);
    let probes: &[(u32, Option<NextHop>)] = &[
        (0x0101_0101, Some(1)), // default route only
        (0x0A01_0000, Some(2)), // /8
        (0x0A14_FFFF, Some(3)), // /16 exactly at the jump width
        (0x0A14_001E, Some(4)), // /32 host route
        (0x0A14_001F, Some(3)), // one off the host route falls back to /16
        (0xC0A8_01FF, Some(5)), // /24 below the jump width
        (0xC0A8_0200, Some(1)), // adjacent /24 misses back to default
    ];
    for &(ip, expect) in probes {
        assert_eq!(table.lookup(ip), expect, "oracle ip {ip:#010x}");
        assert_eq!(jump.lookup(ip), expect, "jump ip {ip:#010x}");
    }
}
