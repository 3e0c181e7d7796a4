//! Property-based equivalence: every fast lookup path (the pointer trie
//! at K = 1 and K > 1, leaf-pushed trie, DIR-16-8-8 jump trie,
//! cycle-level pipeline) must agree with the linear-scan oracle on
//! arbitrary tables and probe addresses, and the stride pipeline's
//! closed-form sizing with the uni-bit trie's node counts.

use proptest::prelude::*;
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::pipeline_map::stride_stage_entries;
use vr_trie::{JumpSlabs, JumpTrie, LeafPushedTrie, LookupBackend, MergedTrie};

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

/// One table's pointer trie: the uni-bit trie, K = 1.
fn single(table: &RoutingTable) -> MergedTrie {
    MergedTrie::from_tables(std::slice::from_ref(table)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_matches_oracle(table in arb_table(64), probes in prop::collection::vec(any::<u32>(), 32)) {
        let trie = single(&table);
        prop_assert!(trie.check_invariants());
        for ip in probes {
            prop_assert_eq!(trie.lookup(0, ip), table.lookup(ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn leaf_pushed_matches_oracle(table in arb_table(64), probes in prop::collection::vec(any::<u32>(), 32)) {
        let pushed = LeafPushedTrie::from_merged(&single(&table));
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

    /// K = 1 leaf pushing depends on the table alone: the bulk build and
    /// a route-by-route build in reverse order push to the same trie.
    #[test]
    fn single_table_merge_leaf_pushes_like_the_table(
        table in arb_table(64),
        probes in prop::collection::vec(any::<u32>(), 32),
    ) {
        let via_merge = single(&table).leaf_pushed();
        let mut by_route = MergedTrie::new(1).unwrap();
        for e in table.iter().collect::<Vec<_>>().into_iter().rev() {
            by_route.insert(0, e.prefix, e.next_hop);
        }
        let direct = by_route.leaf_pushed();
        prop_assert_eq!(via_merge.arity(), 1);
        prop_assert_eq!(via_merge.node_count(), direct.node_count());
        prop_assert_eq!(via_merge.leaf_count(), direct.leaf_count());
        prop_assert_eq!(via_merge.stats(), direct.stats());
        for ip in probes {
            prop_assert_eq!(via_merge.lookup_vn(0, ip), direct.lookup_vn(0, ip), "ip {:#010x}", ip);
            prop_assert_eq!(via_merge.lookup_vn(0, ip), table.lookup(ip), "ip {:#010x}", ip);
        }
    }

    /// Announcing one route and undoing it (re-announcing the old next
    /// hop, or withdrawing a new prefix) restores the node count and every
    /// answer; in between, the trie answers like the table with the route.
    #[test]
    fn insert_remove_round_trip(
        table in arb_table(48),
        extra in (any::<u32>(), 1u8..=32, any::<NextHop>()),
        probes in prop::collection::vec(any::<u32>(), 16),
    ) {
        let mut trie = single(&table);
        let nodes_before = trie.node_count();
        let prefix = Ipv4Prefix::must(extra.0, extra.1);
        let probes: Vec<u32> = probes.into_iter().chain([prefix.addr()]).collect();
        let mut with = table.clone();
        let existing = with.insert(prefix, extra.2);
        prop_assert_eq!(trie.insert(0, prefix, extra.2), existing);
        for &ip in &probes {
            prop_assert_eq!(trie.lookup(0, ip), with.lookup(ip), "ip {:#010x}", ip);
        }
        match existing {
            Some(nh) => prop_assert_eq!(trie.insert(0, prefix, nh), Some(extra.2)),
            None => prop_assert_eq!(trie.remove(0, &prefix), Some(extra.2)),
        }
        prop_assert_eq!(trie.node_count(), nodes_before);
        prop_assert!(trie.check_invariants());
        for &ip in &probes {
            prop_assert_eq!(trie.lookup(0, ip), table.lookup(ip), "ip {:#010x}", ip);
        }
    }

    #[test]
    fn merged_node_count_is_bounded(tables in prop::collection::vec(arb_table(32), 1..5)) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let counts: Vec<usize> = tables.iter().map(|t| single(t).node_count()).collect();
        let max = *counts.iter().max().unwrap();
        let sum: usize = counts.iter().sum();
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
        let stats = single(&table).stats();
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
        use vr_power::{EngineConfig, PipelineEngine};

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
        let mut engine =
            PipelineEngine::new(single(&table), 28, EngineConfig::paper_default()).unwrap();

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
    let trie = single(&table);
    let pushed = trie.leaf_pushed();
    let jump = JumpTrie::from_leaf_pushed(&pushed);
    let mut checked = 0usize;
    for p in table.prefixes() {
        for probe in [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)] {
            let expect = table.lookup(probe);
            assert_eq!(trie.lookup(0, probe), expect);
            assert_eq!(pushed.lookup_vn(0, probe), expect);
            assert_eq!(jump.lookup(probe), expect);
            checked += 1;
        }
    }
    assert!(checked > 10_000, "must cover a paper-scale probe set");
}

/// The one unhosted-VN contract of `LookupBackend::lookup_vn`: past the
/// arity the answer is `None` in every build profile — never a panic and
/// never a hosted VN's route. Every hosted VN has a default route, so a
/// backend that answered for the wrong VN would return `Some`.
#[test]
fn unhosted_vns_resolve_to_none_in_every_backend() {
    fn unhosted(name: &str, backend: &impl LookupBackend, k: usize) {
        for ip in [0, 0x0A01_0101, 0x0A01_FFFF, u32::MAX] {
            assert!(backend.lookup_vn(k - 1, ip).is_some(), "{name}(k={k})");
            for vn in [k, k + 7] {
                let got = backend.lookup_vn(vn, ip);
                assert!(got.is_none(), "{name}(k={k}) vn {vn} ip {ip:#x}: {got:?}");
            }
        }
    }
    let tables = ["0.0.0.0/0 1\n10.1.1.0/24 3\n", "0.0.0.0/0 4\n"].map(|t| t.parse().unwrap());
    unhosted("table", &tables[0], 1);
    for k in 1..=tables.len() {
        let merged = MergedTrie::from_tables(&tables[..k]).unwrap();
        let pushed = merged.leaf_pushed();
        unhosted("jump", &JumpTrie::from_leaf_pushed(&pushed), k);
        unhosted("leaf_pushed", &pushed, k);
        unhosted("merged", &merged, k);
    }
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
