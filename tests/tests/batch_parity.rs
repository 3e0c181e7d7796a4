//! Property-based parity: `LookupBackend::lookup_batch_vn` must be
//! element-wise identical to a scalar oracle on every trie variant, for
//! arbitrary tables (with and without a default route) and arbitrary
//! batches — including empty ones. One generic check runs per encoding:
//! `FlatStrideTrie` exercises its own batch walk, every other encoding
//! the trait's provided scalar loop. The scalar paths are themselves
//! proven against the linear-scan oracle in `oracle_equivalence.rs`, so
//! batch == scalar closes the loop. `JumpTrie`'s stride-8 blocks get a
//! property of their own on /25–/32-heavy families, probed at every
//! block boundary.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::{
    FlatStrideTrie, JumpSlabs, JumpTrie, LeafPushedTrie, LookupBackend, MergedTrie, StrideTrie,
    UnibitTrie,
};

/// `backend`'s batch walk and its scalar walk must both equal `oracle`'s
/// scalar walk on `batch` in each of `vns` virtual networks; the empty
/// batch is a no-op.
fn assert_batch_parity<B: LookupBackend>(
    backend: &B,
    oracle: &impl LookupBackend,
    vns: usize,
    batch: &[u32],
) {
    let who = std::any::type_name::<B>();
    let mut out = vec![None; batch.len()];
    for vn in 0..vns {
        backend.lookup_batch_vn(vn, &[], &mut []);
        backend.lookup_batch_vn(vn, batch, &mut out);
        for (&ip, &got) in batch.iter().zip(&out) {
            let expect = oracle.lookup_vn(vn, ip);
            assert_eq!(
                backend.lookup_vn(vn, ip),
                expect,
                "{who} scalar vn {vn} ip {ip:#010x}"
            );
            assert_eq!(got, expect, "{who} batch vn {vn} ip {ip:#010x}");
        }
    }
}

/// Strategy: an arbitrary routing table of up to `max` routes. `min_len`
/// = 1 excludes the /0 default route, so both "has default" and "no
/// default route" table shapes are exercised.
fn arb_table(max: usize, min_len: u8) -> impl Strategy<Value = RoutingTable> {
    prop::collection::vec((any::<u32>(), min_len..=32, any::<NextHop>()), 0..max).prop_map(
        |routes| {
            RoutingTable::from_entries(
                routes
                    .into_iter()
                    .map(|(addr, len, nh)| RouteEntry::new(Ipv4Prefix::must(addr, len), nh)),
            )
        },
    )
}

/// Strategy: a batch of 0..40 destinations (0 exercises the empty batch).
fn arb_batch() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The provided batch method (every encoding that does not override
    /// it) against the linear-scan oracle, mismatched lengths included.
    #[test]
    fn default_batch_is_the_scalar_loop(
        table in arb_table(64, 0),
        batch in arb_batch(),
    ) {
        fn check(backend: &impl LookupBackend, table: &RoutingTable, batch: &[u32]) {
            assert_batch_parity(backend, table, 1, batch);
            let refused = catch_unwind(AssertUnwindSafe(|| {
                backend.lookup_batch_vn(0, &[0], &mut []);
            }));
            assert!(refused.is_err(), "mismatched lengths must panic");
        }
        let unibit = UnibitTrie::from_table(&table);
        let merged = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
        check(&unibit, &table, &batch);
        check(&LeafPushedTrie::from_unibit(&unibit), &table, &batch);
        check(&StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap(), &table, &batch);
        check(&merged, &table, &batch);
    }

    #[test]
    fn merged_batch_matches_scalar_per_vn(
        tables in prop::collection::vec(arb_table(32, 0), 1..5),
        batch in arb_batch(),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let pushed = merged.leaf_pushed();
        assert_batch_parity(&pushed, &merged, tables.len(), &batch);
    }

    #[test]
    fn stride_and_flat_stride_batch_match_scalar(
        table in arb_table(48, 0),
        batch in arb_batch(),
        stride_pick in 0usize..3,
    ) {
        let strides: &[u8] = [&[8u8, 8, 8, 8][..], &[4; 8][..], &[2; 16][..]][stride_pick];
        let trie = StrideTrie::from_table(&table, strides).unwrap();
        assert_batch_parity(&FlatStrideTrie::from_stride(&trie), &trie, 1, &batch);
    }

    #[test]
    fn jump_batch_matches_scalar_and_table_oracle(
        table in arb_table(64, 0), // default routes allowed (/0 reachable)
        batch in arb_batch(),
    ) {
        assert_batch_parity(&JumpTrie::from_table(&table), &table, 1, &batch);
    }

    #[test]
    fn jump_matches_leaf_pushed_oracle_without_default_route(
        table in arb_table(64, 1), // no default route — misses must stay misses
        batch in arb_batch(),
    ) {
        let pushed = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        assert_batch_parity(&JumpTrie::from_leaf_pushed(&pushed), &pushed, 1, &batch);
    }

    #[test]
    fn merged_jump_batch_matches_scalar_per_vn(
        tables in prop::collection::vec(arb_table(32, 0), 1..5),
        batch in arb_batch(),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let jump = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert_batch_parity(&jump, &merged, tables.len(), &batch);
        // The incremental builder publishes the same structure for the
        // same family, field for field.
        let assembled = JumpSlabs::from_merged(&merged).assemble();
        prop_assert!(assembled.raw_parts() == jump.raw_parts());
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
}

/// Deterministic anchor: every variant agrees with the table oracle on
/// the empty batch (no panics, no writes) and on a shared paper-scale
/// batch.
#[test]
fn all_variants_handle_empty_and_paper_scale_batches() {
    let table = vr_net::synth::TableSpec::paper_worst_case(7)
        .generate()
        .unwrap();
    let unibit = UnibitTrie::from_table(&table);
    let pushed = LeafPushedTrie::from_unibit(&unibit);
    let stride = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
    let merged = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();

    let batch: Vec<u32> = table
        .prefixes()
        .flat_map(|p| [p.addr(), p.addr() | 0x3F, p.addr().wrapping_sub(1)])
        .collect();
    assert!(batch.len() > 10_000, "must cover a paper-scale probe set");
    assert_batch_parity(&unibit, &table, 1, &batch);
    assert_batch_parity(&pushed, &table, 1, &batch);
    assert_batch_parity(&stride, &table, 1, &batch);
    assert_batch_parity(&FlatStrideTrie::from_stride(&stride), &table, 1, &batch);
    assert_batch_parity(&JumpTrie::from_leaf_pushed(&pushed), &table, 1, &batch);
    assert_batch_parity(&merged, &table, 1, &batch);
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
    let batch: Vec<u32> = probes.iter().map(|&(ip, _)| ip).collect();
    let mut out = vec![None; batch.len()];
    jump.lookup_batch_vn(0, &batch, &mut out);
    for (i, &(ip, expect)) in probes.iter().enumerate() {
        assert_eq!(table.lookup(ip), expect, "oracle ip {ip:#010x}");
        assert_eq!(jump.lookup(ip), expect, "scalar ip {ip:#010x}");
        assert_eq!(out[i], expect, "batch ip {ip:#010x}");
    }
}
