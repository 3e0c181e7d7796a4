//! Property-based parity for the lane-interleaved stepper: for every
//! lane width, `lookup_lanes_vn` must be element-wise identical to the
//! scalar `JumpTrie::lookup_vn` oracle on arbitrary tables and key
//! sets — including the refill edge cases (batches that are not a
//! multiple of the lane width, all-miss batches, single-key batches)
//! where retirement/compaction bugs would hide. The scalar walk is
//! itself proven against the linear-scan oracle in
//! `oracle_equivalence.rs`, so lane == scalar closes the loop.

use proptest::prelude::*;
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::{lane, JumpTrie, MergedTrie};

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

/// Strategy: a batch of 0..70 destinations — deliberately spanning both
/// sides of every lane width (shorter than 8, between 8 and 16, several
/// full groups plus a ragged tail) so refill and compaction both fire.
fn arb_batch() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..70)
}

/// Asserts lane == scalar for widths 1 (degenerate), 8, and 16 on one
/// (trie, vnid, batch) instance. `out` is pre-poisoned so a lane that
/// forgets to write a miss is caught. Plain panics — proptest reports
/// them as failures and shrinks the same way.
fn assert_lane_parity(trie: &JumpTrie, vnid: usize, batch: &[u32]) {
    fn check<const W: usize>(trie: &JumpTrie, vnid: usize, batch: &[u32]) {
        let mut out = vec![Some(0xEE); batch.len()];
        lane::lookup_lanes_vn::<W>(trie, vnid, batch, &mut out);
        for (i, &ip) in batch.iter().enumerate() {
            assert_eq!(
                out[i],
                trie.lookup_vn(vnid, ip),
                "W={W} vn {vnid} ip {ip:#010x}"
            );
        }
    }
    check::<1>(trie, vnid, batch);
    check::<8>(trie, vnid, batch);
    check::<16>(trie, vnid, batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_matches_scalar_jump_oracle(
        table in arb_table(64, 0), // default routes allowed
        batch in arb_batch(),
    ) {
        let jump = JumpTrie::from_table(&table);
        assert_lane_parity(&jump, 0, &batch);
        // And against the table oracle, transitively.
        let mut out = vec![None; batch.len()];
        jump.lookup_batch(&batch, &mut out);
        for (i, &ip) in batch.iter().enumerate() {
            prop_assert_eq!(out[i], table.lookup(ip), "default-width ip {:#010x}", ip);
        }
    }

    #[test]
    fn lane_matches_scalar_without_default_route(
        table in arb_table(64, 1), // no default route — misses stay misses
        batch in arb_batch(),
    ) {
        let jump = JumpTrie::from_table(&table);
        assert_lane_parity(&jump, 0, &batch);
    }

    #[test]
    fn lane_matches_scalar_per_merged_vn(
        tables in prop::collection::vec(arb_table(32, 0), 1..5),
        batch in arb_batch(),
    ) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let jump = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        for vnid in 0..tables.len() {
            assert_lane_parity(&jump, vnid, &batch);
        }
    }

    #[test]
    fn refill_edges_single_key_and_ragged_tails(
        table in arb_table(48, 0),
        key in any::<u32>(),
    ) {
        let jump = JumpTrie::from_table(&table);
        // Single-key batch: the group never fills even one lane row.
        assert_lane_parity(&jump, 0, &[key]);
        // Ragged tails around each width boundary, all probing the same
        // key region so divergence comes from depth, not coverage.
        for len in [7usize, 9, 15, 17, 31, 33] {
            let batch: Vec<u32> = (0..len as u32).map(|i| key.wrapping_add(i * 0x0101)).collect();
            assert_lane_parity(&jump, 0, &batch);
        }
    }
}

/// All-miss batches: a sparse table with no default route and probes
/// aimed outside every prefix. Every lane must overwrite its poisoned
/// output slot with `None`, across ragged lengths.
#[test]
fn all_miss_batches_resolve_to_none() {
    let table = RoutingTable::from_entries([
        RouteEntry::new(Ipv4Prefix::must(0x0A00_0000, 8), 1),
        RouteEntry::new(Ipv4Prefix::must(0x0A01_0100, 24), 2),
    ]);
    let jump = JumpTrie::from_table(&table);
    for len in [1usize, 5, 8, 13, 16, 40] {
        let batch: Vec<u32> = (0..len as u32).map(|i| 0xC000_0000 | (i * 0x11)).collect();
        let mut out = vec![Some(7); len];
        lane::lookup_lanes_vn::<8>(&jump, 0, &batch, &mut out);
        assert!(out.iter().all(Option::is_none), "W=8 len {len}");
        out.fill(Some(7));
        lane::lookup_lanes_vn::<16>(&jump, 0, &batch, &mut out);
        assert!(out.iter().all(Option::is_none), "W=16 len {len}");
    }
}

/// Deterministic paper-scale anchor: the default batch path (which now
/// routes through the lane stepper) and the explicit widths agree with
/// the scalar walk on a dense probe sweep.
#[test]
fn paper_scale_lane_parity() {
    let table = vr_net::synth::TableSpec::paper_worst_case(7)
        .generate()
        .unwrap();
    let jump = JumpTrie::from_table(&table);
    let batch: Vec<u32> = table
        .prefixes()
        .flat_map(|p| [p.addr(), p.addr() | 0x3F, p.addr().wrapping_sub(1)])
        .collect();
    let mut dflt = vec![None; batch.len()];
    jump.lookup_batch(&batch, &mut dflt);
    let mut w8 = vec![None; batch.len()];
    lane::lookup_lanes::<8>(&jump, &batch, &mut w8);
    let mut w16 = vec![None; batch.len()];
    lane::lookup_lanes::<16>(&jump, &batch, &mut w16);
    for (i, &ip) in batch.iter().enumerate() {
        let expect = jump.lookup(ip);
        assert_eq!(expect, table.lookup(ip), "scalar oracle ip {ip:#010x}");
        assert_eq!(dflt[i], expect, "default batch ip {ip:#010x}");
        assert_eq!(w8[i], expect, "W=8 ip {ip:#010x}");
        assert_eq!(w16[i], expect, "W=16 ip {ip:#010x}");
    }
}
