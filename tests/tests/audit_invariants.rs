//! Mutation coverage for the `vr-audit` structural verifier.
//!
//! Two directions, both load-bearing:
//!
//! * **No false negatives** — a corrupted encoding (flipped leaf tag,
//!   out-of-slab child base, truncated NHI vector, dropped VNID table)
//!   must fail the audit. Each mutation class gets a property test over
//!   arbitrary tables and mutation sites, because a verifier that only
//!   catches the corruption you thought of is a placebo.
//! * **No false positives** — every structure the workspace can build,
//!   through every `from_*` constructor, audits clean at paper scale.
//!   A verifier that cries wolf gets feature-gated off and dies.

use proptest::prelude::*;
use vr_audit::{
    audit_jump, audit_jump_with_table, audit_jump_with_tables, audit_leaf_pushed, audit_merged,
    CheckKind,
};
use vr_net::synth::{FamilySpec, TableSpec};
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::{jump, JumpSlabs, JumpTrie, MergedTrie};

/// Strategy: an arbitrary routing table of 1 to `max` routes.
fn arb_table(max: usize) -> impl Strategy<Value = RoutingTable> {
    prop::collection::vec((any::<u32>(), 0u8..=32, any::<NextHop>()), 1..max).prop_map(|routes| {
        RoutingTable::from_entries(
            routes
                .into_iter()
                .map(|(addr, len, nh)| RouteEntry::new(Ipv4Prefix::must(addr, len), nh)),
        )
    })
}

fn rebuild_jump(trie: &JumpTrie, mutate: impl FnOnce(&mut Vec<u32>, &mut Vec<u16>)) -> JumpTrie {
    let p = trie.raw_parts();
    let mut tail = p.tail.to_vec();
    let mut nhis = p.nhis.to_vec();
    mutate(&mut tail, &mut nhis);
    JumpTrie::from_raw_parts(p.root.to_vec(), tail, nhis, p.k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any block entry's leaf/internal tag bit must be detected:
    /// a leaf turned internal is a misaligned or already-claimed base (or
    /// an internal entry in a level-2 block); an internal entry turned
    /// leaf orphans its block and names an NHI slot that does not exist.
    #[test]
    fn jump_detects_flipped_tag(table in arb_table(48), site in any::<usize>()) {
        let trie = JumpTrie::from_table(&table);
        let p = trie.raw_parts();
        if p.tail.is_empty() {
            continue;
        }
        let at = site % p.tail.len();
        let mutated = rebuild_jump(&trie, |tail, _| tail[at] ^= jump::LEAF_BIT);
        prop_assert!(!audit_jump(&mutated).is_clean(), "tag flip at entry {at} not caught");
    }

    /// An internal entry whose block base lands outside the tail must
    /// trip `ChildBounds`.
    #[test]
    fn jump_detects_oob_child_base(table in arb_table(48), site in any::<usize>()) {
        let trie = JumpTrie::from_table(&table);
        let p = trie.raw_parts();
        let internals: Vec<usize> = p
            .tail
            .iter()
            .enumerate()
            .filter(|(_, w)| *w & jump::LEAF_BIT == 0)
            .map(|(i, _)| i)
            .collect();
        if internals.is_empty() {
            continue;
        }
        let at = internals[site % internals.len()];
        let mutated = rebuild_jump(&trie, |tail, _| tail[at] = jump::PAYLOAD_MASK);
        let report = audit_jump(&mutated);
        prop_assert!(!report.is_clean());
        prop_assert!(
            report.checks.iter().any(|c| c.check == CheckKind::ChildBounds && !c.passed),
            "expected a child_bounds failure, got: {}",
            report.summary()
        );
    }

    /// Truncating the NHI slab strands leaf slots past the end (and, for
    /// K > 1, breaks the vector-width divisibility): `NhiVector` fails.
    #[test]
    fn jump_detects_truncated_nhi_slab(table in arb_table(48), cut in 1usize..8) {
        let trie = JumpTrie::from_table(&table);
        if trie.raw_parts().nhis.is_empty() {
            continue;
        }
        let mutated = rebuild_jump(&trie, |_, nhis| {
            let keep = nhis.len().saturating_sub(cut);
            nhis.truncate(keep);
        });
        let report = audit_jump(&mutated);
        prop_assert!(!report.is_clean());
        prop_assert!(
            report.checks.iter().any(|c| c.check == CheckKind::NhiVector && !c.passed),
            "expected an nhi_vector failure, got: {}",
            report.summary()
        );
    }

    /// A merged structure presented with a VNID gap (one source table
    /// missing) must fail the per-VN coverage check rather than silently
    /// auditing the surviving networks.
    #[test]
    fn merged_detects_vnid_gap(tables in prop::collection::vec(arb_table(24), 2..5)) {
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let pushed = merged.leaf_pushed();
        prop_assert!(audit_leaf_pushed(&pushed, &tables).is_clean());
        let gapped = &tables[..tables.len() - 1];
        let report = audit_leaf_pushed(&pushed, gapped);
        prop_assert!(!report.is_clean());
        prop_assert!(
            report.checks.iter().any(|c| c.check == CheckKind::NhiVector && !c.passed),
            "expected an nhi_vector failure, got: {}",
            report.summary()
        );
    }

    /// Arbitrary small tables audit clean through the main constructor
    /// paths — the verifier's false-positive guard at the fuzz scale.
    #[test]
    fn arbitrary_tables_audit_clean(table in arb_table(48)) {
        let single = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
        prop_assert!(audit_merged(&single).is_clean());
        let pushed = single.leaf_pushed();
        prop_assert!(audit_leaf_pushed(&pushed, std::slice::from_ref(&table)).is_clean());
        prop_assert!(audit_jump_with_table(&JumpTrie::from_table(&table), &table).is_clean());
    }
}

/// Every encoding, every constructor path, at the paper's worst-case
/// table scale — all clean, no exceptions.
#[test]
fn every_constructor_audits_clean_at_paper_scale() {
    let table = TableSpec::paper_worst_case(23).generate().unwrap();
    let single = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
    assert!(audit_merged(&single).is_clean());
    let pushed = single.leaf_pushed();
    assert!(audit_leaf_pushed(&pushed, std::slice::from_ref(&table)).is_clean());

    for report in [
        audit_jump_with_table(&JumpTrie::from_table(&table), &table),
        audit_jump_with_table(&JumpTrie::from_leaf_pushed(&pushed), &table),
    ] {
        assert!(report.is_clean(), "{}", report.summary());
    }

    let tables = FamilySpec::paper_worst_case(4, 0.5, 23).generate().unwrap();
    let merged = MergedTrie::from_tables(&tables).unwrap();
    assert!(audit_merged(&merged).is_clean());
    let mlp = merged.leaf_pushed();
    for report in [
        audit_leaf_pushed(&mlp, &tables),
        audit_jump(&JumpTrie::from_leaf_pushed(&mlp)),
        audit_jump_with_tables(&JumpSlabs::from_merged(&merged).assemble(), &tables),
    ] {
        assert!(report.is_clean(), "{}", report.summary());
    }
}

/// Reports serialize with coordinates a debugger can act on.
#[test]
fn violation_coordinates_locate_the_damage() {
    let table: RoutingTable = "10.0.0.0/8 1\n10.1.0.0/16 2\n10.1.1.0/24 3\n10.1.1.128/25 4\n"
        .parse()
        .unwrap();
    let trie = JumpTrie::from_table(&table);
    let p = trie.raw_parts();
    let bad_word = p
        .tail
        .iter()
        .position(|w| w & jump::LEAF_BIT == 0)
        .expect("table deep enough for a level-2 block");
    let mutated = rebuild_jump(&trie, |tail, _| tail[bad_word] = jump::PAYLOAD_MASK);
    let report = audit_jump(&mutated);
    assert!(!report.is_clean());
    let v = report
        .violations
        .iter()
        .find(|v| v.check == CheckKind::ChildBounds)
        .expect("a recorded child_bounds violation");
    assert_eq!(v.coordinates.offset, Some(bad_word as u64));
    assert_eq!(v.coordinates.word, Some(u64::from(jump::PAYLOAD_MASK)));
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("ChildBounds"));
}
