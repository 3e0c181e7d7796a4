//! The served DIR-16-8-8 trie is one structure whichever feed paints it:
//! the bulk build's pass over the sorted routes, a walk of a live merged
//! trie's arena (every bucket painted, or the dirty ones painted and the
//! rest copied from the live jump trie, batch after batch of churn), or a
//! walk of the materialised leaf-pushed trie. Every feed gives equal `raw_parts()`, answers like
//! the tables, and audits clean; and the layout the paper families
//! publish is pinned.

use proptest::prelude::*;
use vr_net::synth::FamilySpec;
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::audit::audit_jump;
use vr_trie::merge::MAX_MERGE_ARITY;
use vr_trie::{DirtyBuckets, JumpTrie, JumpTrieParts, MergedTrie, SortedRoutes};

/// FNV-1a over the encoding: the four lengths, then every root, tail and
/// NHI word in order.
fn fingerprint(parts: JumpTrieParts<'_>) -> u64 {
    let fold = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let lens = [
        parts.k,
        parts.root.len(),
        parts.tail.len(),
        parts.nhis.len(),
    ];
    let words = lens.into_iter().map(|n| n as u64);
    let words = words
        .chain(parts.root.iter().chain(parts.tail).map(|&w| u64::from(w)))
        .chain(parts.nhis.iter().map(|&c| u64::from(c)));
    words.fold(0xcbf2_9ce4_8422_2325, fold)
}

/// The encoding the services publish for the paper families (3 725
/// prefixes per table, seed 2012) at K = 1, 4 and 15 and shared fractions
/// 0.2, 0.5 and 0.8. The fingerprints were taken from the two-pass build
/// this one replaced (merge, `leaf_pushed()`, then a block walk of the
/// leaf-pushed trie), so a layout change anywhere fails here.
#[test]
fn served_trie_layout_is_pinned() {
    const PINNED: [(f64, [u64; 3]); 3] = [
        (
            0.2,
            [
                0x1f5f_6dc0_d1ef_d27f,
                0x4b26_16f5_4219_9aa9,
                0xf305_e9ff_9354_30e0,
            ],
        ),
        (
            0.5,
            [
                0x101f_a773_5024_ea38,
                0x88ed_3238_490c_6aac,
                0xcdde_8e20_5eff_ddf7,
            ],
        ),
        (
            0.8,
            [
                0x7466_b98c_beae_9e81,
                0x41e4_958b_91c6_6f46,
                0xb039_12bc_3674_f389,
            ],
        ),
    ];
    for (fraction, pinned) in PINNED {
        let tables = FamilySpec::paper_worst_case(15, fraction, 2012)
            .generate()
            .unwrap();
        for (k, want) in [1, 4, 15].into_iter().zip(pinned) {
            let jump = JumpTrie::from_tables(&tables[..k]).unwrap();
            let got = fingerprint(jump.raw_parts());
            assert_eq!(
                got, want,
                "K = {k}, shared fraction {fraction}: {got:#018x}"
            );
        }
    }
}

/// Addresses that tell tries over `tables` apart: each route's first and
/// last address and the one just below it, and both ends of the space.
fn probes(tables: &[RoutingTable]) -> Vec<u32> {
    let edges = tables
        .iter()
        .flat_map(RoutingTable::prefixes)
        .flat_map(|prefix| {
            let addr = prefix.addr();
            [addr, addr | !prefix.netmask(), addr.wrapping_sub(1)]
        });
    let mut probes: Vec<u32> = edges.chain([0, u32::MAX]).collect();
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// The reference: the materialised leaf-pushed trie of `merged`, walked.
/// It audits clean and answers every VN like its table.
fn reference(merged: &MergedTrie, tables: &[RoutingTable]) -> JumpTrie {
    let reference = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
    let report = audit_jump(&reference);
    assert!(report.is_clean(), "{}", report.summary());
    for ip in probes(tables) {
        for (vn, table) in tables.iter().enumerate() {
            assert_eq!(
                reference.lookup_vn(vn, ip),
                table.lookup(ip),
                "vn {vn} ip {ip:#010x}"
            );
        }
    }
    reference
}

/// `jump` is `reference` field for field, so it audits and answers alike.
fn assert_served(jump: &JumpTrie, reference: &JumpTrie, feed: &str) {
    assert!(
        jump.raw_parts() == reference.raw_parts(),
        "{feed}: encoding differs from the reference"
    );
}

/// The arena and the served trie a service builds from `tables`' sorted
/// routes: the arena for its first update, the trie at construction.
fn built_from_routes(tables: &[RoutingTable]) -> (MergedTrie, JumpTrie) {
    let routes = SortedRoutes::new(tables).unwrap();
    (
        MergedTrie::from_routes(&routes),
        JumpTrie::from_routes(&routes),
    )
}

/// Every feed of the painter over `tables`, held to the leaf-pushed
/// reference: the sorted routes, and a walk of the arena built from them
/// painting every bucket. Returns the arena and the trie painted from the
/// routes.
fn assert_every_feed(tables: &[RoutingTable]) -> (MergedTrie, JumpTrie) {
    let (merged, served) = built_from_routes(tables);
    let want = reference(&merged, tables);
    assert_served(&served, &want, "routes");
    assert_served(
        &served.repaint(&merged, &DirtyBuckets::all()),
        &want,
        "arena repaint",
    );
    (merged, served)
}

/// Strategy: 1–8 tables drawing routes (/0 to /32) from one pool of up to
/// 40, so they overlap; about one table in five is empty.
fn arb_family() -> impl Strategy<Value = Vec<RoutingTable>> {
    let mask = (0u8..5, any::<u64>()).prop_map(|(pick, mask)| if pick == 0 { 0 } else { mask });
    let route = (any::<u32>(), 0u8..=32, any::<NextHop>())
        .prop_map(|(addr, len, nh)| RouteEntry::new(Ipv4Prefix::must(addr, len), nh));
    let pool = prop::collection::vec(route, 0..40);
    (pool, prop::collection::vec(mask, 1..=8)).prop_map(|(pool, masks)| {
        let picked = |mask: u64| (0..pool.len()).filter(move |i| mask >> i & 1 == 1);
        let table = |mask| RoutingTable::from_entries(picked(mask).map(|i| pool[i]));
        masks.into_iter().map(table).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every feed paints the reference; with no bucket dirty the repaint
    /// is its input, field for field; and so is each of three seeded
    /// batches that withdraw a third of the routes and re-announce half
    /// of those with a new next hop, each repainted over the trie the
    /// batch before published, as a service publishes an update.
    #[test]
    fn every_feed_paints_the_reference(tables in arb_family(), seed in any::<u64>()) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (mut merged, mut live) = assert_every_feed(&tables);
        let unchanged = live.repaint(&merged, &DirtyBuckets::new());
        prop_assert!(unchanged.raw_parts() == live.raw_parts(), "no dirty bucket");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tables = tables;
        for batch in 0..3 {
            let routes = tables.iter().enumerate().map(|(vn, t)| t.iter().map(move |e| (vn, e)));
            let routes: Vec<_> = routes.flatten().collect();
            let withdrawn: Vec<_> = routes.into_iter().filter(|_| rng.gen_bool(0.3)).collect();
            let mut dirty = DirtyBuckets::new();
            for &(vn, e) in &withdrawn {
                prop_assert_eq!(merged.remove(vn, &e.prefix), tables[vn].remove(&e.prefix));
                dirty.mark_prefix(&e.prefix);
            }
            for &(vn, e) in withdrawn.iter().filter(|_| rng.gen_bool(0.5)) {
                let nh = e.next_hop.wrapping_add(1);
                prop_assert_eq!(merged.insert(vn, e.prefix, nh), tables[vn].insert(e.prefix, nh));
            }
            live = live.repaint(&merged, &dirty);
            assert_served(&live, &reference(&merged, &tables), &format!("batch {batch}"));
        }
    }
}

/// At K = 64: /0 and /32 routes in several VNs beside an empty VN 0,
/// identical tables, pairwise-disjoint tables, and no route at all.
#[test]
fn every_feed_paints_the_reference_at_the_edges() {
    let spec = FamilySpec {
        prefixes_per_table: 30,
        ..FamilySpec::paper_worst_case(1, 1.0, 65)
    };
    let base: Vec<_> = spec.generate().unwrap()[0].iter().collect();
    let edge = |vn: u32| {
        let host = Ipv4Prefix::must(0xC633_6400 | (vn % 3), 32);
        let routes = [
            (Ipv4Prefix::DEFAULT_ROUTE, vn % 4 == 1),
            (host, !vn.is_multiple_of(5)),
        ];
        let routes = routes.into_iter().filter(|&(_, keep)| keep);
        routes.map(move |(prefix, _)| RouteEntry::new(prefix, vn as NextHop))
    };
    let edges = |vn| match vn {
        0 => RoutingTable::new(),
        vn => RoutingTable::from_entries(base.iter().copied().chain(edge(vn))),
    };
    let disjoint = |vn: u32| {
        let own = (0..4).map(|i| Ipv4Prefix::must(vn << 26 | i << 20, 12 + i as u8 * 5));
        RoutingTable::from_entries(own.map(|prefix| RouteEntry::new(prefix, 1)))
    };
    let identical = |_| RoutingTable::from_entries(base.iter().copied());
    let families: [&dyn Fn(u32) -> RoutingTable; 4] =
        [&edges, &identical, &disjoint, &|_| RoutingTable::new()];
    for table in families {
        let tables: Vec<_> = (0..MAX_MERGE_ARITY as u32).map(table).collect();
        assert_every_feed(&tables);
    }
    let with_len = |len| {
        (1..64)
            .filter(|&vn| edges(vn).prefixes().any(|p| p.len() == len))
            .count()
    };
    assert!(with_len(0) > 1 && with_len(32) > 1);
}

/// A bucket repainted where the merged trie's path ends above depth 16,
/// and one whose depth-16 node has only a right child, paint the
/// reference; so do the later repaints' copies of clean bucket 10.3,
/// whose level-2 block (10.3.1) holds a vector first seen there, ahead in
/// address order of one first seen in its level-1 block (10.3.2).
#[test]
fn rebuilt_buckets_paint_the_reference_at_path_ends() {
    let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
    let mut tables = vec![
        RoutingTable::new(),
        "10.3.1.1/32 4\n10.3.2.0/24 5\n".parse().unwrap(),
    ];
    let (mut merged, mut live) = built_from_routes(&tables);
    for (vn, prefix, nh) in [
        (0, "10.0.0.0/8", 1),
        (1, "10.1.128.0/17", 2),
        (1, "10.2.0.255/32", 3),
    ] {
        merged.insert(vn, p(prefix), nh);
        tables[vn].insert(p(prefix), nh);
        let mut dirty = DirtyBuckets::new();
        dirty.mark_prefix(&p(prefix));
        live = live.repaint(&merged, &dirty);
        assert_served(&live, &reference(&merged, &tables), prefix);
    }
}

/// A parent's vector painted first far below it: every VN's /8 sets the
/// entries, and chains of more-specifics below it (to a /20, into a /16
/// with entries of its own and a /24 under that, to a /32) leave the
/// /8's vector in effect on the missing halves along each chain, which
/// close, and so paint, before the /8 does. A repaint then dirties the
/// buckets on each side of clean ones, which are copied between painted
/// runs of that vector. At K = 1, 2 and 64 the bulk build and the
/// partial repaint equal the leaf-pushed reference field for field.
#[test]
fn a_vector_painted_below_its_owner_and_around_a_copy_paints_the_reference() {
    let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
    for k in [1, 2, MAX_MERGE_ARITY] {
        let (last, mid) = (k - 1, k / 2);
        let mut tables: Vec<RoutingTable> = (0..k)
            .map(|vn| {
                let mut table = RoutingTable::new();
                table.insert(p("10.0.0.0/8"), 1 + vn as NextHop % 3);
                let chains = [
                    (last, "10.0.0.0/20", 4),
                    (0, "10.1.128.0/17", 5),
                    (0, "10.2.3.4/32", 6),
                    (mid, "10.3.0.0/16", 7),
                    (mid, "10.3.3.0/24", 8),
                ];
                for (owner, prefix, nh) in chains {
                    if vn == owner {
                        table.insert(p(prefix), nh);
                    }
                }
                table
            })
            .collect();
        let (mut merged, live) = assert_every_feed(&tables);
        let mut dirty = DirtyBuckets::new();
        for (vn, prefix, nh) in [(0, "10.0.64.0/18", 11), (last, "10.2.7.0/24", 12)] {
            merged.insert(vn, p(prefix), nh);
            tables[vn].insert(p(prefix), nh);
            dirty.mark_prefix(&p(prefix));
        }
        assert_eq!(
            dirty.len(),
            2,
            "buckets 10.0 and 10.2; 10.1 and 10.3 copied"
        );
        let published = live.repaint(&merged, &dirty);
        let want = reference(&merged, &tables);
        assert_served(&published, &want, &format!("K = {k}: partial repaint"));
        let (_, rebuilt) = built_from_routes(&tables);
        assert_served(&rebuilt, &want, &format!("K = {k}: routes"));
    }
}
