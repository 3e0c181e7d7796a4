//! Control-plane churn equivalence: replaying any generated update
//! trace through `vr-control`'s incremental path must publish, after
//! every batch, exactly the trie a naive from-scratch build of the
//! shadow tables produces, with the same α, and answer every lookup
//! interleaved mid-churn like the shadow tables.

use proptest::prelude::*;
use vr_control::{ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig};
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RouteUpdate, RoutingTable, VnId};
use vr_trie::{JumpTrie, MergedTrie};

const K: usize = 3;

/// A prefix drawn from a deliberately small pool so announces,
/// re-announces and withdrawals collide across a trace — the
/// coalescer's last-writer-wins path and withdraw-of-absent both get
/// exercised. Lengths stay ≥ 8 so the /0 baseline route each table
/// starts with can never be withdrawn (keeping α well-defined).
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    const LENS: [u8; 6] = [8, 12, 16, 20, 24, 28];
    (0u32..48, 0usize..LENS.len())
        .prop_map(|(seed, len)| Ipv4Prefix::must(seed.wrapping_mul(0x0204_8101), LENS[len]))
}

fn arb_update() -> impl Strategy<Value = RouteUpdate> {
    (0..K as VnId, arb_prefix(), any::<NextHop>(), any::<bool>()).prop_map(
        |(vnid, prefix, next_hop, withdraw)| {
            if withdraw {
                RouteUpdate::Withdraw { vnid, prefix }
            } else {
                RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                }
            }
        },
    )
}

/// A trace: 1–5 batches of 1–12 updates each.
fn arb_trace() -> impl Strategy<Value = Vec<Vec<RouteUpdate>>> {
    prop::collection::vec(prop::collection::vec(arb_update(), 1..12), 1..6)
}

/// Initial tables: a guaranteed /0 baseline plus up to 16 pool routes.
fn arb_tables() -> impl Strategy<Value = Vec<RoutingTable>> {
    prop::collection::vec(
        prop::collection::vec((arb_prefix(), any::<NextHop>()), 0..16),
        K..=K,
    )
    .prop_map(|per_vn| {
        per_vn
            .into_iter()
            .map(|routes| {
                let base = RouteEntry::new(Ipv4Prefix::must(0, 0), 1);
                RoutingTable::from_entries(
                    std::iter::once(base)
                        .chain(routes.into_iter().map(|(p, nh)| RouteEntry::new(p, nh))),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: after every batch of any generated trace,
    /// the incremental plane publishes the trie and α of a naive
    /// from-scratch build of the shadow tables, one generation per batch
    /// that coalesces to a non-empty set and none otherwise, and answers
    /// every mid-churn lookup like the shadow tables.
    #[test]
    fn incremental_replay_matches_naive_oracle_at_every_generation(
        tables in arb_tables(),
        trace in arb_trace(),
        extra_probes in prop::collection::vec(any::<u32>(), 8),
    ) {
        let mut shadow = tables.clone();
        let service = LookupService::new(tables, ServiceConfig::default()).expect("service");
        let mut inc = ControlPlane::new(service, ControlConfig::default()).expect("plane");

        let mut published_batches = 0;
        for batch in &trace {
            let before = inc.service().generation();
            let inc_out = inc.apply_batch(batch).expect("incremental batch");
            for update in batch {
                update.apply_to(&mut shadow);
            }
            let naive = MergedTrie::from_tables(&shadow).expect("naive merge");
            let naive_trie = JumpTrie::from_leaf_pushed(&naive.leaf_pushed());

            let published = u64::from(inc_out.coalesce.output > 0);
            published_batches += published;
            prop_assert_eq!(inc_out.generation, before + published);
            prop_assert_eq!(inc_out.alpha.to_bits(), naive.merging_efficiency().to_bits());
            prop_assert!((0.0..=1.0).contains(&inc_out.alpha), "alpha {}", inc_out.alpha);
            let live = inc.service().snapshot();
            prop_assert_eq!(live.generation, inc_out.generation);
            prop_assert!(live.trie.raw_parts() == naive_trie.raw_parts());

            // Interleaved mid-churn lookups: probe every prefix the batch
            // touched plus arbitrary addresses, on every VN.
            let mut probes: Vec<(VnId, u32)> = Vec::new();
            for update in batch {
                let (vnid, addr) = match *update {
                    RouteUpdate::Announce { vnid, prefix, .. }
                    | RouteUpdate::Withdraw { vnid, prefix } => (vnid, prefix.addr()),
                };
                probes.push((vnid, addr | 1));
            }
            for &addr in &extra_probes {
                for vn in 0..K as VnId {
                    probes.push((vn, addr));
                }
            }
            let inc_got = inc.service_mut().process(&probes);
            for (i, &(vn, addr)) in probes.iter().enumerate() {
                let want = shadow[vn as usize].lookup(addr);
                prop_assert_eq!(inc_got[i], want, "vn {} addr {:#010x}", vn, addr);
            }
        }

        prop_assert_eq!(inc.service().generation(), published_batches);
        let _ = inc.shutdown();
    }
}
