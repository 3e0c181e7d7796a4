//! Trace-causality property: under arbitrary interleavings of lookup
//! calls and route churn, every sampled call trace the service records
//! must be a well-formed causal chain — opened by the walk, closed at
//! complete, contiguous and monotonic in between, attributed to the
//! calling thread as worker 0 — the 1-in-N sampling decision must be
//! exact in the call sequence number, and every successful update batch
//! must land as its own single-span control trace carrying the
//! generation it produced.

use proptest::prelude::*;
use vr_engine::{LookupService, ServiceConfig, Stage};
use vr_net::table::RouteEntry;
use vr_net::{Ipv4Prefix, RouteUpdate, RoutingTable, VnId};

const K: usize = 2;

/// Full-coverage /8 tables so every probe resolves regardless of churn.
fn tables() -> Vec<RoutingTable> {
    let t = RoutingTable::from_entries(
        (0u32..256).map(|i| RouteEntry::new(Ipv4Prefix::must(i << 24, 8), 1)),
    );
    vec![t; K]
}

fn batch(seed: u32, len: usize) -> Vec<(VnId, u32)> {
    (0..len as u32)
        .map(|i| {
            let ip = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9);
            ((i as usize % K) as VnId, ip)
        })
        .collect()
}

/// One step of the interleaving: a traffic batch or a route update.
#[derive(Debug, Clone)]
enum Op {
    Batch {
        seed: u32,
        len: usize,
    },
    Churn {
        vnid: VnId,
        octet: u8,
        announce: bool,
    },
}

/// The vendored proptest has no `prop_oneof`, so the op kind rides in a
/// discriminant field: 3-in-4 traffic, 1-in-4 churn.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, any::<u32>(), 1usize..64).prop_map(|(kind, seed, len)| {
        if kind < 3 {
            Op::Batch { seed, len }
        } else {
            Op::Churn {
                vnid: (seed % K as u32) as VnId,
                octet: (seed >> 8) as u8,
                announce: seed & 1 == 0,
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sampled_traces_stay_causal_under_churn(
        ops in prop::collection::vec(op_strategy(), 1..40),
        sample in 1u32..=4,
    ) {
        let mut svc = LookupService::new(
            tables(),
            ServiceConfig {
                trace_sample: Some(sample),
                ..ServiceConfig::default()
            },
        )
        .expect("service construction");

        // Every call resolves keys, so the calls are numbered 0, 1, ...;
        // each one's pinned generation, by number.
        let mut generations = Vec::new();
        let mut publishes = 0u64;
        for op in &ops {
            match *op {
                Op::Batch { seed, len } => {
                    let mut out = vec![None; len];
                    generations.push(svc.process_into(&batch(seed, len), &mut out));
                    prop_assert!(out.iter().all(Option::is_some), "full-coverage tables");
                }
                Op::Churn { vnid, octet, announce } => {
                    // A /16 inside an existing /8 so withdrawals of a
                    // never-announced prefix stay harmless no-ops.
                    let prefix = Ipv4Prefix::must(u32::from(octet) << 24 | 0x0001_0000, 16);
                    let update = if announce {
                        RouteUpdate::Announce { vnid, prefix, next_hop: 7 }
                    } else {
                        RouteUpdate::Withdraw { vnid, prefix }
                    };
                    if svc.apply_updates(&[update]).is_ok() {
                        publishes += 1;
                    }
                }
            }
        }
        let final_generation = svc.generation();
        let snap = svc.tracer().expect("tracing configured").snapshot();

        // Every recorded trace — batch or control — is a valid chain.
        for trace in &snap.traces {
            prop_assert!(
                trace.validate().is_ok(),
                "invalid trace {}: {:?}",
                trace.trace_id,
                trace.validate()
            );
            prop_assert!(trace.generation <= final_generation);
        }

        // Sampling is exact in the sequence number: the call traces are
        // precisely the call seqs divisible by the rate, and each is
        // attributed to the caller as worker 0 with its full stage chain
        // and the generation the call pinned.
        let expected: Vec<u64> = (0..generations.len() as u64)
            .filter(|seq| seq % u64::from(sample) == 0)
            .collect();
        let mut traced = Vec::new();
        for trace in &snap.traces {
            if trace.stages.first().is_some_and(|s| s.stage == Stage::LaneWalk) {
                prop_assert_eq!(trace.worker, Some(0), "call trace not the caller's");
                prop_assert!(
                    trace.stages.last().is_some_and(|s| s.stage == Stage::Complete),
                    "batch trace not closed"
                );
                prop_assert_eq!(Some(&trace.generation), generations.get(trace.seq as usize));
                traced.push(trace.seq);
            }
        }
        traced.sort_unstable();
        prop_assert_eq!(traced, expected);

        // Every successful update batch produced exactly one
        // ApplyUpdates control span, unattributed to any worker.
        let control: Vec<_> = snap
            .traces
            .iter()
            .filter(|t| t.stages.first().is_some_and(|s| s.stage == Stage::ApplyUpdates))
            .collect();
        prop_assert_eq!(control.len() as u64, publishes);
        for span in control {
            prop_assert!(span.worker.is_none() && span.shard.is_none());
        }

        let _ = svc.shutdown();
    }
}
