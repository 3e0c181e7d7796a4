//! RCU-swap acceptance: batches in flight while a new table generation
//! is published must resolve against a single consistent snapshot — all
//! old or all new, never a torn mix — and post-swap lookups must reflect
//! the announced/withdrawn routes exactly.

use vr_engine::{LookupService, ServiceConfig, ShardedConfig, ShardedService};
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RouteUpdate, RoutingTable, VnId};

const K: usize = 2;
const OLD_NH: NextHop = 1;
const NEW_NH: NextHop = 2;

/// A table covering all of IPv4 with 256 /8 routes, every one pointing
/// at `nh` — so any probe resolves, and the resolved hop identifies the
/// table generation it came from.
fn uniform_table(nh: NextHop) -> RoutingTable {
    RoutingTable::from_entries(
        (0u32..256).map(|i| RouteEntry::new(Ipv4Prefix::must(i << 24, 8), nh)),
    )
}

fn service(workers: usize) -> LookupService {
    let tables = vec![uniform_table(OLD_NH); K];
    let cfg = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    LookupService::new(tables, cfg).expect("service")
}

fn batch(seed: u32, len: usize) -> Vec<(VnId, u32)> {
    (0..len as u32)
        .map(|i| {
            let ip = (seed.wrapping_add(i)).wrapping_mul(0x9E37_79B9);
            ((i as usize % K) as VnId, ip)
        })
        .collect()
}

/// Batches submitted before, during, and after a swap each carry a
/// generation tag; every result in a batch must match that generation's
/// next hop. A torn read (old root table, new tail blocks, or vice versa)
/// would surface as a mixed or empty result inside one batch.
#[test]
fn inflight_batches_resolve_old_or_new_never_torn() {
    let mut svc = service(4);
    let base_gen = {
        // Prime each worker once so snapshots are demonstrably shared.
        svc.submit(batch(0, 64));
        let first = svc.collect_all();
        first[0].generation
    };

    // Keep the workers busy: enqueue a wave of batches, publish the new
    // generation while they drain, enqueue another wave behind the swap.
    for wave in 0..8u32 {
        svc.submit(batch(wave * 1000, 256));
    }
    let new_gen = svc
        .publish_tables(vec![uniform_table(NEW_NH); K])
        .expect("publish");
    assert_eq!(new_gen, base_gen + 1);
    for wave in 8..16u32 {
        svc.submit(batch(wave * 1000, 256));
    }

    let done = svc.collect_all();
    assert_eq!(done.len(), 16);
    let mut seen_old = false;
    let mut seen_new = false;
    for b in &done {
        let expect = if b.generation == base_gen {
            seen_old = true;
            OLD_NH
        } else {
            assert_eq!(b.generation, new_gen, "unknown generation {}", b.generation);
            seen_new = true;
            NEW_NH
        };
        for (i, nh) in b.results.iter().enumerate() {
            assert_eq!(
                *nh,
                Some(expect),
                "batch seq {} lane {i} torn against generation {}",
                b.seq,
                b.generation
            );
        }
    }
    // The waves behind the swap can only have seen the new snapshot.
    assert!(seen_new, "post-swap batches must observe the new generation");
    // (seen_old is timing-dependent: pre-swap batches *may* all drain
    // before publish returns, but usually at least one resolves early.)
    let _ = seen_old;

    let report = svc.shutdown();
    assert!(report.swaps >= 1);
    assert!(report.generations_seen.contains(&new_gen));
}

/// The same acceptance for the sharded service: publishes travel the
/// shard queues as FIFO broadcast messages, so every sub-batch resolves
/// against exactly the snapshot queued ahead of it — all old or all
/// new, never torn — and the post-broadcast waves can only see the new
/// generation.
#[test]
fn sharded_inflight_batches_resolve_old_or_new_never_torn() {
    let tables = vec![uniform_table(OLD_NH); K];
    let cfg = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let mut svc = ShardedService::new(tables, cfg).expect("sharded service");

    for wave in 0..8u32 {
        svc.submit(&batch(wave * 1000, 256));
    }
    let new_gen = svc
        .publish_tables(vec![uniform_table(NEW_NH); K])
        .expect("publish");
    assert_eq!(new_gen, 1);
    for wave in 8..16u32 {
        svc.submit(&batch(wave * 1000, 256));
    }

    let done = svc.collect_all();
    let mut lanes = 0usize;
    let mut seen_new = false;
    for b in &done {
        let expect = if b.generation == 0 {
            OLD_NH
        } else {
            assert_eq!(b.generation, new_gen, "unknown generation {}", b.generation);
            seen_new = true;
            NEW_NH
        };
        assert_eq!(b.results.len(), b.origins.len());
        lanes += b.results.len();
        for (i, nh) in b.results.iter().enumerate() {
            assert_eq!(
                *nh,
                Some(expect),
                "batch seq {} lane {i} torn against generation {}",
                b.seq,
                b.generation
            );
        }
    }
    // Scatter loses no packets: every submitted lane comes back once.
    assert_eq!(lanes, 16 * 256);
    // FIFO queues make this deterministic for the sharded service: the
    // waves submitted after the broadcast *must* see the new snapshot.
    assert!(seen_new, "post-swap batches must observe the new generation");

    let report = svc.shutdown();
    assert!(report.swaps >= 1);
    assert!(report.generations_seen.contains(&new_gen));
}

/// After `apply_updates`, service lookups reflect each announce and
/// withdraw; untouched routes keep resolving.
#[test]
fn post_swap_lookups_reflect_route_updates() {
    let mut svc = service(2);
    let host = Ipv4Prefix::must(0x0A14_1E28, 32);
    let updates = [
        RouteUpdate::Announce {
            vnid: 0,
            prefix: host,
            next_hop: 77,
        },
        RouteUpdate::Withdraw {
            vnid: 1,
            prefix: Ipv4Prefix::must(0xC000_0000, 8),
        },
    ];
    svc.apply_updates(&updates).expect("apply");

    let probes: Vec<(VnId, u32)> = vec![
        (0, 0x0A14_1E28), // announced /32 on VN 0
        (1, 0x0A14_1E28), // VN 1 unchanged at that address
        (1, 0xC0FF_EE00), // withdrawn /8 on VN 1 → miss
        (0, 0xC0FF_EE00), // VN 0 keeps the /8
    ];
    let got = svc.process(&probes);
    assert_eq!(got, vec![Some(77), Some(OLD_NH), None, Some(OLD_NH)]);
    let _ = svc.shutdown();
}

/// Sharded post-swap semantics: after a broadcast republish of edited
/// tables, hash-scattered lookups reflect the announce and the
/// withdraw in input order, on every shard.
#[test]
fn sharded_post_swap_lookups_reflect_table_edits() {
    let cfg = ShardedConfig {
        shards: 3,
        ..ShardedConfig::default()
    };
    let mut svc =
        ShardedService::new(vec![uniform_table(OLD_NH); K], cfg).expect("sharded service");

    let mut edited = vec![uniform_table(OLD_NH); K];
    edited[0].insert(Ipv4Prefix::must(0x0A14_1E28, 32), 77);
    edited[1].remove(&Ipv4Prefix::must(0xC000_0000, 8));
    svc.publish_tables(edited).expect("publish");

    let probes: Vec<(VnId, u32)> = vec![
        (0, 0x0A14_1E28), // announced /32 on VN 0
        (1, 0x0A14_1E28), // VN 1 unchanged at that address
        (1, 0xC0FF_EE00), // withdrawn /8 on VN 1 → miss
        (0, 0xC0FF_EE00), // VN 0 keeps the /8
    ];
    let got = svc.process(&probes);
    assert_eq!(got, vec![Some(77), Some(OLD_NH), None, Some(OLD_NH)]);
    let _ = svc.shutdown();
}
