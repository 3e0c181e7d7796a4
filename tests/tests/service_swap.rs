//! RCU-swap acceptance: every lookup call resolves against a single
//! consistent snapshot — all old or all new, never a torn mix — names
//! the generation it resolved against, and post-swap lookups reflect
//! the announced/withdrawn routes exactly. The last case holds the same
//! over real threads, through the wire server.

use std::net::SocketAddr;
use std::sync::{Barrier, OnceLock};
use std::time::Duration;

use vr_engine::{LookupService, ServiceConfig, ShardedConfig, ShardedService};
use vr_net::table::{NextHop, RouteEntry};
use vr_net::{Ipv4Prefix, RouteUpdate, RoutingTable, VnId};
use vr_wire::{Message, ServerConfig, WireClient, WireServer};

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

/// A service whose retired lane count is `workers`: it changes nothing.
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

/// What the never-torn acceptance needs of either service.
trait Served {
    /// Resolves `keys` into `out`; returns the generation pinned.
    fn lookup_into(&mut self, keys: &[(VnId, u32)], out: &mut [Option<NextHop>]) -> u64;
    /// Publishes the all-`NEW_NH` tables; returns the new generation.
    fn publish_new(&mut self) -> u64;
}

impl Served for LookupService {
    fn lookup_into(&mut self, keys: &[(VnId, u32)], out: &mut [Option<NextHop>]) -> u64 {
        self.process_into(keys, out)
    }

    fn publish_new(&mut self) -> u64 {
        self.publish_tables(vec![uniform_table(NEW_NH); K])
            .expect("publish")
    }
}

impl Served for ShardedService {
    fn lookup_into(&mut self, keys: &[(VnId, u32)], out: &mut [Option<NextHop>]) -> u64 {
        self.process_into(keys, out)
    }

    fn publish_new(&mut self) -> u64 {
        self.publish_tables(vec![uniform_table(NEW_NH); K])
            .expect("publish")
    }
}

/// Waves of calls before and after a publish: each call returns the
/// generation it pinned, and every result in it must be that
/// generation's next hop. A torn read (old root table, new tail blocks,
/// or vice versa) would surface as a mixed or empty result inside one
/// call. The calls before the publish see the old generation, the ones
/// after it the new one.
fn waves_resolve_old_or_new_never_torn(svc: &mut impl Served) {
    let mut out = vec![None; 256];
    let mut wave = |svc: &mut dyn Served, seed: u32, want_generation: u64, want: NextHop| {
        let generation = svc.lookup_into(&batch(seed, 256), &mut out);
        assert_eq!(generation, want_generation, "wave {seed}");
        for (i, nh) in out.iter().enumerate() {
            assert_eq!(
                *nh,
                Some(want),
                "wave {seed} lane {i} torn against generation {generation}"
            );
        }
    };
    for seed in 0..8u32 {
        wave(svc, seed * 1000, 0, OLD_NH);
    }
    assert_eq!(svc.publish_new(), 1);
    for seed in 8..16u32 {
        wave(svc, seed * 1000, 1, NEW_NH);
    }
}

#[test]
fn inflight_batches_resolve_old_or_new_never_torn() {
    let mut svc = service(4);
    waves_resolve_old_or_new_never_torn(&mut svc);
    let totals = svc.shutdown().expect("telemetry on");
    assert_eq!(totals.counter("vr_service_batches_total"), Some(16));
}

/// The same acceptance for the sharded service.
#[test]
fn sharded_inflight_batches_resolve_old_or_new_never_torn() {
    let tables = vec![uniform_table(OLD_NH); K];
    let cfg = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let mut svc = ShardedService::new(tables, cfg).expect("sharded service");
    waves_resolve_old_or_new_never_torn(&mut svc);
    let totals = svc.shutdown().expect("telemetry on");
    assert_eq!(totals.counter("vr_service_lookups_total"), Some(16 * 256));
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

/// Sharded post-swap semantics: after a republish of edited tables,
/// lookups reflect the announce and the withdraw in input order.
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

/// Update batches the wire case applies; batch `b` publishes generation
/// `b`.
const WIRE_BATCHES: u64 = 200;

/// The hop every route carries at `generation` in the wire case: each
/// update batch flips every route between the two hops.
fn hop_at(generation: u64) -> NextHop {
    if generation.is_multiple_of(2) {
        OLD_NH
    } else {
        NEW_NH
    }
}

/// Announces every route of every VN at `next_hop`: one batch, one
/// publish.
fn flip_all(next_hop: NextHop) -> Vec<RouteUpdate> {
    (0..K as VnId)
        .flat_map(|vnid| {
            (0u32..256).map(move |i| RouteUpdate::Announce {
                vnid,
                prefix: Ipv4Prefix::must(i << 24, 8),
                next_hop,
            })
        })
        .collect()
}

fn connect(addr: SocketAddr) -> WireClient {
    let mut client = WireClient::connect_tcp(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

/// Never-torn across threads, through the real server: two clients send
/// lookups while a third applies update batches that flip every route,
/// all on one `WireServer<LookupService>`. Every `LookupResponse` must
/// be all one hop, the hop its named generation implies, and each
/// connection's generations must never go back.
#[test]
fn wire_lookups_never_see_a_torn_table_while_updates_flip_it() {
    let server = WireServer::serve_tcp("127.0.0.1:0", service(1), ServerConfig::default(), None)
        .expect("server");
    let addr = server.local_addr().expect("tcp addr");
    let start = Barrier::new(3);
    let done = OnceLock::new();
    std::thread::scope(|s| {
        let lookers: Vec<_> = (0..2)
            .map(|seed| {
                let (start, done) = (&start, &done);
                s.spawn(move || {
                    let mut client = connect(addr);
                    let keys = batch(seed, 256);
                    start.wait();
                    let mut last = 0;
                    loop {
                        // Read before the send: once set, the frame
                        // follows the last ack.
                        let finished = done.get().is_some();
                        let reply = client.lookup(&keys).expect("reply");
                        let Message::LookupResponse {
                            generation,
                            results,
                            ..
                        } = reply
                        else {
                            panic!("not a lookup response: {reply:?}");
                        };
                        assert!(generation >= last, "generation {last} -> {generation}");
                        assert!(
                            results.iter().all(|&nh| nh == Some(hop_at(generation))),
                            "a frame tagged generation {generation} is torn: {results:?}"
                        );
                        last = generation;
                        if finished {
                            return last;
                        }
                    }
                })
            })
            .collect();
        let mut client = connect(addr);
        start.wait();
        for b in 1..=WIRE_BATCHES {
            let reply = client.apply_updates(&flip_all(hop_at(b))).expect("ack");
            assert!(
                matches!(reply, Message::UpdateAck { generation, .. } if generation == b),
                "{reply:?}"
            );
        }
        done.set(()).expect("set once");
        for looker in lookers {
            assert_eq!(looker.join().expect("lookup client"), WIRE_BATCHES);
        }
    });
    drop(server);
}
