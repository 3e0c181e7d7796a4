//! Regression: a `LookupRequest` naming a VN the backend does not host
//! used to reach `JumpTrie::lookup_vn` unchecked, index the next-hop
//! slab past its row, and — when that panicked a worker — kill the
//! backend thread, after which the server closed every existing and
//! every new connection. One hostile frame must cost one typed
//! `ErrorReply { code: UnknownVn }` and nothing else.
//!
//! The wire tier's typed reply sits ahead of the walk; the walk itself
//! answers `None` for a VN it does not host, in every build profile, so
//! an in-process caller that skips the wire tier reads a miss and never
//! a neighbour's next hop. `cargo test --release` runs the second test
//! with `debug_assert!` compiled out.

use std::time::Duration;

use vr_engine::service::lookup_batch_mixed;
use vr_engine::{LookupService, LpmCache, ServiceConfig};
use vr_net::synth::FamilySpec;
use vr_net::RoutingTable;
use vr_trie::{JumpTrie, MergedTrie};
use vr_wire::{ErrorCode, Message, ServerConfig, WireClient, WireServer};

fn two_tables() -> Vec<RoutingTable> {
    FamilySpec::paper_worst_case(2, 0.5, 4177)
        .generate()
        .expect("family generation")
}

fn connect(server: &WireServer<LookupService>) -> WireClient {
    let mut client = WireClient::connect_tcp(server.local_addr().expect("tcp addr")).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

fn expect_served(client: &mut WireClient, tables: &[RoutingTable], packets: &[(u16, u32)]) {
    let reply = client.lookup(packets).expect("reply");
    let Message::LookupResponse { results, .. } = reply else {
        panic!("expected LookupResponse, got {reply:?}");
    };
    let want: Vec<_> = packets
        .iter()
        .map(|&(vn, dst)| tables[usize::from(vn)].lookup(dst))
        .collect();
    assert_eq!(results, want);
}

#[test]
fn unknown_vn_gets_a_typed_error_and_the_server_keeps_serving() {
    let tables = two_tables();
    let service = LookupService::new(tables.clone(), ServiceConfig::default()).expect("service");
    let server =
        WireServer::serve_tcp("127.0.0.1:0", service, ServerConfig::default(), None).expect("bind");
    let mut client = connect(&server);
    let known = [(0u16, 0x0A00_0001u32), (1, 0xC0A8_0101), (1, 0x0808_0808)];
    expect_served(&mut client, &tables, &known);

    // VN 2 against two tables, alone and buried in an otherwise valid
    // frame; VN 65535 for the far end of the id space.
    for hostile in [
        vec![(2u16, 0x0A00_0001u32)],
        vec![(0, 0x0A00_0001), (2, 0x0A00_0001), (1, 0x0A00_0001)],
        vec![(u16::MAX, 1); 64],
    ] {
        let reply = client.lookup(&hostile).expect("a reply, not a closed socket");
        assert!(
            matches!(
                reply,
                Message::ErrorReply {
                    code: ErrorCode::UnknownVn,
                    ..
                }
            ),
            "got {reply:?}"
        );
    }

    // Same connection, a fresh connection, and the backend thread are
    // all still alive.
    expect_served(&mut client, &tables, &known);
    expect_served(&mut connect(&server), &tables, &known);
    assert!(server.shutdown().is_some(), "backend thread survived and returned the service");
}

/// Below the wire tier an unhosted VN is a miss at every entry point: the
/// walk, the mixed-VN batch, the result cache (cold, then answering from
/// its slots) and the service.
#[test]
fn unhosted_vn_is_a_miss_at_every_tier_below_the_wire() {
    let tables = two_tables();
    let k = tables.len() as u16;
    let trie = JumpTrie::from_leaf_pushed(&MergedTrie::from_tables(&tables).expect("merge").leaf_pushed());
    // Destinations VN 0 routes, so "the next leaf vector's VN 0 column"
    // would read as a hit.
    let packets: Vec<(u16, u32)> = tables[0]
        .prefixes()
        .take(200)
        .flat_map(|p| [(0, p.addr()), (k, p.addr()), (u16::MAX, p.addr())])
        .collect();
    let want: Vec<_> = packets
        .iter()
        .map(|&(vn, dst)| tables.get(usize::from(vn)).and_then(|t| t.lookup(dst)))
        .collect();
    assert!(want.iter().any(Option::is_some));

    for &(vn, dst) in &packets {
        let hosted = tables.get(usize::from(vn)).and_then(|t| t.lookup(dst));
        assert_eq!(trie.lookup_vn(usize::from(vn), dst), hosted);
    }
    let mut out = vec![Some(0xEE); packets.len()];
    lookup_batch_mixed(&trie, &packets, &mut out);
    assert_eq!(out, want);

    let mut cache = LpmCache::new(1 << 12).expect("cache");
    for pass in ["cold", "warm"] {
        out.fill(Some(0xEE));
        cache.lookup_batch(&trie, 1, &packets, &mut out);
        assert_eq!(out, want, "{pass} cache");
    }

    let mut service = LookupService::new(tables, ServiceConfig::default()).expect("service");
    assert_eq!(service.process(&packets), want);
    assert_eq!(service.process(&[(k, 0x0A00_0001)]), vec![None]);
    let _ = service.shutdown();
}
