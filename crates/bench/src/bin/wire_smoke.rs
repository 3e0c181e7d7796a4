//! `wire_smoke` — CI gate for the `vr-wire` serving tier, exercised
//! the way an operator's client would see it: over real localhost TCP.
//!
//! Phase 1 — **oracle parity under concurrent churn**: a replay client
//! streams Zipf lookup batches while a second connection pushes route
//! -update batches through the same server. Every `UpdateAck`
//! generation is snapshotted against a local table mirror, and after
//! the run every response batch must match the mirror of the largest
//! recorded generation ≤ its tagged generation — **bit-identically**.
//! A response torn across a publish, a stale snapshot, or any codec
//! corruption fails the job.
//!
//! Phase 2 — **forced overload**: a rate-limited server is flooded;
//! the job asserts explicit `Overloaded(RateLimited)` frames come back
//! (no stall: every request gets *some* reply), the same connection
//! keeps working afterwards (no disconnect storm), and the
//! observability plane's `/healthz` stays green throughout.
//!
//! Any violation panics, failing the CI `wire` job.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use vr_control::{ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig};
use vr_net::synth::FamilySpec;
use vr_net::{RouteUpdate, RoutingTable, SkewedSpec, SkewedTraffic, UpdateMix, UpdateStream};
use vr_obs::{ObsRoutes, ObsServer};
use vr_telemetry::export::to_prometheus;
use vr_telemetry::MetricsRegistry;
use vr_wire::{
    replay, Message, OverloadReason, ReplayRecord, ServerConfig, WireClient, WireServer,
};

/// Virtual networks in the smoke family.
const FAMILY_K: usize = 3;
/// Update batches the churn connection pushes.
const CHURN_BATCHES: usize = 40;
/// Updates per churn batch.
const CHURN_BATCH_LEN: usize = 24;
/// Lookup frames the replay connection sends.
const REPLAY_FRAMES: usize = 400;
/// Packets per replayed lookup frame.
const REPLAY_FRAME_LEN: usize = 32;

fn family() -> Vec<RoutingTable> {
    FamilySpec::paper_worst_case(FAMILY_K, 0.5, 4177)
        .generate()
        .expect("family generation")
}

fn control_plane(tables: Vec<RoutingTable>) -> ControlPlane {
    let service = LookupService::new(tables, ServiceConfig::default()).expect("lookup service");
    ControlPlane::new(service, ControlConfig::default()).expect("control plane")
}

/// Checks one response batch against the oracle snapshot for its
/// generation; returns the number of mismatched packets.
fn verify_record(record: &ReplayRecord, oracle: &BTreeMap<u64, Vec<RoutingTable>>) -> usize {
    let (snap_gen, tables) = oracle
        .range(..=record.generation)
        .next_back()
        .unwrap_or_else(|| panic!("no oracle snapshot at or below gen {}", record.generation));
    record
        .packets
        .iter()
        .zip(record.results.iter())
        .filter(|(&(vn, dst), &got)| {
            let want = tables
                .get(vn as usize)
                .and_then(|table| table.lookup(dst));
            if want != got {
                eprintln!(
                    "[wire_smoke] MISMATCH vn={vn} dst={dst:#010x} gen={} (oracle gen {snap_gen}): wire={got:?} oracle={want:?}",
                    record.generation
                );
            }
            want != got
        })
        .count()
}

/// One blocking `/healthz` probe against the obs plane.
fn healthz(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    if write!(stream, "GET /healthz HTTP/1.1\r\nHost: obs\r\n\r\n").is_err() {
        return false;
    }
    let mut response = String::new();
    if stream.read_to_string(&mut response).is_err() {
        return false;
    }
    response.starts_with("HTTP/1.1 200") && response.contains("ok")
}

fn phase1_oracle_parity(obs_addr: SocketAddr, registry: &Arc<MetricsRegistry>) {
    let tables = family();
    let server = WireServer::serve_tcp(
        "127.0.0.1:0",
        control_plane(tables.clone()),
        ServerConfig::default(),
        Some(registry),
    )
    .expect("bind wire server");
    let addr = server.local_addr().expect("tcp addr");

    // Churn connection: apply batches, snapshotting the mirror at every
    // acked generation. Runs concurrently with the replay below.
    let churn = std::thread::spawn(move || {
        let mut client = WireClient::connect_tcp(addr).expect("churn connect");
        let mut stream =
            UpdateStream::new(family(), UpdateMix::default(), 16, 0x0C0DE).expect("update stream");
        let mut mirror = family();
        let mut snapshots: BTreeMap<u64, Vec<RoutingTable>> = BTreeMap::new();
        for _ in 0..CHURN_BATCHES {
            let batch = stream.batch(CHURN_BATCH_LEN);
            match client.apply_updates(&batch).expect("churn reply") {
                Message::UpdateAck { generation, .. } => {
                    // The server saw exactly these updates in this
                    // order, so the mirror *is* the table state the
                    // acked generation serves.
                    for update in &batch {
                        update.apply_to(&mut mirror);
                    }
                    snapshots.insert(generation, mirror.clone());
                }
                // The default config has no rate limit and the server no
                // queue, so nothing here may be shed.
                other => panic!("churn got unexpected reply {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        snapshots
    });

    // Replay lookups over a separate connection while churn runs.
    let mut client = WireClient::connect_tcp(addr).expect("replay connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // Seed the oracle with the pre-churn generation.
    let first = client.lookup(&[(0, 0x0101_0101)]).expect("probe lookup");
    let Message::LookupResponse { generation: g0, .. } = first else {
        panic!("probe got {first:?}");
    };
    // About 2048 concrete destinations per VN pool.
    let min_len = tables.iter().map(RoutingTable::len).min().unwrap_or(1);
    let spec = SkewedSpec {
        expansions: 2048_usize.div_ceil(min_len),
        ..SkewedSpec::zipf(FAMILY_K, 1.0, 0xFEED)
    };
    let mut traffic = SkewedTraffic::new(spec, &tables).expect("skewed traffic");
    let (stats, records) =
        replay(&mut client, &mut traffic, REPLAY_FRAMES, REPLAY_FRAME_LEN).expect("replay run");
    let mut oracle = churn.join().expect("churn thread");
    oracle.entry(g0).or_insert(tables);

    assert_eq!(
        stats.responses as usize, REPLAY_FRAMES,
        "default config must admit the whole replay (overloaded={}, errors={})",
        stats.overloaded, stats.errors
    );
    assert!(
        oracle.len() > 1,
        "churn produced no acked generations — nothing raced"
    );
    assert!(
        stats.max_generation > stats.min_generation,
        "replay never crossed a publish (gen {}..{}): churn did not interleave",
        stats.min_generation,
        stats.max_generation
    );
    let mismatches: usize = records.iter().map(|r| verify_record(r, &oracle)).sum();
    assert_eq!(mismatches, 0, "wire results diverged from the oracle");
    assert!(healthz(obs_addr), "/healthz not green during phase 1");

    drop(server);
    eprintln!(
        "[wire_smoke] phase 1 ok: {} packets bit-identical across generations {}..{} ({} churn snapshots)",
        stats.packets,
        stats.min_generation,
        stats.max_generation,
        oracle.len()
    );
}

fn phase2_forced_overload(obs_addr: SocketAddr, registry: &Arc<MetricsRegistry>) {
    let cfg = ServerConfig {
        // Tight budget: a burst of single-packet lookups must overrun it.
        rate_limit_pps: 200,
        rate_burst: 16,
        retry_after_ms: 5,
        ..ServerConfig::default()
    };
    let server = WireServer::serve_tcp("127.0.0.1:0", control_plane(family()), cfg, Some(registry))
        .expect("bind overload server");
    let addr = server.local_addr().expect("tcp addr");
    let mut client = WireClient::connect_tcp(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    let flood = 200;
    let mut served = 0u64;
    let mut shed = 0u64;
    for _ in 0..flood {
        // No stall: every frame gets an explicit reply, shed or served.
        match client.lookup(&[(0, 0x0A0A_0A0A)]).expect("flood reply") {
            Message::LookupResponse { .. } => served += 1,
            Message::Overloaded {
                reason: OverloadReason::RateLimited,
                ..
            } => shed += 1,
            other => panic!("flood got unexpected reply {other:?}"),
        }
    }
    assert!(shed > 0, "flood never tripped the rate limiter");
    assert!(served > 0, "rate limiter starved every request");

    // No disconnect storm: the shed connection is still the same live
    // socket, and nobody was cut for slow reading.
    client.ping().expect("connection survived the overload");
    assert_eq!(server.active_connections(), 1, "connection was dropped");
    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert_eq!(
        counter("vr_wire_slow_reader_disconnects_total"),
        0,
        "overload must shed with frames, not disconnects"
    );
    assert!(
        counter("vr_wire_shed_rate_limited_total") >= shed,
        "shed counter disagrees with observed Overloaded frames"
    );

    // Service stays live for the control plane too: an update batch
    // still lands once the bucket refills.
    std::thread::sleep(Duration::from_millis(200));
    let update = RouteUpdate::Announce {
        vnid: 0,
        prefix: vr_net::Ipv4Prefix::new(0xC0A8_0000, 16).expect("prefix"),
        next_hop: 3,
    };
    let ack = client
        .apply_updates(&[update])
        .expect("post-overload update");
    assert!(
        matches!(ack, Message::UpdateAck { .. }),
        "post-overload update refused: {ack:?}"
    );

    assert!(healthz(obs_addr), "/healthz not green during overload");
    drop(server);
    eprintln!("[wire_smoke] phase 2 ok: {served} served, {shed} shed with Overloaded, connection survived");
}

fn main() {
    // One registry + obs plane across both phases: CI asserts the
    // health endpoint the operator would actually watch.
    let registry = Arc::new(MetricsRegistry::new(8));
    let metrics_registry = Arc::clone(&registry);
    let snapshot_registry = Arc::clone(&registry);
    let obs = ObsServer::start(
        "127.0.0.1:0",
        ObsRoutes {
            metrics: Box::new(move || to_prometheus(&metrics_registry.snapshot())),
            snapshot: Box::new(move || {
                snapshot_registry
                    .snapshot()
                    .to_json_pretty()
                    .unwrap_or_else(|e| format!("{{\"error\": \"{e:?}\"}}"))
            }),
            traces: Box::new(|| "[]".to_string()),
        },
    )
    .expect("obs server start");
    let obs_addr = obs.addr();
    assert!(healthz(obs_addr), "obs plane not green at startup");

    phase1_oracle_parity(obs_addr, &registry);
    phase2_forced_overload(obs_addr, &registry);

    // The wire metrics surface through the same exposition CI scrapes.
    let prom = to_prometheus(&registry.snapshot());
    assert!(
        prom.contains("vr_wire_connections_total"),
        "wire counters missing from /metrics exposition"
    );
    drop(obs);
    eprintln!("[wire_smoke] ok");
}
