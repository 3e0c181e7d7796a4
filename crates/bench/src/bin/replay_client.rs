//! `replay_client` — drive a `vr-wire` server with synthetic traffic
//! and report end-to-end throughput and round-trip latency.
//!
//! Two modes:
//!
//! * `--addr HOST:PORT` — replay against an already-running server.
//! * no `--addr` — self-contained: builds a paper-scale family, starts
//!   a [`WireServer`] on a loopback port, replays against it, and (with
//!   `--churn N`) runs a concurrent connection pushing `N` route
//!   updates per batch so the RTT numbers include RCU publishes.
//!
//! Flags: `--model uniform|zipf|flash` (default zipf), `--s EXP` (Zipf
//! exponent, default 1.0), `--batches N`, `--batch-size N`, `--hot-k N`,
//! `--seed N`, `--churn N`, `--quick`. Output lands in
//! `results/wire_replay.{csv,json}` via the standard emit path.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Serialize;
use vr_bench::emit;
use vr_net::synth::FamilySpec;
use vr_net::{RoutingTable, UpdateMix, UpdateStream};
use vr_wire::{replay, Message, ReplayConfig, ServerConfig, TrafficModel, WireClient, WireServer};

/// Serialized alongside the table for `results/wire_replay.json`.
#[derive(Serialize)]
struct ReplayRow {
    model: String,
    batch_size: usize,
    batches: u64,
    packets: u64,
    overloaded: u64,
    packets_per_sec: f64,
    p50_rtt_ns: u64,
    p99_rtt_ns: u64,
    min_generation: u64,
    max_generation: u64,
    churn_acks: u64,
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    flag_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let model = match flag_value("--model").as_deref() {
        Some("uniform") => TrafficModel::Uniform,
        Some("flash") => TrafficModel::FlashCrowd {
            s: flag_num("--s", 1.0),
            phase_len: flag_num("--phase-len", 4096),
        },
        _ => TrafficModel::Zipf {
            s: flag_num("--s", 1.0),
        },
    };
    let cfg = ReplayConfig {
        model,
        batch_size: flag_num("--batch-size", 64),
        batches: flag_num("--batches", if quick { 100 } else { 2000 }),
        hot_k: flag_num("--hot-k", 4096),
        seed: flag_num("--seed", 2012),
    };
    let churn_per_batch: usize = flag_num("--churn", 0);

    // The traffic model draws destinations from real tables, so both
    // modes build the same family; in `--addr` mode the server is
    // expected to serve a compatible one (same FamilySpec seed).
    let k = if quick { 2 } else { 4 };
    let family = FamilySpec::paper_worst_case(k, 0.5, cfg.seed)
        .generate()
        .expect("family generation");

    let (stats, churn_acks) = match flag_value("--addr") {
        Some(addr) => {
            let mut client = WireClient::connect_tcp(&addr).expect("connect --addr");
            client.ping().expect("server answers ping");
            let (stats, _) = replay(&mut client, &family, &cfg).expect("replay");
            (stats, 0)
        }
        None => self_contained(family.clone(), &cfg, churn_per_batch),
    };

    let row = ReplayRow {
        model: cfg.model.label().to_string(),
        batch_size: cfg.batch_size,
        batches: stats.responses + stats.overloaded + stats.errors,
        packets: stats.packets,
        overloaded: stats.overloaded,
        packets_per_sec: stats.packets_per_sec(),
        p50_rtt_ns: stats.p50_rtt_ns,
        p99_rtt_ns: stats.p99_rtt_ns,
        min_generation: stats.min_generation,
        max_generation: stats.max_generation,
        churn_acks,
    };
    emit(
        "wire_replay",
        &[
            "model",
            "batch",
            "frames",
            "packets",
            "overloaded",
            "pps",
            "p50_rtt_us",
            "p99_rtt_us",
            "generations",
            "churn_acks",
        ],
        &[vec![
            row.model.clone(),
            row.batch_size.to_string(),
            row.batches.to_string(),
            row.packets.to_string(),
            row.overloaded.to_string(),
            format!("{:.0}", row.packets_per_sec),
            format!("{:.1}", row.p50_rtt_ns as f64 / 1e3),
            format!("{:.1}", row.p99_rtt_ns as f64 / 1e3),
            format!("{}..{}", row.min_generation, row.max_generation),
            row.churn_acks.to_string(),
        ]],
        &row,
    );
}

/// Starts a loopback server over a control plane built from `family`,
/// replays against it (with optional concurrent churn), and shuts it
/// down.
fn self_contained(
    family: Vec<RoutingTable>,
    cfg: &ReplayConfig,
    churn_per_batch: usize,
) -> (vr_wire::ReplayStats, u64) {
    use vr_control::{ControlConfig, ControlPlane};
    use vr_engine::{LookupService, ServiceConfig};

    let service = LookupService::new(family.clone(), ServiceConfig::default()).expect("service");
    let plane = ControlPlane::new(service, ControlConfig::default()).expect("control plane");
    let server = WireServer::serve_tcp("127.0.0.1:0", plane, ServerConfig::default(), None)
        .expect("bind wire server");
    let addr = server.local_addr().expect("tcp addr");

    // Concurrent churn: a second connection streams update batches for
    // the whole replay window so lookups race real publishes.
    let stop = Arc::new(Mutex::new(false));
    let churn_thread = (churn_per_batch > 0).then(|| {
        let stop = Arc::clone(&stop);
        let tables = family.clone();
        let seed = cfg.seed;
        std::thread::spawn(move || {
            let mut acks = 0u64;
            let mut stream = UpdateStream::new(tables, UpdateMix::default(), 16, seed ^ 0x5EED)
                .expect("update stream");
            let Ok(mut client) = WireClient::connect_tcp(addr) else {
                return acks;
            };
            while !*stop.lock().expect("stop flag") {
                let batch = stream.batch(churn_per_batch);
                match client.apply_updates(&batch) {
                    Ok(Message::UpdateAck { .. }) => acks += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            acks
        })
    });

    let mut client = WireClient::connect_tcp(addr).expect("connect loopback");
    let (stats, _) = replay(&mut client, &family, cfg).expect("replay");

    *stop.lock().expect("stop flag") = true;
    let churn_acks = churn_thread.and_then(|t| t.join().ok()).unwrap_or_default();
    drop(server);
    (stats, churn_acks)
}
