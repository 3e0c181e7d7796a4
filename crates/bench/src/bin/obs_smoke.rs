//! `obs_smoke` — CI exercise of the observability plane end to end.
//!
//! Builds a paper-scale service (K tables of 3725 prefixes) that traces
//! every batch, wraps it in the control plane, and serves the vr-obs
//! HTTP plane next to it. Everything is then checked the way an operator
//! would see it — over real TCP:
//!
//! * `/healthz` answers `ok`;
//! * `/metrics` passes `check_prometheus` structural validation and
//!   names both the service's and the control plane's counters;
//! * `/snapshot.json` parses and names the service counters;
//! * `/traces.json` validates as a Chrome trace-event document with at
//!   least one sampled batch in it.
//!
//! Any violation panics, failing the CI `obs` job.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use vr_control::{ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig};
use vr_net::synth::FamilySpec;
use vr_net::VnId;
use vr_obs::{check_chrome_trace, chrome_trace_json, ObsRoutes, ObsServer};
use vr_telemetry::export::{check_prometheus, to_prometheus};

/// Virtual networks in the smoke family (each at the paper's 3725
/// worst-case prefixes).
const FAMILY_K: usize = 4;

/// One blocking scrape; asserts the 200 and returns the body.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("split head/body");
    assert!(head.starts_with("HTTP/1.1 200"), "GET {path}: {head}");
    body.to_string()
}

fn main() {
    let family = FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
        .generate()
        .expect("family generation");
    // Every batch is traced, so the warm traffic below fills the ring.
    let service = LookupService::new(
        family,
        ServiceConfig {
            trace_sample: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service construction");

    let registry = Arc::clone(service.metrics().expect("telemetry on by default"));
    let tracer = service.tracer().expect("tracing configured").clone();
    let mut plane = ControlPlane::new(service, ControlConfig::default()).expect("control plane");

    let metrics_registry = Arc::clone(&registry);
    let snapshot_registry = Arc::clone(&registry);
    let server = ObsServer::start(
        "127.0.0.1:0",
        ObsRoutes {
            metrics: Box::new(move || to_prometheus(&metrics_registry.snapshot())),
            snapshot: Box::new(move || {
                snapshot_registry
                    .snapshot()
                    .to_json_pretty()
                    .unwrap_or_else(|e| format!("{{\"error\": \"{e:?}\"}}"))
            }),
            traces: Box::new(move || chrome_trace_json(&tracer.snapshot().traces)),
        },
    )
    .expect("obs server start");
    let addr = server.addr();
    eprintln!("[obs_smoke] serving on http://{addr}");

    // Warm traffic: fill the trace ring and the metric families.
    let packets: Vec<(VnId, u32)> = (0..4096u32)
        .map(|i| ((i as usize % FAMILY_K) as VnId, i.wrapping_mul(0x9E37_79B9)))
        .collect();
    for _ in 0..4 {
        let hits = plane
            .service_mut()
            .process(&packets[..512])
            .iter()
            .filter(|nh| nh.is_some())
            .count();
        assert!(hits > 0, "paper-scale family resolved nothing");
        let _ = plane.apply_batch(&[]).expect("warm control tick");
    }

    // Scrape the plane the way Prometheus / curl would.
    assert_eq!(get(addr, "/healthz"), "ok\n");
    let prom = get(addr, "/metrics");
    check_prometheus(&prom).expect("Prometheus exposition validates");
    for counter in ["vr_service_lookups_total", "vr_control_batches_total"] {
        assert!(prom.contains(counter), "{counter} missing from /metrics");
    }
    let snap = get(addr, "/snapshot.json");
    let parsed = serde_json::parse(&snap).expect("/snapshot.json parses");
    assert!(
        serde_json::to_string(&parsed)
            .map(|s| s.contains("vr_service_lookups_total"))
            .unwrap_or(false),
        "/snapshot.json misses service counters"
    );
    let traces = get(addr, "/traces.json");
    let trace_events = check_chrome_trace(&traces).expect("/traces.json validates");
    assert!(trace_events > 0, "no sampled batches in /traces.json");

    drop(server);
    let totals = plane.shutdown().expect("telemetry on");
    eprintln!(
        "[obs_smoke] ok: {trace_events} trace events served, {} batches",
        totals.counter("vr_service_batches_total").unwrap_or(0)
    );
}
