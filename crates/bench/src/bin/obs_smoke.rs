//! `obs_smoke` — CI exercise of the observability plane end to end.
//!
//! Builds a paper-scale traced service (K tables of 3725 prefixes),
//! wraps it in the control plane with a flight recorder attached, and
//! serves the vr-obs HTTP plane next to it. Everything is then checked
//! the way an operator would see it — over real TCP:
//!
//! * `/healthz` answers `ok`;
//! * `/metrics` passes `check_prometheus` structural validation;
//! * `/snapshot.json` parses and names the service counters;
//! * `/traces.json` validates as a Chrome trace-event document with at
//!   least one sampled batch in it;
//! * a seeded `WorkerStall` (burst into lane 1's depth-1 queue) produces
//!   **exactly one** flight-recorder dump under `results/`, and that
//!   dump itself validates as Chrome trace JSON naming the trigger;
//! * `/flight` reflects the dump.
//!
//! Any violation panics, failing the CI `obs` job.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use vr_bench::results_dir;
use vr_control::{ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig};
use vr_net::synth::FamilySpec;
use vr_net::VnId;
use vr_obs::{
    check_chrome_trace, chrome_trace_json, FlightConfig, FlightRecorder, ObsRoutes, ObsServer,
};
use vr_telemetry::export::{check_prometheus, to_prometheus};

/// Virtual networks in the smoke family (each at the paper's 3725
/// worst-case prefixes).
const FAMILY_K: usize = 4;

/// One blocking scrape; asserts the 200 and returns the body.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("split head/body");
    assert!(head.starts_with("HTTP/1.1 200"), "GET {path}: {head}");
    body.to_string()
}

fn main() {
    let out = results_dir();
    std::fs::create_dir_all(&out).expect("create results dir");
    // "Exactly one dump" must be checkable against a clean slate.
    FlightRecorder::clean_dir(&out);

    let family = FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
        .generate()
        .expect("family generation");
    // Two lanes, lane 1's thread behind a depth-1 queue: the submit
    // burst below is guaranteed to find that queue full and publish the
    // WorkerStall event the flight recorder triggers on. Every batch is
    // traced so the pre/post windows fill deterministically.
    let service = LookupService::new(
        family,
        ServiceConfig {
            workers: 2,
            queue_depth: 1,
            trace_sample: Some(1),
            lookup_cache: Some(vr_engine::DEFAULT_CACHE_SLOTS),
            ..ServiceConfig::default()
        },
    )
    .expect("service construction");

    let registry = Arc::clone(service.metrics().expect("telemetry on by default"));
    let tracer = service.tracer().expect("tracing configured").clone();
    let mut plane = ControlPlane::new(service, ControlConfig::default()).expect("control plane");
    plane.attach_flight_recorder(FlightRecorder::new(FlightConfig {
        pre_window: 32,
        post_window: 4,
        max_dumps: 1,
        ..FlightConfig::new(&out)
    }));

    // The recorder lives inside the control plane, so /flight serves
    // the status the plane publishes after each supervised tick.
    let flight_status = Arc::new(Mutex::new(String::from("{}")));
    let metrics_registry = Arc::clone(&registry);
    let snapshot_registry = Arc::clone(&registry);
    let route_tracer = tracer.clone();
    let route_status = Arc::clone(&flight_status);
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
            traces: Box::new(move || chrome_trace_json(&route_tracer.snapshot().traces)),
            flight: Box::new(move || route_status.lock().map(|s| s.clone()).unwrap_or_default()),
        },
    )
    .expect("obs server start");
    let addr = server.addr();
    eprintln!("[obs_smoke] serving on http://{addr}");

    let publish_status = |plane: &ControlPlane, cell: &Arc<Mutex<String>>| {
        if let Some(rec) = plane.flight_recorder() {
            if let (Ok(json), Ok(mut slot)) =
                (serde_json::to_string_pretty(&rec.status()), cell.lock())
            {
                *slot = json;
            }
        }
    };

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
        publish_status(&plane, &flight_status);
    }

    // Scrape the plane the way Prometheus / curl would.
    assert_eq!(get(addr, "/healthz"), "ok\n");
    let prom = get(addr, "/metrics");
    check_prometheus(&prom).expect("Prometheus exposition validates");
    assert!(
        prom.contains("vr_service_lookups_total"),
        "service counters missing from /metrics"
    );
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

    // Seed the anomaly: burst past lane 1's depth-1 queue, then let the
    // next supervised ticks observe the stall and fill the
    // post-trigger window. Round-robin alternates the lanes, so the
    // caller's lane-0 jobs are one key each and every lane-1 job is the
    // full 4 096. The burst is tens of milliseconds of worker time:
    // when the scheduler wakes the worker onto this thread's CPU the
    // worker first runs ahead on its sleeper credit (a few
    // milliseconds) and a short burst never finds the queue full.
    for _ in 0..256 {
        let _ = plane.service_mut().submit(packets[..1].to_vec());
        let _ = plane.service_mut().submit(packets.clone());
    }
    let _ = plane.service_mut().collect_all();
    for _ in 0..6 {
        let _ = plane.service_mut().process(&packets[..256]);
        let _ = plane.apply_batch(&[]).expect("post-stall control tick");
        publish_status(&plane, &flight_status);
    }

    let dumps = plane
        .flight_recorder()
        .expect("recorder attached")
        .dumps()
        .to_vec();
    assert_eq!(
        dumps.len(),
        1,
        "seeded WorkerStall must produce exactly one dump, got {dumps:?}"
    );
    assert!(
        dumps[0].starts_with(&out),
        "dump {} escaped results/",
        dumps[0].display()
    );
    let dump = std::fs::read_to_string(&dumps[0]).expect("read flight dump");
    let dump_events = check_chrome_trace(&dump).expect("dump validates as Chrome trace JSON");
    assert!(dump_events > 0, "empty flight dump");
    assert!(
        dump.contains("WorkerStall"),
        "dump does not name its trigger"
    );

    // The plane reflects the episode.
    let flight = get(addr, "/flight");
    assert!(flight.contains("flightrec_"), "/flight misses the dump: {flight}");

    drop(server);
    let report = plane.shutdown();
    eprintln!(
        "[obs_smoke] ok: {trace_events} trace events served, dump {} ({} events), {} batches",
        dumps[0].display(),
        dump_events,
        report.batches
    );

    // Leave no artifacts behind: repeated local runs must not pile up
    // flightrec_*.json dumps. CI's obs job sets VR_KEEP_FLIGHT_DUMPS=1
    // because it uploads the dump as a build artifact afterwards.
    if std::env::var_os("VR_KEEP_FLIGHT_DUMPS").is_none() {
        FlightRecorder::clean_dir(&out);
    }
}
