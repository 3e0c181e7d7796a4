//! Isolated per-layer passes. Each row times one public function of one
//! layer on the same pre-generated keys, frames and update batches the
//! workload uses, with no socket and no other layer above it. A layer's own
//! cost is a row minus the row beneath it (`service.handoff_ns`,
//! `sharded.scatter_ns`, `wire.socket_ns_per_frame`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use vr_control::{coalesce, ControlConfig, ControlPlane};
use vr_engine::service::lookup_batch_mixed;
use vr_engine::{LookupService, LpmCache, ShardedService, Stage, DEFAULT_CACHE_SLOTS};
use vr_net::NextHop;
use vr_power::experiments::{power_sweep, ExperimentConfig};
use vr_trie::{JumpTrie, MergedTrie};
use vr_wire::frame::{crc32, encode, encode_into};
use vr_wire::{FrameDecoder, Message, WireBackend, HEADER_LEN};

use crate::inputs::{family_spec, Inputs};
use crate::stats::Summary;
use crate::workloads::{service_config, sharded_config, Kind, SVC_CALL_KEYS};

/// Keys per call in the walk, cache and codec rows: the service's batch
/// width, so that `service.process_ns` minus a row below it is the
/// hand-off and nothing else.
const CHUNK: usize = 64;
/// Update batches the control row applies; a fixed count, so that
/// `control.remerges` and `control.alpha_final` repeat exactly.
const CONTROL_BATCHES: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn row(name: &'static str, unit: &'static str, value: f64) -> Row {
    Row { name, unit, value }
}

/// Isolated passes are timed in slices this long; a row's value is the
/// median across its slices.
const SLICE: Duration = Duration::from_millis(2);

fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Calls `pass` (which returns how many items it handled) for `budget`, at
/// least once; returns the median nanoseconds per item.
fn per_item(budget: Duration, mut pass: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut slices = Vec::new();
    loop {
        let slice = Instant::now();
        let mut items = 0usize;
        loop {
            items += pass();
            if slice.elapsed() >= SLICE {
                break;
            }
        }
        slices.push(slice.elapsed().as_nanos() as f64 / items as f64);
        if start.elapsed() >= budget {
            return median(&slices);
        }
    }
}

/// Median wall time of `call` in nanoseconds, over as many calls as fit in
/// `budget` (at least three).
fn call_ns(budget: Duration, mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        call();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

fn build_trie(tables: &[vr_net::RoutingTable]) -> JumpTrie {
    let merged = MergedTrie::from_tables(tables).expect("valid family");
    JumpTrie::from_merged(&merged.leaf_pushed())
}

/// Everything the traced pass reports that comes from isolated passes.
pub struct Layers {
    pub rows: Vec<Row>,
    /// Extra lines for the human-readable waterfall.
    pub notes: Vec<String>,
    /// Rows that disagree with the oracle; must be zero.
    pub mismatches: u64,
}

/// `request_ns` is what one request costs on the untraced instance of the
/// workload: the inverse of its median throughput.
pub fn probe(kind: Kind, inputs: &Inputs, budget: Duration, request_ns: f64) -> Layers {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut mismatches = 0u64;
    let keys = &inputs.keys[..];
    let expected = &inputs.expected[..];
    let spec = family_spec(inputs.seed);

    // net, trie: construction.
    rows.push(row(
        "net.family_gen_ms",
        "ms",
        call_ns(budget, || drop(black_box(spec.generate()))) / 1e6,
    ));
    rows.push(row(
        "trie.build_ms",
        "ms",
        call_ns(budget, || drop(black_box(build_trie(&inputs.tables)))) / 1e6,
    ));

    // trie: the default (lane) batch walk against the plain scalar loop.
    let trie = build_trie(&inputs.tables);
    let mut out: Vec<Option<NextHop>> = vec![None; CHUNK];
    let mut chunks = keys.chunks_exact(CHUNK).cycle();
    let walk_batch = per_item(budget, || {
        let chunk = chunks.next().expect("cycle");
        lookup_batch_mixed(&trie, chunk, &mut out);
        black_box(&out);
        CHUNK
    });
    let mut chunks = keys.chunks_exact(CHUNK).cycle();
    let walk_scalar = per_item(budget, || {
        let chunk = chunks.next().expect("cycle");
        for (slot, &(vn, dst)) in out.iter_mut().zip(chunk) {
            *slot = trie.lookup_vn(usize::from(vn), dst);
        }
        black_box(&out);
        CHUNK
    });
    rows.push(row("trie.walk_batch_ns", "ns", walk_batch));
    rows.push(row("trie.walk_scalar_ns", "ns", walk_scalar));
    for (chunk, want) in keys
        .chunks_exact(CHUNK)
        .zip(expected.chunks_exact(CHUNK))
        .take(256)
    {
        lookup_batch_mixed(&trie, chunk, &mut out);
        mismatches += u64::from(out != want);
    }

    // engine.cache: one pass over exactly the pre-generated keys gives the
    // hit count; further passes only add timing.
    let mut cache = LpmCache::new(DEFAULT_CACHE_SLOTS).expect("power-of-two capacity");
    for chunk in inputs.warm.chunks(CHUNK) {
        cache.lookup_batch(&trie, 0, chunk, &mut out[..chunk.len()]);
    }
    cache.reset_stats();
    let mut wrong = 0u64;
    let first_pass = Instant::now();
    for (chunk, want) in keys.chunks_exact(CHUNK).zip(expected.chunks_exact(CHUNK)) {
        cache.lookup_batch(&trie, 0, chunk, &mut out);
        wrong += u64::from(out != want);
    }
    let first_pass = first_pass.elapsed();
    let stats = cache.stats();
    mismatches += wrong;
    let mut chunks = keys.chunks_exact(CHUNK).cycle();
    let cache_lookup = per_item(budget.saturating_sub(first_pass), || {
        let chunk = chunks.next().expect("cycle");
        cache.lookup_batch(&trie, 0, chunk, &mut out);
        black_box(&out);
        CHUNK
    });
    rows.push(row("cache.lookup_ns", "ns", cache_lookup));
    rows.push(row("cache.hit_rate", "ratio", stats.hit_rate()));
    notes.push(format!(
        "cache.hit_rate: {} hits / {} probes over the {} pre-generated keys",
        stats.hits,
        stats.hits + stats.misses,
        keys.len()
    ));

    // engine.service: the workload's own cache setting, traced by the
    // program so its stage spans can be held against the rows above.
    let lookup_ns = if kind.cache_slots().is_some() {
        cache_lookup
    } else {
        walk_batch
    };
    let untraced = service_pass(kind, inputs, budget, false);
    rows.push(row("service.process_ns", "ns", untraced.process_ns));
    rows.push(row(
        "service.handoff_ns",
        "ns",
        untraced.process_ns - lookup_ns,
    ));
    rows.push(row(
        "service.queue_stalls",
        "count",
        untraced.queue_stalls as f64,
    ));
    mismatches += untraced.mismatches;
    let traced = service_pass(kind, inputs, budget, true);
    mismatches += traced.mismatches;
    let gap = 100.0 * (traced.obs_lookup_ns - lookup_ns) / lookup_ns;
    rows.push(row("layers.crosscheck_gap_pct", "%", gap));
    notes.push(format!(
        "crosscheck: vr-obs spans over {} sampled batches: cache_probe+lane_walk+scatter {:.1} ns/key (harness row {:.1}), \
         enqueue+dequeue+complete {:.1} ns/key of queue residency (harness hand-off {:.1}, amortised)",
        traced.obs_batches,
        traced.obs_lookup_ns,
        lookup_ns,
        traced.obs_handoff_ns,
        untraced.process_ns - lookup_ns
    ));

    // engine.sharded: 512 keys per call, as wire_bulk's backend sees them.
    let mut sharded =
        ShardedService::new(inputs.tables.clone(), sharded_config(false)).expect("service");
    for chunk in inputs.warm.chunks(512) {
        let _ = sharded.process(chunk);
    }
    let mut out512: Vec<Option<NextHop>> = vec![None; 512];
    let mut chunks = keys
        .chunks_exact(512)
        .zip(expected.chunks_exact(512))
        .cycle();
    let mut wrong = 0u64;
    let sharded_ns = per_item(budget, || {
        let (chunk, want) = chunks.next().expect("cycle");
        sharded.process_into(chunk, &mut out512);
        wrong += u64::from(out512 != want);
        512
    });
    mismatches += wrong;
    let _ = sharded.shutdown();
    rows.push(row("sharded.process_ns", "ns", sharded_ns));
    rows.push(row("sharded.scatter_ns", "ns", sharded_ns - cache_lookup));

    // control: the same update batches the churn workload sends.
    let service = LookupService::new(
        inputs.tables.clone(),
        service_config(Some(DEFAULT_CACHE_SLOTS), false),
    )
    .expect("service");
    let mut plane = ControlPlane::new(service, ControlConfig::default()).expect("control plane");
    let mut apply_ns = Vec::new();
    let mut coalesce_ns = Vec::new();
    let mut alpha = 0.0;
    for batch in inputs.updates.iter().take(CONTROL_BATCHES) {
        let t = Instant::now();
        black_box(coalesce(batch));
        coalesce_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let outcome = plane.apply_batch(batch).expect("generated batches apply");
        apply_ns.push(t.elapsed().as_nanos() as f64);
        alpha = outcome.alpha;
    }
    let apply_batch_ns = median(&apply_ns);
    rows.push(row("control.apply_batch_us", "us", apply_batch_ns / 1e3));
    rows.push(row("control.coalesce_us", "us", median(&coalesce_ns) / 1e3));
    rows.push(row("control.remerges", "count", plane.remerges() as f64));
    rows.push(row("control.alpha_final", "ratio", alpha));
    let _ = plane.shutdown();

    // wire.frame: the codec with no socket, per lookup, at the smallest
    // and the largest frame the workloads send.
    let mut codec = Vec::new();
    for (n, [encode_req, decode_req, encode_resp, decode_resp]) in [
        (
            16,
            [
                "frame.encode_req_ns.16",
                "frame.decode_req_ns.16",
                "frame.encode_resp_ns.16",
                "frame.decode_resp_ns.16",
            ],
        ),
        (
            512,
            [
                "frame.encode_req_ns.512",
                "frame.decode_req_ns.512",
                "frame.encode_resp_ns.512",
                "frame.decode_resp_ns.512",
            ],
        ),
    ] {
        let request = Message::LookupRequest {
            id: 1,
            packets: keys[..n].to_vec(),
        };
        let response = Message::LookupResponse {
            id: 1,
            generation: 0,
            results: expected[..n].to_vec(),
        };
        let mut total = 0.0;
        for (message, encode_name, decode_name) in [
            (&request, encode_req, decode_req),
            (&response, encode_resp, decode_resp),
        ] {
            let bytes = encode(message);
            let mut buf = Vec::with_capacity(bytes.len());
            let encode_ns = per_item(budget / 2, || {
                buf.clear();
                encode_into(black_box(message), &mut buf);
                black_box(&buf);
                n
            });
            let mut decoder = FrameDecoder::new();
            let mut bad = 0u64;
            let decode_ns = per_item(budget / 2, || {
                decoder.feed(black_box(&bytes));
                bad +=
                    u64::from(!matches!(decoder.next_message(), Ok(Some(ref m)) if m == message));
                n
            });
            mismatches += bad;
            rows.push(row(encode_name, "ns", encode_ns));
            rows.push(row(decode_name, "ns", decode_ns));
            total += (encode_ns + decode_ns) * n as f64;
        }
        codec.push((n as f64, total));
        if n == 512 {
            let payload = &encode(&request)[HEADER_LEN..];
            let crc_ns = per_item(budget / 2, || {
                black_box(crc32(black_box(payload)));
                payload.len()
            });
            rows.push(row("frame.crc_ns_per_kib", "ns", crc_ns * 1024.0));
            let bytes = encode(&request).len() + encode(&response).len();
            rows.push(row("frame.bytes_per_lookup", "B", bytes as f64 / n as f64));
        }
    }

    // core + fpga: the sweep's stated accuracy (must never move) and how
    // much of it is table and trie construction.
    let cfg = ExperimentConfig::paper();
    let t = Instant::now();
    let points = power_sweep(&cfg).expect("paper configuration is valid");
    let sweep = t.elapsed();
    let max_error = points.iter().map(|p| p.error_pct.abs()).fold(0.0, f64::max);
    let (low, high) = cfg.resolve_shared_fractions();
    let t = Instant::now();
    for k in 1..=cfg.k_max {
        for fraction in [high, low] {
            let tables = cfg.family(k, fraction).expect("valid family");
            black_box(MergedTrie::from_tables(&tables).expect("valid family"));
        }
    }
    let build = t.elapsed();
    rows.push(row("power.sweep_points", "count", points.len() as f64));
    rows.push(row("power.max_model_error_pct", "%", max_error));
    rows.push(row(
        "power.build_share",
        "ratio",
        build.as_secs_f64() / sweep.as_secs_f64(),
    ));
    notes.push(format!("power: one power_sweep call {:.3} s, family generation + merge for the same (K, alpha) set {:.3} s", sweep.as_secs_f64(), build.as_secs_f64()));

    // wire.server + wire.client: what a request costs beyond the codec and
    // the backend call, on the same frame.
    let per_request = kind.lookups_per_request();
    let codec_ns = if kind.uses_wire() {
        // Per-frame and per-lookup parts, fitted through the two sizes.
        let ((n0, c0), (n1, c1)) = (codec[0], codec[1]);
        let per_lookup = (c1 - c0) / (n1 - n0);
        c0 + per_lookup * (per_request as f64 - n0)
    } else {
        0.0
    };
    let (backend_ns, backend_wrong) = match kind {
        Kind::PaperSweep => (sweep.as_nanos() as f64, 0),
        _ => backend_call_ns(kind, inputs, budget),
    };
    mismatches += backend_wrong;
    let residual = request_ns - codec_ns - backend_ns;
    rows.push(row("wire.socket_ns_per_frame", "ns", residual));
    notes.push(format!(
        "waterfall per request: wall {:.0} ns = codec {:.0} + backend call {:.0} + residual (sockets, thread hops, client) {:.0}",
        request_ns, codec_ns, backend_ns, residual
    ));

    Layers {
        rows,
        notes,
        mismatches,
    }
}

struct ServicePass {
    process_ns: f64,
    queue_stalls: u64,
    mismatches: u64,
    obs_batches: usize,
    obs_lookup_ns: f64,
    obs_handoff_ns: f64,
}

/// `LookupService::process`, 4 096 keys per call, with the workload's cache
/// setting. Traced, it also sums the program's own stage spans.
fn service_pass(kind: Kind, inputs: &Inputs, budget: Duration, traced: bool) -> ServicePass {
    let mut service = LookupService::new(
        inputs.tables.clone(),
        service_config(kind.cache_slots(), traced),
    )
    .expect("service");
    if kind.cache_slots().is_some() {
        for chunk in inputs.warm.chunks(SVC_CALL_KEYS) {
            let _ = service.process(chunk);
        }
    }
    let mut calls = inputs
        .keys
        .chunks_exact(SVC_CALL_KEYS)
        .zip(inputs.expected.chunks_exact(SVC_CALL_KEYS))
        .cycle();
    let mut mismatches = 0u64;
    let process_ns = per_item(budget, || {
        let (chunk, want) = calls.next().expect("cycle");
        mismatches += u64::from(service.process(chunk) != want);
        SVC_CALL_KEYS
    });
    let queue_stalls = service
        .telemetry_snapshot()
        .and_then(|s| s.counter("vr_service_queue_stalls_total"))
        .unwrap_or(0);
    // Per sampled batch, ns per key in the lookup stages and in the queue;
    // the median, like every other row.
    let (mut lookup, mut handoff) = (Vec::new(), Vec::new());
    if let Some(tracer) = service.tracer() {
        // Batch traces only; publish and apply_updates spans have no worker.
        for trace in tracer
            .snapshot()
            .traces
            .iter()
            .filter(|t| t.worker.is_some() && t.packets > 0)
        {
            let stage_ns = |wanted: &[Stage]| {
                trace
                    .stages
                    .iter()
                    .filter(|s| wanted.contains(&s.stage))
                    .map(|s| s.dur_ns)
                    .sum::<u64>() as f64
                    / trace.packets as f64
            };
            lookup.push(stage_ns(&[
                Stage::CacheProbe,
                Stage::LaneWalk,
                Stage::Scatter,
            ]));
            handoff.push(stage_ns(&[Stage::Enqueue, Stage::Dequeue, Stage::Complete]));
        }
    }
    let _ = service.shutdown();
    ServicePass {
        process_ns,
        queue_stalls,
        mismatches,
        obs_batches: lookup.len(),
        obs_lookup_ns: median(&lookup),
        obs_handoff_ns: median(&handoff),
    }
}

/// Time of the backend call one lookup request makes, in process:
/// for a wire workload exactly what the server's backend thread runs
/// (`WireBackend::lookup` on the workload's backend type and frame size).
fn backend_call_ns(kind: Kind, inputs: &Inputs, budget: Duration) -> (f64, u64) {
    fn drive<B: WireBackend>(
        backend: &mut B,
        inputs: &Inputs,
        n: usize,
        budget: Duration,
    ) -> (f64, u64) {
        for chunk in inputs.warm.chunks(n) {
            let _ = backend.lookup(chunk);
        }
        let mut frames = inputs
            .keys
            .chunks_exact(n)
            .zip(inputs.expected.chunks_exact(n))
            .cycle();
        let mut wrong = 0u64;
        let ns = call_ns(budget, || {
            let (chunk, want) = frames.next().expect("cycle");
            wrong += u64::from(backend.lookup(chunk).0 != want);
        });
        (ns, wrong)
    }
    let n = kind.lookups_per_request();
    let tables = inputs.tables.clone();
    match kind {
        Kind::WireSmall | Kind::SvcScan | Kind::SvcHot => {
            let mut service = LookupService::new(tables, service_config(kind.cache_slots(), false))
                .expect("service");
            let result = drive(&mut service, inputs, n, budget);
            let _ = service.shutdown();
            result
        }
        Kind::WireBulk => {
            let mut service = ShardedService::new(tables, sharded_config(false)).expect("service");
            let result = drive(&mut service, inputs, n, budget);
            let _ = service.shutdown();
            result
        }
        Kind::WireChurn => {
            let service = LookupService::new(tables, service_config(kind.cache_slots(), false))
                .expect("service");
            let mut plane =
                ControlPlane::new(service, ControlConfig::default()).expect("control plane");
            let result = drive(&mut plane, inputs, n, budget);
            let _ = plane.shutdown();
            result
        }
        Kind::PaperSweep => unreachable!("the sweep has no lookup backend"),
    }
}
