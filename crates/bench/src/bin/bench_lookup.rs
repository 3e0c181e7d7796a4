//! Lookup datapath microbenchmark: the scalar walk of every trie
//! encoding on a paper-scale table — each driven through the one generic
//! `push_backend` over `vr_trie::LookupBackend` — plus the per-VN
//! (`lookup_vn`) datapath on merged tries, the mixed-VN batch walk (the
//! service rows' reference) and result-cache rows (mode `"batch"`), and
//! `LookupService` /
//! `ShardedService`, one row per variant (mode `"service"`; each call
//! walks on the calling thread). Writes
//! `BENCH_lookup.json` at the workspace root (packets/sec and ns/lookup
//! per row) so the numbers travel with the repo.
//!
//! `cargo run --release -p vr-bench --bin bench_lookup` (accepts
//! `--quick` for a reduced probe set, and `--smoke` for a tiny
//! single-scale run that still covers every variant/mode pair and
//! writes `BENCH_lookup_smoke.json` — used by CI to keep the harness
//! honest without paying for a full measurement). The smoke run times
//! nothing against a threshold: walk regressions are judged by the repo
//! benchmark's `svc_scan` workload, pinned to one CPU and compared on
//! alternating parent/change pairs. It does check the cache's hit-rate
//! floor, a property of the cache rather than of the machine.
//!
//! Latency **distribution** columns (`p50_ns`/`p99_ns`) ride along for
//! every row except the deliberately registry-free service control,
//! which counts nothing at all: walk rows run a separate
//! chunk-granularity instrumented pass through a detached `vr-telemetry`
//! histogram, service rows read the live `vr_service_lookup_ns`
//! histogram each call feeds. Service mode is measured three ways —
//! registry attached (`service_jump`), detached, with no accounting at
//! all (`service_jump_notel`), and attached with 1-in-64 batch
//! tracing (`service_jump_traced`) — so the record-path and trace-path
//! overheads are visible deltas in the artifact, not guesses. Under
//! `--smoke` the run also scrapes a live registry twice, validates the
//! Prometheus exposition, checks counter monotonicity between scrapes,
//! and writes `results/TELEMETRY_smoke.prom` / `.json`.

use serde::Serialize;
use vr_bench::results_dir;
use vr_engine::service::lookup_batch_mixed;
use vr_engine::{LookupService, LpmCache, ServiceConfig, ShardedConfig, ShardedService};
use vr_net::synth::{FamilySpec, TableSpec};
use vr_net::{RoutingTable, SkewedSpec, SkewedTraffic, VnId};
use vr_power::report::write_json;
use vr_telemetry::{Histogram, Stopwatch, TelemetrySnapshot};
use vr_trie::{JumpTrie, LookupBackend, MergedTrie};
use vr_wire::{replay, ServerConfig, WireClient, WireServer};

/// Number of virtual networks in the merged/per-VN and service rows.
const FAMILY_K: usize = 4;

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Row {
    /// `"paper"` (3,725-prefix edge table, cache-resident),
    /// `"backbone"` (262,144 prefixes — slabs exceed L2, though the
    /// cycled 65 536-probe set stays L2-resident), `"large"` (1,048,576
    /// prefixes under 2^20 table-covering keys, so the walk misses), or
    /// `"smoke"` (tiny CI-only table).
    scale: &'static str,
    table_prefixes: usize,
    variant: &'static str,
    /// `"scalar"`, `"batch"`, `"service"`, or `"wire"` (the end-to-end
    /// socket path through `vr-wire`).
    mode: &'static str,
    /// Keys per call (`null` for scalar; the chunk width for batch and
    /// sharded rows; the whole probe cycle for the other service rows).
    batch_size: Option<usize>,
    ns_per_lookup: f64,
    packets_per_sec: f64,
    /// Speedup over the reference row (1.0 for scalar and `jump_mixed`):
    /// service and sharded rows compare against the same scale's
    /// `jump_mixed` row — `lookup_batch_mixed` over the same packets, the
    /// walk each call runs, minus the call's counting and result vector —
    /// and the `cached_jump_mixed` rows against the uncached `jump_mixed`
    /// walk of the same stream, measured in the same run.
    speedup_vs_scalar: f64,
    /// Median ns/lookup from the instrumented pass. Walk rows:
    /// chunk-granularity wall time through a detached histogram.
    /// Registry-attached service rows: the service's live
    /// `vr_service_lookup_ns` histogram. The registry-free
    /// `service_jump_notel` control, which counts nothing: a separate
    /// detached chunk-granularity pass over `process` — timer-free during the
    /// throughput measurement, so the control stays honest.
    p50_ns: Option<f64>,
    /// 99th-percentile ns/lookup from the same histogram.
    p99_ns: Option<f64>,
    /// Traffic model driving the row: `null` for the synthetic
    /// perturbed-prefix probe cycle, `"uniform"` / `"zipf"` for the
    /// result-cache rows driven by `vr_net::SkewedTraffic`.
    traffic: Option<&'static str>,
    /// Steady-state LPM-cache hit rate (cached rows only), measured
    /// over a stream drawn independently of the warmup stream.
    cache_hit_rate: Option<f64>,
}

/// Times `work` (which must process `per_iter` lookups) and returns ns
/// per lookup of the **fastest** iteration. The minimum estimates the
/// uncontended cost: scheduler preemption and noisy neighbours only ever
/// add time, so on shared single-core runners the mean drifts tens of
/// percent between runs while the min stays reproducible.
fn time_ns_per_lookup(per_iter: usize, iters: usize, mut work: impl FnMut() -> usize) -> f64 {
    // Warm-up: populate caches and fault in the slabs.
    let mut sink = 0usize;
    for _ in 0..iters.div_ceil(4).max(1) {
        sink = sink.wrapping_add(work());
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let watch = Stopwatch::start();
        sink = sink.wrapping_add(work());
        best = best.min(watch.elapsed_ns() as f64);
    }
    // Keep the accumulated hit count observable so the loop is not elided.
    assert!(sink != usize::MAX);
    best / per_iter as f64
}

/// Chunk width of the scalar-mode instrumented pass: wide enough that
/// the two timer reads (~25 ns each) stay an order of magnitude below
/// the measured chunk, narrow enough that the percentiles still resolve
/// per-probe variation.
const PCTL_SCALAR_CHUNK: usize = 32;

/// Shared core of every detached chunk-granularity percentile pass:
/// times each chunk with a [`Stopwatch`], scales partial tail chunks up
/// to full `width` before bucketing (so the tail never masquerades as a
/// fast chunk), folds the wall time into a detached log₂ histogram, and
/// reads back `(p50, p99)` as ns/lookup. Always run *separately* from
/// the throughput timing so the per-chunk timer reads never contaminate
/// the `ns_per_lookup` columns.
struct PercentileSampler {
    width: usize,
    hist: Histogram,
    sink: usize,
}

impl PercentileSampler {
    fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            hist: Histogram::detached(),
            sink: 0,
        }
    }

    /// Times one `work` call covering `len` lookups (`len <= width`;
    /// shorter for the tail chunk) and buckets the scaled wall time.
    fn time_chunk(&mut self, len: usize, work: impl FnOnce() -> usize) {
        let watch = Stopwatch::start();
        self.sink = self.sink.wrapping_add(work());
        let ns = watch.elapsed_ns() * self.width as u64 / len.max(1) as u64;
        self.hist.record(ns);
    }

    fn finish(self, label: &'static str) -> (Option<f64>, Option<f64>) {
        // Keep the accumulated hit count observable so the timed work is
        // not elided.
        assert!(self.sink != usize::MAX);
        let snap = self.hist.snapshot(label);
        let per_lookup = |v: u64| Some(v as f64 / self.width as f64);
        (per_lookup(snap.p50), per_lookup(snap.p99))
    }
}

/// Instrumented pass over a flat probe set: walks `probes` in chunks of
/// `width` through a [`PercentileSampler`].
fn percentile_pass(
    width: usize,
    probes: &[u32],
    mut work: impl FnMut(&[u32]) -> usize,
) -> (Option<f64>, Option<f64>) {
    let mut pass = PercentileSampler::new(width);
    for chunk in probes.chunks(width.max(1)) {
        pass.time_chunk(chunk.len(), || work(std::hint::black_box(chunk)));
    }
    pass.finish("percentile_pass")
}

/// What every row of one scale shares: its label and table size, the
/// probe set, and the timed-sample count.
struct Scale<'a> {
    name: &'static str,
    table_prefixes: usize,
    probes: &'a [u32],
    iters: usize,
}

impl Scale<'_> {
    /// A probe-cycle row.
    fn row(
        &self,
        variant: &'static str,
        mode: &'static str,
        batch_size: Option<usize>,
        ns: f64,
        scalar_ref_ns: f64,
        (p50_ns, p99_ns): (Option<f64>, Option<f64>),
    ) -> Row {
        Row {
            scale: self.name,
            table_prefixes: self.table_prefixes,
            variant,
            mode,
            batch_size,
            ns_per_lookup: ns,
            packets_per_sec: 1e9 / ns,
            speedup_vs_scalar: scalar_ref_ns / ns,
            p50_ns,
            p99_ns,
            traffic: None,
            cache_hit_rate: None,
        }
    }
}

/// A counter cycling `0..VNS`, so merged rows exercise every NHI-vector
/// column; a constant 0 for the single-table encodings (`VNS` = 1).
fn vn_cycle<const VNS: usize>() -> impl FnMut() -> usize {
    let mut vn = 0usize;
    move || {
        let now = vn;
        vn = (vn + 1) % VNS;
        now
    }
}

/// Measures one encoding's scalar walk through [`LookupBackend`] and
/// returns its ns/lookup (the reference for derived rows such as service
/// mode). Monomorphised per encoding, not `dyn`: a virtual call per key
/// would show in the few-ns scalar rows. The VNID advances per key.
fn push_backend<const VNS: usize>(
    rows: &mut Vec<Row>,
    scale: &Scale<'_>,
    variant: &'static str,
    backend: &impl LookupBackend,
) -> f64 {
    let probes = scale.probes;
    let mut next_vn = vn_cycle::<VNS>();
    let scalar_ns = time_ns_per_lookup(probes.len(), scale.iters, || {
        probes
            .iter()
            .filter(|&&ip| {
                backend
                    .lookup_vn(next_vn(), std::hint::black_box(ip))
                    .is_some()
            })
            .count()
    });
    let pctl = percentile_pass(PCTL_SCALAR_CHUNK, probes, |chunk| {
        chunk
            .iter()
            .filter(|&&ip| backend.lookup_vn(next_vn(), ip).is_some())
            .count()
    });
    rows.push(scale.row(variant, "scalar", None, scalar_ns, scalar_ns, pctl));
    eprintln!("[bench_lookup] {}/{variant} done", scale.name);
    scalar_ns
}

/// Chunk width of the registry-free service row's instrumented pass and
/// of the mixed-VN and cached batch rows.
const PCTL_BATCH_CHUNK: usize = 512;

/// The probe set as service packets, the VNID cycling per packet.
fn vn_cycled_packets(probes: &[u32]) -> Vec<(VnId, u32)> {
    probes
        .iter()
        .enumerate()
        .map(|(i, &ip)| ((i % FAMILY_K) as VnId, ip))
        .collect()
}

/// `(p50, p99)` of the live `vr_service_lookup_ns` histogram each call
/// feeds — the service's real per-lookup distribution, timer-free on
/// the measuring loop.
fn live_percentiles(snapshot: Option<TelemetrySnapshot>) -> (Option<f64>, Option<f64>) {
    snapshot
        .and_then(|s| {
            s.histogram("vr_service_lookup_ns")
                .map(|h| (Some(h.p50 as f64), Some(h.p99 as f64)))
        })
        .unwrap_or((None, None))
}

/// Measures `lookup_batch_mixed` over the merged family's trie — the walk
/// every service call runs — on the service rows' packets, at
/// [`PCTL_BATCH_CHUNK`] keys a call, and returns its ns/lookup: the
/// reference of the service and sharded rows, so it is timed the way
/// they are (the same iteration floor and back-to-back repeats).
fn push_mixed(rows: &mut Vec<Row>, scale: &Scale<'_>, merged_jump: &JumpTrie) -> f64 {
    let packets = vn_cycled_packets(scale.probes);
    let mut out = vec![None; PCTL_BATCH_CHUNK];
    let mut walk = |chunk: &[(VnId, u32)]| {
        let slot = &mut out[..chunk.len()];
        lookup_batch_mixed(merged_jump, std::hint::black_box(chunk), slot);
        slot.iter().filter(|nh| nh.is_some()).count()
    };
    let repeat = (1usize << 16).div_ceil(packets.len().max(1));
    let ns = time_ns_per_lookup(packets.len() * repeat, scale.iters.max(16), || {
        let mut hits = 0usize;
        for _ in 0..repeat {
            hits += packets
                .chunks(PCTL_BATCH_CHUNK)
                .map(&mut walk)
                .sum::<usize>();
        }
        hits
    });
    let mut pass = PercentileSampler::new(PCTL_BATCH_CHUNK);
    for chunk in packets.chunks(PCTL_BATCH_CHUNK) {
        pass.time_chunk(chunk.len(), || walk(chunk));
    }
    let pctl = pass.finish("jump_mixed_pctl");
    rows.push(scale.row("jump_mixed", "batch", Some(PCTL_BATCH_CHUNK), ns, ns, pctl));
    eprintln!("[bench_lookup] {}/jump_mixed done", scale.name);
    ns
}

/// Keys per `ShardedService::process_into` call: `wire_bulk`'s frame.
const SHARDED_CHUNK: usize = 512;

/// Measures the sharded service end to end (snapshot pin, walk,
/// counting) at [`SHARDED_CHUNK`] keys a call. Every service at one
/// scale reuses the same prebuilt merged trie (`with_trie`), so
/// construction never shadows the steady-state measurement; p50/p99 come
/// from the live `vr_service_lookup_ns` histogram.
fn push_sharded(
    rows: &mut Vec<Row>,
    scale: &Scale<'_>,
    merged_jump: &JumpTrie,
    scalar_ref_ns: f64,
) {
    let packets = vn_cycled_packets(scale.probes);
    // Same iteration floor as the other service rows.
    let iters = scale.iters.max(16);
    let mut service = ShardedService::with_trie(merged_jump.clone(), ShardedConfig::default())
        .expect("sharded service construction");
    let mut out = vec![None; SHARDED_CHUNK.min(packets.len()).max(1)];
    // Like the other service rows: back-to-back calls per timed sample
    // so each covers milliseconds.
    let repeat = (1usize << 16).div_ceil(packets.len().max(1));
    let ns = time_ns_per_lookup(packets.len() * repeat, iters, || {
        let mut hits = 0usize;
        for _ in 0..repeat {
            for chunk in packets.chunks(SHARDED_CHUNK) {
                let slot = &mut out[..chunk.len()];
                service.process_into(std::hint::black_box(chunk), slot);
                hits += slot.iter().filter(|nh| nh.is_some()).count();
            }
        }
        hits
    });
    let pctl = live_percentiles(service.telemetry_snapshot());
    let _ = service.shutdown();
    rows.push(scale.row(
        "sharded_jump",
        "service",
        Some(SHARDED_CHUNK),
        ns,
        scalar_ref_ns,
        pctl,
    ));
    eprintln!("[bench_lookup] {}/sharded_jump done", scale.name);
}

/// Measures `LookupService::process` end to end (snapshot pin, walk,
/// counting, the result vector) over the whole probe cycle a call.
fn push_service(
    rows: &mut Vec<Row>,
    scale: &Scale<'_>,
    tables: &[RoutingTable],
    scalar_ref_ns: f64,
) {
    let packets = vn_cycled_packets(scale.probes);
    // Measured three times: registry attached (`service_jump`), detached
    // (`service_jump_notel`), and attached with 1-in-64 call tracing
    // (`service_jump_traced`). The triple makes both observability
    // costs first-class numbers in the artifact — the acceptance
    // budgets are the attached row staying within 5% of the detached
    // one, and the traced row within 5% of the detached one as well.
    // Paired rows differ in exactly one thing — the record or trace
    // path.
    //
    // Service rows get an iteration floor: they carry the overhead
    // acceptance budget, and min-of-N only sees through scheduler noise
    // with enough samples.
    let iters = scale.iters.max(16);
    for &(variant, telemetry, trace_sample) in &[
        ("service_jump", true, None),
        ("service_jump_notel", false, None),
        ("service_jump_traced", true, Some(vr_obs::DEFAULT_SAMPLE)),
    ] {
        let cfg = ServiceConfig {
            telemetry,
            trace_sample,
            ..ServiceConfig::default()
        };
        let mut service = LookupService::new(tables.to_vec(), cfg).expect("service construction");
        // One process() call spans only tens of µs. Time runs of
        // `repeat` back-to-back calls so each sample covers
        // milliseconds and the min converges on steady state.
        let repeat = (1usize << 16).div_ceil(packets.len().max(1));
        let ns = time_ns_per_lookup(packets.len() * repeat, iters, || {
            let mut hits = 0usize;
            for _ in 0..repeat {
                hits += service
                    .process(std::hint::black_box(&packets))
                    .iter()
                    .filter(|nh| nh.is_some())
                    .count();
            }
            hits
        });
        // Attached rows: every call has been feeding
        // vr_service_lookup_ns the whole run; its quantiles are the
        // service's real per-lookup distribution. The registry-free
        // control has no histogram to read, so it gets a *separate*
        // detached chunk-granularity pass — run after the throughput
        // timing above, so the per-chunk timer reads never touch the
        // ns_per_lookup column that carries the overhead budget.
        let pctl = if telemetry {
            live_percentiles(service.telemetry_snapshot())
        } else {
            service_percentile_pass(&mut service, &packets, repeat)
        };
        let _ = service.shutdown();
        rows.push(scale.row(
            variant,
            "service",
            Some(packets.len()),
            ns,
            scalar_ref_ns,
            pctl,
        ));
        eprintln!("[bench_lookup] {}/{variant} done", scale.name);
    }
}

/// Detached percentile pass for the registry-free service control:
/// drives `process` in [`PCTL_BATCH_CHUNK`]-wide chunks through a
/// [`PercentileSampler`]. The chunk spans the whole call, result
/// vector included, so these quantiles sit above the attached rows'
/// `vr_service_lookup_ns` numbers.
fn service_percentile_pass(
    service: &mut LookupService,
    packets: &[(VnId, u32)],
    repeat: usize,
) -> (Option<f64>, Option<f64>) {
    let mut pass = PercentileSampler::new(PCTL_BATCH_CHUNK);
    for _ in 0..repeat.max(1) {
        for chunk in packets.chunks(PCTL_BATCH_CHUNK) {
            pass.time_chunk(chunk.len(), || {
                service
                    .process(std::hint::black_box(chunk))
                    .iter()
                    .filter(|nh| nh.is_some())
                    .count()
            });
        }
    }
    pass.finish("service_notel_pctl")
}

/// Maps a row's variant to the row its speedup compares against: service
/// and sharded rows against the same scale's `jump_mixed` batch walk —
/// the walk each call runs — and every other row against itself.
fn speedup_base(variant: &str) -> &str {
    match variant {
        "service_jump" | "service_jump_notel" | "service_jump_traced" | "sharded_jump" => {
            "jump_mixed"
        }
        v => v,
    }
}

fn run_scale(
    rows: &mut Vec<Row>,
    scale: &'static str,
    spec: &TableSpec,
    probe_count: usize,
    iters: usize,
    reps: usize,
) {
    let table = spec.generate().unwrap();
    // The `unibit` row is the paper's uni-bit trie (§V-D): the one pointer
    // trie, `MergedTrie`, at K = 1. The variant keeps the paper's name so
    // CI's row matrix and `BENCH_lookup.json` keep their keys.
    let unibit = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
    let pushed = unibit.leaf_pushed();
    let jump = JumpTrie::from_table(&table);

    // Per-VN datapath inputs: a K-way merged family resolved through
    // `lookup_vn`, cycling the VNID so every
    // NHI-vector column is exercised.
    let family = FamilySpec {
        prefixes_per_table: spec.prefixes,
        ..FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
    }
    .generate()
    .unwrap();
    let merged_jump = JumpTrie::from_tables(&family).unwrap();

    // Probe set: perturbed prefix addresses cycled to `probe_count`, so
    // walks reach realistic depths instead of missing at the root.
    let seeds: Vec<u32> = table.prefixes().map(|p| p.addr()).collect();
    let probes: Vec<u32> = (0..probe_count)
        .map(|i| seeds[i % seeds.len()] ^ (i as u32).wrapping_mul(0x9E37_79B9) >> 24)
        .collect();

    let scale = Scale {
        name: scale,
        table_prefixes: spec.prefixes,
        probes: &probes,
        iters,
    };
    // The whole measurement sequence runs `reps` times, minutes apart in
    // wall-clock, and each row keeps its fastest repetition. On shared
    // runners the noise arrives in multi-second bursts that inflate every
    // sample of whichever variant is being timed; repetitions separated
    // by the rest of the sequence are the only way min-timing can see
    // through a burst longer than one row's measurement window.
    let mut best: Vec<Row> = Vec::new();
    for rep in 0..reps.max(1) {
        let mut pass: Vec<Row> = Vec::new();
        push_backend::<1>(&mut pass, &scale, "unibit", &unibit);
        push_backend::<1>(&mut pass, &scale, "leaf_pushed", &pushed);
        push_backend::<1>(&mut pass, &scale, "jump", &jump);
        push_backend::<FAMILY_K>(&mut pass, &scale, "merged_jump_vn", &merged_jump);
        let mixed_ns = push_mixed(&mut pass, &scale, &merged_jump);
        push_service(&mut pass, &scale, &family, mixed_ns);
        push_sharded(&mut pass, &scale, &merged_jump, mixed_ns);
        if best.is_empty() {
            best = pass;
        } else {
            for (b, p) in best.iter_mut().zip(pass) {
                if p.ns_per_lookup < b.ns_per_lookup {
                    *b = p;
                }
            }
        }
        eprintln!(
            "[bench_lookup] {} rep {}/{} done",
            scale.name,
            rep + 1,
            reps.max(1)
        );
    }

    // Re-derive throughput and speedups from the merged minima so each
    // ratio compares rows from a consistent timing floor.
    let base_ns: Vec<(&'static str, f64)> = best
        .iter()
        .filter(|r| r.mode == "scalar" || r.variant == "jump_mixed")
        .map(|r| (r.variant, r.ns_per_lookup))
        .collect();
    for row in &mut best {
        row.packets_per_sec = 1e9 / row.ns_per_lookup;
        let base = speedup_base(row.variant);
        if let Some(&(_, ns)) = base_ns.iter().find(|(v, _)| *v == base) {
            row.speedup_vs_scalar = ns / row.ns_per_lookup;
        }
    }
    rows.append(&mut best);
}

/// The `large` scale: 1 048 576 prefixes under `keys` uniform draws from
/// `SkewedTraffic`'s pool of one destination per prefix, so the key set
/// covers the table and the working set is the whole structure, not the
/// L2-resident paths a cycled probe set leaves behind: the serving walk's
/// scalar row at the scale where it pays its misses.
fn run_large(rows: &mut Vec<Row>, keys: usize, iters: usize) {
    let prefixes = 1 << 20;
    let table = TableSpec {
        prefixes,
        ..TableSpec::paper_worst_case(2012)
    }
    .generate()
    .unwrap();
    let jump = JumpTrie::from_table(&table);
    let probes: Vec<u32> =
        SkewedTraffic::new(SkewedSpec::uniform(1, 2012), std::slice::from_ref(&table))
            .expect("skewed traffic")
            .pairs(keys)
            .into_iter()
            .map(|(_, dst)| dst)
            .collect();
    let scale = Scale {
        name: "large",
        table_prefixes: prefixes,
        probes: &probes,
        iters,
    };
    push_backend::<1>(rows, &scale, "jump", &jump);
}

/// K of the result-cache rows: the paper's 15-network worst case, so
/// the cached/uncached comparison runs at the scale the ISSUE's
/// acceptance numbers are quoted at (15 × 3,725 prefixes).
const CACHE_K: usize = 15;

/// Chunk width the cached/uncached rows drive batches at.
const CACHE_CHUNK: usize = PCTL_BATCH_CHUNK;

/// Slot count of the benchmarked LPM cache: 2× the engine default, so
/// the ~56k-destination paper-scale working set keeps the direct-mapped
/// collision rate low enough for the ≥ 0.90 Zipf hit-rate promise.
const CACHE_ROW_SLOTS: usize = vr_engine::DEFAULT_CACHE_SLOTS * 2;

/// Result-cache rows at paper scale: a K=15 merged family driven by
/// `vr_net::SkewedTraffic` (uniform and Zipf s = 1.0), each stream
/// measured twice — `jump_mixed` walks every packet through
/// `lookup_batch_mixed`; `cached_jump_mixed` probes the generation-tagged
/// [`LpmCache`] first and walks only the misses, and its
/// `speedup_vs_scalar` is the in-run ratio of the two.
///
/// The recorded hit rate is honest: the cache is warmed on one stream
/// from the distribution, stats are reset, and the rate is taken from a
/// single pass over an independently drawn stream — neither cold misses
/// nor a literal replay of the warmup contaminate it. (The throughput
/// loop then re-runs that second stream, as every row in this file
/// does; only the separately measured rate is reported.)
fn run_cached_rows(rows: &mut Vec<Row>, iters: usize) {
    let family = FamilySpec::paper_worst_case(CACHE_K, 0.5, 2012)
        .generate()
        .unwrap();
    let n = family[0].prefixes().count();
    let jump = JumpTrie::from_tables(&family).unwrap();
    // Any fixed generation works when driving the trie directly.
    const GENERATION: u64 = 1;
    for &(traffic, zipf_s) in &[("uniform", 0.0f64), ("zipf", 1.0)] {
        let spec = if zipf_s > 0.0 {
            SkewedSpec::zipf(CACHE_K, zipf_s, 2012)
        } else {
            SkewedSpec::uniform(CACHE_K, 2012)
        };
        let mut stream = SkewedTraffic::new(spec, &family).expect("skewed traffic");
        // Long enough that even rank-tail destinations are expected at
        // least once per virtual network — the hit rate then measures
        // the steady state, not a half-warmed cache.
        let warm = stream.pairs(1 << 19);
        let packets = stream.pairs(1 << 16);
        let mut out = vec![None; CACHE_CHUNK];

        let uncached_ns = time_ns_per_lookup(packets.len(), iters, || {
            let mut hits = 0usize;
            for chunk in packets.chunks(CACHE_CHUNK) {
                let slot = &mut out[..chunk.len()];
                lookup_batch_mixed(&jump, std::hint::black_box(chunk), slot);
                hits += slot.iter().filter(|nh| nh.is_some()).count();
            }
            hits
        });
        rows.push(Row {
            scale: "paper",
            table_prefixes: n,
            variant: "jump_mixed",
            mode: "batch",
            batch_size: Some(CACHE_CHUNK),
            ns_per_lookup: uncached_ns,
            packets_per_sec: 1e9 / uncached_ns,
            speedup_vs_scalar: 1.0,
            p50_ns: None,
            p99_ns: None,
            traffic: Some(traffic),
            cache_hit_rate: None,
        });

        let mut cache = LpmCache::new(CACHE_ROW_SLOTS).expect("cache construction");
        for chunk in warm.chunks(CACHE_CHUNK) {
            cache.lookup_batch(&jump, GENERATION, chunk, &mut out[..chunk.len()]);
        }
        cache.reset_stats();
        let mut cold = 0usize;
        for chunk in packets.chunks(CACHE_CHUNK) {
            cache.lookup_batch(&jump, GENERATION, chunk, &mut out[..chunk.len()]);
            cold = cold.wrapping_add(out.iter().filter(|nh| nh.is_some()).count());
        }
        assert!(cold != usize::MAX);
        let hit_rate = cache.stats().hit_rate();
        let cached_ns = time_ns_per_lookup(packets.len(), iters, || {
            let mut hits = 0usize;
            for chunk in packets.chunks(CACHE_CHUNK) {
                let slot = &mut out[..chunk.len()];
                cache.lookup_batch(&jump, GENERATION, std::hint::black_box(chunk), slot);
                hits += slot.iter().filter(|nh| nh.is_some()).count();
            }
            hits
        });
        rows.push(Row {
            scale: "paper",
            table_prefixes: n,
            variant: "cached_jump_mixed",
            mode: "batch",
            batch_size: Some(CACHE_CHUNK),
            ns_per_lookup: cached_ns,
            packets_per_sec: 1e9 / cached_ns,
            speedup_vs_scalar: uncached_ns / cached_ns,
            p50_ns: None,
            p99_ns: None,
            traffic: Some(traffic),
            cache_hit_rate: Some(hit_rate),
        });
        eprintln!(
            "[bench_lookup] paper/cached_jump_mixed {traffic}: hit rate {hit_rate:.3}, \
             {uncached_ns:.2} -> {cached_ns:.2} ns/lookup ({:.2}x the uncached walk)",
            uncached_ns / cached_ns
        );
    }
}

/// Packets per `LookupRequest` frame in the wire rows: one span of the
/// service's default width, so each frame is exactly one span (lane 0's,
/// resolved on the connection's own thread).
const WIRE_BATCH: usize = 64;

/// End-to-end serving-tier rows: the same merged-jump datapath the
/// `service_jump` rows measure, but reached through the `vr-wire`
/// loopback socket — codec, CRC, syscalls, and the backend lock all
/// included. `ns_per_lookup` here is offered-load throughput seen by a
/// serial client (one frame in flight); the p50/p99 columns carry the
/// nearest-rank p50/p99 of the answered frames' round trips, divided by
/// the frame's packets. That is transport latency rather than walk time,
/// and an exact sample rather than a histogram bucket bound — compare
/// against service rows' worker-side histograms with both in mind.
fn run_wire_rows(rows: &mut Vec<Row>, scale: &'static str, prefixes: usize, batches: usize) {
    let family = FamilySpec {
        prefixes_per_table: prefixes,
        ..FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
    }
    .generate()
    .unwrap();
    let n = family[0].prefixes().count();
    // About 4096 concrete destinations per VN pool.
    let min_len = family.iter().map(RoutingTable::len).min().unwrap_or(1);
    let expansions = 4096_usize.div_ceil(min_len);
    for &(traffic, s) in &[("uniform", 0.0), ("zipf", 1.0)] {
        let service = LookupService::new(family.clone(), ServiceConfig::default())
            .expect("service construction");
        let server = WireServer::serve_tcp("127.0.0.1:0", service, ServerConfig::default(), None)
            .expect("wire server");
        let addr = server.local_addr().expect("tcp addr");
        let mut client = WireClient::connect_tcp(addr).expect("wire client");
        let spec = SkewedSpec {
            expansions,
            ..SkewedSpec::zipf(FAMILY_K, s, 2012)
        };
        let mut stream = SkewedTraffic::new(spec, &family).expect("skewed traffic");
        let (stats, _) =
            replay(&mut client, &mut stream, batches, WIRE_BATCH).expect("wire replay");
        drop(client);
        drop(server);
        let pps = stats.packets_per_sec();
        let ns = 1e9 / pps.max(f64::MIN_POSITIVE);
        rows.push(Row {
            scale,
            table_prefixes: n,
            variant: "wire_jump",
            mode: "wire",
            batch_size: Some(WIRE_BATCH),
            ns_per_lookup: ns,
            packets_per_sec: pps,
            speedup_vs_scalar: 1.0,
            p50_ns: Some(stats.p50_rtt_ns as f64 / WIRE_BATCH as f64),
            p99_ns: Some(stats.p99_rtt_ns as f64 / WIRE_BATCH as f64),
            traffic: Some(traffic),
            cache_hit_rate: None,
        });
        eprintln!("[bench_lookup] {scale}/wire_jump {traffic}: {pps:.0} packets/sec end to end");
    }
}

/// Cache gate: the Zipf s = 1.0 stream must hit ≥ 90% at paper scale —
/// a property of the cache (slot count against working set), true on any
/// machine. Speed is not gated: since the walk became at most three
/// loads the probe-compact-scatter path is slower than the walk it
/// shortcuts at this scale, so the cached/uncached ratios are recorded in
/// the rows (`speedup_vs_scalar`) and printed by [`run_cached_rows`]; for
/// that reason no service keeps a result cache (ROADMAP item 11).
fn cache_gate(rows: &[Row]) {
    let zipf_cached = rows
        .iter()
        .find(|r| r.variant == "cached_jump_mixed" && r.traffic == Some("zipf"))
        .expect("[bench_lookup] cache gate: missing row cached_jump_mixed/zipf");
    let hit_rate = zipf_cached.cache_hit_rate.unwrap_or(0.0);
    assert!(
        hit_rate >= 0.90,
        "[bench_lookup] cache gate: Zipf s=1.0 hit rate {hit_rate:.3} below 0.90"
    );
    eprintln!("[bench_lookup] cache gate ok: zipf hit rate {hit_rate:.3}");
}

/// `--smoke` telemetry check: runs a small service with the registry
/// attached, scrapes it twice, and fails loudly unless (a) the
/// Prometheus exposition passes structural validation — one `# TYPE`
/// line per family, cumulative buckets, `+Inf == _count` — and (b) no
/// counter moved backwards between the scrapes. The final scrape is
/// written out as `results/TELEMETRY_smoke.prom` / `.json` so the CI
/// `bench-smoke` job can upload real exporter output as artifacts
/// alongside the other generated results.
fn telemetry_smoke() {
    use vr_telemetry::export::{check_prometheus, to_prometheus};
    let family = FamilySpec {
        prefixes_per_table: 256,
        ..FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
    }
    .generate()
    .unwrap();
    let mut service = LookupService::new(family.clone(), ServiceConfig::default())
        .expect("smoke service construction");
    let packets: Vec<(VnId, u32)> = (0..512u32)
        .map(|i| ((i as usize % FAMILY_K) as VnId, i.wrapping_mul(0x9E37_79B9)))
        .collect();
    service.process(&packets);
    let first = service
        .telemetry_snapshot()
        .expect("telemetry on by default");
    service.process(&packets);
    // One publish, so the structured event log the CI step checks holds
    // a generation swap.
    service.publish_tables(family).expect("smoke republish");
    let second = service
        .telemetry_snapshot()
        .expect("telemetry on by default");
    let _ = service.shutdown();
    // Both passes are counted: no service keeps a result cache, so none
    // registers its series.
    assert_eq!(
        second.counter("vr_service_lookups_total"),
        Some(2 * packets.len() as u64),
        "[bench_lookup] telemetry smoke: lookups miscounted"
    );
    assert!(
        !to_prometheus(&second).contains("vr_cache_"),
        "[bench_lookup] telemetry smoke: a service registered a vr_cache_* series"
    );

    let text = to_prometheus(&second);
    if let Err(e) = check_prometheus(&text) {
        panic!("[bench_lookup] telemetry smoke: invalid Prometheus exposition: {e}");
    }
    if let Some(name) = second.first_counter_regression(&first) {
        panic!("[bench_lookup] telemetry smoke: counter {name} regressed between scrapes");
    }
    let out = results_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("[bench_lookup] could not create {}: {e}", out.display());
    }
    if let Err(e) = std::fs::write(out.join("TELEMETRY_smoke.prom"), &text) {
        eprintln!("[bench_lookup] could not write TELEMETRY_smoke.prom: {e}");
    }
    match second.to_json_pretty() {
        Ok(json) => {
            if let Err(e) = std::fs::write(out.join("TELEMETRY_smoke.json"), json) {
                eprintln!("[bench_lookup] could not write TELEMETRY_smoke.json: {e}");
            }
        }
        Err(e) => eprintln!("[bench_lookup] could not serialize telemetry snapshot: {e}"),
    }
    eprintln!(
        "[bench_lookup] telemetry smoke ok: {} counters, {} gauges, {} histograms, {} events",
        second.counters.len(),
        second.gauges.len(),
        second.histograms.len(),
        second.events.events.len(),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = std::env::args().any(|a| a == "--quick");

    let mut rows = Vec::new();
    if smoke {
        // CI harness check: a tiny table and a handful of timed
        // iterations, but the full variant/mode matrix — enough to prove
        // every datapath still builds, runs, and serializes.
        let tiny = TableSpec {
            prefixes: 512,
            ..TableSpec::paper_worst_case(2012)
        };
        run_scale(&mut rows, "smoke", &tiny, 256, 4, 1);
        // The cache's hit-rate floor is quoted at paper scale, so even
        // the smoke run measures the cached rows there — the K=15 family
        // builds in well under a second.
        run_cached_rows(&mut rows, 4);
        // Wire rows ride the smoke matrix at the same tiny scale: they
        // prove the socket path serializes into the artifact, not that
        // it is fast.
        run_wire_rows(&mut rows, "smoke", 512, 100);
        cache_gate(&rows);
        telemetry_smoke();
    } else {
        let (probe_count, iters, reps) = if quick {
            (2_048, 4, 2)
        } else {
            (16_384, 40, 3)
        };
        run_scale(
            &mut rows,
            "paper",
            &TableSpec::paper_worst_case(2012),
            probe_count,
            iters,
            reps,
        );
        // A backbone-scale table whose slabs exceed L2. `run_scale`
        // cycles the same 65 536 probes `iters` = 40 times, so the paths
        // those probes touch stay L2-resident and these rows time the
        // instruction cost of each walk; the `large` scale below times
        // the misses. The full iteration count is kept — min-of-N timing
        // needs samples to find a preemption-free window, and measurement
        // is cheap next to trie construction.
        let backbone = TableSpec {
            prefixes: 262_144,
            ..TableSpec::paper_worst_case(2012)
        };
        run_scale(
            &mut rows,
            "backbone",
            &backbone,
            probe_count * 4,
            iters,
            reps,
        );
        run_large(
            &mut rows,
            if quick { 1 << 16 } else { 1 << 20 },
            iters.min(10),
        );
        run_cached_rows(&mut rows, iters);
        run_wire_rows(&mut rows, "paper", 3725, if quick { 200 } else { 2000 });
        cache_gate(&rows);
    }

    println!(
        "{:<9} {:<18} {:>8} {:>8} {:>12} {:>16} {:>8} {:>9} {:>9}",
        "scale",
        "variant",
        "mode",
        "batch",
        "ns/lookup",
        "packets/sec",
        "speedup",
        "p50_ns",
        "p99_ns"
    );
    let pctl = |v: Option<f64>| v.map_or_else(|| "-".into(), |p| format!("{p:.1}"));
    for r in &rows {
        println!(
            "{:<9} {:<18} {:>8} {:>8} {:>12.2} {:>16.0} {:>7.2}x {:>9} {:>9}",
            r.scale,
            r.variant,
            r.mode,
            r.batch_size.map_or_else(|| "-".into(), |b| b.to_string()),
            r.ns_per_lookup,
            r.packets_per_sec,
            r.speedup_vs_scalar,
            pctl(r.p50_ns),
            pctl(r.p99_ns),
        );
    }

    // BENCH_lookup.json lives at the workspace root, next to README.md.
    // Smoke runs write a separate file so CI can never clobber the
    // committed measurement.
    let file = if smoke {
        "BENCH_lookup_smoke.json"
    } else {
        "BENCH_lookup.json"
    };
    let path = results_dir()
        .parent()
        .map_or_else(|| file.into(), |p| p.join(file));
    match write_json(&path, &rows) {
        Ok(()) => eprintln!("[bench_lookup] wrote {}", path.display()),
        Err(e) => eprintln!("[bench_lookup] could not write {}: {e}", path.display()),
    }
}
