//! Churn study for the `vr-control` control plane: A/B update
//! throughput (incremental dirty-bucket repaints vs cloning the tables and
//! building the whole trie from scratch per batch) under the paper's ~1 %
//! write mix at paper scale (K=15 × 3,725 prefixes), with
//! oracle-checked mid-churn lookups and the per-batch α / memory-power
//! trajectory.
//!
//! `cargo run --release -p vr-bench --bin control_churn` (accepts
//! `--quick` for fewer batches and `--smoke` for a tiny CI-only run
//! that writes `BENCH_control_churn_smoke.json` instead of the
//! committed `BENCH_control_churn.json`). Full and quick runs assert
//! the incremental path clears 5× the naive throughput — the
//! acceptance bar this study exists to demonstrate.

use serde::Serialize;
use vr_bench::results_dir;
use vr_control::{coalesce, BatchOutcome, ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig};
use vr_net::synth::FamilySpec;
use vr_net::{NextHop, RouteUpdate, RoutingTable, UpdateMix, UpdateStream, VnId};
use vr_power::report::write_json;
use vr_telemetry::Stopwatch;
use vr_trie::JumpTrie;

/// One point of the α / power trajectory.
#[derive(Debug, Serialize)]
struct AlphaPoint {
    batch: usize,
    generation: u64,
    alpha: f64,
    power_delta_w: f64,
    updates_in: usize,
    updates_applied: usize,
}

/// The whole study, persisted as `BENCH_control_churn[_smoke].json`.
#[derive(Debug, Serialize)]
struct ChurnStudy {
    scale: &'static str,
    k: usize,
    prefixes_per_table: usize,
    batches: usize,
    batch_size: usize,
    naive_updates_per_sec: f64,
    incremental_updates_per_sec: f64,
    speedup: f64,
    oracle_checked_lookups: usize,
    alpha_trajectory: Vec<AlphaPoint>,
}

/// Deterministic probe set against the *current* shadow tables: one
/// perturbed address per installed prefix, cycled to `count` pairs.
fn probe_set(tables: &[RoutingTable], count: usize, salt: u32) -> Vec<(VnId, u32)> {
    let mut probes = Vec::with_capacity(count);
    let mut vn = 0usize;
    'outer: loop {
        for (v, t) in tables.iter().enumerate() {
            for p in t.prefixes() {
                if probes.len() >= count {
                    break 'outer;
                }
                let scramble = (probes.len() as u32)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(salt);
                probes.push((v as VnId, p.addr() ^ (scramble >> 16)));
                vn = vn.wrapping_add(1);
            }
        }
        if vn == 0 {
            break; // all tables empty
        }
    }
    probes
}

/// A/B throughput: replays identical pre-drawn batches through a
/// service on each update path, oracle-checking the incremental one
/// mid-churn.
///
/// Naive: clone the K tables, apply the batch, merge and build the
/// whole jump trie from scratch, publish it — a batch's cost without an
/// incremental routing state. Incremental: `apply_updates`, which edits the service's merged trie
/// and repaints the dirty buckets over the live trie. At the end both services must serve
/// the same trie. Returns (naive ups, incremental ups, oracle lookups).
fn ab_throughput(
    tables: &[RoutingTable],
    batches: &[Vec<RouteUpdate>],
    probes_per_batch: usize,
) -> (f64, f64, usize) {
    let service_cfg = ServiceConfig {
        workers: 1,
        batch_width: Some(32),
        ..ServiceConfig::default()
    };
    let mut total_updates = 0usize;

    let mut naive = LookupService::new(tables.to_vec(), service_cfg).expect("naive service");
    let mut current = tables.to_vec();
    let watch = Stopwatch::start();
    for batch in batches {
        let (deduped, _) = coalesce(batch);
        total_updates += deduped.len();
        let mut staged = current.clone();
        for update in &deduped {
            update.apply_to(&mut staged);
        }
        naive
            .publish_trie(JumpTrie::from_tables(&staged).expect("naive build"))
            .expect("naive publish");
        current = staged;
    }
    let naive_secs = watch.elapsed_ns() as f64 * 1e-9;

    // Incremental: dirty-bucket repaints. Same batches, same
    // coalescer; lookups are oracle-checked against shadow tables
    // *between* timed sections so the check never pollutes the clock.
    let mut shadow = tables.to_vec();
    let mut inc = LookupService::new(tables.to_vec(), service_cfg).expect("inc service");
    let mut oracle_checked = 0usize;
    let mut inc_secs = 0.0f64;
    for (i, batch) in batches.iter().enumerate() {
        let (deduped, _) = coalesce(batch);
        let watch = Stopwatch::start();
        inc.apply_updates(&deduped).expect("incremental apply");
        inc_secs += watch.elapsed_ns() as f64 * 1e-9;

        for update in &deduped {
            update.apply_to(&mut shadow);
        }
        let probes = probe_set(&shadow, probes_per_batch, i as u32);
        let got = inc.process(&probes);
        for ((vn, addr), nh) in probes.iter().zip(&got) {
            let want: Option<NextHop> = shadow[usize::from(*vn)].lookup(*addr);
            assert_eq!(
                *nh, want,
                "oracle divergence at batch {i}, vn {vn}, addr {addr:#010x}"
            );
        }
        oracle_checked += probes.len();
    }
    assert!(
        inc.snapshot().trie.raw_parts() == naive.snapshot().trie.raw_parts(),
        "end-state tries diverged"
    );
    let _ = naive.shutdown();
    let _ = inc.shutdown();
    (
        total_updates as f64 / naive_secs,
        total_updates as f64 / inc_secs,
        oracle_checked,
    )
}

/// α / power trajectory: a `ControlPlane` replaying a live stream.
fn trajectory(
    tables: &[RoutingTable],
    seed: u64,
    batches: usize,
    batch_size: usize,
) -> Vec<AlphaPoint> {
    let service = LookupService::new(
        tables.to_vec(),
        ServiceConfig {
            workers: 1,
            batch_width: Some(32),
            ..ServiceConfig::default()
        },
    )
    .expect("trajectory service");
    let mut plane = ControlPlane::new(service, ControlConfig::default()).expect("control plane");
    let mut stream = UpdateStream::new(tables.to_vec(), UpdateMix::default(), 16, seed ^ 0x5EED)
        .expect("update stream");
    let outcomes: Vec<BatchOutcome> = plane
        .replay(&mut stream, batches, batch_size)
        .expect("trajectory replay");
    let _ = plane.shutdown();
    outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| AlphaPoint {
            batch: i,
            generation: o.generation,
            alpha: o.alpha,
            power_delta_w: o.power_delta_w,
            updates_in: o.coalesce.input,
            updates_applied: o.coalesce.output,
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = std::env::args().any(|a| a == "--quick");

    // Paper scale: K=15 networks × 3,725 prefixes; a batch is ~1 % of
    // one table (37 updates), the paper's §V-B write-rate assumption.
    let (scale, k, prefixes, batches, probes_per_batch): (&str, usize, usize, usize, usize) =
        if smoke {
            ("smoke", 4, 400, 6, 64)
        } else if quick {
            ("quick", 15, 3725, 20, 128)
        } else {
            ("paper", 15, 3725, 60, 256)
        };
    let batch_size = (prefixes / 100).max(4);

    let spec = FamilySpec {
        prefixes_per_table: prefixes,
        ..FamilySpec::paper_worst_case(k, 0.6, 2026)
    };
    let tables = spec.generate().expect("family generation");
    let mut stream =
        UpdateStream::new(tables.clone(), UpdateMix::default(), 16, 0xC0FFEE).expect("stream");
    let drawn: Vec<Vec<RouteUpdate>> = (0..batches).map(|_| stream.batch(batch_size)).collect();

    eprintln!(
        "[control_churn] {scale}: K={k} × {prefixes} prefixes, {batches} batches of {batch_size}"
    );
    let (naive_ups, inc_ups, oracle_checked) = ab_throughput(&tables, &drawn, probes_per_batch);
    let speedup = inc_ups / naive_ups;
    eprintln!(
        "[control_churn] naive {naive_ups:.0} ups, incremental {inc_ups:.0} ups ({speedup:.1}x), {oracle_checked} oracle lookups clean"
    );
    if !smoke {
        assert!(
            speedup >= 5.0,
            "incremental path must clear 5x naive throughput, got {speedup:.2}x"
        );
    }

    let alpha_trajectory = trajectory(&tables, 2026, batches, batch_size);
    for p in &alpha_trajectory {
        assert!(
            (0.0..=1.0).contains(&p.alpha),
            "alpha out of range at batch {}: {}",
            p.batch,
            p.alpha
        );
    }
    let study = ChurnStudy {
        scale,
        k,
        prefixes_per_table: prefixes,
        batches,
        batch_size,
        naive_updates_per_sec: naive_ups,
        incremental_updates_per_sec: inc_ups,
        speedup,
        oracle_checked_lookups: oracle_checked,
        alpha_trajectory,
    };

    println!(
        "{:<8} {:>4} {:>9} {:>14} {:>14} {:>8} {:>14}",
        "scale", "K", "prefixes", "naive ups", "incr ups", "speedup", "oracle lookups"
    );
    println!(
        "{:<8} {:>4} {:>9} {:>14.0} {:>14.0} {:>7.1}x {:>14}",
        study.scale,
        study.k,
        study.prefixes_per_table,
        study.naive_updates_per_sec,
        study.incremental_updates_per_sec,
        study.speedup,
        study.oracle_checked_lookups
    );

    let file = if smoke {
        "BENCH_control_churn_smoke.json"
    } else {
        "BENCH_control_churn.json"
    };
    let path = results_dir()
        .parent()
        .map_or_else(|| file.into(), |p| p.join(file));
    match write_json(&path, &study) {
        Ok(()) => eprintln!("[control_churn] wrote {}", path.display()),
        Err(e) => eprintln!("[control_churn] could not write {}: {e}", path.display()),
    }
}
