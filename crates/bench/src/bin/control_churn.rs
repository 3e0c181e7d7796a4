//! Churn study for the `vr-control` control plane: A/B update
//! throughput (incremental sub-slab patching vs the sanctioned
//! `full_rebuild` clone-and-rebuild fallback) under the paper's ~1 %
//! write mix at paper scale (K=15 × 3,725 prefixes), with
//! oracle-checked mid-churn lookups, the per-batch α / memory-power
//! trajectory, and a forced α-drop phase proving the hysteretic
//! re-merge fires exactly once.
//!
//! `cargo run --release -p vr-bench --bin control_churn` (accepts
//! `--quick` for fewer batches and `--smoke` for a tiny CI-only run
//! that writes `BENCH_control_churn_smoke.json` instead of the
//! committed `BENCH_control_churn.json`). Full and quick runs assert
//! the incremental path clears 5× the naive throughput — the
//! acceptance bar this study exists to demonstrate.

use serde::Serialize;
use std::time::Instant;
use vr_bench::results_dir;
use vr_control::{coalesce, BatchOutcome, ControlConfig, ControlPlane};
use vr_engine::{LookupService, ServiceConfig};
use vr_net::synth::FamilySpec;
use vr_net::{NextHop, RouteUpdate, RoutingTable, UpdateMix, UpdateStream, VnId};
use vr_power::report::write_json;
use vr_telemetry::EventKind;

/// One point of the α / power trajectory.
#[derive(Debug, Serialize)]
struct AlphaPoint {
    batch: usize,
    generation: u64,
    alpha: f64,
    power_delta_w: f64,
    updates_in: usize,
    updates_applied: usize,
    remerged: bool,
}

/// The forced α-drop phase result.
#[derive(Debug, Serialize)]
struct ForcedDrop {
    alpha_before: f64,
    alpha_after_drop: f64,
    generation_before: u64,
    generation_after: u64,
    remerge_events: usize,
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
    incremental_publishes: u64,
    full_rebuild_fallbacks: u64,
    alpha_trajectory: Vec<AlphaPoint>,
    forced_drop: ForcedDrop,
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

/// Applies one coalesced batch to the shadow (oracle) tables.
fn apply_to_shadow(shadow: &mut [RoutingTable], updates: &[RouteUpdate]) {
    for u in updates {
        match *u {
            RouteUpdate::Announce {
                vnid,
                prefix,
                next_hop,
            } => {
                shadow[usize::from(vnid)].insert(prefix, next_hop);
            }
            RouteUpdate::Withdraw { vnid, prefix } => {
                shadow[usize::from(vnid)].remove(&prefix);
            }
        }
    }
}

/// A/B throughput: replays identical pre-drawn batches through a
/// service on each publish path, oracle-checking the incremental one
/// mid-churn. Returns (naive ups, incremental ups, oracle lookups,
/// incremental publishes, fallbacks).
fn ab_throughput(
    tables: &[RoutingTable],
    batches: &[Vec<RouteUpdate>],
    probes_per_batch: usize,
) -> (f64, f64, usize, u64, u64) {
    let service_cfg = |full_rebuild| ServiceConfig {
        workers: 1,
        batch_width: Some(32),
        full_rebuild,
        ..ServiceConfig::default()
    };
    let mut total_updates = 0usize;

    // Naive: the pre-PR behaviour — clone all K tables, rebuild the
    // whole merged JumpTrie, publish. Timed over apply only.
    let mut naive = LookupService::new(tables.to_vec(), service_cfg(true)).expect("naive service");
    let start = Instant::now();
    for batch in batches {
        let (deduped, _) = coalesce(batch);
        total_updates += deduped.len();
        naive.apply_updates(&deduped).expect("naive apply");
    }
    let naive_secs = start.elapsed().as_secs_f64();
    let _ = naive.shutdown();

    // Incremental: dirty-bucket sub-slab patching. Same batches, same
    // coalescer; lookups are oracle-checked against shadow tables
    // *between* timed sections so the check never pollutes the clock.
    let mut shadow = tables.to_vec();
    let mut inc = LookupService::new(tables.to_vec(), service_cfg(false)).expect("inc service");
    // Materialize the incremental plant (merged trie + sub-slabs) before
    // the clock starts: it is a construction-time cost paid once, the
    // per-batch steady state is what the A/B compares.
    let _ = inc.alpha().expect("plant warm-up");
    let mut oracle_checked = 0usize;
    let mut inc_secs = 0.0f64;
    for (i, batch) in batches.iter().enumerate() {
        let (deduped, _) = coalesce(batch);
        let start = Instant::now();
        inc.apply_updates(&deduped).expect("incremental apply");
        inc_secs += start.elapsed().as_secs_f64();

        apply_to_shadow(&mut shadow, &deduped);
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
    assert_eq!(inc.tables(), &shadow[..], "end-state tables diverged");
    let report = inc.shutdown();
    (
        total_updates as f64 / naive_secs,
        total_updates as f64 / inc_secs,
        oracle_checked,
        report.incremental_publishes,
        report.full_rebuilds,
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
    // Floor at 0 keeps the policy quiet: this phase charts drift, the
    // forced-drop phase exercises the trigger.
    let cfg = ControlConfig {
        alpha_floor: 0.0,
        alpha_rearm: 0.0,
        ..ControlConfig::default()
    };
    let mut plane = ControlPlane::new(service, cfg).expect("control plane");
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
            remerged: o.remerged,
        })
        .collect()
}

/// Forced α-drop: withdraw every route of the last VN so the common
/// node set collapses, and prove the armed trigger re-merges exactly
/// once (hysteresis holds it down afterwards).
fn forced_drop(tables: &[RoutingTable]) -> ForcedDrop {
    let service = LookupService::new(
        tables.to_vec(),
        ServiceConfig {
            workers: 1,
            batch_width: Some(32),
            ..ServiceConfig::default()
        },
    )
    .expect("forced-drop service");
    let cfg = ControlConfig {
        alpha_floor: 0.5,
        alpha_rearm: 0.9,
        cooldown_batches: 1,
        ..ControlConfig::default()
    };
    let mut plane = ControlPlane::new(service, cfg).expect("forced-drop plane");
    let alpha_before = plane.service_mut().alpha().expect("alpha");
    let generation_before = plane.service().generation();
    assert!(
        alpha_before >= 0.5,
        "family must start above the floor (α = {alpha_before})"
    );

    let victim = tables.len() - 1;
    let withdrawals: Vec<RouteUpdate> = tables[victim]
        .prefixes()
        .map(|prefix| RouteUpdate::Withdraw {
            vnid: victim as VnId,
            prefix,
        })
        .collect();
    let drop_outcome = plane.apply_batch(&withdrawals).expect("drop batch");
    assert!(drop_outcome.remerged, "α drop below the floor must re-merge");

    // α stays low; three more quiet batches must not re-trigger.
    for i in 0..3u32 {
        let o = plane
            .apply_batch(&[RouteUpdate::Announce {
                vnid: 0,
                prefix: vr_net::Ipv4Prefix::must(0xC633_6400 | (i << 8), 24),
                next_hop: 1,
            }])
            .expect("quiet batch");
        assert!(!o.remerged, "disarmed trigger fired again");
    }

    let snap = plane
        .service()
        .telemetry_snapshot()
        .expect("telemetry on by default");
    let remerge_events = snap
        .events
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RemergeTriggered { .. }))
        .count();
    assert_eq!(remerge_events, 1, "exactly one RemergeTriggered event");
    let generation_after = plane.service().generation();
    assert!(
        generation_after > generation_before,
        "re-merge must bump the generation"
    );
    let alpha_after_drop = drop_outcome.alpha;
    let _ = plane.shutdown();
    ForcedDrop {
        alpha_before,
        alpha_after_drop,
        generation_before,
        generation_after,
        remerge_events,
    }
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

    eprintln!("[control_churn] {scale}: K={k} × {prefixes} prefixes, {batches} batches of {batch_size}");
    let (naive_ups, inc_ups, oracle_checked, inc_publishes, fallbacks) =
        ab_throughput(&tables, &drawn, probes_per_batch);
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
    let drop = forced_drop(&tables);
    eprintln!(
        "[control_churn] forced drop: α {:.3} → {:.3}, generation {} → {}, {} re-merge event(s)",
        drop.alpha_before,
        drop.alpha_after_drop,
        drop.generation_before,
        drop.generation_after,
        drop.remerge_events
    );

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
        incremental_publishes: inc_publishes,
        full_rebuild_fallbacks: fallbacks,
        alpha_trajectory,
        forced_drop: drop,
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
