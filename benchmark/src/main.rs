//! The repo benchmark. See `README.md` for the workloads, the metrics, what
//! each is expected to move, and the blind spots.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one workload
//!   and prints one JSON object as the last line (the `BENCHMARK.json`
//!   contract): the end-to-end metrics untraced, the per-layer metrics
//!   traced.
//! * without `--workload`, every workload is measured in interleaved
//!   rounds, then traced, and everything is printed; `--repeat-check` does
//!   that twice and holds the two sets against the bounds.
//!
//! Either way `--seconds` is the time each workload is measured for.

mod inputs;
mod layers;
mod measure;
mod procfs;
mod sched;
mod span;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use inputs::{Dist, Inputs, KEYS, UPDATE_HZ};
use measure::{trace_one, Measured, Reported, Traced, SLICES};
use span::Spans;
use workloads::{Kind, Running, Segment, SetupOptions};

const DEFAULT_SEED: u64 = 2012;
/// Interleaved mode: 1 discarded warm-up round + this many measured, each
/// one segment of `--seconds / ROUNDS` per workload.
const ROUNDS: usize = 10;
/// Measured time per workload: ten segments (or slices) of 2 s.
const DEFAULT_SECONDS: f64 = 20.0;
/// Unmeasured lead-in of a one-workload run.
const WARM_UP_S: f64 = 0.5;
/// Set-ups per workload, of which `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// Stop repeating set-up once this much time has gone into it.
const SETUP_BUDGET_S: f64 = 4.0;
/// `--seconds` of a traced pass in the all-workloads mode.
const TRACE_SECONDS: f64 = 10.0;

/// The per-layer metrics of a traced run, in print order.
const PER_LAYER: [(&str, &str); 45] = [
    ("req_p50_us", "us"),
    ("req_tail_us", "us"),
    ("update_ack_p50_us", "us"),
    ("update_ack_p95_us", "us"),
    ("net.family_gen_ms", "ms"),
    ("trie.build_ms", "ms"),
    ("trie.walk_batch_ns", "ns"),
    ("trie.walk_scalar_ns", "ns"),
    ("cache.lookup_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.live_hit_rate", "ratio"),
    ("service.process_ns", "ns"),
    ("service.handoff_ns", "ns"),
    ("service.queue_stalls", "count"),
    ("sharded.process_ns", "ns"),
    ("sharded.scatter_ns", "ns"),
    ("control.apply_batch_us", "us"),
    ("control.coalesce_us", "us"),
    ("control.remerges", "count"),
    ("control.alpha_final", "ratio"),
    ("frame.encode_req_ns.16", "ns"),
    ("frame.decode_req_ns.16", "ns"),
    ("frame.encode_resp_ns.16", "ns"),
    ("frame.decode_resp_ns.16", "ns"),
    ("frame.encode_req_ns.512", "ns"),
    ("frame.decode_req_ns.512", "ns"),
    ("frame.encode_resp_ns.512", "ns"),
    ("frame.decode_resp_ns.512", "ns"),
    ("frame.crc_ns_per_kib", "ns"),
    ("frame.bytes_per_lookup", "B"),
    ("wire.socket_ns_per_frame", "ns"),
    ("wire.syscalls_per_frame", "count"),
    ("wire.ctx_switches_per_frame", "count"),
    ("wire.shed_total", "count"),
    ("power.sweep_points", "count"),
    ("power.max_model_error_pct", "%"),
    ("power.build_share", "ratio"),
    ("layers.crosscheck_gap_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.inputs_s", "s"),
    ("bench.spans", "count"),
    ("process.peak_rss_mb", "MB"),
    ("process.cpu_s", "s"),
    ("process.threads", "count"),
];

const USAGE: &str = "usage: vr-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
[--quick] [--repeat-check] [--out DIR]
  --workload NAME   measure one workload (wire_small wire_bulk wire_churn svc_scan svc_hot paper_sweep)
                    and print the BENCHMARK.json result object as the last line
  --trace 0|1       with --workload: 0 = end-to-end metrics (default), 1 = per-layer metrics
  --seed N          the only source of randomness (default 2012)
  --seconds S       time each workload is measured for (default 20): one run cut into 10 slices with
                    --workload, 10 interleaved rounds of S/10 without
  --quick           65 536 keys and, without --workload, 1 round of 0.3 s; every correctness check stays on
  --repeat-check    two full sets; exit non-zero if their medians differ by more than a bound in BENCHMARK.json
  --out DIR         output directory, relative to the working directory (default benchmark/out)";

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    trace: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    repeat_check: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        repeat_check: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--trace" => {
                args.trace = value()?
                    .parse::<u8>()
                    .map_err(|e| format!("--trace: {e}"))?
                    != 0
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = s;
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Confines the process to the highest CPU it may use, before any thread
/// exists, so every thread hop of a frame is a local context switch. Done
/// through `taskset -p` on our own pid (the benchmark may not use `unsafe`,
/// so there is no `sched_setaffinity` call). Returns the CPU, or `None` if
/// `taskset` is missing or refused and the run goes on unpinned.
fn pin_to_one_cpu() -> Option<usize> {
    let cpu = procfs::parse_allowed_cpus(&procfs::self_status())?
        .into_iter()
        .max()?;
    let status = std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    let confined = procfs::parse_allowed_cpus(&procfs::self_status())? == [cpu];
    (status.success() && confined).then_some(cpu)
}

fn print_header(args: &Args, nproc: usize, pinned: Option<usize>, mode: &str) {
    println!("# vr-benchmark: {mode}");
    println!(
        "# seed: {}  nproc: {nproc}  pinned_cpu: {}  keys: {}  table family: FamilySpec::paper_worst_case({}, {}, seed)  key pool: expansions = {}",
        args.seed,
        pinned.map_or("null".into(), |c| c.to_string()),
        key_count(args),
        inputs::K,
        inputs::SHARED_FRACTION,
        inputs::EXPANSIONS
    );
}

fn print_metric(workload: &str, m: &Reported) {
    let spread = m.slices.map_or(String::new(), |s| {
        format!(
            "slices: median {:>14.4}  p25 {:>14.4}  p75 {:>14.4}  n {:<4}",
            s.median, s.p25, s.p75, s.n
        )
    });
    println!(
        "{workload:<12} {:<18} {:>16.4} {:<4} {spread} {}",
        m.name, m.value, m.unit, m.alias
    );
}

fn print_measured(m: &Measured) {
    let name = m.kind.name();
    for metric in &m.metrics {
        print_metric(name, metric);
    }
    if m.kind == Kind::PaperSweep {
        println!(
            "{name:<12} {:<18} {:>16.6} s    (= req_p50_us / 1e6)",
            "sweep_s",
            m.value("req_p50_us") / 1e6
        );
    }
    // Printed, and reported per layer by the traced run; not gated.
    for metric in &m.ungated {
        print_metric(name, metric);
    }
    if let Some(late) = m.gen_late_p99_us {
        println!(
            "{name:<12} {:<18} {late:>16.4} us   open-loop update generator; must stay below one period ({} us)",
            "gen_late_p99_us",
            1_000_000 / UPDATE_HZ
        );
    }
    println!(
        "{name:<12} {:<18} {:>16.6}      {} failed of {} attempted",
        "failed_share",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out.push_str("}}");
    out
}

fn key_count(args: &Args) -> usize {
    if args.quick {
        1 << 16
    } else {
        KEYS
    }
}

/// Update batches to draw: enough for every segment at 20/s, the warm-up
/// one, the control row's fixed count, and slack.
fn update_batches(total_s: f64) -> usize {
    (total_s * f64::from(UPDATE_HZ)).ceil() as usize + 128
}

fn setup_options(args: &Args, traced: bool) -> SetupOptions {
    SetupOptions {
        traced,
        out_dir: args.out_dir.clone(),
    }
}

/// One workload, untraced: set up several times, warm up, then one
/// uninterrupted run of `--seconds`, cut into slices afterwards.
fn measure_one(kind: Kind, args: &Args) -> Measured {
    // The sweep takes no keys and no updates; it gets the smallest inputs.
    let (keys, batches) = if kind == Kind::PaperSweep {
        (workloads::SVC_CALL_KEYS, 0)
    } else {
        (key_count(args), update_batches(args.seconds + WARM_UP_S))
    };
    let inputs = Arc::new(Inputs::generate(args.seed, kind.dist(), keys, batches));
    println!("# {}: {}", kind.name(), kind.describe());
    println!(
        "# inputs: {} keys ({}), {} distinct destinations, {} update batches, bench.inputs_s {:.3}",
        inputs.keys.len(),
        inputs.dist.label(),
        inputs.working_set,
        inputs.updates.len(),
        inputs.inputs_s
    );
    let (mut running, setup_s) = measure::set_up(
        kind,
        &inputs,
        &setup_options(args, false),
        SETUP_REPS,
        SETUP_BUDGET_S,
    );
    // A sweep call is longer than the warm-up, and set-up has just made three.
    if kind != Kind::PaperSweep {
        let _ = running.segment(Duration::from_secs_f64(WARM_UP_S), None);
    }
    let run = running.segment(Duration::from_secs_f64(args.seconds), None);
    let finish = running.finish();
    measure::reduce(kind, &[run], SLICES, &setup_s, &finish)
}

fn print_traced(t: &Traced) {
    for &(name, unit) in &PER_LAYER {
        match t.rows.iter().find(|r| r.name == name && r.unit == unit) {
            Some(r) => println!(
                "{:<15} {:<28} {:>16.4} {unit}",
                t.kind.name(),
                name,
                r.value
            ),
            None => println!("{:<15} {:<28} missing", t.kind.name(), name),
        }
    }
    for note in &t.notes {
        println!("{:<15} # {note}", t.kind.name());
    }
}

/// Writes the spans as Chrome trace JSON and runs the repo's own checker
/// over the file. Returns whether the file is acceptable.
fn write_trace(args: &Args, spans: &Spans) -> bool {
    let path = args.out_dir.join("trace.json");
    let json = spans.chrome_json();
    if let Err(e) = std::fs::write(&path, &json) {
        println!("# could not write {}: {e}", path.display());
        return false;
    }
    match vr_obs::check_chrome_trace(&json) {
        Ok(events) => {
            println!(
                "# wrote {} ({events} events of {} spans; vr_obs::check_chrome_trace accepts it)",
                path.display(),
                spans.len()
            );
            true
        }
        Err(e) => {
            println!("# {} fails vr_obs::check_chrome_trace: {e}", path.display());
            false
        }
    }
}

/// `--workload`: the BENCHMARK.json contract.
fn run_single(kind: Kind, args: &Args) -> bool {
    let seconds = args.seconds;
    if !args.trace {
        let measured = measure_one(kind, args);
        print_measured(&measured);
        let metrics: Vec<_> = measured
            .metrics
            .iter()
            .map(|m| (m.name, m.unit, m.value))
            .collect();
        let correct = measured.correct();
        println!(
            "{}",
            result_json(correct, measured.attempted, measured.failed, &metrics)
        );
        return correct;
    }
    let inputs = Arc::new(Inputs::generate(
        args.seed,
        kind.dist(),
        key_count(args),
        update_batches(seconds),
    ));
    println!("# {}: {}", kind.name(), kind.describe());
    let traced = trace_one(kind, &inputs, seconds, &args.out_dir);
    print_traced(&traced);
    let trace_ok = write_trace(args, &traced.spans);
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                unit,
                traced
                    .rows
                    .iter()
                    .find(|r| r.name == name && r.unit == unit)
                    .map_or(f64::NAN, |r| r.value),
            )
        })
        .collect();
    let complete = metrics.iter().all(|m| m.2.is_finite());
    let correct = traced.failed == 0 && trace_ok && complete;
    println!(
        "{}",
        result_json(correct, traced.attempted, traced.failed, &metrics)
    );
    correct
}

/// One full set: every workload in interleaved rounds (a burst of
/// interference is spread over all of them instead of sinking one), then
/// each traced.
fn run_set(args: &Args, rounds: usize, segment_s: f64, traced_too: bool) -> (Vec<Measured>, bool) {
    let total_s = (rounds + 1) as f64 * segment_s + 4.0;
    let uniform = Arc::new(Inputs::generate(
        args.seed,
        Dist::Uniform,
        key_count(args),
        update_batches(total_s),
    ));
    let zipf = Arc::new(Inputs::generate(
        args.seed,
        Dist::Zipf,
        key_count(args),
        update_batches(total_s),
    ));
    let inputs_for = |kind: Kind| {
        if kind.dist() == Dist::Uniform {
            &uniform
        } else {
            &zipf
        }
    };
    println!(
        "# inputs: bench.inputs_s {:.3} (uniform) + {:.3} (zipf); {} distinct destinations",
        uniform.inputs_s, zipf.inputs_s, uniform.working_set
    );
    let opts = setup_options(args, false);
    let reps = if args.quick { 1 } else { SETUP_REPS };
    struct Live {
        kind: Kind,
        running: Box<dyn Running>,
        setup_s: Vec<f64>,
        segments: Vec<Segment>,
    }
    let mut live = Vec::new();
    for kind in Kind::ALL {
        println!("# {}: {}", kind.name(), kind.describe());
        let (running, setup_s) =
            measure::set_up(kind, inputs_for(kind), &opts, reps, SETUP_BUDGET_S);
        live.push(Live {
            kind,
            running,
            setup_s,
            segments: Vec::new(),
        });
    }
    for round in 0..=rounds {
        for Live {
            running, segments, ..
        } in &mut live
        {
            let segment = running.segment(Duration::from_secs_f64(segment_s), None);
            // Round 0 is the warm-up.
            if round > 0 {
                segments.push(segment);
            }
        }
    }
    let mut results = Vec::new();
    for Live {
        kind,
        running,
        setup_s,
        segments,
    } in live
    {
        let finish = running.finish();
        // One slice per segment: the value is the median over the rounds.
        results.push(measure::reduce(kind, &segments, 1, &setup_s, &finish));
    }
    println!(
        "\n## end-to-end (untraced; {rounds} interleaved rounds of {segment_s} s; value = median over the rounds; only items_per_s and setup_s are gated; percentiles without slices are pooled over the rounds)"
    );
    for measured in &results {
        print_measured(measured);
    }
    let mut ok = results.iter().all(Measured::correct);
    if traced_too {
        println!("\n## per-layer (traced pass + isolated passes on the same inputs)");
        let mut kept = Spans::new();
        for kind in Kind::ALL {
            let seconds = if args.quick { 1.0 } else { TRACE_SECONDS };
            let traced = trace_one(kind, inputs_for(kind), seconds, &args.out_dir);
            print_traced(&traced);
            ok &= traced.failed == 0 && traced.rows.iter().all(|r| r.value.is_finite());
            // One file: the smallest-message workload's spans.
            if kind == Kind::WireSmall {
                kept = traced.spans;
            }
        }
        ok &= write_trace(args, &kept);
    }
    (results, ok)
}

/// The bound of each end-to-end metric, read from `BENCHMARK.json` in the
/// working directory: (name, better, bound).
fn read_bounds() -> Result<Vec<(String, String, f64)>, String> {
    use serde::Value;
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Map(top) = serde_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?
    else {
        return Err("BENCHMARK.json: not an object".into());
    };
    let Some((_, Value::Seq(metrics))) = top.iter().find(|(k, _)| k == "end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    let mut bounds = Vec::new();
    for metric in metrics {
        let Value::Map(fields) = metric else {
            return Err("BENCHMARK.json: metric is not an object".into());
        };
        let text = |key: &str| match fields.iter().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => Ok(s.clone()),
            _ => Err(format!("BENCHMARK.json: metric without {key}")),
        };
        let bound = match fields.iter().find(|(k, _)| k == "bound") {
            Some((_, Value::F64(b))) => *b,
            Some((_, Value::U64(b))) => *b as f64,
            _ => return Err("BENCHMARK.json: metric without bound".into()),
        };
        bounds.push((text("name")?, text("better")?, bound));
    }
    Ok(bounds)
}

/// Two sets of the same code must agree within the benchmark's own bounds.
fn repeat_check(first: &[Measured], second: &[Measured]) -> Result<bool, String> {
    let bounds = read_bounds()?;
    let mut ok = true;
    println!("\n## repeat check: second set against first, per workload and end-to-end metric");
    println!(
        "{:<15} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for (name, better, bound) in &bounds {
            let (x, y) = (a.value(name), b.value(name));
            let worse = if better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            // A missing value (NaN) is a breach too.
            let breach = worse.is_nan() || worse > *bound;
            ok &= !breach;
            println!(
                "{:<15} {:<14} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.0}%{}",
                a.kind.name(),
                name,
                100.0 * worse,
                100.0 * bound,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(ok)
}

fn run_all(args: &Args) -> bool {
    let (rounds, segment_s) = if args.quick {
        (1, 0.3)
    } else {
        (ROUNDS, args.seconds / ROUNDS as f64)
    };
    println!("# rounds: 1 warm-up + {rounds} measured  segment: {segment_s} s");
    let (first, mut ok) = run_set(args, rounds, segment_s, true);
    if args.repeat_check {
        println!("\n# second set");
        let (second, second_ok) = run_set(args, rounds, segment_s, false);
        ok &= second_ok;
        match repeat_check(&first, &second) {
            Ok(within) => ok &= within,
            Err(e) => {
                println!("# repeat check impossible: {e}");
                ok = false;
            }
        }
    }
    println!(
        "\n# {}",
        if ok {
            "all checks passed"
        } else {
            "FAILED: see above"
        }
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Before any thread exists.
    let pinned = pin_to_one_cpu();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "cannot create {}: {e} (run from the repository root, or pass --out)",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let ok = match args.workload {
        Some(kind) => {
            print_header(
                &args,
                nproc,
                pinned,
                &format!("workload {} trace {}", kind.name(), u8::from(args.trace)),
            );
            println!(
                "# seconds: {}  slices: {SLICES}  warm-up: {WARM_UP_S} s  set-ups: up to {SETUP_REPS} within {SETUP_BUDGET_S} s",
                args.seconds
            );
            run_single(kind, &args)
        }
        None => {
            print_header(&args, nproc, pinned, "all workloads");
            run_all(&args)
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (one directory up, when the package sits in the
    /// repo) must name exactly what the harness prints.
    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let Value::Map(top) = serde_json::parse(&text).unwrap() else {
            panic!("not an object")
        };
        let list = |key: &str| -> Vec<(String, String)> {
            let Some((_, Value::Seq(items))) = top.iter().find(|(k, _)| k == key) else {
                panic!("no {key}")
            };
            items
                .iter()
                .map(|item| {
                    let Value::Map(fields) = item else {
                        panic!("not an object")
                    };
                    let get = |k: &str| match fields.iter().find(|(f, _)| f == k) {
                        Some((_, Value::Str(s))) => s.clone(),
                        _ => String::new(),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&measure::END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = list("workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        // The driver gates a subset (README, "Spread and bounds"); every
        // name must be one `--workload` accepts, in the harness's order.
        let gated: Vec<String> = Kind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .filter(|name| workloads.contains(name))
            .collect();
        assert_eq!(workloads, gated);
        assert!(workloads.len() >= 2);
    }

    #[test]
    fn result_line_is_json_with_all_digits() {
        let line = result_json(
            true,
            10,
            0,
            &[
                ("items_per_s", "1/s", 652341.123456789),
                ("setup_s", "s", 0.0612),
            ],
        );
        let serde::Value::Map(top) = serde_json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(
            top.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert!(line.contains("652341.123456789"));
    }
}
