//! From raw samples to metrics. A workload runs uninterrupted for a segment;
//! the segment is sliced afterwards by the time each request was sent.
//! Throughput and median latency are computed per slice and a metric's value
//! is the median across slices, printed with p25, p75 and n. Tail latency and
//! the latencies of the open-loop update connection are percentiles of all
//! the run's samples pooled. Only throughput and set-up time are gated; the
//! latencies are printed and reported per layer (README, "Spread and
//! bounds").

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::{Inputs, UPDATE_HZ};
use crate::layers::{self, Row};
use crate::procfs;
use crate::span::Spans;
use crate::stats::{percentile, tail_quantile, Summary};
use crate::workloads::{setup, Finish, Kind, Running, Segment, SetupOptions};

/// Slices a one-workload run is cut into: the issue's ten segments.
pub const SLICES: usize = 10;

pub const END_TO_END: [(&str, &str); 2] = [("items_per_s", "1/s"), ("setup_s", "s")];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    /// The metric's value: the median across slices, or a percentile of
    /// the pooled samples.
    pub value: f64,
    /// Median, quartiles and count of the per-slice values; `None` for a
    /// pooled percentile.
    pub slices: Option<Summary>,
    /// What the name means on this workload (the issue's name).
    pub alias: String,
}

/// Everything measured on one workload, untraced.
pub struct Measured {
    pub kind: Kind,
    /// The end-to-end metrics, in `END_TO_END` order.
    pub metrics: Vec<Reported>,
    /// Latencies, printed and reported per layer but not gated:
    /// `req_p50_us` (median across slices), the pooled `req_tail_us`, and
    /// on the churn workload the pooled `update_ack_p50_us` and
    /// `update_ack_p95_us`.
    pub ungated: Vec<Reported>,
    pub attempted: u64,
    pub failed: u64,
    /// Lateness p99 of the open-loop generator, when there is one.
    pub gen_late_p99_us: Option<f64>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        let late_ok = self
            .gen_late_p99_us
            .is_none_or(|late| late < 1e6 / f64::from(UPDATE_HZ));
        self.failed == 0
            && self.attempted > 0
            && late_ok
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .chain(&self.ungated)
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

fn alias(kind: Kind, metric: &str) -> &'static str {
    match (metric, kind) {
        ("items_per_s", Kind::PaperSweep) => "sweep points priced per second",
        ("items_per_s", _) => "lookups_per_s",
        ("req_p50_us", Kind::PaperSweep) => "sweep_s x 1e6: one verify_claims call",
        ("req_p50_us", _) if kind.uses_wire() => "rtt_p50_us: frame send -> matching reply",
        ("req_p50_us", _) => "process call -> return",
        _ => "table generation -> first correct reply, median of the repetitions",
    }
}

fn p99_us(samples: impl Iterator<Item = u64>) -> Option<f64> {
    let mut all: Vec<u64> = samples.collect();
    percentile(&mut all, 0.99).map(|ns| ns as f64 / 1e3)
}

/// One slice of a segment's lookup side.
struct Slice {
    len_ns: u64,
    items: u64,
    lat_ns: Vec<u64>,
}

/// Cuts each segment into `per_segment` equal slices by `Sample::at_ns`.
fn slices_of(kind: Kind, segments: &[Segment], per_segment: usize) -> Vec<Slice> {
    let mut out = Vec::new();
    for segment in segments {
        let samples = &segment.main.samples;
        // A sweep call is as long as a slice: each call is its own slice.
        if kind == Kind::PaperSweep {
            out.extend(samples.iter().map(|s| Slice {
                len_ns: s.lat_ns,
                items: u64::from(s.items),
                lat_ns: vec![s.lat_ns],
            }));
            continue;
        }
        let len_ns = (segment.dur_ns / per_segment as u64).max(1);
        let mut parts: Vec<Slice> = (0..per_segment)
            .map(|_| Slice {
                len_ns,
                items: 0,
                lat_ns: Vec::new(),
            })
            .collect();
        for sample in samples {
            let part = &mut parts[((sample.at_ns / len_ns) as usize).min(per_segment - 1)];
            part.items += u64::from(sample.items);
            part.lat_ns.push(sample.lat_ns);
        }
        out.extend(parts);
    }
    out
}

/// (requests attempted, requests failed) over both connections.
fn tally(segments: &[Segment]) -> (u64, u64) {
    segments
        .iter()
        .flat_map(|s| [Some(&s.main), s.update.as_ref()])
        .flatten()
        .fold((0, 0), |acc, side| {
            (acc.0 + side.requests, acc.1 + side.failed)
        })
}

fn rates(slices: &[Slice]) -> Vec<f64> {
    slices
        .iter()
        .map(|s| s.items as f64 * 1e9 / s.len_ns as f64)
        .collect()
}

/// Items per second across slices.
fn rate_summary(kind: Kind, segments: &[Segment], per_segment: usize) -> Option<Summary> {
    Summary::of(&rates(&slices_of(kind, segments, per_segment)))
}

/// Nearest-rank percentile of pooled samples, in microseconds.
fn pooled_us(name: &'static str, samples: &mut [u64], q: f64, alias: String) -> Option<Reported> {
    percentile(samples, q).map(|ns| Reported {
        name,
        unit: "us",
        value: ns as f64 / 1e3,
        slices: None,
        alias,
    })
}

/// Reduces the segments of one workload to its end-to-end metrics and its
/// ungated latencies.
pub fn reduce(
    kind: Kind,
    segments: &[Segment],
    per_segment: usize,
    setup_s: &[f64],
    finish: &Finish,
) -> Measured {
    let mut slices = slices_of(kind, segments, per_segment);
    let rates = rates(&slices);
    let p50s: Vec<f64> = slices
        .iter_mut()
        .filter_map(|slice| percentile(&mut slice.lat_ns, 0.5))
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let across_slices = |name, unit, per_slice: &[f64]| {
        let summary = Summary::of(per_slice);
        Reported {
            name,
            unit,
            value: summary.map_or(f64::NAN, |s| s.median),
            slices: summary,
            alias: alias(kind, name).into(),
        }
    };
    let metrics = END_TO_END
        .iter()
        .zip([&rates[..], setup_s])
        .map(|(&(name, unit), per_slice)| across_slices(name, unit, per_slice))
        .collect();
    let mut ungated = vec![across_slices("req_p50_us", "us", &p50s)];

    let mut requests: Vec<u64> = slices
        .iter()
        .flat_map(|s| s.lat_ns.iter().copied())
        .collect();
    let (tail_q, tail) = tail_quantile(requests.len());
    let what = match kind {
        Kind::PaperSweep => "verify_claims calls",
        _ if kind.uses_wire() => "frames (rtt)",
        _ => "process calls",
    };
    let n = requests.len();
    ungated.extend(pooled_us(
        "req_tail_us",
        &mut requests,
        tail_q,
        format!("{tail} over {n} {what}"),
    ));
    let updates = || segments.iter().filter_map(|s| s.update.as_ref());
    let mut acks: Vec<u64> = updates()
        .flat_map(|u| u.samples.iter().map(|s| s.lat_ns))
        .collect();
    let n = acks.len();
    for (name, q) in [("update_ack_p50_us", 0.5), ("update_ack_p95_us", 0.95)] {
        let alias = format!("due time -> UpdateAck over {n} batches");
        ungated.extend(pooled_us(name, &mut acks, q, alias));
    }

    // A failure on either connection, or in the after-run checks, fails
    // the run.
    let (attempted, failed) = tally(segments);
    let gen_late_p99_us = p99_us(updates().flat_map(|u| u.late_ns.iter().copied()));
    Measured {
        kind,
        metrics,
        ungated,
        attempted: attempted + finish.checked,
        failed: failed + finish.failed,
        gen_late_p99_us,
    }
}

/// Sets the workload up `reps` times (at least three, fewer than `reps`
/// only once `budget_s` is spent) and keeps the last instance.
pub fn set_up(
    kind: Kind,
    inputs: &Arc<Inputs>,
    opts: &SetupOptions,
    reps: usize,
    budget_s: f64,
) -> (Box<dyn Running>, Vec<f64>) {
    let clock = Instant::now();
    let mut setup_s = Vec::new();
    let mut running: Option<Box<dyn Running>> = None;
    while setup_s.len() < reps.min(3)
        || (setup_s.len() < reps && clock.elapsed().as_secs_f64() < budget_s)
    {
        if let Some(previous) = running.take() {
            let _ = previous.finish();
        }
        let (instance, seconds) = setup(kind, inputs, opts);
        setup_s.push(seconds);
        running = Some(instance);
    }
    (running.expect("set up at least once"), setup_s)
}

/// What a traced run found.
pub struct Traced {
    pub kind: Kind,
    pub rows: Vec<Row>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Spans,
}

/// Length of the turns the untraced and the traced instance take, and how
/// finely each turn is sliced for `trace_overhead_pct`.
const TURN: Duration = Duration::from_secs(1);
const TURN_SLICES: usize = 10;

/// One workload, traced: an untraced instance and a traced one (the
/// program's own batch tracing on, a benchmark span around every call)
/// take turns of one second, `seconds * 0.4` turns each; then every layer
/// is timed in isolation on the same inputs, `seconds / 50` per row.
pub fn trace_one(
    kind: Kind,
    inputs: &Arc<Inputs>,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Traced {
    let options = |traced| SetupOptions {
        traced,
        out_dir: out_dir.to_path_buf(),
    };
    let (mut plain, _) = setup(kind, inputs, &options(false));
    let (mut traced, _) = setup(kind, inputs, &options(true));
    let mut spans = Spans::new();
    // A sweep call is longer than a turn; two pairs of calls must do.
    let (pairs, turn) = if kind == Kind::PaperSweep {
        (2, Duration::ZERO)
    } else {
        (
            (seconds * 0.4).ceil() as usize,
            TURN.min(Duration::from_secs_f64(seconds)),
        )
    };
    if kind != Kind::PaperSweep {
        let _ = plain.segment(turn / 4, None);
        let _ = traced.segment(turn / 4, None);
    }
    let (mut plain_turns, mut traced_turns) = (Vec::new(), Vec::new());
    let before = procfs::counts();
    for _ in 0..pairs {
        plain_turns.push(plain.segment(turn, None));
        traced_turns.push(traced.segment(turn, Some(&mut spans)));
    }
    let after = procfs::counts();
    let threads = std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count);
    let plain_finish = plain.finish();
    let traced_finish = traced.finish();

    let requests = |segments: &[Segment]| segments.iter().map(|s| s.main.requests).sum::<u64>();
    let all_requests = (requests(&plain_turns) + requests(&traced_turns)).max(1) as f64;
    let plain_rate = rate_summary(kind, &plain_turns, TURN_SLICES);
    let traced_rate = rate_summary(kind, &traced_turns, TURN_SLICES);
    // What one request costs: the inverse of the median throughput.
    let per_request = plain_turns.iter().map(|s| s.main.items()).sum::<u64>() as f64
        / requests(&plain_turns).max(1) as f64;
    let request_ns = plain_rate.map_or(f64::NAN, |rate| per_request * 1e9 / rate.median);
    let layers = layers::probe(
        kind,
        inputs,
        Duration::from_secs_f64(seconds / 50.0),
        request_ns,
    );

    let mut rows = layers.rows;
    let mut notes = layers.notes;
    let mut push = |name, unit, value| rows.push(Row { name, unit, value });
    match (plain_rate, traced_rate) {
        (Some(plain), Some(traced)) => {
            push(
                "trace_overhead_pct",
                "%",
                100.0 * (1.0 - traced.median / plain.median),
            );
            notes.push(format!(
                "trace_overhead_pct: untraced {:.1} items/s (slices: p25 {:.1}, p75 {:.1}, n {}), traced {:.1} items/s",
                plain.median, plain.p25, plain.p75, plain.n, traced.median
            ));
        }
        _ => push("trace_overhead_pct", "%", f64::NAN),
    }
    push(
        "wire.syscalls_per_frame",
        "count",
        after.syscalls.saturating_sub(before.syscalls) as f64 / all_requests,
    );
    push(
        "wire.ctx_switches_per_frame",
        "count",
        after.ctx_switches.saturating_sub(before.ctx_switches) as f64 / all_requests,
    );
    push(
        "wire.shed_total",
        "count",
        (plain_finish.counters.shed_total + traced_finish.counters.shed_total) as f64,
    );
    let live = plain_finish.counters.cache.map_or(0.0, |(hits, misses)| {
        hits as f64 / (hits + misses).max(1) as f64
    });
    push("cache.live_hit_rate", "ratio", live);
    // The latencies of the untraced turns: too unsteady on a shared host
    // to gate on, so they are rows here (0 where a workload has no update
    // connection).
    let plain_measured = reduce(kind, &plain_turns, TURN_SLICES, &[], &Finish::default());
    for (name, unit) in [
        ("req_p50_us", "us"),
        ("req_tail_us", "us"),
        ("update_ack_p50_us", "us"),
        ("update_ack_p95_us", "us"),
    ] {
        let found = plain_measured.ungated.iter().find(|m| m.name == name);
        push(name, unit, found.map_or(0.0, |m| m.value));
        if let Some(m) = found {
            notes.push(format!("{name}: {}", m.alias));
        }
    }
    // How late requests were issued: by the open-loop generator where
    // there is one (both instances), else by the traced closed loop.
    let late = plain_measured.gen_late_p99_us.or_else(|| {
        p99_us(
            traced_turns
                .iter()
                .flat_map(|s| s.main.late_ns.iter().copied()),
        )
    });
    push("bench.gen_late_p99_us", "us", late.unwrap_or(f64::NAN));
    push("bench.inputs_s", "s", inputs.inputs_s);
    push("bench.spans", "count", spans.len() as f64);
    push(
        "process.peak_rss_mb",
        "MB",
        procfs::parse_peak_rss_mb(&procfs::self_status()).unwrap_or(0.0),
    );
    push("process.cpu_s", "s", procfs::cpu_seconds());
    push("process.threads", "count", threads as f64);

    for name in [
        "request",
        "wire.lookup",
        "wire.send",
        "wire.recv",
        "wire.apply_updates",
        "service.process",
        "claims.verify_claims",
        "verify",
    ] {
        let (total_ns, count) = spans.total(name);
        if count > 0 {
            notes.push(format!(
                "spans: {name:<22} {count:>8} x mean {:>12.1} ns, self {:>12.1} ns",
                total_ns as f64 / count as f64,
                spans.self_time(name) as f64 / count as f64
            ));
        }
    }
    if let Some((hits, misses)) = plain_finish.counters.cache {
        notes.push(format!(
            "backend after shutdown: cache {hits} hits / {misses} misses, queue stalls {}",
            plain_finish.counters.queue_stalls
        ));
    }
    if let (Some(remerges), Some(alpha)) = (
        plain_finish.counters.remerges,
        plain_finish.counters.alpha_final,
    ) {
        notes.push(format!(
            "control plane after shutdown: {remerges} re-merges, alpha {alpha:.4}"
        ));
    }

    let (a0, f0) = tally(&plain_turns);
    let (a1, f1) = tally(&traced_turns);
    Traced {
        kind,
        rows,
        notes,
        attempted: a0 + a1 + plain_finish.checked + traced_finish.checked,
        failed: f0 + f1 + plain_finish.failed + traced_finish.failed + layers.mismatches,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Sample, Side};

    fn side(samples: Vec<Sample>) -> Side {
        Side {
            requests: samples.len() as u64,
            failed: 0,
            samples,
            late_ns: Vec::new(),
        }
    }

    #[test]
    fn a_run_is_cut_by_send_time_and_the_value_is_the_median_slice() {
        // Four slices of 1 ms; slice i holds i + 1 requests of 10 items,
        // each taking i + 1 us.
        let mut samples = Vec::new();
        for slice in 0..4u64 {
            for request in 0..=slice {
                samples.push(Sample {
                    at_ns: slice * 1_000_000 + request * 10,
                    lat_ns: (slice + 1) * 1000,
                    items: 10,
                });
            }
        }
        let run = Segment {
            dur_ns: 4_000_000,
            main: side(samples),
            update: None,
        };
        let m = reduce(
            Kind::SvcScan,
            &[run],
            4,
            &[3.0, 1.0, 2.0],
            &Finish::default(),
        );
        // 10, 20, 30, 40 items per millisecond.
        assert_eq!(m.value("items_per_s"), 25_000.0);
        assert_eq!(m.value("req_p50_us"), 2.5);
        // Pooled: ten samples, p75 by nearest rank is the eighth.
        assert_eq!(m.value("req_tail_us"), 4.0);
        assert!(m.value("update_ack_p50_us").is_nan());
        assert_eq!(m.value("setup_s"), 2.0);
        assert_eq!((m.attempted, m.failed), (10, 0));
        assert!(m.correct());
    }

    #[test]
    fn acknowledgements_are_pooled_from_the_update_connection() {
        let acks = (0..20u64)
            .map(|i| Sample {
                at_ns: i * 50_000_000,
                lat_ns: (i + 1) * 1_000_000,
                items: 16,
            })
            .collect();
        let run = Segment {
            dur_ns: 1_000_000_000,
            main: side(Vec::new()),
            update: Some(side(acks)),
        };
        let m = reduce(Kind::WireChurn, &[run], SLICES, &[1.0], &Finish::default());
        assert_eq!(m.value("update_ack_p50_us"), 10_000.0);
        assert_eq!(m.value("update_ack_p95_us"), 19_000.0);
        // Twenty update batches attempted, none of them a lookup.
        assert_eq!((m.attempted, m.failed), (20, 0));
        assert!(m.value("items_per_s") == 0.0 && !m.correct());
    }
}
