//! Synthetic traffic replay against a live [`crate::WireServer`].
//!
//! Drives a [`crate::WireClient`] with the workspace's standard
//! traffic models (uniform, Zipf, flash-crowd — the same
//! `vr_net::models` generators the in-process benches use, so wire
//! numbers are directly comparable to `bench_lookup` rows) and
//! measures what the paper's consolidation story needs end to end:
//! packets per second through the socket and p50/p99 batch round-trip
//! time. Overload replies are counted, not retried — a replay run at a
//! fixed offered load reports how much of it the server admitted.

use vr_net::{FlashCrowdStream, NetError, NextHop, RoutingTable, SkewedSpec, SkewedTraffic, VnId};
use vr_telemetry::{Histogram, Stopwatch};

use crate::client::WireClient;
use crate::frame::{Message, WireError};

/// Which synthetic workload the replay offers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Uniform draws over the hot set.
    Uniform,
    /// Zipf-skewed draws with exponent `s`.
    Zipf {
        /// Zipf exponent (`s = 0` degenerates to uniform).
        s: f64,
    },
    /// Zipf-skewed draws whose hot set shifts every `phase_len`
    /// packets (cache-adversarial).
    FlashCrowd {
        /// Zipf exponent inside each phase.
        s: f64,
        /// Packets per phase before the hot set shifts.
        phase_len: usize,
    },
}

impl TrafficModel {
    /// Short label for bench rows and logs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TrafficModel::Uniform => "uniform",
            TrafficModel::Zipf { .. } => "zipf",
            TrafficModel::FlashCrowd { .. } => "flash_crowd",
        }
    }
}

/// One replay run's shape.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Workload model.
    pub model: TrafficModel,
    /// Packets per `LookupRequest` frame.
    pub batch_size: usize,
    /// Frames to send.
    pub batches: usize,
    /// Working-set size the model draws from.
    pub hot_k: usize,
    /// Deterministic generator seed.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            model: TrafficModel::Zipf { s: 1.0 },
            batch_size: 64,
            batches: 200,
            hot_k: 4096,
            seed: 0xC0FF_EE00,
        }
    }
}

/// What one replay run measured.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// Frames that came back as `LookupResponse`.
    pub responses: u64,
    /// Packets resolved (sum over responses).
    pub packets: u64,
    /// Frames refused with `Overloaded`.
    pub overloaded: u64,
    /// Frames answered with `ErrorReply`.
    pub errors: u64,
    /// Wall time for the whole run, nanoseconds.
    pub elapsed_ns: u64,
    /// Median batch round-trip, nanoseconds (admitted frames only).
    pub p50_rtt_ns: u64,
    /// Tail batch round-trip, nanoseconds.
    pub p99_rtt_ns: u64,
    /// Lowest snapshot generation seen in responses.
    pub min_generation: u64,
    /// Highest snapshot generation seen in responses.
    pub max_generation: u64,
}

impl ReplayStats {
    /// End-to-end resolved packets per second over the run.
    #[must_use]
    pub fn packets_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.packets as f64 * 1e9 / self.elapsed_ns as f64
    }
}

enum Source {
    Skewed(SkewedTraffic),
    Flash(FlashCrowdStream),
}

impl Source {
    fn pairs(&mut self, n: usize) -> Vec<(VnId, u32)> {
        match self {
            Source::Skewed(s) => s.pairs(n),
            Source::Flash(s) => s.pairs(n),
        }
    }
}

fn build_source(
    model: TrafficModel,
    tables: &[RoutingTable],
    hot_k: usize,
    seed: u64,
) -> Result<Source, NetError> {
    // `SkewedSpec`'s first knob is the VN count (must equal
    // `tables.len()`); the working-set size is shaped through
    // `expansions` — concrete destinations materialized per prefix —
    // so `hot_k` becomes a per-VN pool-size target.
    let prefixes = tables
        .iter()
        .map(RoutingTable::len)
        .min()
        .unwrap_or(1)
        .max(1);
    let expansions = hot_k.div_ceil(prefixes).max(1);
    let spec = |s: f64| {
        let mut spec = SkewedSpec::zipf(tables.len(), s, seed);
        spec.expansions = expansions;
        spec
    };
    match model {
        TrafficModel::Uniform => Ok(Source::Skewed(SkewedTraffic::new(spec(0.0), tables)?)),
        TrafficModel::Zipf { s } => Ok(Source::Skewed(SkewedTraffic::new(spec(s), tables)?)),
        TrafficModel::FlashCrowd { s, phase_len } => Ok(Source::Flash(FlashCrowdStream::new(
            spec(s),
            tables,
            phase_len,
        )?)),
    }
}

/// Replays `cfg` through `client`, strictly serially (one frame in
/// flight — RTT numbers are per-batch, undiluted by pipelining).
/// Returns the run's stats plus every response's `(packets, results,
/// generation)` triple so a caller can check them against an oracle
/// after the fact.
///
/// # Errors
/// Traffic-model construction failure (`hot_k`/table mismatch) mapped
/// to [`WireError::Protocol`], or any transport/framing failure.
pub fn replay(
    client: &mut WireClient,
    tables: &[RoutingTable],
    cfg: &ReplayConfig,
) -> Result<(ReplayStats, Vec<ReplayRecord>), WireError> {
    let mut source = build_source(cfg.model, tables, cfg.hot_k, cfg.seed)
        .map_err(|_| WireError::Protocol("traffic model construction failed"))?;
    let rtt = Histogram::detached();
    let run = Stopwatch::start();
    let mut stats = ReplayStats {
        responses: 0,
        packets: 0,
        overloaded: 0,
        errors: 0,
        elapsed_ns: 0,
        p50_rtt_ns: 0,
        p99_rtt_ns: 0,
        min_generation: u64::MAX,
        max_generation: 0,
    };
    let mut records = Vec::new();
    for _ in 0..cfg.batches {
        let packets = source.pairs(cfg.batch_size);
        let frame = Stopwatch::start();
        let reply = client.lookup(&packets)?;
        match reply {
            Message::LookupResponse {
                generation,
                results,
                ..
            } => {
                rtt.record(frame.elapsed_ns());
                stats.responses += 1;
                stats.packets += results.len() as u64;
                stats.min_generation = stats.min_generation.min(generation);
                stats.max_generation = stats.max_generation.max(generation);
                records.push(ReplayRecord {
                    packets,
                    results,
                    generation,
                });
            }
            Message::Overloaded { .. } => stats.overloaded += 1,
            _ => stats.errors += 1,
        }
    }
    stats.elapsed_ns = run.elapsed_ns();
    let rtt_snap = rtt.snapshot("wire_rtt_ns");
    stats.p50_rtt_ns = rtt_snap.p50;
    stats.p99_rtt_ns = rtt_snap.p99;
    if stats.min_generation == u64::MAX {
        stats.min_generation = 0;
    }
    Ok((stats, records))
}

/// One admitted batch, kept for post-run oracle verification.
#[derive(Debug, Clone)]
pub struct ReplayRecord {
    /// The packets as sent.
    pub packets: Vec<(VnId, u32)>,
    /// Per-packet results as received.
    pub results: Vec<Option<NextHop>>,
    /// Generation the server resolved the batch against.
    pub generation: u64,
}
