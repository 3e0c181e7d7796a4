//! Synthetic traffic replay against a live [`crate::WireServer`].
//!
//! Drives a [`crate::WireClient`] with the caller's
//! `vr_net::SkewedTraffic` (the one packet source the in-process benches
//! draw too, so wire numbers are directly comparable to `bench_lookup`
//! rows) and measures end to end: packets per second through the socket
//! and the p50/p99 frame round-trip time, exact order statistics of the
//! answered frames' round trips. Overload replies are counted, not
//! retried — a replay run at a fixed offered load reports how much of it
//! the server admitted.

use vr_net::{NextHop, SkewedTraffic, VnId};
use vr_telemetry::Stopwatch;

use crate::client::WireClient;
use crate::frame::{Message, WireError};

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
    /// Median frame round-trip, nanoseconds: the nearest-rank p50 of the
    /// answered frames' [`ReplayRecord::rtt_ns`] (0 if none was answered).
    pub p50_rtt_ns: u64,
    /// Tail frame round-trip, nanoseconds: the nearest-rank p99 of the
    /// same round trips.
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

/// Sends `frames` lookup frames of `frame_len` packets drawn from
/// `traffic` through `client`, strictly serially (one frame in flight —
/// RTT numbers are per-frame, undiluted by pipelining). Returns the
/// run's stats plus every response's `(packets, results, generation)`
/// triple so a caller can check them against an oracle after the fact.
///
/// # Errors
/// Any transport or framing failure.
pub fn replay(
    client: &mut WireClient,
    traffic: &mut SkewedTraffic,
    frames: usize,
    frame_len: usize,
) -> Result<(ReplayStats, Vec<ReplayRecord>), WireError> {
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
    for _ in 0..frames {
        let packets = traffic.pairs(frame_len);
        let frame = Stopwatch::start();
        let reply = client.lookup(&packets)?;
        match reply {
            Message::LookupResponse {
                generation,
                results,
                ..
            } => {
                let rtt_ns = frame.elapsed_ns();
                stats.responses += 1;
                stats.packets += results.len() as u64;
                stats.min_generation = stats.min_generation.min(generation);
                stats.max_generation = stats.max_generation.max(generation);
                records.push(ReplayRecord {
                    packets,
                    results,
                    generation,
                    rtt_ns,
                });
            }
            Message::Overloaded { .. } => stats.overloaded += 1,
            _ => stats.errors += 1,
        }
    }
    stats.elapsed_ns = run.elapsed_ns();
    let mut rtts: Vec<u64> = records.iter().map(|r| r.rtt_ns).collect();
    rtts.sort_unstable();
    stats.p50_rtt_ns = nearest_rank(&rtts, 0.50);
    stats.p99_rtt_ns = nearest_rank(&rtts, 0.99);
    if stats.min_generation == u64::MAX {
        stats.min_generation = 0;
    }
    Ok((stats, records))
}

/// The nearest-rank `q`-quantile (`q` in (0, 1]) of ascending `sorted`:
/// its ⌈q·n⌉-th smallest value, so always one of the samples (0 when
/// empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
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
    /// The frame's round trip, send to decoded reply, in nanoseconds.
    pub rtt_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerConfig, WireServer};
    use vr_engine::{LookupService, ServiceConfig};
    use vr_net::synth::FamilySpec;
    use vr_net::SkewedSpec;

    #[test]
    fn replay_answers_every_frame_as_the_oracle_does() {
        const FRAMES: usize = 20;
        let tables = FamilySpec {
            prefixes_per_table: 300,
            ..FamilySpec::paper_worst_case(3, 0.5, 61)
        }
        .generate()
        .unwrap();
        let service = LookupService::new(tables.clone(), ServiceConfig::default()).unwrap();
        let server =
            WireServer::serve_tcp("127.0.0.1:0", service, ServerConfig::default(), None).unwrap();
        let mut client = WireClient::connect_tcp(server.local_addr().unwrap()).unwrap();
        let mut traffic = SkewedTraffic::new(SkewedSpec::zipf(3, 1.0, 5), &tables).unwrap();

        let (stats, records) = replay(&mut client, &mut traffic, FRAMES, 16).unwrap();
        assert_eq!(stats.responses, FRAMES as u64);
        assert_eq!(stats.packets, (FRAMES * 16) as u64);
        assert_eq!(stats.overloaded + stats.errors, 0);
        assert_eq!(records.len(), FRAMES);
        for record in &records {
            let want: Vec<Option<NextHop>> = record
                .packets
                .iter()
                .map(|&(vn, dst)| tables[usize::from(vn)].lookup(dst))
                .collect();
            assert_eq!(record.results, want);
        }
        // The quantiles are order statistics: each is some frame's
        // round trip, not a bucket bound.
        for quantile in [stats.p50_rtt_ns, stats.p99_rtt_ns] {
            assert!(records.iter().any(|r| r.rtt_ns == quantile), "{quantile}");
        }
        assert!(stats.p50_rtt_ns <= stats.p99_rtt_ns);
        drop(server);
    }
}
