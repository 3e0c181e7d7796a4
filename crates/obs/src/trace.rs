//! Sampled per-batch stage tracing.
//!
//! A [`Tracer`] mints a `trace_id` for every sampled batch at enqueue
//! time and hands the dispatcher a [`TraceBuilder`] — a small owned
//! recorder that travels *with the job* through the channel, so the
//! worker appends stage spans without ever touching a shared structure
//! on the hot path. The builder keeps one running mark; each
//! [`TraceBuilder::mark`] call closes the span that started at the
//! previous mark, which makes the stage chain contiguous and
//! monotonic by construction (enqueue → dequeue → lane walk →
//! complete). Completed traces return to the tracer's
//! bounded ring, where the HTTP plane reads them at control-plane rate
//! behind a short mutex.
//!
//! All timing goes through [`vr_telemetry::Stopwatch`] — the root
//! `clippy.toml` bans `Instant::now` here as everywhere, so there is
//! exactly one sanctioned clock. Timestamps are nanoseconds since the tracer's
//! epoch (the `Stopwatch` started at construction), which keeps every
//! span of one service on a single comparable timeline.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vr_telemetry::{EventRing, Stopwatch};

/// Default 1-in-N sampling rate: batch sequence numbers divisible by
/// 64 are traced. At the bench's 512-packet batches this records one
/// trace per ~32k packets — far below the 5% overhead budget the
/// `service_jump_traced` bench row enforces.
pub const DEFAULT_SAMPLE: u32 = 64;

/// Default bounded-ring capacity for completed traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// The stages a batch moves through. `Publish` and `ApplyUpdates` are
/// control-plane spans recorded as standalone single-span traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Dispatcher-side: from trace start to the job entering the queue.
    Enqueue,
    /// Worker-side: queue residency, closed when the worker picks the
    /// job up.
    Dequeue,
    /// LPM result-cache probe loop over the batch. No service emits it
    /// since neither keeps a result cache; it stays so stored traces
    /// and the repo benchmark's stage filter keep their meaning.
    CacheProbe,
    /// Trie walk over the whole batch. Named for the lane stepper it
    /// first timed; the name stays so stored traces keep their meaning.
    LaneWalk,
    /// Scatter of walk results back into batch order + cache fill.
    /// Emitted by nothing, like [`Stage::CacheProbe`], and kept for the
    /// same reason.
    Scatter,
    /// Result hand-back: from end of lookup to the completion send.
    Complete,
    /// An RCU table publish (audit + snapshot swap).
    Publish,
    /// A control-plane `apply_updates` call.
    ApplyUpdates,
}

impl Stage {
    /// Stable lowercase name used in exported trace events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "dequeue",
            Stage::CacheProbe => "cache_probe",
            Stage::LaneWalk => "lane_walk",
            Stage::Scatter => "scatter",
            Stage::Complete => "complete",
            Stage::Publish => "publish",
            Stage::ApplyUpdates => "apply_updates",
        }
    }
}

/// One closed stage interval on the tracer's epoch timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Which stage the interval covers.
    pub stage: Stage,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for a stage that closed as it opened,
    /// e.g. the lane walk of an empty batch).
    pub dur_ns: u64,
}

/// A completed per-batch trace: the stage chain plus attribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchTrace {
    /// Tracer-unique id minted at enqueue.
    pub trace_id: u64,
    /// The service's batch sequence number.
    pub seq: u64,
    /// Worker that ran the batch (channel service), if any.
    pub worker: Option<u64>,
    /// Shard that ran the batch (sharded service), if any.
    pub shard: Option<u64>,
    /// Table generation the batch was looked up against.
    pub generation: u64,
    /// Packets in the batch.
    pub packets: u64,
    /// Contiguous stage spans, oldest first.
    pub stages: Vec<StageSpan>,
}

impl BatchTrace {
    /// Epoch-nanosecond start of the trace (0 if it has no spans).
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.stages.first().map_or(0, |s| s.start_ns)
    }

    /// Epoch-nanosecond end of the last span.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.stages
            .last()
            .map_or(0, |s| s.start_ns.saturating_add(s.dur_ns))
    }

    /// Total wall time covered by the stage chain.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.start_ns())
    }

    /// Structural causality check used by tests and the proptest suite:
    /// a worker/shard batch trace must open with `Enqueue`, close with
    /// `Complete`, have contiguous monotonic spans, and carry exactly
    /// one of worker/shard attribution. Control-plane span traces
    /// (`Publish` / `ApplyUpdates`) must be single-span and unattributed.
    ///
    /// # Errors
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let Some(first) = self.stages.first() else {
            return Err(format!("trace {} has no stages", self.trace_id));
        };
        if matches!(first.stage, Stage::Publish | Stage::ApplyUpdates) {
            if self.stages.len() != 1 {
                return Err(format!(
                    "control span trace {} has {} stages",
                    self.trace_id,
                    self.stages.len()
                ));
            }
            if self.worker.is_some() || self.shard.is_some() {
                return Err(format!(
                    "control span trace {} claims worker/shard attribution",
                    self.trace_id
                ));
            }
            return Ok(());
        }
        if first.stage != Stage::Enqueue {
            return Err(format!(
                "trace {} opens with {:?}, not Enqueue",
                self.trace_id, first.stage
            ));
        }
        let last = self.stages.last().expect("non-empty");
        if last.stage != Stage::Complete {
            return Err(format!(
                "trace {} closes with {:?}, not Complete",
                self.trace_id, last.stage
            ));
        }
        let mut cursor = first.start_ns;
        for span in &self.stages {
            if span.start_ns != cursor {
                return Err(format!(
                    "trace {}: span {} starts at {} but previous ended at {}",
                    self.trace_id,
                    span.stage.name(),
                    span.start_ns,
                    cursor
                ));
            }
            cursor = span.start_ns.saturating_add(span.dur_ns);
        }
        match (self.worker, self.shard) {
            (Some(_), None) | (None, Some(_)) => Ok(()),
            (None, None) => Err(format!(
                "trace {} finished without worker/shard attribution",
                self.trace_id
            )),
            (Some(_), Some(_)) => Err(format!(
                "trace {} claims both worker and shard attribution",
                self.trace_id
            )),
        }
    }
}

/// Owned per-batch recorder that rides inside the job through the
/// queue. Creation and completion touch the tracer's mutex; every
/// `mark` in between is plain arithmetic on owned memory.
#[derive(Debug)]
pub struct TraceBuilder {
    epoch: Stopwatch,
    mark_ns: u64,
    trace: BatchTrace,
}

impl TraceBuilder {
    /// Closes the span running since the previous mark (or since
    /// `begin`) and labels it `stage`. Clamped monotonic: a span can
    /// never start before the previous one ended, even if the OS clock
    /// resolution rounds two marks to the same nanosecond.
    pub fn mark(&mut self, stage: Stage) {
        let now = self.epoch.elapsed_ns().max(self.mark_ns);
        self.trace.stages.push(StageSpan {
            stage,
            start_ns: self.mark_ns,
            dur_ns: now - self.mark_ns,
        });
        self.mark_ns = now;
    }

    /// Records which channel-service worker ran the batch.
    pub fn set_worker(&mut self, worker: u64) {
        self.trace.worker = Some(worker);
    }

    /// Records which shard ran the batch.
    pub fn set_shard(&mut self, shard: u64) {
        self.trace.shard = Some(shard);
    }

    /// Records the table generation the batch was served against.
    pub fn set_generation(&mut self, generation: u64) {
        self.trace.generation = generation;
    }

    /// Finalizes the stage chain and returns the completed trace.
    #[must_use]
    pub fn finish(self) -> BatchTrace {
        self.trace
    }
}

struct TracerInner {
    epoch: Stopwatch,
    sample: u32,
    next_trace_id: Mutex<u64>,
    ring: EventRing<BatchTrace>,
}

/// Shared handle to the sampling state and the completed-trace ring.
/// Clones share one epoch, so spans from the dispatcher, every worker,
/// and the control plane land on a single timeline.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Creates a tracer sampling 1-in-`sample` batches (min 1) into a
    /// ring retaining `capacity` completed traces (min 1).
    #[must_use]
    pub fn new(sample: u32, capacity: usize) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                epoch: Stopwatch::start(),
                sample: sample.max(1),
                next_trace_id: Mutex::new(0),
                ring: EventRing::new(capacity),
            }),
        }
    }

    /// The configured 1-in-N sampling rate.
    #[must_use]
    pub fn sample(&self) -> u32 {
        self.inner.sample
    }

    /// Nanoseconds since this tracer's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed_ns()
    }

    /// Whether batch `seq` is in the sample (every `sample`-th batch).
    /// The decision is deterministic in the sequence number so paired
    /// A/B runs trace the same batches.
    #[must_use]
    pub fn should_sample(&self, seq: u64) -> bool {
        seq.is_multiple_of(u64::from(self.inner.sample))
    }

    /// Mints a trace id and opens a builder for batch `seq`. The
    /// builder's first mark should be [`Stage::Enqueue`].
    #[must_use]
    pub fn begin(&self, seq: u64, packets: usize) -> TraceBuilder {
        let trace_id = self.mint_trace_id();
        let mark_ns = self.now_ns();
        TraceBuilder {
            epoch: self.inner.epoch,
            mark_ns,
            trace: BatchTrace {
                trace_id,
                seq,
                worker: None,
                shard: None,
                generation: 0,
                packets: packets as u64,
                stages: Vec::with_capacity(8),
            },
        }
    }

    fn mint_trace_id(&self) -> u64 {
        let mut next = self.inner.next_trace_id.lock();
        let id = *next;
        *next += 1;
        id
    }

    /// Deposits a completed trace into the bounded ring.
    pub fn record(&self, trace: BatchTrace) {
        self.inner.ring.publish(trace);
    }

    /// Records a standalone control-plane span (`Publish` /
    /// `ApplyUpdates`) that started at `start_ns` (from [`Self::now_ns`])
    /// and ends now.
    pub fn record_span(&self, stage: Stage, start_ns: u64, generation: u64) {
        let end = self.now_ns().max(start_ns);
        let trace_id = self.mint_trace_id();
        self.record(BatchTrace {
            trace_id,
            seq: trace_id,
            worker: None,
            shard: None,
            generation,
            packets: 0,
            stages: vec![StageSpan {
                stage,
                start_ns,
                dur_ns: end - start_ns,
            }],
        });
    }

    /// Copies the retained traces out, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let read = self.inner.ring.read_since(0);
        TraceSnapshot {
            sample: self.inner.sample,
            recorded: read.next_seq,
            dropped: read.missed,
            traces: read.items,
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample", &self.inner.sample)
            .field("ring", &self.inner.ring)
            .finish()
    }
}

/// A serializable copy of the completed-trace ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSnapshot {
    /// The tracer's 1-in-N sampling rate.
    pub sample: u32,
    /// Completed traces ever recorded.
    pub recorded: u64,
    /// Traces evicted to stay within capacity.
    pub dropped: u64,
    /// Retained traces, oldest first.
    pub traces: Vec<BatchTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(tracer: &Tracer, seq: u64) -> BatchTrace {
        let mut b = tracer.begin(seq, 16);
        b.mark(Stage::Enqueue);
        b.mark(Stage::Dequeue);
        b.mark(Stage::CacheProbe);
        b.mark(Stage::LaneWalk);
        b.mark(Stage::Scatter);
        b.set_worker(3);
        b.set_generation(7);
        b.mark(Stage::Complete);
        b.finish()
    }

    #[test]
    fn builder_produces_contiguous_monotonic_chain() {
        let tracer = Tracer::new(1, 8);
        let t = finished(&tracer, 5);
        t.validate().unwrap();
        assert_eq!(t.seq, 5);
        assert_eq!(t.worker, Some(3));
        assert_eq!(t.generation, 7);
        assert_eq!(t.packets, 16);
        assert_eq!(t.stages.len(), 6);
        assert_eq!(t.stages[0].stage, Stage::Enqueue);
        assert_eq!(t.stages[5].stage, Stage::Complete);
        for w in t.stages.windows(2) {
            assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
        }
        assert_eq!(t.total_ns(), t.end_ns() - t.start_ns());
    }

    #[test]
    fn validate_rejects_malformed_chains() {
        let tracer = Tracer::new(1, 8);
        let good = finished(&tracer, 0);

        let mut no_stages = good.clone();
        no_stages.stages.clear();
        assert!(no_stages.validate().is_err());

        let mut wrong_open = good.clone();
        wrong_open.stages[0].stage = Stage::Dequeue;
        assert!(wrong_open.validate().is_err());

        let mut wrong_close = good.clone();
        wrong_close.stages.last_mut().unwrap().stage = Stage::Scatter;
        assert!(wrong_close.validate().is_err());

        let mut gap = good.clone();
        gap.stages[2].start_ns += 1;
        assert!(gap.validate().is_err());

        let mut both = good.clone();
        both.shard = Some(1);
        assert!(both.validate().is_err());

        let mut neither = good;
        neither.worker = None;
        assert!(neither.validate().is_err());
    }

    #[test]
    fn sampling_is_deterministic_in_seq() {
        let tracer = Tracer::new(64, 8);
        assert!(tracer.should_sample(0));
        assert!(!tracer.should_sample(1));
        assert!(!tracer.should_sample(63));
        assert!(tracer.should_sample(64));
        assert!(tracer.should_sample(128));
        let every = Tracer::new(1, 8);
        assert!((0..10).all(|s| every.should_sample(s)));
    }

    #[test]
    fn ring_evicts_oldest() {
        let tracer = Tracer::new(1, 4);
        for seq in 0..10 {
            tracer.record(finished(&tracer, seq));
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.recorded, 10);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.traces.len(), 4);
        assert_eq!(snap.traces[0].seq, 6, "oldest retained");
        assert_eq!(snap.traces[3].seq, 9, "newest retained");
    }

    #[test]
    fn control_spans_are_single_span_traces() {
        let tracer = Tracer::new(64, 8);
        let start = tracer.now_ns();
        tracer.record_span(Stage::Publish, start, 42);
        let snap = tracer.snapshot();
        assert_eq!(snap.traces.len(), 1);
        let t = &snap.traces[0];
        t.validate().unwrap();
        assert_eq!(t.stages[0].stage, Stage::Publish);
        assert_eq!(t.generation, 42);
    }
}
