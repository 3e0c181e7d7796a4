//! Anomaly flight recorder.
//!
//! Keeps a bounded pre-window of recent sampled [`BatchTrace`]s plus
//! the tail of the service's [`EventRing`]. When an anomaly trigger
//! fires — a `WorkerStall` or `AuditRejected` event, a generation lag
//! past the configured threshold, or the live p99 spiking past its
//! EWMA — the recorder freezes the pre-window, keeps capturing a
//! post-window of traces, and dumps the whole episode to
//! `results/flightrec_*.json` in Chrome trace-event object format: the
//! dump opens in `about:tracing`/Perfetto *and* carries the trigger
//! metadata and event tail as extra top-level keys.
//!
//! The recorder is driven at control-plane rate (after `collect_all` /
//! `apply_batch`), never from the per-packet hot path; callers hold it
//! behind a mutex. Timestamps come in from the caller's [`Tracer`](crate::trace::Tracer)
//! epoch — this module never reads a clock of its own (the vr-audit
//! `no-raw-instant` lint covers it).

use crate::chrome::chrome_trace_value;
use crate::trace::BatchTrace;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use vr_telemetry::{EventKind, EventRecord, EventRing};

/// Flight-recorder tuning knobs. (Not serde-derived: the vendored
/// serde stand-in has no `PathBuf` impl, and nothing round-trips the
/// config anyway.)
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Sampled traces retained before a trigger.
    pub pre_window: usize,
    /// Sampled traces captured after a trigger before dumping.
    pub post_window: usize,
    /// `GenerationLag` trigger threshold (publishes the oldest
    /// in-flight batch is behind by).
    pub generation_lag_threshold: u64,
    /// `LatencySpike` fires when an observed p99 exceeds this multiple
    /// of its EWMA.
    pub spike_factor: f64,
    /// EWMA smoothing factor for the p99 baseline (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// p99 observations required before the spike trigger arms (a cold
    /// EWMA would otherwise fire on warmup noise).
    pub min_samples: u64,
    /// Dumps after which the recorder disarms (spam guard).
    pub max_dumps: usize,
    /// Directory the `flightrec_*.json` dumps are written to.
    pub dir: PathBuf,
}

impl FlightConfig {
    /// Default tuning, dumping into `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            pre_window: 64,
            post_window: 16,
            generation_lag_threshold: 8,
            spike_factor: 4.0,
            ewma_alpha: 0.2,
            min_samples: 32,
            max_dumps: 8,
            dir: dir.into(),
        }
    }
}

/// What tripped a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightTrigger {
    /// A `WorkerStall` event (bounded job queue full).
    WorkerStall,
    /// An `AuditRejected` event (publish refused by the audit gate).
    AuditRejected,
    /// Generation lag at or past the configured threshold.
    GenerationLag,
    /// Observed p99 exceeded `spike_factor` × its EWMA.
    LatencySpike,
}

impl FlightTrigger {
    /// Stable name used in dump metadata and file contents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlightTrigger::WorkerStall => "WorkerStall",
            FlightTrigger::AuditRejected => "AuditRejected",
            FlightTrigger::GenerationLag => "GenerationLag",
            FlightTrigger::LatencySpike => "LatencySpike",
        }
    }
}

/// An in-progress frozen episode.
struct Capture {
    trigger: FlightTrigger,
    trigger_ns: u64,
    pre: Vec<BatchTrace>,
    post: Vec<BatchTrace>,
    events: Vec<EventRecord>,
    missed_events: u64,
}

/// Bounded pre/post-window recorder with trigger-driven dumps.
pub struct FlightRecorder {
    cfg: FlightConfig,
    pre: VecDeque<BatchTrace>,
    recent_events: VecDeque<EventRecord>,
    missed_events: u64,
    capture: Option<Capture>,
    event_cursor: u64,
    ewma_p99_ns: f64,
    p99_samples: u64,
    dump_counter: u64,
    dumps: Vec<PathBuf>,
}

/// Events kept for dump context (independent of the trace windows).
const RECENT_EVENTS: usize = 256;

impl FlightRecorder {
    /// Creates a disarmed-on-nothing recorder: it arms immediately and
    /// stays armed until `max_dumps` episodes have been written.
    #[must_use]
    pub fn new(cfg: FlightConfig) -> Self {
        Self {
            pre: VecDeque::with_capacity(cfg.pre_window.max(1)),
            recent_events: VecDeque::with_capacity(RECENT_EVENTS),
            missed_events: 0,
            capture: None,
            event_cursor: 0,
            ewma_p99_ns: 0.0,
            p99_samples: 0,
            dump_counter: 0,
            dumps: Vec::new(),
            cfg,
        }
    }

    /// Whether the recorder still arms new captures.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.capture.is_none() && self.dumps.len() < self.cfg.max_dumps
    }

    /// Paths of every dump written so far.
    #[must_use]
    pub fn dumps(&self) -> &[PathBuf] {
        &self.dumps
    }

    /// Feeds one completed sampled trace. Outside a capture it joins
    /// the bounded pre-window; during a capture it fills the
    /// post-window, and a full post-window flushes the dump.
    pub fn observe_trace(&mut self, trace: &BatchTrace) {
        if let Some(capture) = &mut self.capture {
            capture.post.push(trace.clone());
            if capture.post.len() >= self.cfg.post_window {
                self.flush();
            }
            return;
        }
        if self.pre.len() >= self.cfg.pre_window.max(1) {
            self.pre.pop_front();
        }
        self.pre.push_back(trace.clone());
    }

    /// Feeds a live p99 reading (ns) against the EWMA baseline; fires
    /// `LatencySpike` on a `spike_factor`-fold excursion once
    /// `min_samples` readings have warmed the baseline. The spike
    /// reading itself is excluded from the EWMA so one excursion does
    /// not drag the baseline up after it.
    pub fn observe_p99(&mut self, p99_ns: u64, now_ns: u64) {
        let p99 = p99_ns as f64;
        let warmed = self.p99_samples >= self.cfg.min_samples;
        if warmed && self.capture.is_none() && p99 > self.ewma_p99_ns * self.cfg.spike_factor {
            self.trigger(FlightTrigger::LatencySpike, now_ns);
            return;
        }
        self.p99_samples += 1;
        if self.p99_samples == 1 {
            self.ewma_p99_ns = p99;
        } else {
            let a = self.cfg.ewma_alpha.clamp(0.0, 1.0);
            self.ewma_p99_ns = a * p99 + (1.0 - a) * self.ewma_p99_ns;
        }
    }

    /// Drains new events from the ring (cursor-based, so each scan sees
    /// each event exactly once), keeps the tail for dump context, and
    /// fires the event-driven triggers: `WorkerStall`, `AuditRejected`,
    /// and — when `generation_lag` is supplied and at/past threshold —
    /// `GenerationLag`.
    pub fn scan_events(&mut self, ring: &EventRing, generation_lag: Option<u64>, now_ns: u64) {
        let drain = ring.drain_since(self.event_cursor);
        self.event_cursor = drain.next_seq;
        self.missed_events += drain.missed;
        for record in drain.events {
            let trigger = match record.kind {
                EventKind::WorkerStall { .. } => Some(FlightTrigger::WorkerStall),
                EventKind::AuditRejected { .. } => Some(FlightTrigger::AuditRejected),
                _ => None,
            };
            if self.recent_events.len() >= RECENT_EVENTS {
                self.recent_events.pop_front();
            }
            self.recent_events.push_back(record);
            if let Some(t) = trigger {
                self.trigger(t, now_ns);
            }
        }
        if let Some(lag) = generation_lag {
            if lag >= self.cfg.generation_lag_threshold {
                self.trigger(FlightTrigger::GenerationLag, now_ns);
            }
        }
    }

    /// Freezes the pre-window and starts the post-window capture.
    /// Ignored while a capture is already in flight or after
    /// `max_dumps` episodes — one anomaly produces exactly one dump, a
    /// storm produces at most `max_dumps`.
    pub fn trigger(&mut self, trigger: FlightTrigger, now_ns: u64) {
        if !self.armed() {
            return;
        }
        self.capture = Some(Capture {
            trigger,
            trigger_ns: now_ns,
            pre: self.pre.iter().cloned().collect(),
            post: Vec::with_capacity(self.cfg.post_window),
            events: self.recent_events.iter().cloned().collect(),
            missed_events: self.missed_events,
        });
        self.pre.clear();
    }

    /// Flushes an in-flight capture immediately (shutdown path) even if
    /// the post-window is not full. No-op when idle.
    pub fn force_flush(&mut self) {
        if self.capture.is_some() {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let Some(capture) = self.capture.take() else {
            return;
        };
        let path = self.write_dump(&capture);
        match path {
            Ok(path) => self.dumps.push(path),
            Err(e) => eprintln!("[vr-obs] flight recorder could not write dump: {e}"),
        }
    }

    fn write_dump(&mut self, capture: &Capture) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.cfg.dir)
            .map_err(|e| format!("create {}: {e}", self.cfg.dir.display()))?;
        let name = format!("flightrec_{:04}.json", self.dump_counter);
        self.dump_counter += 1;
        let path = self.cfg.dir.join(name);

        let mut traces: Vec<BatchTrace> = capture.pre.clone();
        traces.extend(capture.post.iter().cloned());
        let extra = vec![(
            "flightRecorder".into(),
            Value::Map(vec![
                ("trigger".into(), Value::Str(capture.trigger.name().into())),
                ("trigger_ns".into(), Value::U64(capture.trigger_ns)),
                ("pre_traces".into(), Value::U64(capture.pre.len() as u64)),
                ("post_traces".into(), Value::U64(capture.post.len() as u64)),
                ("missed_events".into(), Value::U64(capture.missed_events)),
                ("events".into(), serde::to_value(&capture.events)),
            ]),
        )];
        let mut value = chrome_trace_value(&traces, extra);
        // Mark the trigger instant on the control row so the episode's
        // cause is visible right in the Perfetto timeline.
        if let Value::Map(top) = &mut value {
            if let Some((_, Value::Seq(events))) = top.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                events.push(Value::Map(vec![
                    ("name".into(), Value::Str(capture.trigger.name().into())),
                    ("cat".into(), Value::Str("flight".into())),
                    ("ph".into(), Value::Str("i".into())),
                    ("ts".into(), Value::F64(capture.trigger_ns as f64 / 1000.0)),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(0)),
                    ("s".into(), Value::Str("g".into())),
                ]));
            }
        }
        let json =
            serde_json::to_string_pretty(&value).map_err(|e| format!("serialize dump: {e:?}"))?;
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Serializable status for the HTTP plane's `/flight` route.
    #[must_use]
    pub fn status(&self) -> FlightStatus {
        FlightStatus {
            armed: self.armed(),
            capturing: self.capture.is_some(),
            active_trigger: self.capture.as_ref().map(|c| c.trigger),
            pre_traces: self.pre.len() as u64,
            p99_samples: self.p99_samples,
            ewma_p99_ns: self.ewma_p99_ns,
            event_cursor: self.event_cursor,
            missed_events: self.missed_events,
            dumps: self.dumps.iter().map(|p| p.display().to_string()).collect(),
        }
    }

    /// Removes stale `flightrec_*.json` files from `dir`. The CI obs
    /// job runs this before seeding an anomaly so "exactly one dump"
    /// is checkable against a clean slate.
    pub fn clean_dir(dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("flightrec_") && name.ends_with(".json") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("armed", &self.armed())
            .field("capturing", &self.capture.is_some())
            .field("pre_traces", &self.pre.len())
            .field("dumps", &self.dumps.len())
            .finish()
    }
}

/// Snapshot of the recorder for `/flight`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightStatus {
    /// Whether a new trigger would start a capture.
    pub armed: bool,
    /// Whether a capture is currently filling its post-window.
    pub capturing: bool,
    /// Trigger of the in-flight capture, if any.
    pub active_trigger: Option<FlightTrigger>,
    /// Traces currently in the pre-window.
    pub pre_traces: u64,
    /// p99 readings folded into the EWMA baseline.
    pub p99_samples: u64,
    /// Current EWMA of the observed p99, in nanoseconds.
    pub ewma_p99_ns: f64,
    /// Event-ring cursor (next sequence this recorder will read).
    pub event_cursor: u64,
    /// Events lost to ring eviction across all scans.
    pub missed_events: u64,
    /// Paths of the dumps written so far.
    pub dumps: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::check_chrome_trace;
    use crate::trace::{Stage, Tracer};
    use vr_telemetry::EventRing;

    fn trace(tracer: &Tracer, seq: u64) -> BatchTrace {
        let mut b = tracer.begin(seq, 8);
        b.mark(Stage::Enqueue);
        b.mark(Stage::Dequeue);
        b.mark(Stage::LaneWalk);
        b.set_worker(0);
        b.mark(Stage::Complete);
        b.finish()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vr_obs_flight_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seeded_stall_produces_exactly_one_valid_dump() {
        let dir = temp_dir("stall");
        let mut rec = FlightRecorder::new(FlightConfig {
            pre_window: 4,
            post_window: 2,
            ..FlightConfig::new(&dir)
        });
        let tracer = Tracer::new(1, 64);
        let ring = EventRing::new(64);

        for seq in 0..6 {
            rec.observe_trace(&trace(&tracer, seq));
        }
        // Two stalls in one scan: the first arms the capture, the
        // second is absorbed by it — exactly one episode.
        ring.publish(vr_telemetry::EventKind::WorkerStall { worker: 1 });
        ring.publish(vr_telemetry::EventKind::WorkerStall { worker: 1 });
        rec.scan_events(&ring, None, tracer.now_ns());
        assert!(rec.status().capturing);
        assert_eq!(
            rec.status().active_trigger,
            Some(FlightTrigger::WorkerStall)
        );

        for seq in 6..8 {
            rec.observe_trace(&trace(&tracer, seq));
        }
        assert_eq!(rec.dumps().len(), 1, "post-window full => one dump");
        assert!(!rec.status().capturing);

        let text = std::fs::read_to_string(&rec.dumps()[0]).unwrap();
        let n = check_chrome_trace(&text).unwrap();
        // 4 pre + 2 post traces × 4 spans each, plus the trigger marker.
        assert_eq!(n, 6 * 4 + 1);
        assert!(text.contains("\"WorkerStall\""));
        assert!(text.contains("\"flightRecorder\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latency_spike_fires_only_after_warmup_and_respects_max_dumps() {
        let dir = temp_dir("spike");
        let mut rec = FlightRecorder::new(FlightConfig {
            post_window: 1,
            min_samples: 8,
            max_dumps: 1,
            ..FlightConfig::new(&dir)
        });
        let tracer = Tracer::new(1, 64);
        // A huge excursion during warmup must NOT fire.
        rec.observe_p99(1_000_000, tracer.now_ns());
        assert!(!rec.status().capturing);
        for _ in 0..8 {
            rec.observe_p99(1_000, tracer.now_ns());
        }
        // Baseline ≈ warmup values; a 4x+ excursion fires.
        rec.observe_p99(10_000_000, tracer.now_ns());
        assert!(rec.status().capturing);
        rec.observe_trace(&trace(&tracer, 0));
        assert_eq!(rec.dumps().len(), 1);
        check_chrome_trace(&std::fs::read_to_string(&rec.dumps()[0]).unwrap()).unwrap();

        // max_dumps reached: the recorder disarms.
        assert!(!rec.armed());
        rec.trigger(FlightTrigger::GenerationLag, tracer.now_ns());
        assert!(!rec.status().capturing);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_lag_threshold_gates_the_trigger() {
        let dir = temp_dir("lag");
        let mut rec = FlightRecorder::new(FlightConfig {
            generation_lag_threshold: 3,
            ..FlightConfig::new(&dir)
        });
        let ring = EventRing::new(8);
        rec.scan_events(&ring, Some(2), 0);
        assert!(!rec.status().capturing, "below threshold");
        rec.scan_events(&ring, Some(3), 0);
        assert!(rec.status().capturing, "at threshold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn force_flush_writes_a_partial_episode() {
        let dir = temp_dir("flush");
        let mut rec = FlightRecorder::new(FlightConfig::new(&dir));
        let tracer = Tracer::new(1, 64);
        rec.observe_trace(&trace(&tracer, 0));
        rec.trigger(FlightTrigger::AuditRejected, tracer.now_ns());
        rec.force_flush();
        assert_eq!(rec.dumps().len(), 1);
        let text = std::fs::read_to_string(&rec.dumps()[0]).unwrap();
        check_chrome_trace(&text).unwrap();
        assert!(text.contains("\"AuditRejected\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_dir_removes_only_flight_dumps() {
        let dir = temp_dir("clean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("flightrec_0000.json"), "{}").unwrap();
        std::fs::write(dir.join("keep.json"), "{}").unwrap();
        FlightRecorder::clean_dir(&dir);
        assert!(!dir.join("flightrec_0000.json").exists());
        assert!(dir.join("keep.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
