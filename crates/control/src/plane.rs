//! The [`ControlPlane`] supervisor: churn replay, α-drift monitoring,
//! and audited re-merge republish.
//!
//! Policy lives here; mechanism lives in `vr-engine`. Every batch the
//! supervisor applies goes through three steps:
//!
//! 1. **Coalesce** — last-writer-wins dedup per `(vnid, prefix)`
//!    ([`crate::coalesce`]), so the data plane pays one sub-slab
//!    rebuild per final state, not per intermediate flap.
//! 2. **Apply** — [`LookupService::apply_updates`] patches only the
//!    dirty /16 buckets (or falls back to a full rebuild past the
//!    configured dirty threshold / under `full_rebuild`).
//! 3. **Supervise** — measure α (the merged trie's merging
//!    efficiency), price the memory-footprint drift in watts against
//!    the construction-time baseline, and decide whether a re-merge
//!    republish is due.
//!
//! The re-merge trigger is hysteretic: it arms at `alpha_rearm`, fires
//! once when α sinks below `alpha_floor`, then stays disarmed until α
//! recovers — so a family parked below the floor costs one rebuild,
//! not one per batch. A cooldown bounds the rebuild rate even under
//! oscillating α, and audit rejections are retried a bounded number of
//! times before surfacing as [`ControlError::RemergeFailed`].

use crate::coalesce::{coalesce, CoalesceStats};
use crate::ControlError;
use serde::Serialize;
use vr_engine::{EngineError, LookupService, ServiceReport};
use vr_net::update::parse_update_trace;
use vr_net::{RouteUpdate, UpdateStream};
use vr_obs::FlightRecorder;
use vr_telemetry::{Counter, EventKind, Gauge};

/// Policy knobs of a [`ControlPlane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Re-merge when measured α sinks below this while armed.
    pub alpha_floor: f64,
    /// Re-arm the trigger once α recovers to at least this. Must be
    /// ≥ `alpha_floor`; the gap is the hysteresis band.
    pub alpha_rearm: f64,
    /// Minimum batches between re-merges, bounding rebuild rate.
    pub cooldown_batches: usize,
    /// Attempts against `AuditRejected` before giving up on a re-merge.
    pub remerge_retries: usize,
    /// BRAM primitive used to price the memory footprint.
    pub bram_mode: vr_fpga::BramMode,
    /// Speed grade pricing the footprint (Table III coefficients).
    pub grade: vr_fpga::SpeedGrade,
    /// Operating frequency for the power delta, in MHz.
    pub freq_mhz: f64,
    /// NHI width in bits per next-hop entry when sizing the trie.
    pub nhi_bits: u64,
}

impl Default for ControlConfig {
    /// Paper-flavoured defaults: the α band brackets the paper's low
    /// sweep point (α = 0.2); pricing uses 18 Kb BRAM at the -2
    /// grade's base clock like the reference scenarios.
    fn default() -> Self {
        let grade = vr_fpga::SpeedGrade::Minus2;
        Self {
            alpha_floor: 0.2,
            alpha_rearm: 0.3,
            cooldown_batches: 8,
            remerge_retries: 3,
            bram_mode: vr_fpga::BramMode::K18,
            grade,
            freq_mhz: grade.base_clock_mhz(),
            nhi_bits: 8,
        }
    }
}

impl ControlConfig {
    fn validate(&self) -> Result<(), ControlError> {
        let band = [self.alpha_floor, self.alpha_rearm];
        if band.iter().any(|a| !a.is_finite() || !(0.0..=1.0).contains(a)) {
            return Err(ControlError::InvalidConfig("alpha thresholds must be in [0, 1]"));
        }
        if self.alpha_rearm < self.alpha_floor {
            return Err(ControlError::InvalidConfig("alpha_rearm must be >= alpha_floor"));
        }
        if self.remerge_retries == 0 {
            return Err(ControlError::InvalidConfig("remerge_retries must be >= 1"));
        }
        if !self.freq_mhz.is_finite() || self.freq_mhz <= 0.0 {
            return Err(ControlError::InvalidConfig("freq_mhz must be positive"));
        }
        if self.nhi_bits == 0 {
            return Err(ControlError::InvalidConfig("nhi_bits must be >= 1"));
        }
        Ok(())
    }
}

/// What one supervised batch did, returned by
/// [`ControlPlane::apply_batch`] and accumulated by the replay drivers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchOutcome {
    /// Generation published by the batch (after any re-merge).
    pub generation: u64,
    /// Coalescing result for the raw batch.
    pub coalesce: CoalesceStats,
    /// Measured merging efficiency α after the batch.
    pub alpha: f64,
    /// Watts of BRAM power the current footprint costs over (positive)
    /// or under (negative) the construction-time baseline.
    pub power_delta_w: f64,
    /// Whether this batch triggered a re-merge republish.
    pub remerged: bool,
}

/// Control-plane metric handles, present when the wrapped service has
/// telemetry enabled (they publish into the *service's* registry so
/// one scrape sees both planes).
struct ControlTelemetry {
    batches: Counter,
    updates_in: Counter,
    superseded: Counter,
    remerges: Counter,
    alpha_pm: Gauge,
}

/// Supervisor wrapping a [`LookupService`] with churn-replay and
/// α-drift re-merge policy.
pub struct ControlPlane {
    service: LookupService,
    cfg: ControlConfig,
    /// Hysteresis state: a re-merge may fire only while armed.
    armed: bool,
    /// Batches supervised so far.
    batches: usize,
    /// Batch index of the last re-merge, for the cooldown.
    last_remerge: Option<usize>,
    /// Footprint (bits) of the snapshot live at construction or after
    /// the latest re-merge — the "as-merged" reference the power delta
    /// is priced against.
    baseline_bits: u64,
    remerges: u64,
    telemetry: Option<ControlTelemetry>,
    /// Attached anomaly flight recorder, driven once per supervised
    /// batch (see [`Self::attach_flight_recorder`]).
    flight: Option<FlightRecorder>,
    /// Trace-ring cursor of the recorder's incremental reads.
    trace_cursor: u64,
}

impl ControlPlane {
    /// Wraps a running service.
    ///
    /// # Errors
    /// Rejects invalid configurations ([`ControlError::InvalidConfig`]).
    pub fn new(service: LookupService, cfg: ControlConfig) -> Result<Self, ControlError> {
        cfg.validate()?;
        let baseline_bits = footprint_bits(&service, cfg.nhi_bits);
        let telemetry = service.metrics().map(|registry| ControlTelemetry {
            batches: registry.counter("vr_control_batches_total"),
            updates_in: registry.counter("vr_control_updates_in_total"),
            superseded: registry.counter("vr_control_updates_superseded_total"),
            remerges: registry.counter("vr_control_remerges_total"),
            alpha_pm: registry.gauge("vr_control_alpha_pm"),
        });
        Ok(Self {
            service,
            cfg,
            armed: true,
            batches: 0,
            last_remerge: None,
            baseline_bits,
            remerges: 0,
            telemetry,
            flight: None,
            trace_cursor: 0,
        })
    }

    /// Attaches an anomaly flight recorder. From then on every
    /// [`Self::apply_batch`] tick drains the service's newly completed
    /// sampled traces into the recorder's pre/post windows, feeds the
    /// live batch-latency p99 to the EWMA spike detector, and scans the
    /// event ring (plus the generation-lag gauge) for trigger events —
    /// so a `WorkerStall`, `AuditRejected`, generation-lag, or latency
    /// spike anywhere in the wrapped service freezes and dumps an
    /// episode without any hot-path involvement. Requires the service
    /// to have both `trace_sample` and telemetry configured to be
    /// useful; with either off, the corresponding inputs are simply
    /// never fed.
    pub fn attach_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.flight = Some(recorder);
    }

    /// The attached flight recorder, if any.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable access to the attached flight recorder (e.g. to force a
    /// flush or fire a manual trigger).
    pub fn flight_recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// The wrapped service (e.g. to run lookups mid-churn).
    #[must_use]
    pub fn service(&self) -> &LookupService {
        &self.service
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut LookupService {
        &mut self.service
    }

    /// Re-merges performed so far.
    #[must_use]
    pub fn remerges(&self) -> u64 {
        self.remerges
    }

    /// Coalesces and applies one update batch, then runs the α-drift
    /// policy. An empty batch (or one coalescing to nothing) still
    /// counts against the cooldown clock but publishes nothing.
    ///
    /// # Errors
    /// Propagates service failures; a re-merge whose every retry is
    /// audit-rejected surfaces as [`ControlError::RemergeFailed`]
    /// (the pre-re-merge generation keeps serving).
    pub fn apply_batch(&mut self, updates: &[RouteUpdate]) -> Result<BatchOutcome, ControlError> {
        let (deduped, stats) = coalesce(updates);
        let mut generation = self.service.generation();
        if !deduped.is_empty() {
            generation = self.service.apply_updates(&deduped)?;
        }
        self.batches += 1;
        let alpha = self.service.alpha()?;

        // Hysteresis: fire once on the way down, re-arm on recovery.
        let cooled = self
            .last_remerge
            .is_none_or(|at| self.batches - at >= self.cfg.cooldown_batches);
        let mut remerged = false;
        if self.armed && alpha < self.cfg.alpha_floor && cooled {
            generation = self.remerge_with_retry()?;
            remerged = true;
        } else if !self.armed && alpha >= self.cfg.alpha_rearm {
            self.armed = true;
        }

        let alpha = self.service.alpha()?;
        let power_delta_w = self.power_delta_w();
        if let Some(t) = &self.telemetry {
            t.batches.inc(0);
            t.updates_in.add(0, stats.input as u64);
            t.superseded.add(0, stats.superseded as u64);
            t.alpha_pm.set(alpha_pm(alpha));
        }
        self.drive_flight_recorder();
        Ok(BatchOutcome {
            generation,
            coalesce: stats,
            alpha,
            power_delta_w,
            remerged,
        })
    }

    /// Draws `batches` batches of `per_batch` raw updates from the
    /// stream and applies each, returning per-batch outcomes (the α
    /// trajectory the churn study plots).
    ///
    /// # Errors
    /// Stops at the first failing batch.
    pub fn replay(
        &mut self,
        stream: &mut UpdateStream,
        batches: usize,
        per_batch: usize,
    ) -> Result<Vec<BatchOutcome>, ControlError> {
        (0..batches)
            .map(|_| {
                let batch = stream.batch(per_batch);
                self.apply_batch(&batch)
            })
            .collect()
    }

    /// Parses a text trace ([`parse_update_trace`] format) and replays
    /// it in batches of `batch_size`.
    ///
    /// # Errors
    /// Fails on malformed trace lines or a failing batch;
    /// `batch_size == 0` is rejected.
    pub fn replay_trace(
        &mut self,
        trace: &str,
        batch_size: usize,
    ) -> Result<Vec<BatchOutcome>, ControlError> {
        if batch_size == 0 {
            return Err(ControlError::InvalidConfig("batch_size must be >= 1"));
        }
        let updates = parse_update_trace(trace)?;
        updates
            .chunks(batch_size)
            .map(|chunk| self.apply_batch(chunk))
            .collect()
    }

    /// Watts the current footprint costs relative to the as-merged
    /// baseline (positive: churn made the structure more expensive).
    #[must_use]
    pub fn power_delta_w(&self) -> f64 {
        vr_power::memory_power_delta_w(
            self.cfg.bram_mode,
            self.cfg.grade,
            self.baseline_bits,
            footprint_bits(&self.service, self.cfg.nhi_bits),
            self.cfg.freq_mhz,
        )
    }

    /// Shuts the wrapped service down and returns its final report. An
    /// in-flight flight-recorder capture is flushed first so a trigger
    /// near the end of a run still produces its dump.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        if let Some(rec) = self.flight.as_mut() {
            rec.force_flush();
        }
        self.service.shutdown()
    }

    /// One flight-recorder tick: drain newly completed traces into the
    /// recorder's window, feed the batch-latency p99 to the spike
    /// detector, and scan trigger sources (event ring + generation-lag
    /// gauge). All timestamps come from the tracer's clock so the
    /// recorder never reads time itself; without a tracer there is no
    /// trace window to dump, so the recorder idles.
    fn drive_flight_recorder(&mut self) {
        let Some(rec) = self.flight.as_mut() else {
            return;
        };
        let Some(tracer) = self.service.tracer() else {
            return;
        };
        let now_ns = tracer.now_ns();
        let drain = tracer.drain_since(self.trace_cursor);
        self.trace_cursor = drain.next_seq;
        for trace in &drain.traces {
            rec.observe_trace(trace);
        }
        if let Some(registry) = self.service.metrics() {
            let snap = registry.histogram("vr_service_batch_ns").snapshot("vr_service_batch_ns");
            if snap.count > 0 {
                rec.observe_p99(snap.quantile(0.99), now_ns);
            }
            let lag = registry.gauge("vr_service_generation_lag").value();
            rec.scan_events(registry.events(), Some(lag), now_ns);
        }
    }

    /// One audited re-merge republish with bounded retry. Only
    /// `AuditRejected` is retried — it is the gate this loop exists
    /// for; any other failure propagates immediately.
    fn remerge_with_retry(&mut self) -> Result<u64, ControlError> {
        let mut last = String::new();
        for _ in 0..self.cfg.remerge_retries {
            match self.service.remerge_publish() {
                Ok(generation) => {
                    self.armed = false;
                    self.last_remerge = Some(self.batches);
                    self.remerges += 1;
                    self.baseline_bits = footprint_bits(&self.service, self.cfg.nhi_bits);
                    let alpha = self.service.alpha()?;
                    if let Some(t) = &self.telemetry {
                        t.remerges.inc(0);
                    }
                    if let Some(registry) = self.service.metrics() {
                        registry.events().publish(EventKind::RemergeTriggered {
                            generation,
                            alpha_pm: alpha_pm(alpha),
                        });
                    }
                    return Ok(generation);
                }
                Err(EngineError::AuditRejected(summary)) => last = summary,
                Err(e) => return Err(e.into()),
            }
        }
        Err(ControlError::RemergeFailed {
            attempts: self.cfg.remerge_retries,
            last,
        })
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("cfg", &self.cfg)
            .field("armed", &self.armed)
            .field("batches", &self.batches)
            .field("remerges", &self.remerges)
            .field("baseline_bits", &self.baseline_bits)
            .finish_non_exhaustive()
    }
}

/// Total live-snapshot footprint in bits (root + tail blocks + NHI slab).
fn footprint_bits(service: &LookupService, nhi_bits: u64) -> u64 {
    let snapshot = service.snapshot();
    let (root, tail, nhis) = snapshot.trie.memory_bits(nhi_bits);
    root + tail + nhis
}

/// α as a parts-per-mille integer for gauges and events (1000 = 1.0).
fn alpha_pm(alpha: f64) -> u64 {
    if alpha.is_finite() && alpha > 0.0 {
        (alpha * 1000.0).round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_engine::ServiceConfig;
    use vr_net::update::to_update_trace;
    use vr_net::{RoutingTable, UpdateMix, VnId};

    fn table(lines: &str) -> RoutingTable {
        lines.parse().unwrap()
    }

    fn small_service(tables: Vec<RoutingTable>) -> LookupService {
        LookupService::new(
            tables,
            ServiceConfig {
                workers: 1,
                batch_width: Some(8),
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    fn paired_tables() -> Vec<RoutingTable> {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n172.16.0.0/12 3\n");
        vec![t.clone(), t]
    }

    #[test]
    fn seeded_stall_produces_one_validating_flight_dump() {
        use vr_obs::{check_chrome_trace, FlightConfig, FlightRecorder};

        let dir = std::env::temp_dir().join(format!("vr_control_flight_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // One worker behind a depth-1 queue, and jobs long enough (2^18
        // keys, milliseconds each) to outlast a scheduler time slice: a
        // woken worker that preempts the submitter on a shared CPU cannot
        // finish its job before the submitter runs again, so a burst of
        // submits is guaranteed to find the queue full and publish
        // WorkerStall. (At 4 096 keys a job fit inside one slice and the
        // two threads could run strictly in turn, never stalling.)
        let service = LookupService::new(
            paired_tables(),
            ServiceConfig {
                workers: 1,
                batch_width: Some(8),
                queue_depth: 1,
                trace_sample: Some(1),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut plane = ControlPlane::new(service, ControlConfig::default()).unwrap();
        plane.attach_flight_recorder(FlightRecorder::new(FlightConfig {
            pre_window: 8,
            post_window: 2,
            max_dumps: 1,
            ..FlightConfig::new(&dir)
        }));

        let packets: Vec<(VnId, u32)> = (0..1 << 18).map(|i| (0, 0x0A00_0000 | i)).collect();
        for _ in 0..8 {
            let _ = plane.service_mut().submit(packets.clone());
        }
        let _ = plane.service_mut().collect_all();

        // One control tick sees the stall and freezes the pre-window...
        let _ = plane.apply_batch(&[]).unwrap();
        let status = plane.flight_recorder().unwrap().status();
        assert!(
            status.capturing || status.dumps.len() == 1,
            "seeded stall did not trip the recorder: {status:?}"
        );
        // ...and post-trigger traffic fills the post-window.
        for _ in 0..4 {
            let _ = plane.service_mut().process(&packets[..64]);
            let _ = plane.apply_batch(&[]).unwrap();
        }
        let dumps = plane.flight_recorder().unwrap().dumps().to_vec();
        assert_eq!(dumps.len(), 1, "expected exactly one flight dump");
        let text = std::fs::read_to_string(&dumps[0]).unwrap();
        let events = check_chrome_trace(&text).unwrap();
        assert!(events > 0);
        assert!(text.contains("WorkerStall"), "trigger metadata missing");
        let _ = plane.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_recorder_idles_without_tracer_and_flushes_on_shutdown() {
        use vr_obs::{FlightConfig, FlightRecorder, FlightTrigger};

        let dir = std::env::temp_dir().join(format!("vr_control_flush_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No trace_sample: the drive tick must idle (no timestamps to
        // anchor a window), leaving the recorder armed and empty.
        let mut plane =
            ControlPlane::new(small_service(paired_tables()), ControlConfig::default()).unwrap();
        plane.attach_flight_recorder(FlightRecorder::new(FlightConfig::new(&dir)));
        let _ = plane.apply_batch(&[]).unwrap();
        let status = plane.flight_recorder().unwrap().status();
        assert!(status.armed && !status.capturing && status.dumps.is_empty());

        // A hand-fired trigger mid-capture is flushed by shutdown even
        // though the post-window never fills.
        plane
            .flight_recorder_mut()
            .unwrap()
            .trigger(FlightTrigger::LatencySpike, 1);
        let _ = plane.shutdown();
        let dumped: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(Result::ok).collect())
            .unwrap_or_default();
        assert_eq!(dumped.len(), 1, "shutdown must flush the open capture");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_rejects_bad_bands() {
        let service = small_service(paired_tables());
        let bad = ControlConfig {
            alpha_floor: 0.5,
            alpha_rearm: 0.4,
            ..ControlConfig::default()
        };
        match ControlPlane::new(service, bad) {
            Err(ControlError::InvalidConfig(msg)) => assert!(msg.contains("alpha_rearm")),
            other => panic!("expected config rejection, got {other:?}"),
        }
        for bad in [
            ControlConfig {
                alpha_floor: -0.1,
                ..ControlConfig::default()
            },
            ControlConfig {
                remerge_retries: 0,
                ..ControlConfig::default()
            },
            ControlConfig {
                freq_mhz: 0.0,
                ..ControlConfig::default()
            },
            ControlConfig {
                nhi_bits: 0,
                ..ControlConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn forced_alpha_drop_triggers_exactly_one_remerge() {
        // Two identical tables: α = 1. Withdrawing everything from VN 1
        // collapses the common set, α → 0, and the armed trigger must
        // fire exactly once (hysteresis keeps it disarmed after).
        let tables = paired_tables();
        let plane_cfg = ControlConfig {
            alpha_floor: 0.5,
            alpha_rearm: 0.9,
            cooldown_batches: 1,
            ..ControlConfig::default()
        };
        let mut plane = ControlPlane::new(small_service(tables.clone()), plane_cfg).unwrap();

        let withdrawals: Vec<RouteUpdate> = tables[1]
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        let outcome = plane.apply_batch(&withdrawals).unwrap();
        assert!(outcome.remerged, "α drop below the floor must re-merge");
        assert!(outcome.alpha < 0.5);
        assert_eq!(plane.remerges(), 1);

        // α stays low; further batches must NOT re-trigger.
        for _ in 0..5 {
            let o = plane
                .apply_batch(&[RouteUpdate::Announce {
                    vnid: 0,
                    prefix: "192.0.2.0/24".parse().unwrap(),
                    next_hop: 4,
                }])
                .unwrap();
            assert!(!o.remerged, "disarmed trigger fired again");
        }
        assert_eq!(plane.remerges(), 1);

        // The event ring saw exactly one RemergeTriggered.
        let snap = plane.service().telemetry_snapshot().unwrap();
        let remerge_events = snap
            .events
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RemergeTriggered { .. }))
            .count();
        assert_eq!(remerge_events, 1);
        let report = plane.shutdown();
        assert!(report.swaps >= 2, "update publish + re-merge publish");
    }

    #[test]
    fn recovery_past_rearm_rearms_the_trigger() {
        let tables = paired_tables();
        let plane_cfg = ControlConfig {
            alpha_floor: 0.5,
            alpha_rearm: 0.9,
            cooldown_batches: 1,
            ..ControlConfig::default()
        };
        let mut plane = ControlPlane::new(small_service(tables.clone()), plane_cfg).unwrap();
        let withdrawals: Vec<RouteUpdate> = tables[1]
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        assert!(plane.apply_batch(&withdrawals).unwrap().remerged);

        // Re-announce VN 1 identically: α returns to 1, trigger re-arms.
        let announcements: Vec<RouteUpdate> = tables[1]
            .iter()
            .map(|entry| RouteUpdate::Announce {
                vnid: 1,
                prefix: entry.prefix,
                next_hop: entry.next_hop,
            })
            .collect();
        let o = plane.apply_batch(&announcements).unwrap();
        assert!((o.alpha - 1.0).abs() < 1e-12);
        assert!(!o.remerged);

        // A second collapse now fires a second re-merge.
        let o = plane.apply_batch(&withdrawals).unwrap();
        assert!(o.remerged);
        assert_eq!(plane.remerges(), 2);
        let _ = plane.shutdown();
    }

    #[test]
    fn cooldown_suppresses_back_to_back_remerges() {
        let tables = paired_tables();
        let plane_cfg = ControlConfig {
            alpha_floor: 0.5,
            alpha_rearm: 0.9,
            cooldown_batches: 100,
            ..ControlConfig::default()
        };
        let mut plane = ControlPlane::new(small_service(tables.clone()), plane_cfg).unwrap();
        let withdrawals: Vec<RouteUpdate> = tables[1]
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        let announcements: Vec<RouteUpdate> = tables[1]
            .iter()
            .map(|entry| RouteUpdate::Announce {
                vnid: 1,
                prefix: entry.prefix,
                next_hop: entry.next_hop,
            })
            .collect();
        assert!(plane.apply_batch(&withdrawals).unwrap().remerged);
        // Recover (re-arms), collapse again — still inside the cooldown.
        assert!(!plane.apply_batch(&announcements).unwrap().remerged);
        let o = plane.apply_batch(&withdrawals).unwrap();
        assert!(!o.remerged, "cooldown must suppress the second re-merge");
        assert_eq!(plane.remerges(), 1);
        let _ = plane.shutdown();
    }

    #[test]
    fn replay_trace_round_trips_through_the_plane() {
        let tables = paired_tables();
        let mut stream =
            UpdateStream::new(tables.clone(), UpdateMix::default(), 8, 21).unwrap();
        let raw = stream.batch(40);
        let trace = to_update_trace(&raw);

        let mut plane =
            ControlPlane::new(small_service(tables.clone()), ControlConfig::default()).unwrap();
        let outcomes = plane.replay_trace(&trace, 10).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(
            outcomes.iter().map(|o| o.coalesce.input).sum::<usize>(),
            40
        );
        // End state matches the stream's own tracked tables.
        assert_eq!(plane.service().tables(), stream.tables());
        assert!(plane.replay_trace("", 0).is_err());
        let _ = plane.shutdown();
    }

    #[test]
    fn replay_streams_batches_and_sets_gauges() {
        let tables = paired_tables();
        let mut stream =
            UpdateStream::new(tables.clone(), UpdateMix::default(), 8, 33).unwrap();
        let mut plane =
            ControlPlane::new(small_service(tables), ControlConfig::default()).unwrap();
        let outcomes = plane.replay(&mut stream, 3, 15).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(plane.service().tables(), stream.tables());
        let snap = plane.service().telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_control_batches_total"), Some(3));
        assert_eq!(snap.counter("vr_control_updates_in_total"), Some(45));
        let pm = snap.gauge("vr_control_alpha_pm").unwrap();
        assert!(pm <= 1000);
        let _ = plane.shutdown();
    }

    #[test]
    fn empty_batches_publish_nothing_but_tick_the_clock() {
        let mut plane =
            ControlPlane::new(small_service(paired_tables()), ControlConfig::default()).unwrap();
        let before = plane.service().generation();
        let o = plane.apply_batch(&[]).unwrap();
        assert_eq!(o.generation, before);
        assert_eq!(plane.service().generation(), before);
        assert_eq!(o.coalesce.input, 0);
        let _ = plane.shutdown();
    }

    #[test]
    fn updates_for_unknown_vn_surface_as_engine_errors() {
        let mut plane =
            ControlPlane::new(small_service(paired_tables()), ControlConfig::default()).unwrap();
        let bad = [RouteUpdate::Announce {
            vnid: 9 as VnId,
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: 1,
        }];
        assert!(matches!(
            plane.apply_batch(&bad),
            Err(ControlError::Engine(EngineError::InvalidParameter(_)))
        ));
        let _ = plane.shutdown();
    }

    #[test]
    fn power_delta_is_zero_at_baseline_and_moves_with_footprint() {
        let mut plane =
            ControlPlane::new(small_service(paired_tables()), ControlConfig::default()).unwrap();
        assert!(plane.power_delta_w().abs() < 1e-12);
        // A burst of new /24s, one per /16 bucket, opens 64 blocks: 512 Kib,
        // well past one BRAM's quantum (64 /24s inside one /16 are a
        // single 8 Kib block, which the last BRAM's slack can absorb).
        // Both networks announce them, so α stays above the re-merge
        // floor and the baseline is not re-anchored under the burst.
        let burst: Vec<RouteUpdate> = (0..128u32)
            .map(|i| RouteUpdate::Announce {
                vnid: (i & 1) as VnId,
                prefix: vr_net::Ipv4Prefix::must(0x2D00_0000 | ((i >> 1) << 16), 24),
                next_hop: 3,
            })
            .collect();
        let o = plane.apply_batch(&burst).unwrap();
        assert!(o.power_delta_w > 0.0, "footprint growth must cost watts");
        let _ = plane.shutdown();
    }

    /// The service's two builders (from-scratch at construction, per-bucket
    /// assembly after an update) must publish one footprint for one family,
    /// or the first batch reads as a phantom step in watts.
    #[test]
    fn reannouncing_an_unchanged_route_costs_no_watts() {
        let tables = vr_net::synth::FamilySpec {
            prefixes_per_table: 400,
            ..vr_net::synth::FamilySpec::paper_worst_case(4, 0.5, 2012)
        }
        .generate()
        .unwrap();
        let route = tables[1].iter().next().unwrap();
        let unchanged = [RouteUpdate::Announce {
            vnid: 1,
            prefix: route.prefix,
            next_hop: route.next_hop,
        }];
        let mut plane =
            ControlPlane::new(small_service(tables), ControlConfig::default()).unwrap();
        let o = plane.apply_batch(&unchanged).unwrap();
        assert!(o.power_delta_w.abs() < 1e-9, "phantom delta {} W", o.power_delta_w);
        let _ = plane.shutdown();
    }

    #[test]
    fn alpha_pm_clamps_degenerate_inputs() {
        assert_eq!(alpha_pm(1.0), 1000);
        assert_eq!(alpha_pm(0.25), 250);
        assert_eq!(alpha_pm(-0.5), 0);
        assert_eq!(alpha_pm(f64::NAN), 0);
    }
}
