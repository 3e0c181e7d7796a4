//! The [`ControlPlane`] supervisor: churn replay, α and memory-power
//! tracking.
//!
//! Policy lives here; mechanism lives in `vr-engine`. Every batch the
//! supervisor applies goes through three steps:
//!
//! 1. **Coalesce** — last-writer-wins dedup per `(vnid, prefix)`
//!    ([`crate::coalesce`](mod@crate::coalesce)), so the data plane
//!    repaints a route's buckets once per final state, not per
//!    intermediate flap.
//! 2. **Apply** — [`LookupService::apply_updates`] edits the service's
//!    one routing state, its merged trie, and publishes a repaint of the
//!    live trie: the dirty /16 buckets painted from the merged trie, the
//!    rest copied.
//! 3. **Measure** — read α (the merged trie's merging efficiency, kept
//!    incrementally) and price the memory-footprint drift in watts
//!    against the footprint at construction.
//!
//! α is a property of the K tables alone: the merged trie prunes nodes
//! on withdraw, so merging the same tables into the same one engine
//! again would publish a bit-equal structure with the same α. The plane
//! therefore only reports α; regrouping the VNs into several engines is
//! ROADMAP item 8, and report-only.

use crate::coalesce::{coalesce, CoalesceStats};
use crate::ControlError;
use serde::Serialize;
use vr_engine::LookupService;
use vr_net::{RouteUpdate, UpdateStream};
use vr_telemetry::{Counter, Gauge, TelemetrySnapshot};

/// Pricing knobs of a [`ControlPlane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// BRAM primitive used to price the memory footprint.
    pub bram_mode: vr_power::BramMode,
    /// Speed grade pricing the footprint (Table III coefficients).
    pub grade: vr_power::SpeedGrade,
    /// Operating frequency for the power delta, in MHz.
    pub freq_mhz: f64,
    /// NHI width in bits per next-hop entry when sizing the trie.
    pub nhi_bits: u64,
}

impl Default for ControlConfig {
    /// Paper-flavoured defaults: 18 Kb BRAM at the -2 grade's base clock
    /// like the reference scenarios.
    fn default() -> Self {
        let grade = vr_power::SpeedGrade::Minus2;
        Self {
            bram_mode: vr_power::BramMode::K18,
            grade,
            freq_mhz: grade.base_clock_mhz(),
            nhi_bits: 8,
        }
    }
}

impl ControlConfig {
    fn validate(&self) -> Result<(), ControlError> {
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
/// [`ControlPlane::apply_batch`] and accumulated by the replay driver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchOutcome {
    /// Generation live after the batch.
    pub generation: u64,
    /// Coalescing result for the raw batch.
    pub coalesce: CoalesceStats,
    /// Measured merging efficiency α after the batch.
    pub alpha: f64,
    /// Watts of BRAM power the current footprint costs over (positive)
    /// or under (negative) the construction-time baseline.
    pub power_delta_w: f64,
}

/// Control-plane metric handles, present when the wrapped service has
/// telemetry enabled (they publish into the *service's* registry so
/// one scrape sees both planes).
struct ControlTelemetry {
    batches: Counter,
    updates_in: Counter,
    superseded: Counter,
    alpha_pm: Gauge,
}

/// Supervisor wrapping a [`LookupService`] with churn replay and α /
/// memory-power tracking.
pub struct ControlPlane {
    service: LookupService,
    cfg: ControlConfig,
    /// Footprint (bits) of the snapshot live at construction — the
    /// "as-merged" reference the power delta is priced against.
    baseline_bits: u64,
    telemetry: Option<ControlTelemetry>,
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
            alpha_pm: registry.gauge("vr_control_alpha_pm"),
        });
        Ok(Self {
            service,
            cfg,
            baseline_bits,
            telemetry,
        })
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

    /// Retired: the plane no longer republishes on α drift, so this is
    /// always 0. Kept only until the repo benchmark stops reading it
    /// (ROADMAP item 12(c)).
    #[must_use]
    pub fn remerges(&self) -> u64 {
        0
    }

    /// Coalesces and applies one update batch, then measures α and the
    /// power delta. An empty batch (or one coalescing to nothing)
    /// publishes nothing.
    ///
    /// # Errors
    /// Propagates service failures.
    pub fn apply_batch(&mut self, updates: &[RouteUpdate]) -> Result<BatchOutcome, ControlError> {
        let (deduped, stats) = coalesce(updates);
        let mut generation = self.service.generation();
        if !deduped.is_empty() {
            generation = self.service.apply_updates(&deduped)?;
        }
        let alpha = self.service.alpha()?;
        let power_delta_w = self.power_delta_w();
        if let Some(t) = &self.telemetry {
            t.batches.inc();
            t.updates_in.add(stats.input as u64);
            t.superseded.add(stats.superseded as u64);
            t.alpha_pm.set(alpha_pm(alpha));
        }
        Ok(BatchOutcome {
            generation,
            coalesce: stats,
            alpha,
            power_delta_w,
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

    /// Watts the current footprint costs relative to the footprint at
    /// construction (positive: churn made the structure more expensive).
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

    /// Shuts the wrapped service down and returns its registry's final
    /// scrape (`None` with telemetry off).
    #[must_use]
    pub fn shutdown(self) -> Option<TelemetrySnapshot> {
        self.service.shutdown()
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("cfg", &self.cfg)
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
    use vr_engine::{EngineError, ServiceConfig};
    use vr_net::{RoutingTable, UpdateMix, VnId};
    use vr_telemetry::EventKind;

    fn table(lines: &str) -> RoutingTable {
        lines.parse().unwrap()
    }

    fn small_service(tables: Vec<RoutingTable>) -> LookupService {
        LookupService::new(tables, ServiceConfig::default()).unwrap()
    }

    /// Asserts the plane serves exactly a from-scratch build of `tables`.
    fn assert_serves(plane: &ControlPlane, tables: &[RoutingTable]) {
        let merged = vr_trie::MergedTrie::from_tables(tables).unwrap();
        let want = vr_trie::JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
        assert_eq!(
            plane.service().snapshot().trie.raw_parts(),
            want.raw_parts()
        );
        assert_eq!(
            plane.service().alpha().unwrap().to_bits(),
            merged.merging_efficiency().to_bits()
        );
    }

    fn paired_tables() -> Vec<RoutingTable> {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n172.16.0.0/12 3\n");
        vec![t.clone(), t]
    }

    #[test]
    fn config_validation_rejects_bad_bands() {
        for bad in [
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
            let service = small_service(paired_tables());
            match ControlPlane::new(service, bad) {
                Err(ControlError::InvalidConfig(_)) => {}
                other => panic!("expected config rejection, got {other:?}"),
            }
        }
    }

    /// Collapsing α is an ordinary batch: one generation, one
    /// `GenerationSwap` and nothing else, and the power delta stays
    /// priced against the footprint at construction.
    #[test]
    fn alpha_collapse_publishes_one_generation_against_the_construction_baseline() {
        // Two identical tables: α = 1. Withdrawing everything from VN 1
        // collapses the common set, and a burst of VN 0 /24s, one per /16
        // bucket, grows the footprint past a BRAM quantum.
        let tables = paired_tables();
        let mut plane =
            ControlPlane::new(small_service(tables.clone()), ControlConfig::default()).unwrap();
        assert!((plane.service().alpha().unwrap() - 1.0).abs() < 1e-12);
        let baseline_bits = footprint_bits(plane.service(), 8);
        let before = plane.service().generation();
        let cursor = plane.service().metrics().unwrap().events().published();

        let burst: Vec<vr_net::Ipv4Prefix> = (0..64u32)
            .map(|i| vr_net::Ipv4Prefix::must(0x2D00_0000 | (i << 16), 24))
            .collect();
        let withdrawals: Vec<RouteUpdate> = tables[1]
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        let collapse: Vec<RouteUpdate> = withdrawals
            .into_iter()
            .chain(burst.iter().map(|&prefix| RouteUpdate::Announce {
                vnid: 0,
                prefix,
                next_hop: 3,
            }))
            .collect();
        let o = plane.apply_batch(&collapse).unwrap();
        assert!(o.alpha < 0.5, "α did not collapse: {}", o.alpha);
        assert_eq!(o.generation, before + 1);
        assert_eq!(plane.service().generation(), before + 1);
        let kinds: Vec<EventKind> = plane
            .service()
            .metrics()
            .unwrap()
            .events()
            .drain_since(cursor)
            .events
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [EventKind::GenerationSwap {
                generation: before + 1
            }]
        );
        let cfg = ControlConfig::default();
        let want = vr_power::memory_power_delta_w(
            cfg.bram_mode,
            cfg.grade,
            baseline_bits,
            footprint_bits(plane.service(), cfg.nhi_bits),
            cfg.freq_mhz,
        );
        assert!(o.power_delta_w > 0.0, "footprint growth must cost watts");
        assert_eq!(o.power_delta_w.to_bits(), want.to_bits());

        // Withdrawing the burst restores the construction footprint (the
        // K-wide vectors keep their count), so the delta returns to zero
        // rather than going negative against the collapsed footprint.
        let unburst: Vec<RouteUpdate> = burst
            .iter()
            .map(|&prefix| RouteUpdate::Withdraw { vnid: 0, prefix })
            .collect();
        let o = plane.apply_batch(&unburst).unwrap();
        assert_eq!(o.generation, before + 2);
        assert_eq!(footprint_bits(plane.service(), 8), baseline_bits);
        assert!(o.power_delta_w.abs() < 1e-12, "delta {} W", o.power_delta_w);
        let _ = plane.shutdown();
    }

    #[test]
    fn replay_streams_batches_and_sets_gauges() {
        let tables = paired_tables();
        let mut stream = UpdateStream::new(tables.clone(), UpdateMix::default(), 8, 33).unwrap();
        let mut plane = ControlPlane::new(small_service(tables), ControlConfig::default()).unwrap();
        let outcomes = plane.replay(&mut stream, 3, 15).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_serves(&plane, stream.tables());
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

    /// The service's two builders (from-scratch at construction, a
    /// dirty-bucket repaint after an update) must publish one footprint
    /// for one family, or the first batch reads as a phantom step in
    /// watts.
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
        let mut plane = ControlPlane::new(small_service(tables), ControlConfig::default()).unwrap();
        let o = plane.apply_batch(&unchanged).unwrap();
        assert!(
            o.power_delta_w.abs() < 1e-9,
            "phantom delta {} W",
            o.power_delta_w
        );
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
