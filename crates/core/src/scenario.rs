//! Building concrete evaluation scenarios.
//!
//! A [`Scenario`] binds a K-table workload to a scheme, speed grade, BRAM
//! granularity and pipeline length, resolving everything the equations
//! need: per-engine per-stage memories (Mᵢ,ⱼ), the measured merging
//! efficiency α, the achievable clock and the utilization vector µ.

use crate::resources::{paper_literal_merged_stage_bits, MergedMemoryModel, ResourceUsage};
use crate::PowerError;
use serde::{Deserialize, Serialize};
use vr_fpga::logic::PeProfile;
use vr_fpga::timing::{self, TimingContext};
use vr_fpga::{BramMode, Device, SchemeKind, SpeedGrade};
use vr_net::RoutingTable;
use vr_trie::pipeline_map::{MemoryLayout, PAPER_PIPELINE_STAGES};
use vr_trie::{LeafPushedTrie, MergedTrie, PipelineProfile, UnibitTrie};

/// Everything needed to evaluate one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Router organization.
    pub scheme: SchemeKind,
    /// Speed grade.
    pub grade: SpeedGrade,
    /// BRAM granularity.
    pub bram_mode: BramMode,
    /// Pipeline stages N (the paper uses 28).
    pub stages: usize,
    /// Per-network utilization weights µᵢ (`None` = uniform, Assumption 1).
    pub utilization: Option<Vec<f64>>,
    /// Merged-memory model (ignored for NV/VS).
    pub merged_memory: MergedMemoryModel,
    /// Word widths of stage memories.
    pub layout: MemoryLayout,
}

impl ScenarioSpec {
    /// The paper's defaults: 28 stages, 18 Kb blocks, uniform µ,
    /// structural merged memory.
    #[must_use]
    pub fn paper_default(scheme: SchemeKind, grade: SpeedGrade) -> Self {
        Self {
            scheme,
            grade,
            bram_mode: BramMode::K18,
            stages: PAPER_PIPELINE_STAGES,
            utilization: None,
            merged_memory: MergedMemoryModel::Structural,
            layout: MemoryLayout::default(),
        }
    }
}

/// A fully resolved scenario, ready for the Eq. 2/4/6 evaluation.
///
/// ```
/// use vr_net::synth::FamilySpec;
/// use vr_power::models::analytical_power;
/// use vr_power::{Device, Scenario, ScenarioSpec, SchemeKind, SpeedGrade};
///
/// let tables = FamilySpec {
///     k: 4,
///     prefixes_per_table: 300,
///     shared_fraction: 0.6,
///     seed: 42,
///     distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
///     next_hops: 16,
/// }
/// .generate()
/// .unwrap();
/// let scenario = Scenario::build(
///     &tables,
///     ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2),
///     Device::xc6vlx760(),
/// )
/// .unwrap();
/// let estimate = analytical_power(&scenario);
/// // One device's static power dominates the virtualized budget.
/// assert!(estimate.static_w > 4.0 && estimate.total_w() < 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
    k: usize,
    mu: Vec<f64>,
    /// Per-engine per-stage memory bits on one device (1 engine for
    /// NV/VM, K engines for VS). NV replicates the device K times.
    engine_stage_bits: Vec<Vec<u64>>,
    /// Measured merging efficiency (merged scenarios only).
    alpha: Option<f64>,
    /// Resolved operating frequency in MHz.
    freq_mhz: f64,
    device: Device,
}

impl Scenario {
    /// Builds a scenario for `tables` (one per virtual network) on
    /// `device`.
    ///
    /// # Errors
    /// Rejects empty workloads, invalid µ vectors, zero stages; propagates
    /// trie errors and device-fit failures.
    pub fn build(
        tables: &[RoutingTable],
        spec: ScenarioSpec,
        device: Device,
    ) -> Result<Self, PowerError> {
        let k = tables.len();
        if k == 0 {
            return Err(PowerError::InvalidParameter("need at least one table"));
        }
        if spec.stages == 0 {
            return Err(PowerError::InvalidParameter("need at least one stage"));
        }
        let mu = resolve_mu(spec.utilization.as_deref(), k)?;

        // The paper's K engines vs. one: K tries of arity 1, or one of
        // arity K; `stage_bits` sizes either.
        let stage_bits = |trie: &LeafPushedTrie| -> Result<Vec<u64>, PowerError> {
            let profile = PipelineProfile::for_trie(trie, spec.stages, spec.layout)?;
            Ok(profile.per_stage_memory_bits())
        };
        let single_stage_bits = || -> Result<Vec<Vec<u64>>, PowerError> {
            tables
                .iter()
                .map(|t| stage_bits(&LeafPushedTrie::from_unibit(&UnibitTrie::from_table(t))))
                .collect()
        };

        let (engine_stage_bits, alpha) = match spec.scheme {
            SchemeKind::NonVirtualized | SchemeKind::Separate => (single_stage_bits()?, None),
            SchemeKind::Merged => {
                let merged = MergedTrie::from_tables(tables)?;
                let merged_stage_bits = match spec.merged_memory {
                    MergedMemoryModel::Structural => stage_bits(&merged.leaf_pushed())?,
                    MergedMemoryModel::PaperLiteral { alpha } => {
                        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
                            return Err(PowerError::InvalidParameter(
                                "literal Eq. 5 alpha must be in [0, 1]",
                            ));
                        }
                        paper_literal_merged_stage_bits(&single_stage_bits()?, alpha)
                    }
                };
                (vec![merged_stage_bits], Some(merged.merging_efficiency()))
            }
        };

        let ctx = match spec.scheme {
            SchemeKind::NonVirtualized => TimingContext::SINGLE,
            SchemeKind::Separate => TimingContext {
                parallel_engines: k,
                merged_arity: 1,
            },
            SchemeKind::Merged => TimingContext {
                parallel_engines: 1,
                merged_arity: k,
            },
        };
        let freq_mhz = timing::clock_mhz(spec.grade, ctx);

        let scenario = Self {
            spec,
            k,
            mu,
            engine_stage_bits,
            alpha,
            freq_mhz,
            device,
        };
        scenario.resources().check_fit(&scenario.device)?;
        Ok(scenario)
    }

    /// The spec this scenario was built from.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Number of virtual networks K.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The normalized utilization vector µ.
    #[must_use]
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Measured merging efficiency, for merged scenarios.
    #[must_use]
    pub fn alpha(&self) -> Option<f64> {
        self.alpha
    }

    /// Resolved operating frequency in MHz.
    #[must_use]
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// The target device.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Per-engine per-stage memory bits on one device.
    #[must_use]
    pub fn engine_stage_bits(&self) -> &[Vec<u64>] {
        &self.engine_stage_bits
    }

    /// Number of devices D (Eq. 1 vs Eqs. 3/5).
    #[must_use]
    pub fn devices(&self) -> usize {
        match self.spec.scheme {
            SchemeKind::NonVirtualized => self.k,
            _ => 1,
        }
    }

    /// Evaluates the resource model (Eqs. 1/3/5).
    #[must_use]
    pub fn resources(&self) -> ResourceUsage {
        // NV: each device hosts one engine; per-device demand is the
        // *largest* single engine (tables are same-size by Assumption 2,
        // so any engine is representative; we take the max for safety).
        match self.spec.scheme {
            SchemeKind::NonVirtualized => {
                let widest = self
                    .engine_stage_bits
                    .iter()
                    .max_by_key(|bits| bits.iter().sum::<u64>())
                    .cloned()
                    .unwrap_or_default();
                ResourceUsage::from_stage_bits(
                    self.spec.scheme,
                    self.k,
                    std::slice::from_ref(&widest),
                    self.spec.bram_mode,
                    PeProfile::PAPER_UNIBIT,
                )
            }
            _ => ResourceUsage::from_stage_bits(
                self.spec.scheme,
                1,
                &self.engine_stage_bits,
                self.spec.bram_mode,
                PeProfile::PAPER_UNIBIT,
            ),
        }
    }

    /// Exports the scenario as an XPE-style [`vr_fpga::DesignSpec`] —
    /// the handle for per-resource-type reports and device-fit questions
    /// the analytical equations don't answer. The design carries every
    /// engine on one device (so NV exports one device's worth).
    #[must_use]
    pub fn design_spec(&self) -> vr_fpga::DesignSpec {
        // Per-stage memory of the *widest* engine, replicated: a
        // conservative, same-shaped stand-in for near-identical engines
        // (Assumption 2 keeps them close).
        let widest = self
            .engine_stage_bits
            .iter()
            .max_by_key(|bits| bits.iter().sum::<u64>())
            .cloned()
            .unwrap_or_default();
        vr_fpga::DesignSpec::new(
            self.spec.grade,
            self.spec.bram_mode,
            widest,
            self.engine_stage_bits.len(),
            self.freq_mhz,
        )
    }

    /// Aggregate lookup capacity in Gbps at 40-byte packets (§VI-B):
    /// every engine contributes one lookup per cycle.
    #[must_use]
    pub fn capacity_gbps(&self) -> f64 {
        let engines_total = match self.spec.scheme {
            SchemeKind::NonVirtualized | SchemeKind::Separate => self.k,
            SchemeKind::Merged => 1,
        };
        timing::aggregate_throughput_gbps(self.freq_mhz, engines_total)
    }
}

/// Normalizes a µ vector (or builds the uniform one).
fn resolve_mu(utilization: Option<&[f64]>, k: usize) -> Result<Vec<f64>, PowerError> {
    match utilization {
        None => Ok(vec![1.0 / k as f64; k]),
        Some(w) => {
            if w.len() != k {
                return Err(PowerError::InvalidParameter(
                    "utilization length must equal the table count",
                ));
            }
            if w.iter().any(|x| *x < 0.0 || !x.is_finite()) {
                return Err(PowerError::InvalidParameter(
                    "utilization weights must be finite and non-negative",
                ));
            }
            let sum: f64 = w.iter().sum();
            if sum <= 0.0 {
                return Err(PowerError::InvalidParameter(
                    "utilization weights must not be all zero",
                ));
            }
            Ok(w.iter().map(|x| x / sum).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::FamilySpec;

    fn family(k: usize) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: 300,
            shared_fraction: 0.6,
            seed: 5,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap()
    }

    fn build(scheme: SchemeKind, k: usize) -> Scenario {
        Scenario::build(
            &family(k),
            ScenarioSpec::paper_default(scheme, SpeedGrade::Minus2),
            Device::xc6vlx760(),
        )
        .unwrap()
    }

    #[test]
    fn device_counts_follow_eq_1_3_5() {
        assert_eq!(build(SchemeKind::NonVirtualized, 4).devices(), 4);
        assert_eq!(build(SchemeKind::Separate, 4).devices(), 1);
        assert_eq!(build(SchemeKind::Merged, 4).devices(), 1);
    }

    #[test]
    fn uniform_mu_by_default() {
        let s = build(SchemeKind::Separate, 4);
        assert_eq!(s.mu().len(), 4);
        for m in s.mu() {
            assert!((m - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn merged_scenario_measures_alpha() {
        let s = build(SchemeKind::Merged, 4);
        let alpha = s.alpha().unwrap();
        assert!((0.0..=1.0).contains(&alpha));
        assert!(build(SchemeKind::Separate, 4).alpha().is_none());
    }

    #[test]
    fn merged_clock_is_slower_than_separate() {
        let vm = build(SchemeKind::Merged, 8);
        let vs = build(SchemeKind::Separate, 8);
        let nv = build(SchemeKind::NonVirtualized, 8);
        assert!(vm.freq_mhz() < vs.freq_mhz());
        assert!(vs.freq_mhz() < nv.freq_mhz());
    }

    #[test]
    fn capacity_ordering_matches_sharing() {
        let k = 6;
        let nv = build(SchemeKind::NonVirtualized, k);
        let vs = build(SchemeKind::Separate, k);
        let vm = build(SchemeKind::Merged, k);
        assert!(nv.capacity_gbps() > vm.capacity_gbps());
        assert!(vs.capacity_gbps() > vm.capacity_gbps());
        // NV capacity is exactly K × the single line rate.
        let line = timing::throughput_gbps(SpeedGrade::Minus2.base_clock_mhz());
        assert!((nv.capacity_gbps() - k as f64 * line).abs() < 1e-9);
    }

    #[test]
    fn separate_beyond_pin_budget_fails() {
        let err = Scenario::build(
            &family(16),
            ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2),
            Device::xc6vlx760(),
        );
        assert!(matches!(
            err,
            Err(PowerError::Fpga(vr_fpga::FpgaError::ResourceExhausted {
                resource: "I/O pins",
                ..
            }))
        ));
        // Merged and NV still fit at K = 16.
        assert!(Scenario::build(
            &family(16),
            ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2),
            Device::xc6vlx760(),
        )
        .is_ok());
    }

    #[test]
    fn paper_literal_merged_memory_scales_with_alpha() {
        let tables = family(4);
        let mk = |alpha| {
            let spec = ScenarioSpec {
                merged_memory: MergedMemoryModel::PaperLiteral { alpha },
                ..ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2)
            };
            Scenario::build(&tables, spec, Device::xc6vlx760()).unwrap()
        };
        let lo = mk(0.2);
        let hi = mk(0.8);
        // Literal Eq. 5: memory grows with α (the documented contradiction).
        assert!(hi.resources().memory_bits > lo.resources().memory_bits);
    }

    #[test]
    fn structural_merged_memory_shrinks_with_alpha() {
        // Families with higher structural overlap yield less merged memory.
        let spec = ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2);
        let make = |shared: f64| {
            let tables = FamilySpec {
                k: 4,
                prefixes_per_table: 300,
                shared_fraction: shared,
                seed: 5,
                distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
                next_hops: 8,
            }
            .generate()
            .unwrap();
            Scenario::build(&tables, spec.clone(), Device::xc6vlx760()).unwrap()
        };
        let lo = make(0.1);
        let hi = make(0.9);
        assert!(hi.alpha().unwrap() > lo.alpha().unwrap());
        assert!(hi.resources().memory_bits < lo.resources().memory_bits);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let tables = family(2);
        let mut spec = ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2);
        spec.stages = 0;
        assert!(Scenario::build(&tables, spec, Device::xc6vlx760()).is_err());
        let mut spec = ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2);
        spec.utilization = Some(vec![1.0]);
        assert!(Scenario::build(&tables, spec, Device::xc6vlx760()).is_err());
        let mut spec = ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2);
        spec.merged_memory = MergedMemoryModel::PaperLiteral { alpha: 1.5 };
        assert!(Scenario::build(&tables, spec, Device::xc6vlx760()).is_err());
        assert!(Scenario::build(
            &[],
            ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2),
            Device::xc6vlx760()
        )
        .is_err());
    }

    #[test]
    fn design_spec_export_agrees_with_the_analytical_memory_model() {
        // The XPE façade and Eq. 6 price the merged engine's memory with
        // the same Table III coefficients: full-activity BRAM power must
        // match exactly; static power differs only by the ±5 % area band.
        let s = build(SchemeKind::Merged, 5);
        let design = s.design_spec();
        let report = design.evaluate(s.device()).unwrap();
        let estimate = crate::models::analytical_power(&s);
        assert!((report.bram_w - estimate.memory_w).abs() < 1e-12);
        assert!((report.logic_w - estimate.logic_w).abs() < 1e-12);
        let static_rel = (report.static_w - estimate.static_w).abs() / estimate.static_w;
        assert!(static_rel <= 0.05 + 1e-9, "static gap {static_rel}");
        // The separate design exports K engines and fits the device.
        let vs = build(SchemeKind::Separate, 5);
        let vs_design = vs.design_spec();
        assert_eq!(vs_design.engines, 5);
        assert!(vs_design.evaluate(vs.device()).is_ok());
    }

    #[test]
    fn weighted_mu_normalizes() {
        let tables = family(2);
        let spec = ScenarioSpec {
            utilization: Some(vec![3.0, 1.0]),
            ..ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2)
        };
        let s = Scenario::build(&tables, spec, Device::xc6vlx760()).unwrap();
        assert!((s.mu()[0] - 0.75).abs() < 1e-12);
        assert!((s.mu()[1] - 0.25).abs() < 1e-12);
    }
}
