//! Building concrete evaluation scenarios.
//!
//! A scenario is built in two halves, split where the paper splits its
//! models. The **structural half**, [`EngineStructure`], is what the
//! resource equations (Eqs. 1/3/5) are functions of: per-engine per-stage
//! memories (Mᵢ,ⱼ) and the measured merging efficiency α, derived from
//! the tables, the pipeline length and the word layout alone. The
//! **pricing half**, [`Scenario::price`], binds a structure to a scheme,
//! speed grade, BRAM granularity and device — the utilization vector µ,
//! the achievable clock and the device fit, everything Eqs. 2/4/6 and
//! Table III read. [`Scenario::build`] composes the two for one point; a
//! sweep builds each structure once and prices it under every grade and
//! scheme that shares it (NV and VS price the same K single-table
//! engines).

use crate::resources::{paper_literal_merged_stage_bits, MergedMemoryModel, ResourceUsage};
use crate::PowerError;
use serde::{Deserialize, Serialize};
use vr_fpga::logic::PeProfile;
use vr_fpga::timing::{self, TimingContext};
use vr_fpga::{BramMode, Device, SchemeKind, SpeedGrade};
use vr_net::RoutingTable;
use vr_trie::pipeline_map::{MemoryLayout, PAPER_PIPELINE_STAGES};
use vr_trie::{MergedTrie, PipelineProfile, SweepStats, TrieStats};

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

/// The grade-free structural half of a scenario: the engines one device
/// hosts, as the resource models see them. Either K engines of arity 1
/// (one per table — what NV and VS both price) or one engine of arity K
/// (the merged trie), with the α measured on it.
///
/// A plain value: nothing in it depends on scheme pricing, speed grade or
/// device, so one structure can be priced many times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStructure {
    /// Number of virtual networks K the engines serve.
    pub k: usize,
    /// Per-engine per-stage memory bits Mᵢ,ⱼ.
    pub engine_stage_bits: Vec<Vec<u64>>,
    /// Measured merging efficiency (merged structures only).
    pub alpha: Option<f64>,
}

impl EngineStructure {
    /// K = `k` single-table engines, one per VN of `sweep`'s first `k`:
    /// each VN's leaf-pushed uni-bit trie mapped onto `stages` stages.
    ///
    /// # Errors
    /// Rejects a `k` outside `1..=K` and zero stages.
    pub fn separate(
        sweep: &SweepStats,
        k: usize,
        stages: usize,
        layout: MemoryLayout,
    ) -> Result<Self, PowerError> {
        let singles = k.checked_sub(1).and_then(|at| sweep.per_vn.get(..=at));
        let singles = singles.ok_or(OUTSIDE_SWEEP)?;
        let engine_stage_bits = singles
            .iter()
            .map(|stats| stage_bits(stats, 1, stages, layout))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            k,
            engine_stage_bits,
            alpha: None,
        })
    }

    /// The one arity-`k` engine merging `sweep`'s first `k` VNs, with its
    /// measured α.
    ///
    /// # Errors
    /// Rejects a `k` outside `1..=K` and zero stages.
    pub fn merged(
        sweep: &SweepStats,
        k: usize,
        stages: usize,
        layout: MemoryLayout,
    ) -> Result<Self, PowerError> {
        let at = k.checked_sub(1).filter(|&at| at < sweep.by_prefix.len());
        let at = at.ok_or(OUTSIDE_SWEEP)?;
        Ok(Self {
            k,
            engine_stage_bits: vec![stage_bits(&sweep.by_prefix[at], k, stages, layout)?],
            alpha: Some(sweep.alpha[at]),
        })
    }

    /// Eq. 5 exactly as printed: one merged engine holding `alpha × Σ` of
    /// the K engines of `self` (a [`EngineStructure::separate`]
    /// structure), stage by stage. `measured_alpha` is the efficiency
    /// measured on the tables' actual merge, which the result reports.
    ///
    /// # Errors
    /// Rejects an `alpha` outside `[0, 1]`.
    pub fn paper_literal(&self, alpha: f64, measured_alpha: f64) -> Result<Self, PowerError> {
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(PowerError::InvalidParameter(
                "literal Eq. 5 alpha must be in [0, 1]",
            ));
        }
        Ok(Self {
            k: self.k,
            engine_stage_bits: vec![paper_literal_merged_stage_bits(
                &self.engine_stage_bits,
                alpha,
            )],
            alpha: Some(measured_alpha),
        })
    }
}

/// A structure asked of a sweep over K VNs for a K' outside `1..=K`.
const OUTSIDE_SWEEP: PowerError = PowerError::InvalidParameter("k outside the sweep's 1..=K");

/// Mᵢ,ⱼ of the pipeline storing the arity-`k` leaf-pushed trie `stats`
/// describes.
fn stage_bits(
    stats: &TrieStats,
    k: usize,
    stages: usize,
    layout: MemoryLayout,
) -> Result<Vec<u64>, PowerError> {
    Ok(PipelineProfile::from_stats(stats, k, stages, layout)?.per_stage_memory_bits())
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
    /// The engines on one device (K for NV/VS, 1 for VM). NV replicates
    /// the device K times, one engine live on each.
    structure: EngineStructure,
    mu: Vec<f64>,
    /// Resolved operating frequency in MHz.
    freq_mhz: f64,
    device: Device,
}

impl Scenario {
    /// Builds a scenario for `tables` (one per virtual network) on
    /// `device`: the [`EngineStructure`] `spec` asks for, then
    /// [`Scenario::price`].
    ///
    /// # Errors
    /// Rejects empty workloads, invalid µ vectors, zero stages; propagates
    /// trie errors and device-fit failures.
    pub fn build(
        tables: &[RoutingTable],
        spec: ScenarioSpec,
        device: Device,
    ) -> Result<Self, PowerError> {
        let (k, sweep) = (tables.len(), MergedTrie::from_tables(tables)?.sweep_stats());
        let singles = || EngineStructure::separate(&sweep, k, spec.stages, spec.layout);
        let structure = match (spec.scheme, spec.merged_memory) {
            (SchemeKind::NonVirtualized | SchemeKind::Separate, _) => singles()?,
            (SchemeKind::Merged, MergedMemoryModel::Structural) => {
                EngineStructure::merged(&sweep, k, spec.stages, spec.layout)?
            }
            (SchemeKind::Merged, MergedMemoryModel::PaperLiteral { alpha }) => {
                singles()?.paper_literal(alpha, sweep.alpha[k - 1])?
            }
        };
        Self::price(structure, spec, device)
    }

    /// The pricing half: binds a built `structure` to `spec`'s scheme,
    /// grade, BRAM granularity and µ on `device`, resolving the clock and
    /// checking the fit. `spec.scheme` says how the engines are deployed —
    /// K single-table engines on K devices (NV) or one (VS), or the one
    /// merged engine (VM).
    ///
    /// # Errors
    /// Rejects a structure whose engine count or stage count is not what
    /// `spec` describes and invalid µ vectors; propagates device-fit
    /// failures.
    pub fn price(
        structure: EngineStructure,
        spec: ScenarioSpec,
        device: Device,
    ) -> Result<Self, PowerError> {
        let k = structure.k;
        let engines = match spec.scheme {
            SchemeKind::NonVirtualized | SchemeKind::Separate => k,
            SchemeKind::Merged => 1,
        };
        if k == 0 || structure.engine_stage_bits.len() != engines {
            return Err(PowerError::InvalidParameter(
                "structure must hold K single-table engines (NV/VS) or one merged engine (VM)",
            ));
        }
        let mapped = |bits: &Vec<u64>| bits.len() == spec.stages;
        if spec.stages == 0 || !structure.engine_stage_bits.iter().all(mapped) {
            return Err(PowerError::InvalidParameter(
                "structure must be mapped onto the spec's (non-zero) stage count",
            ));
        }
        let mu = resolve_mu(spec.utilization.as_deref(), k)?;

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
            structure,
            mu,
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
        self.structure.k
    }

    /// The normalized utilization vector µ.
    #[must_use]
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Measured merging efficiency, for merged scenarios.
    #[must_use]
    pub fn alpha(&self) -> Option<f64> {
        self.structure.alpha
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
        &self.structure.engine_stage_bits
    }

    /// Number of devices D (Eq. 1 vs Eqs. 3/5).
    #[must_use]
    pub fn devices(&self) -> usize {
        match self.spec.scheme {
            SchemeKind::NonVirtualized => self.k(),
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
                    .engine_stage_bits()
                    .iter()
                    .max_by_key(|bits| bits.iter().sum::<u64>())
                    .cloned()
                    .unwrap_or_default();
                ResourceUsage::from_stage_bits(
                    self.spec.scheme,
                    self.k(),
                    std::slice::from_ref(&widest),
                    self.spec.bram_mode,
                    PeProfile::PAPER_UNIBIT,
                )
            }
            _ => ResourceUsage::from_stage_bits(
                self.spec.scheme,
                1,
                self.engine_stage_bits(),
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
            .engine_stage_bits()
            .iter()
            .max_by_key(|bits| bits.iter().sum::<u64>())
            .cloned()
            .unwrap_or_default();
        vr_fpga::DesignSpec::new(
            self.spec.grade,
            self.spec.bram_mode,
            widest,
            self.engine_stage_bits().len(),
            self.freq_mhz,
        )
    }

    /// Aggregate lookup capacity in Gbps at 40-byte packets (§VI-B):
    /// every engine contributes one lookup per cycle.
    #[must_use]
    pub fn capacity_gbps(&self) -> f64 {
        let engines_total = match self.spec.scheme {
            SchemeKind::NonVirtualized | SchemeKind::Separate => self.k(),
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
    fn one_structure_prices_like_a_build_per_point() {
        let tables = family(5);
        let (stages, layout) = (PAPER_PIPELINE_STAGES, MemoryLayout::default());
        let sweep = MergedTrie::from_tables(&tables).unwrap().sweep_stats();
        let singles = EngineStructure::separate(&sweep, 5, stages, layout).unwrap();
        let merged = EngineStructure::merged(&sweep, 5, stages, layout).unwrap();
        for structure in [EngineStructure::separate, EngineStructure::merged] {
            for k in [0, 6] {
                let outside = structure(&sweep, k, stages, layout);
                assert!(matches!(outside, Err(PowerError::InvalidParameter(_))));
            }
        }
        for grade in SpeedGrade::ALL {
            for (scheme, structure) in [
                (SchemeKind::NonVirtualized, &singles),
                (SchemeKind::Separate, &singles),
                (SchemeKind::Merged, &merged),
            ] {
                let spec = ScenarioSpec::paper_default(scheme, grade);
                let priced =
                    Scenario::price(structure.clone(), spec.clone(), Device::xc6vlx760()).unwrap();
                let built = Scenario::build(&tables, spec, Device::xc6vlx760()).unwrap();
                assert_eq!(
                    crate::models::analytical_power(&priced),
                    crate::models::analytical_power(&built)
                );
                assert_eq!(priced.resources(), built.resources());
                assert_eq!(priced.mu(), built.mu());
            }
        }
    }

    #[test]
    fn price_rejects_a_structure_the_spec_does_not_describe() {
        let tables = family(3);
        let sweep = MergedTrie::from_tables(&tables).unwrap().sweep_stats();
        let singles =
            EngineStructure::separate(&sweep, 3, PAPER_PIPELINE_STAGES, MemoryLayout::default())
                .unwrap();
        let price = |structure: &EngineStructure, spec| {
            Scenario::price(structure.clone(), spec, Device::xc6vlx760())
        };
        // Three single-table engines are not one merged engine.
        let vm = ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2);
        assert!(matches!(
            price(&singles, vm),
            Err(PowerError::InvalidParameter(_))
        ));
        // Mapped onto 28 stages, priced as 14.
        let mut vs = ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2);
        vs.stages = 14;
        assert!(matches!(
            price(&singles, vs),
            Err(PowerError::InvalidParameter(_))
        ));
        // K says four networks, three engines are present.
        let short = EngineStructure {
            k: 4,
            ..singles.clone()
        };
        let vs = ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2);
        assert!(matches!(
            price(&short, vs),
            Err(PowerError::InvalidParameter(_))
        ));
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
