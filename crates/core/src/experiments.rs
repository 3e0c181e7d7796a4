//! One entry point per table/figure of the paper's evaluation.
//!
//! Each function returns plain data rows; the bench binaries in `vr-bench`
//! render them (text table + CSV) and EXPERIMENTS.md records the
//! paper-vs-measured comparison. Integration tests assert the *shapes*
//! (who wins, what grows, where limits bind) on a reduced configuration.
//!
//! The sweeps over K build each structure once and price it many times
//! ([`crate::scenario`]'s two halves). One α family is drawn at the
//! sweep's largest K — families are prefix-nested, so its first K tables
//! are the family at K — straight into its sorted routes
//! ([`SortedRoutes::from_family`]), which builds no routing table, and its
//! statistics are counted in one pass over them
//! ([`SweepStats::from_routes`]), which builds no trie. The calibration
//! that picks each family's shared fraction reads α off routes drawn the
//! same way, and a calibration that fails is the sweep's error.
//! Every structure a sweep prices is read off that pass: NV and VS at K
//! price the family's first K single-table engines, and the merged engine
//! at K is the trie over its first K tables. Only the per-family jobs are
//! fanned across threads; the points are priced in a serial loop, each
//! through [`Scenario::price`] with every check a from-scratch
//! [`Scenario::build`] runs. Nothing is kept between calls. Single-K
//! studies call [`Scenario::build`] directly.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table II (device) | [`table2_rows`] |
//! | Fig. 2 (BRAM power vs f) | [`fig2_series`] |
//! | Table III (BRAM model) | [`table3_rows`] |
//! | Fig. 3 (logic power vs f) | [`fig3_series`] |
//! | Fig. 4 (memory vs K) | [`fig4_series`] |
//! | Figs. 5/6/7/8 (power sweep) | [`power_sweep`] |
//! | §V-A statics | [`statics_rows`] |
//! | §VI-B low-power saving | derived from [`power_sweep`] |
//! | Ablations (ours) | [`ablation_merged_memory`], [`ablation_gating`] |

use crate::bram::single_block_power_mw;
use crate::logic::stage_logic_power_mw;
use crate::models::analytical_power;
use crate::par::ParSimulator;
use crate::resources::MergedMemoryModel;
use crate::scenario::{EngineStructure, Scenario, ScenarioSpec};
use crate::static_power::static_power_w;
use crate::timing::mw_per_gbps;
use crate::validate::validate_scenario;
use crate::PowerError;
use crate::{BramMode, Device, SchemeKind, SpeedGrade};
use serde::{Deserialize, Serialize};
use vr_net::synth::{FamilySpec, PrefixLenDistribution};
use vr_net::RoutingTable;
use vr_trie::calibrate::CalibrationSpec;
use vr_trie::pipeline_map::{MemoryLayout, PAPER_PIPELINE_STAGES};
use vr_trie::{PipelineProfile, SortedRoutes, SweepStats, TrieStats};

/// Frequencies swept in Figs. 2 and 3 (MHz).
pub const FREQ_SWEEP_MHZ: [f64; 9] = [
    100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0,
];

/// Shared configuration of the workload-driven experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Prefixes per virtual-network table (paper: 3725).
    pub prefixes_per_table: usize,
    /// Largest K for the power sweep (paper: 15, the VS pin limit).
    pub k_max: usize,
    /// Largest K for the memory figure (paper's Fig. 4 sweeps to 30).
    pub k_max_fig4: usize,
    /// Pipeline stages N (paper: 28).
    pub stages: usize,
    /// Seed for table-family generation.
    pub seed: u64,
    /// Low merging-efficiency target (paper: 0.2).
    pub alpha_low: f64,
    /// High merging-efficiency target (paper: 0.8).
    pub alpha_high: f64,
}

impl ExperimentConfig {
    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            prefixes_per_table: vr_net::synth::PAPER_TABLE_PREFIXES,
            k_max: 15,
            k_max_fig4: 30,
            stages: PAPER_PIPELINE_STAGES,
            seed: 2012,
            alpha_low: 0.2,
            alpha_high: 0.8,
        }
    }

    /// A reduced configuration for tests (small tables, small K).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            prefixes_per_table: 220,
            k_max: 6,
            k_max_fig4: 8,
            stages: PAPER_PIPELINE_STAGES,
            seed: 2012,
            alpha_low: 0.2,
            alpha_high: 0.8,
        }
    }

    /// The shared-prefix fractions realizing the two α targets `(low,
    /// high)`, via bisection on a moderate-size probe family (α is only
    /// weakly K-dependent, so one calibration serves the whole sweep).
    ///
    /// # Errors
    /// Propagates a calibration that fails: a target outside `[0, 1]`,
    /// or one no shared fraction reaches within tolerance.
    pub fn shared_fractions(&self) -> Result<(f64, f64), PowerError> {
        let probe_prefixes = self.prefixes_per_table.min(600);
        let resolve = |target: f64| {
            let spec = CalibrationSpec {
                tolerance: 0.06,
                ..CalibrationSpec::new(4.min(self.k_max.max(2)), probe_prefixes, target, self.seed)
            };
            spec.run().map(|family| family.shared_fraction)
        };
        Ok((resolve(self.alpha_low)?, resolve(self.alpha_high)?))
    }

    /// [`ExperimentConfig::shared_fractions`], for a configuration known
    /// to calibrate: `benchmark/src/layers.rs` destructures the pair.
    ///
    /// # Panics
    /// Where [`ExperimentConfig::shared_fractions`] returns an error.
    #[must_use]
    pub fn resolve_shared_fractions(&self) -> (f64, f64) {
        self.shared_fractions()
            .expect("the α targets calibrate for this configuration")
    }

    /// The K-table family with the given shared fraction.
    #[must_use]
    pub fn family_spec(&self, k: usize, shared_fraction: f64) -> FamilySpec {
        FamilySpec {
            k,
            prefixes_per_table: self.prefixes_per_table,
            shared_fraction,
            seed: self.seed,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 16,
        }
    }

    /// Generates a K-table family with the given shared fraction.
    ///
    /// # Errors
    /// Propagates family-generation errors.
    pub fn family(&self, k: usize, shared_fraction: f64) -> Result<Vec<RoutingTable>, PowerError> {
        Ok(self.family_spec(k, shared_fraction).generate()?)
    }
}

// ---------------------------------------------------------------------------
// Table II, Fig. 2, Table III, Fig. 3, §V-A — workload-free calibrations.
// ---------------------------------------------------------------------------

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Resource name.
    pub resource: String,
    /// Amount, formatted as the paper reports it.
    pub amount: String,
}

/// Reproduces Table II for `device`.
#[must_use]
pub fn table2_rows(device: &Device) -> Vec<Table2Row> {
    let mbit = |bits: u64| format!("{:.0} Mb", bits as f64 / (1024.0 * 1024.0));
    vec![
        Table2Row {
            resource: "Logic Cells".into(),
            amount: format!("{}K", device.logic_cells / 1000),
        },
        Table2Row {
            resource: "Max. distributed RAM".into(),
            amount: mbit(device.distributed_ram_bits),
        },
        Table2Row {
            resource: "Block RAM".into(),
            amount: mbit(device.bram_bits()),
        },
        Table2Row {
            resource: "Max. I/O pins".into(),
            amount: device.io_pins.to_string(),
        },
    ]
}

/// One point of Fig. 2 (single-BRAM power vs frequency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig2Point {
    /// Block granularity.
    pub mode: BramMode,
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Operating frequency in MHz.
    pub freq_mhz: f64,
    /// Power of a single block, in mW.
    pub power_mw: f64,
}

/// Reproduces Fig. 2's four curves over [`FREQ_SWEEP_MHZ`].
#[must_use]
pub fn fig2_series() -> Vec<Fig2Point> {
    let mut out = Vec::new();
    for mode in BramMode::ALL {
        for grade in SpeedGrade::ALL {
            for &f in &FREQ_SWEEP_MHZ {
                out.push(Fig2Point {
                    mode,
                    grade,
                    freq_mhz: f,
                    power_mw: single_block_power_mw(mode, grade, f),
                });
            }
        }
    }
    out
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Setup label, e.g. `18Kb (-2)`.
    pub setup: String,
    /// Model: `⌈M/block⌉ × coeff × f` µW; this is the coefficient.
    pub uw_per_block_mhz: f64,
}

/// Reproduces Table III.
#[must_use]
pub fn table3_rows() -> Vec<Table3Row> {
    let mut out = Vec::new();
    for mode in BramMode::ALL {
        for grade in SpeedGrade::ALL {
            out.push(Table3Row {
                setup: format!("{mode} ({grade})"),
                uw_per_block_mhz: mode.uw_per_block_mhz(grade),
            });
        }
    }
    out
}

/// One point of Fig. 3 (per-stage logic power vs frequency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Operating frequency in MHz.
    pub freq_mhz: f64,
    /// Per-stage logic+signal power, in mW.
    pub power_mw: f64,
}

/// Reproduces Fig. 3's curves over [`FREQ_SWEEP_MHZ`].
#[must_use]
pub fn fig3_series() -> Vec<Fig3Point> {
    let mut out = Vec::new();
    for grade in SpeedGrade::ALL {
        for &f in &FREQ_SWEEP_MHZ {
            out.push(Fig3Point {
                grade,
                freq_mhz: f,
                power_mw: stage_logic_power_mw(grade, f),
            });
        }
    }
    out
}

/// One row of the §V-A static-power summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticsRow {
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Lower edge of the ±5 % band, in watts.
    pub min_w: f64,
    /// Reported base value, in watts.
    pub base_w: f64,
    /// Upper edge of the ±5 % band, in watts.
    pub max_w: f64,
}

/// Reproduces the §V-A static-power figures.
#[must_use]
pub fn statics_rows() -> Vec<StaticsRow> {
    SpeedGrade::ALL
        .iter()
        .map(|&grade| StaticsRow {
            grade,
            min_w: static_power_w(grade, 0.0),
            base_w: grade.static_base_w(),
            max_w: static_power_w(grade, 1.0),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 4 — pointer and NHI memory vs K.
// ---------------------------------------------------------------------------

/// One point of Fig. 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Series label: `separate`, `merged (α≈0.8)` or `merged (α≈0.2)`.
    pub series: String,
    /// Number of virtual networks.
    pub k: usize,
    /// Pointer (non-leaf) memory, in Mbit.
    pub pointer_mbits: f64,
    /// NHI (leaf) memory, in Mbit.
    pub nhi_mbits: f64,
    /// Merging efficiency measured on the merged trie (merged series).
    pub measured_alpha: Option<f64>,
}

const MBIT: f64 = 1024.0 * 1024.0;

/// Fans independent jobs across threads, one scoped thread per job
/// (every caller has at most a dozen), and returns the results in input
/// order. The first failing job's error is returned.
///
/// A job is whatever shares nothing but read-only inputs with its
/// siblings. For the studies that vary a load, a stride, a device or a µ
/// vector over fixed tables that is one sweep point. For the K sweeps it
/// is not: every point of one table family reads its structures off that
/// family's one pass ([`family_sweep`]), so those sweeps fan one job per
/// α family and price the points in a serial loop.
fn fan_out<P, R, F>(points: Vec<P>, work: F) -> Result<Vec<R>, PowerError>
where
    P: Send,
    R: Send,
    F: Fn(P) -> Result<R, PowerError> + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let jobs: Vec<_> = points
            .into_iter()
            .map(|point| scope.spawn(move || work(point)))
            .collect();
        jobs.into_iter()
            .map(|job| job.join().expect("experiment worker panicked"))
            .collect()
    })
}

/// One α family's K sweep: the routes of its `k` tables at shared fraction
/// `frac`, gathered from the generator with no table built, sorted once
/// and counted in one pass. Every structure a sweep prices at K ≤ `k` is
/// read off the result.
fn family_sweep(cfg: &ExperimentConfig, k: usize, frac: f64) -> Result<SweepStats, PowerError> {
    let routes = SortedRoutes::from_family(&cfg.family_spec(k, frac))?;
    Ok(SweepStats::from_routes(&routes))
}

/// Reproduces Fig. 4: memory requirements of the merged scheme (at the two
/// α targets) and the separate scheme, as K grows.
///
/// Each α family is generated once at `k_max_fig4` and counted once
/// (`family_sweep`): the separate series sums the high-α family's
/// single-table engines over the first K, the merged ones read the
/// arity-K engine at every K.
///
/// # Errors
/// Rejects `k_max_fig4 == 0`; propagates family-generation and trie
/// errors.
pub fn fig4_series(cfg: &ExperimentConfig) -> Result<Vec<Fig4Point>, PowerError> {
    if cfg.k_max_fig4 == 0 {
        return Err(PowerError::InvalidParameter(
            "k_max_fig4 must be at least 1",
        ));
    }
    let (frac_low, frac_high) = cfg.shared_fractions()?;
    let layout = MemoryLayout::default();
    let sweeps = fan_out(vec![frac_high, frac_low], |frac| {
        family_sweep(cfg, cfg.k_max_fig4, frac)
    })?;
    // Pointer and NHI bits of the pipeline storing one leaf-pushed trie.
    let memory = |stats: &TrieStats, k| -> Result<(u64, u64), PowerError> {
        let profile = PipelineProfile::from_stats(stats, k, cfg.stages, layout)?;
        Ok((profile.pointer_memory_bits(), profile.nhi_memory_bits()))
    };
    let point = |series: &str, k, (ptr_bits, nhi_bits): (u64, u64), measured_alpha| Fig4Point {
        series: series.into(),
        k,
        pointer_mbits: ptr_bits as f64 / MBIT,
        nhi_mbits: nhi_bits as f64 / MBIT,
        measured_alpha,
    };
    let merged = ["merged (α≈0.8)", "merged (α≈0.2)"];
    let mut out = Vec::with_capacity(3 * cfg.k_max_fig4);
    // K engines of arity 1: a running sum over the tables.
    let (mut ptr_bits, mut nhi_bits) = (0u64, 0u64);
    for k in 1..=cfg.k_max_fig4 {
        let (ptr, nhi) = memory(&sweeps[0].per_vn[k - 1], 1)?;
        (ptr_bits, nhi_bits) = (ptr_bits + ptr, nhi_bits + nhi);
        out.push(point("separate", k, (ptr_bits, nhi_bits), None));
        // One engine of arity K.
        for (label, sweep) in merged.into_iter().zip(&sweeps) {
            let bits = memory(&sweep.by_prefix[k - 1], k)?;
            out.push(point(label, k, bits, Some(sweep.alpha[k - 1])));
        }
    }
    out.sort_by(|a, b| (a.k, &a.series).cmp(&(b.k, &b.series)));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figs. 5–8 — the power sweep.
// ---------------------------------------------------------------------------

/// One configuration point of the Figs. 5–8 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Series label: `NV`, `VS`, `VM (α≈0.2)`, `VM (α≈0.8)`.
    pub series: String,
    /// Scheme.
    pub scheme: SchemeKind,
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Number of virtual networks.
    pub k: usize,
    /// Measured merging efficiency (merged series).
    pub alpha: Option<f64>,
    /// Analytical total power (Figs. 5/6 model side), in watts.
    pub model_w: f64,
    /// Simulated post-PAR power (Figs. 5/6 experimental side), in watts.
    pub experimental_w: f64,
    /// Fig. 7's percentage error.
    pub error_pct: f64,
    /// Aggregate capacity, in Gbps.
    pub capacity_gbps: f64,
    /// Fig. 8's metric (over experimental power), in mW/Gbps.
    pub mw_per_gbps: f64,
    /// Operating frequency, in MHz.
    pub freq_mhz: f64,
}

/// Runs the full Figs. 5–8 sweep: K = 1..=k_max × {NV, VS, VM(α_low),
/// VM(α_high)} × both speed grades.
///
/// Structures are built once and priced many times. Each α family is
/// generated once at `k_max` and counted once (`family_sweep`), one job
/// per family, fanned out: the high-α family's `k_max` single-table
/// engines serve NV and VS at every K, and each family's merged engine
/// at K is read off its pass. Every one of the `8 × k_max` points is then
/// priced through [`Scenario::price`], with all of its checks.
///
/// # Errors
/// Rejects `k_max == 0`; propagates scenario construction errors (VS
/// points beyond the pin limit are impossible with the paper's
/// k_max = 15 and are an error otherwise).
pub fn power_sweep(cfg: &ExperimentConfig) -> Result<Vec<SweepPoint>, PowerError> {
    if cfg.k_max == 0 {
        return Err(PowerError::InvalidParameter("k_max must be at least 1"));
    }
    let (frac_low, frac_high) = cfg.shared_fractions()?;
    let layout = MemoryLayout::default();
    let sweeps = fan_out(vec![frac_high, frac_low], |frac| {
        family_sweep(cfg, cfg.k_max, frac)
    })?;
    // Series label, scheme, and which of the structures at K it prices.
    let series = [
        ("NV", SchemeKind::NonVirtualized, 0),
        ("VS", SchemeKind::Separate, 0),
        ("VM (α≈0.8)", SchemeKind::Merged, 1),
        ("VM (α≈0.2)", SchemeKind::Merged, 2),
    ];
    let par = ParSimulator::default();
    let mut out = Vec::with_capacity(cfg.k_max * series.len() * SpeedGrade::ALL.len());
    for k in 1..=cfg.k_max {
        let structures = [
            EngineStructure::separate(&sweeps[0], k, cfg.stages, layout)?,
            EngineStructure::merged(&sweeps[0], k, cfg.stages, layout)?,
            EngineStructure::merged(&sweeps[1], k, cfg.stages, layout)?,
        ];
        for grade in SpeedGrade::ALL {
            for (label, scheme, build) in series {
                let spec = ScenarioSpec {
                    stages: cfg.stages,
                    ..ScenarioSpec::paper_default(scheme, grade)
                };
                let structure = structures[build].clone();
                let scenario = Scenario::price(structure, spec, Device::xc6vlx760())?;
                let point = validate_scenario(&scenario, &par);
                let capacity = scenario.capacity_gbps();
                out.push(SweepPoint {
                    series: label.into(),
                    scheme,
                    grade,
                    k,
                    alpha: scenario.alpha(),
                    model_w: point.model_w,
                    experimental_w: point.experimental_w,
                    error_pct: point.error_pct,
                    capacity_gbps: capacity,
                    mw_per_gbps: mw_per_gbps(point.experimental_w, capacity),
                    freq_mhz: scenario.freq_mhz(),
                });
            }
        }
    }
    out.sort_by(|a, b| (a.k, &a.series, a.grade.label()).cmp(&(b.k, &b.series, b.grade.label())));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

/// One row of the merged-memory-model ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationMergedMemRow {
    /// Number of virtual networks.
    pub k: usize,
    /// α plugged into the literal Eq. 5 (= the measured structural α).
    pub alpha: f64,
    /// Literal Eq. 5 total memory, in Mbit.
    pub literal_mbits: f64,
    /// Structural (actually merged) total memory, in Mbit.
    pub structural_mbits: f64,
}

/// Compares Eq. 5 as printed against the structural merged memory
/// (DESIGN.md §3) across K, on one family read off one pass.
///
/// # Errors
/// Rejects `k_max == 0`; propagates scenario construction errors.
pub fn ablation_merged_memory(
    cfg: &ExperimentConfig,
) -> Result<Vec<AblationMergedMemRow>, PowerError> {
    if cfg.k_max == 0 {
        return Err(PowerError::InvalidParameter("k_max must be at least 1"));
    }
    let (_, frac_high) = cfg.shared_fractions()?;
    let layout = MemoryLayout::default();
    let sweep = family_sweep(cfg, cfg.k_max, frac_high)?;
    let memory_mbits = |structure: EngineStructure, merged_memory| {
        let spec = ScenarioSpec {
            stages: cfg.stages,
            merged_memory,
            ..ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus2)
        };
        let scenario = Scenario::price(structure, spec, Device::xc6vlx760())?;
        Ok::<_, PowerError>(scenario.resources().memory_bits as f64 / MBIT)
    };
    (1..=cfg.k_max)
        .map(|k| {
            let alpha = sweep.alpha[k - 1];
            let structural = EngineStructure::merged(&sweep, k, cfg.stages, layout)?;
            Ok(AblationMergedMemRow {
                k,
                alpha,
                literal_mbits: memory_mbits(
                    EngineStructure::separate(&sweep, k, cfg.stages, layout)?
                        .paper_literal(alpha, alpha)?,
                    MergedMemoryModel::PaperLiteral { alpha },
                )?,
                structural_mbits: memory_mbits(structural, MergedMemoryModel::Structural)?,
            })
        })
        .collect()
}

/// One row of the clock-gating ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingRow {
    /// Offered load (≈ duty cycle).
    pub offered_load: f64,
    /// Simulated dynamic power with the paper's gating, in watts.
    pub gated_dynamic_w: f64,
    /// Simulated dynamic power with no power management, in watts.
    pub ungated_dynamic_w: f64,
}

/// Sweeps the offered load and compares gated vs ungated dynamic power on
/// a separate-scheme simulation (§IV's idle-mode argument, quantified).
///
/// # Errors
/// Propagates simulator errors.
pub fn ablation_gating(cfg: &ExperimentConfig, k: usize) -> Result<Vec<GatingRow>, PowerError> {
    use crate::{ArrivalModel, EngineConfig, SimConfig, VirtualRouterSim};
    use vr_net::{SkewedSpec, SkewedTraffic};

    let (_, frac_high) = cfg.shared_fractions()?;
    let tables = cfg.family(k, frac_high)?;
    let packets = 2000u64;
    fan_out(vec![0.1, 0.25, 0.5, 0.75, 1.0], |load| {
        let run = |gating| -> Result<f64, PowerError> {
            let sim_cfg = SimConfig {
                organization: SchemeKind::Separate,
                stages: cfg.stages,
                engine: EngineConfig {
                    grade: SpeedGrade::Minus2,
                    bram_mode: BramMode::K18,
                    gating,
                    freq_mhz: SpeedGrade::Minus2.base_clock_mhz(),
                },
                arrivals: ArrivalModel::SharedLine { offered_load: load },
                arrival_seed: cfg.seed,
            };
            let mut sim = VirtualRouterSim::new(tables.clone(), sim_cfg)?;
            let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(k, cfg.seed), &tables)?;
            let report = sim.run(&mut traffic, packets)?;
            Ok(report.dynamic_power_w())
        };
        Ok(GatingRow {
            offered_load: load,
            gated_dynamic_w: run(crate::gating::GatingPolicy::PAPER)?,
            ungated_dynamic_w: run(crate::gating::GatingPolicy::NONE)?,
        })
    })
}

/// One row of the stride ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrideRow {
    /// Uniform stride width in bits.
    pub stride: u8,
    /// Pipeline stages (= 32 / stride).
    pub stages: usize,
    /// Total expanded entries (memory words).
    pub entries: usize,
    /// Total memory in Mbit.
    pub memory_mbits: f64,
    /// 18 Kb BRAM blocks after per-stage quantization.
    pub bram_blocks: u64,
    /// Dynamic (logic + memory) power at the base -2 clock, in watts.
    pub dynamic_w: f64,
    /// Lookup latency in cycles (= stages).
    pub latency_cycles: usize,
}

/// Ablation (ours, after paper refs. \[7\]\[8\]): the multi-bit stride
/// depth/memory/power trade-off on the worst-case table. Wider strides
/// shorten the pipeline (less logic power, lower latency) but expand
/// memory via CPE (more BRAM power). Per-stage entries come from the
/// closed-form node count `vr_trie::pipeline_map::stride_stage_entries`;
/// no stride trie is built.
///
/// # Errors
/// Propagates table-generation and stride-schedule errors.
pub fn ablation_stride(cfg: &ExperimentConfig) -> Result<Vec<StrideRow>, PowerError> {
    use vr_trie::pipeline_map::stride_stage_entries;
    let table = vr_net::synth::TableSpec {
        prefixes: cfg.prefixes_per_table,
        seed: cfg.seed,
        distribution: PrefixLenDistribution::edge_default(),
        clustering: Some(vr_net::synth::ClusterSpec::edge_default(
            cfg.prefixes_per_table,
        )),
        include_default_route: true,
        next_hops: 16,
    }
    .generate()?;
    // One 32-bit stage word: 8-bit NHI + 6-bit original length + 18-bit
    // child pointer.
    const ENTRY_BITS: u32 = 32;
    fan_out(vec![1u8, 2, 4, 8], |stride| {
        let entries = stride_stage_entries(&table, &vec![stride; 32 / usize::from(stride)])?;
        let stages = entries.len();
        let per_stage: Vec<u64> = entries.iter().map(|&e| e * u64::from(ENTRY_BITS)).collect();
        // One table on its own device: µ = 1 at the base clock.
        let structure = EngineStructure {
            k: 1,
            engine_stage_bits: vec![per_stage],
            alpha: None,
        };
        let spec = ScenarioSpec {
            stages,
            ..ScenarioSpec::paper_default(SchemeKind::NonVirtualized, SpeedGrade::Minus2)
        };
        let scenario = Scenario::price(structure, spec, Device::xc6vlx760())?;
        let usage = scenario.resources();
        Ok(StrideRow {
            stride,
            stages,
            entries: entries.iter().sum::<u64>() as usize,
            memory_mbits: usage.memory_bits as f64 / MBIT,
            bram_blocks: usage.bram_blocks_per_device,
            dynamic_w: analytical_power(&scenario).dynamic_w(),
            latency_cycles: stages,
        })
    })
}

/// One row of the TCAM baseline comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcamRow {
    /// Engine label.
    pub engine: String,
    /// Number of virtual networks.
    pub k: usize,
    /// Total power, in watts.
    pub power_w: f64,
    /// Throughput, in Gbps.
    pub throughput_gbps: f64,
    /// Efficiency, in mW/Gbps.
    pub mw_per_gbps: f64,
}

/// Baseline comparison (§II-B, refs. \[20\]\[10\]): the paper's trie engines
/// vs TCAM organizations holding the same K merged tables.
///
/// # Errors
/// Propagates scenario construction errors.
pub fn tcam_comparison(cfg: &ExperimentConfig) -> Result<Vec<TcamRow>, PowerError> {
    use crate::tcam::TcamSpec;
    let (_, frac_high) = cfg.shared_fractions()?;
    let ks: Vec<usize> = [1usize, cfg.k_max / 2, cfg.k_max]
        .into_iter()
        .map(|k| k.max(1))
        .collect();
    // One engine per table of the largest family; K takes the first K.
    let sweep = family_sweep(cfg, cfg.k_max.max(1), frac_high)?;
    let mut rows = Vec::new();
    for k in ks {
        let scenario = Scenario::price(
            EngineStructure::separate(&sweep, k, cfg.stages, MemoryLayout::default())?,
            ScenarioSpec {
                stages: cfg.stages,
                ..ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2)
            },
            Device::xc6vlx760(),
        )?;
        let estimate = analytical_power(&scenario);
        rows.push(TcamRow {
            engine: "FPGA trie (VS)".into(),
            k,
            power_w: estimate.total_w(),
            throughput_gbps: scenario.capacity_gbps(),
            mw_per_gbps: crate::timing::mw_per_gbps(estimate.total_w(), scenario.capacity_gbps()),
        });
        let entries = k * cfg.prefixes_per_table;
        for (label, spec) in [
            ("TCAM monolithic", TcamSpec::monolithic(entries)),
            ("TCAM partitioned (8)", TcamSpec::partitioned(entries, 8)),
            ("IPStash-like", TcamSpec::ipstash(entries)),
        ] {
            rows.push(TcamRow {
                engine: label.into(),
                k,
                power_w: spec.total_power_w(),
                throughput_gbps: spec.throughput_gbps(),
                mw_per_gbps: spec.mw_per_gbps(),
            });
        }
    }
    Ok(rows)
}

/// One row of the update-cost experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateRow {
    /// Updates applied.
    pub updates: usize,
    /// Mean stage-memory writes per update (≈ touched path length).
    pub mean_writes_per_update: f64,
    /// Merged-trie node count before the churn.
    pub nodes_before: usize,
    /// Merged-trie node count after the churn.
    pub nodes_after: usize,
    /// Table-write rate implied by one update per this many lookups.
    pub write_rate: f64,
    /// Merged-engine BRAM power at that write rate (W), via the §V-B
    /// write-rate extension of the Table III model.
    pub bram_power_w: f64,
}

/// Update-cost experiment (after paper ref. \[6\]): applies an
/// announce/withdraw stream to the merged trie and prices the resulting
/// write rate with the write-aware Table III model.
///
/// # Errors
/// Propagates generation and trie errors.
pub fn update_cost(cfg: &ExperimentConfig, k: usize) -> Result<Vec<UpdateRow>, PowerError> {
    use vr_net::{UpdateMix, UpdateStream};
    use vr_trie::MergedTrie;
    let (_, frac_high) = cfg.shared_fractions()?;
    let tables = cfg.family(k, frac_high)?;
    let mut merged = MergedTrie::from_tables(&tables)?;
    let mut stream = UpdateStream::new(tables, UpdateMix::default(), 16, cfg.seed)?;

    let grade = SpeedGrade::Minus2;
    let mut rows = Vec::new();
    for &updates in &[200usize, 1000] {
        let nodes_before = merged.node_count();
        let mut writes = 0u64;
        for update in stream.batch(updates) {
            match update {
                vr_net::RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                } => {
                    writes += u64::from(prefix.len()) + 1;
                    merged.insert(usize::from(vnid), prefix, next_hop);
                }
                vr_net::RouteUpdate::Withdraw { vnid, prefix } => {
                    writes += u64::from(prefix.len()) + 1;
                    merged.remove(usize::from(vnid), &prefix);
                }
            }
        }
        let nodes_after = merged.node_count();
        // Price a deployment seeing one update per 100 lookups (1 %
        // write rate, the paper's reference) scaled by the mean writes.
        let mean_writes = writes as f64 / updates as f64;
        let write_rate = (0.01 * mean_writes / 29.0).min(1.0); // 29 ≈ path writes at reference
        let pushed = &merged.sweep_stats().by_prefix[k - 1];
        let profile = PipelineProfile::from_stats(pushed, k, cfg.stages, MemoryLayout::default())?;
        let blocks =
            crate::bram::blocks_for_stages(BramMode::K18, &profile.per_stage_memory_bits());
        rows.push(UpdateRow {
            updates,
            mean_writes_per_update: mean_writes,
            nodes_before,
            nodes_after,
            write_rate,
            bram_power_w: crate::bram::bram_power_w_with_writes(
                BramMode::K18,
                grade,
                blocks,
                grade.base_clock_mhz(),
                write_rate,
            ),
        });
    }
    Ok(rows)
}

/// One row of the utilization study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationRow {
    /// Traffic-skew label.
    pub traffic: String,
    /// Scheme label.
    pub scheme: String,
    /// Total power, in watts.
    pub total_w: f64,
    /// Dynamic component, in watts.
    pub dynamic_w: f64,
}

/// Utilization study (§IV-A: "more complex distributions can be modeled
/// by appropriately changing the µᵢ values"), on a *heterogeneous* family
/// (Assumption 2 relaxed): with unequal tables, where the traffic lands
/// changes the µ-weighted dynamic power — concentrating load on the
/// largest table costs more BRAM energy than on the smallest, while the
/// merged engine (no µ in Eq. 6) is indifferent.
///
/// # Errors
/// Propagates generation and scenario errors.
pub fn utilization_study(cfg: &ExperimentConfig) -> Result<Vec<UtilizationRow>, PowerError> {
    let p = cfg.prefixes_per_table;
    let sizes = [p, p / 2, p / 4, (p / 8).max(16)];
    let tables = vr_net::synth::generate_heterogeneous(
        &sizes,
        0.4,
        cfg.seed,
        &PrefixLenDistribution::edge_default(),
        16,
    )?;
    let k = tables.len();
    let variants: [(&str, Vec<f64>); 3] = [
        ("uniform", vec![1.0; k]),
        ("hot-largest", vec![8.0, 2.0, 1.0, 1.0]),
        ("hot-smallest", vec![1.0, 1.0, 2.0, 8.0]),
    ];
    let mut points = Vec::new();
    for (label, mu) in variants {
        for scheme in [SchemeKind::Separate, SchemeKind::Merged] {
            points.push((label, mu.clone(), scheme));
        }
    }
    fan_out(points, |(label, mu, scheme)| {
        let scenario = Scenario::build(
            &tables,
            ScenarioSpec {
                stages: cfg.stages,
                utilization: Some(mu),
                ..ScenarioSpec::paper_default(scheme, SpeedGrade::Minus2)
            },
            Device::xc6vlx760(),
        )?;
        let estimate = analytical_power(&scenario);
        Ok(UtilizationRow {
            traffic: label.into(),
            scheme: scheme.label().into(),
            total_w: estimate.total_w(),
            dynamic_w: estimate.dynamic_w(),
        })
    })
}

/// One row of the queueing study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueingRow {
    /// Packets per burst (1 = smooth arrivals).
    pub burst_len: usize,
    /// Mean distributor queueing delay, in cycles.
    pub mean_wait_cycles: f64,
    /// Deepest distributor queue observed.
    pub max_queue_depth: usize,
    /// Achieved throughput, in Gbps.
    pub throughput_gbps: f64,
    /// All lookups matched the oracle.
    pub fully_correct: bool,
}

/// Queueing study: burstiness vs distributor queueing delay on the
/// separate scheme (the Fig. 1 distributor made concrete). Mean offered
/// load is held at ~1 packet/cycle while the burst length grows, so any
/// added delay is purely a burstiness effect — the QoS angle of §I's
/// "ensuring the throughput and latency requirements guaranteed
/// originally".
///
/// # Errors
/// Propagates generation and simulator errors.
pub fn queueing_study(cfg: &ExperimentConfig, k: usize) -> Result<Vec<QueueingRow>, PowerError> {
    use crate::{ArrivalModel, EngineConfig, SimConfig, VirtualRouterSim};
    use vr_net::{SkewedSpec, SkewedTraffic};
    let (_, frac_high) = cfg.shared_fractions()?;
    let tables = cfg.family(k, frac_high)?;
    fan_out(vec![1usize, 2, 4, 8, 16], |burst_len| {
        let sim_cfg = SimConfig {
            organization: SchemeKind::Separate,
            stages: cfg.stages,
            engine: EngineConfig::paper_default(),
            arrivals: ArrivalModel::Bursty {
                burst_probability: 1.0 / burst_len as f64,
                burst_len,
            },
            arrival_seed: cfg.seed,
        };
        let mut sim = VirtualRouterSim::new(tables.clone(), sim_cfg)?;
        let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(k, cfg.seed), &tables)?;
        let report = sim.run(&mut traffic, 4000)?;
        Ok(QueueingRow {
            burst_len,
            mean_wait_cycles: report.mean_queue_wait_cycles(),
            max_queue_depth: report.max_queue_depth,
            throughput_gbps: report.achieved_throughput_gbps(),
            fully_correct: report.is_fully_correct(),
        })
    })
}

/// One row of the device sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRow {
    /// Device name.
    pub device: String,
    /// Largest VS engine count the device's pins admit.
    pub max_vs_engines: usize,
    /// Whether the VS design at the requested K fits every resource.
    pub fits: bool,
    /// VS total power at K when it fits, in watts.
    pub power_w: Option<f64>,
    /// VS efficiency at K when it fits, in mW/Gbps.
    pub mw_per_gbps: Option<f64>,
}

/// Device sweep (extension of the paper's §VI device-family exploration):
/// walk the Virtex-6 catalog and find the smallest device that still fits
/// the K-engine separate design — smaller dies leak proportionally less,
/// so right-sizing the device is itself a power optimization.
///
/// # Errors
/// Propagates generation errors; per-device fit failures are reported in
/// the rows, not as errors.
pub fn device_sweep(cfg: &ExperimentConfig, k: usize) -> Result<Vec<DeviceRow>, PowerError> {
    let (_, frac_high) = cfg.shared_fractions()?;
    let tables = cfg.family(k, frac_high)?;
    fan_out(Device::catalog(), |device| {
        let max_vs_engines = crate::io::max_engines(&device);
        let built = Scenario::build(
            &tables,
            ScenarioSpec {
                stages: cfg.stages,
                ..ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2)
            },
            device.clone(),
        );
        Ok(match built {
            Ok(scenario) => {
                let estimate = analytical_power(&scenario);
                let capacity = scenario.capacity_gbps();
                DeviceRow {
                    device: device.name.clone(),
                    max_vs_engines,
                    fits: true,
                    power_w: Some(estimate.total_w()),
                    mw_per_gbps: Some(crate::timing::mw_per_gbps(estimate.total_w(), capacity)),
                }
            }
            Err(_) => DeviceRow {
                device: device.name.clone(),
                max_vs_engines,
                fits: false,
                power_w: None,
                mw_per_gbps: None,
            },
        })
    })
}

/// One row of the merged-scheme scalability experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MergedScalingRow {
    /// Number of virtual networks.
    pub k: usize,
    /// Measured merging efficiency.
    pub alpha: f64,
    /// Merged memory demand, in Mbit.
    pub memory_mbits: f64,
    /// 36 Kb-equivalent BRAM blocks demanded.
    pub bram_36k: u64,
    /// Whether one XC6VLX760 still fits the engine.
    pub fits_one_device: bool,
}

/// Merged-scheme scalability (§IV-C: "the total size of memory required
/// to store the merged lookup tree may exceed the memory available on
/// the device"): sweep K at the low α target until the single-device
/// memory wall, reporting where it hits.
///
/// # Errors
/// Propagates generation and trie errors.
pub fn merged_scaling(cfg: &ExperimentConfig) -> Result<Vec<MergedScalingRow>, PowerError> {
    let (frac_low, _) = cfg.shared_fractions()?;
    let device = Device::xc6vlx760();
    let layout = MemoryLayout::default();
    let ks: Vec<usize> = (2..=cfg.k_max_fig4.max(cfg.k_max)).step_by(4).collect();
    let Some(&k_top) = ks.last() else {
        return Ok(Vec::new());
    };
    let sweep = family_sweep(cfg, k_top, frac_low)?;
    ks.into_iter()
        .map(|k| {
            let profile =
                PipelineProfile::from_stats(&sweep.by_prefix[k - 1], k, cfg.stages, layout)?;
            let per_stage = profile.per_stage_memory_bits();
            let blocks18 = crate::bram::blocks_for_stages(BramMode::K18, &per_stage);
            let bram_36k = blocks18.div_ceil(2);
            Ok(MergedScalingRow {
                k,
                alpha: sweep.alpha[k - 1],
                memory_mbits: profile.total_memory_bits() as f64 / MBIT,
                bram_36k,
                fits_one_device: bram_36k <= device.bram_36k_blocks,
            })
        })
        .collect()
}

/// Computes the analytical estimate for a single ad-hoc scenario — a
/// convenience for examples and quick exploration.
///
/// # Errors
/// Propagates scenario construction errors.
pub fn quick_estimate(
    tables: &[RoutingTable],
    scheme: SchemeKind,
    grade: SpeedGrade,
) -> Result<crate::PowerEstimate, PowerError> {
    let scenario = Scenario::build(
        tables,
        ScenarioSpec::paper_default(scheme, grade),
        Device::xc6vlx760(),
    )?;
    Ok(analytical_power(&scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_has_four_curves_with_expected_ordering() {
        let points = fig2_series();
        assert_eq!(points.len(), 4 * FREQ_SWEEP_MHZ.len());
        // At any frequency: 36Kb(-2) > 18Kb(-2) > 18Kb(-1L); and 36Kb(-1L)
        // > 18Kb(-1L).
        let at = |mode, grade| {
            points
                .iter()
                .find(|p| p.mode == mode && p.grade == grade && p.freq_mhz == 300.0)
                .unwrap()
                .power_mw
        };
        assert!(at(BramMode::K36, SpeedGrade::Minus2) > at(BramMode::K18, SpeedGrade::Minus2));
        assert!(at(BramMode::K18, SpeedGrade::Minus2) > at(BramMode::K18, SpeedGrade::Minus1L));
        assert!(at(BramMode::K36, SpeedGrade::Minus1L) > at(BramMode::K18, SpeedGrade::Minus1L));
    }

    #[test]
    fn table3_has_paper_coefficients() {
        let rows = table3_rows();
        assert_eq!(rows.len(), 4);
        let find = |label: &str| {
            rows.iter()
                .find(|r| r.setup == label)
                .unwrap()
                .uw_per_block_mhz
        };
        assert_eq!(find("18Kb (-2)"), 13.65);
        assert_eq!(find("36Kb (-2)"), 24.60);
        assert_eq!(find("18Kb (-1L)"), 11.00);
        assert_eq!(find("36Kb (-1L)"), 19.70);
    }

    #[test]
    fn fig3_is_linear_in_frequency() {
        let points = fig3_series();
        let p100 = points
            .iter()
            .find(|p| p.grade == SpeedGrade::Minus2 && p.freq_mhz == 100.0)
            .unwrap();
        let p500 = points
            .iter()
            .find(|p| p.grade == SpeedGrade::Minus2 && p.freq_mhz == 500.0)
            .unwrap();
        assert!((p500.power_mw - 5.0 * p100.power_mw).abs() < 1e-9);
    }

    #[test]
    fn table2_matches_paper_formatting() {
        let rows = table2_rows(&Device::xc6vlx760());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].amount, "758K");
        assert_eq!(rows[1].amount, "8 Mb");
        assert!(rows[2].amount.contains("Mb"));
        assert_eq!(rows[3].amount, "1200");
    }

    #[test]
    fn statics_rows_have_5_percent_bands() {
        let rows = statics_rows();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!((r.min_w - r.base_w * 0.95).abs() < 1e-12);
            assert!((r.max_w - r.base_w * 1.05).abs() < 1e-12);
        }
    }

    /// A calibration that fails is the sweep's error: no stand-in
    /// fraction sweeps an α target the search refused.
    #[test]
    fn an_out_of_range_alpha_target_is_a_typed_error() {
        let cfg = ExperimentConfig {
            alpha_low: -0.1,
            ..ExperimentConfig::quick()
        };
        let refused = |r: Result<(), PowerError>| {
            matches!(
                r,
                Err(PowerError::Trie(vr_trie::TrieError::InvalidParameter(_)))
            )
        };
        assert!(refused(power_sweep(&cfg).map(drop)));
        assert!(refused(fig4_series(&cfg).map(drop)));
    }

    #[test]
    fn fig4_shapes_hold_on_quick_config() {
        let cfg = ExperimentConfig::quick();
        let points = fig4_series(&cfg).unwrap();
        let series = |name: &str| -> Vec<&Fig4Point> {
            let mut v: Vec<&Fig4Point> = points.iter().filter(|p| p.series == name).collect();
            v.sort_by_key(|p| p.k);
            v
        };
        let sep = series("separate");
        let hi = series("merged (α≈0.8)");
        let lo = series("merged (α≈0.2)");
        assert_eq!(sep.len(), cfg.k_max_fig4);
        let last = cfg.k_max_fig4 - 1;
        // Pointer memory: separate grows ∝K and exceeds both merged
        // variants; low-α merged exceeds high-α merged.
        assert!(sep[last].pointer_mbits > hi[last].pointer_mbits);
        assert!(lo[last].pointer_mbits > hi[last].pointer_mbits);
        // Memory grows with K everywhere.
        assert!(sep[last].pointer_mbits > sep[0].pointer_mbits);
        assert!(hi[last].nhi_mbits > hi[0].nhi_mbits);
        // Merged NHI memory (K-wide vectors) exceeds separate NHI memory.
        assert!(hi[last].nhi_mbits > sep[last].nhi_mbits * 0.8);
        // α ordering is realized.
        assert!(hi[last].measured_alpha.unwrap() > lo[last].measured_alpha.unwrap());
    }

    #[test]
    fn power_sweep_shapes_hold_on_quick_config() {
        let cfg = ExperimentConfig::quick();
        let points = power_sweep(&cfg).unwrap();
        // 4 series × 2 grades × k_max points.
        assert_eq!(points.len(), 4 * 2 * cfg.k_max);
        let get = |series: &str, grade: SpeedGrade, k: usize| -> &SweepPoint {
            points
                .iter()
                .find(|p| p.series == series && p.grade == grade && p.k == k)
                .unwrap()
        };
        let g = SpeedGrade::Minus2;
        // Fig. 5: NV grows ∝ K; virtualized stays near one device.
        let nv1 = get("NV", g, 1);
        let nvk = get("NV", g, cfg.k_max);
        assert!(nvk.model_w > 0.8 * cfg.k_max as f64 * nv1.model_w);
        let vsk = get("VS", g, cfg.k_max);
        assert!(vsk.model_w < 2.0 * nv1.model_w);
        // Fig. 7: everything within ±3 %.
        for p in &points {
            assert!(p.error_pct.abs() <= 3.0, "{} K={}", p.series, p.k);
        }
        // Fig. 8 at k_max: VS best, NV middle, VM worst; low α worse than
        // high α.
        let vm_hi = get("VM (α≈0.8)", g, cfg.k_max);
        let vm_lo = get("VM (α≈0.2)", g, cfg.k_max);
        assert!(vsk.mw_per_gbps < nvk.mw_per_gbps);
        assert!(nvk.mw_per_gbps < vm_hi.mw_per_gbps);
        assert!(vm_lo.mw_per_gbps >= vm_hi.mw_per_gbps * 0.95);
        // §VI-B: -1L uses ~30 % less power at similar efficiency.
        let vs_lo_grade = get("VS", SpeedGrade::Minus1L, cfg.k_max);
        let saving = 1.0 - vs_lo_grade.model_w / vsk.model_w;
        assert!((0.2..0.4).contains(&saving), "saving {saving}");
    }

    #[test]
    fn ablation_merged_memory_shows_the_contradiction() {
        let cfg = ExperimentConfig::quick();
        let rows = ablation_merged_memory(&cfg).unwrap();
        assert_eq!(rows.len(), cfg.k_max);
        // At K > 1 with high α, the literal model (α×ΣM) charges much
        // more memory than actually merging the tries does.
        let last = rows.last().unwrap();
        assert!(last.alpha > 0.4);
        assert!(last.literal_mbits > 0.0 && last.structural_mbits > 0.0);
    }

    #[test]
    fn ablation_gating_quantifies_idle_savings() {
        let cfg = ExperimentConfig::quick();
        let rows = ablation_gating(&cfg, 3).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.gated_dynamic_w <= r.ungated_dynamic_w + 1e-12,
                "gating can only save"
            );
        }
        // At low load, gating saves a large fraction.
        let low = &rows[0];
        assert!(low.gated_dynamic_w < 0.5 * low.ungated_dynamic_w);
        // Gated power grows with load; ungated stays ~flat.
        assert!(rows[4].gated_dynamic_w > rows[0].gated_dynamic_w);
        let rel = (rows[4].ungated_dynamic_w - rows[0].ungated_dynamic_w).abs()
            / rows[4].ungated_dynamic_w;
        assert!(rel < 0.35, "ungated drift {rel}");
    }

    #[test]
    fn ablation_stride_shows_the_depth_memory_tradeoff() {
        let cfg = ExperimentConfig::quick();
        let rows = ablation_stride(&cfg).unwrap();
        assert_eq!(rows.len(), 4);
        // Wider stride → fewer stages, lower latency.
        for pair in rows.windows(2) {
            assert!(pair[1].stages < pair[0].stages);
            assert!(pair[1].latency_cycles < pair[0].latency_cycles);
        }
        // ...but CPE expansion makes wide strides markedly memory-heavier
        // (adjacent small strides may tie: a stride-1 node already holds
        // two slots, so monotonicity only binds across the sweep).
        assert!(rows[3].entries > rows[0].entries);
        assert!(rows[3].memory_mbits > 2.0 * rows[0].memory_mbits);
        // Each row is Eq. 2 at K = 1: µ = 1 at the -2 base clock.
        let (grade, f) = (SpeedGrade::Minus2, SpeedGrade::Minus2.base_clock_mhz());
        for r in &rows {
            let eq2 = crate::logic::pipeline_logic_power_w(grade, r.stages, f)
                + crate::bram::bram_power_w(BramMode::K18, grade, r.bram_blocks, f);
            assert_eq!(r.dynamic_w, eq2, "stride {}", r.stride);
        }
    }

    #[test]
    fn tcam_comparison_reproduces_the_related_work_claims() {
        let cfg = ExperimentConfig::quick();
        let rows = tcam_comparison(&cfg).unwrap();
        let at = |engine: &str, k: usize| {
            rows.iter()
                .find(|r| r.engine == engine && r.k == k)
                .unwrap()
        };
        let k = cfg.k_max;
        // §II-B: TCAM is the power-hungry option.
        assert!(at("TCAM monolithic", k).mw_per_gbps > at("FPGA trie (VS)", k).mw_per_gbps);
        // Ref. [20]: partitioning recovers most of the dynamic power.
        assert!(at("TCAM partitioned (8)", k).power_w < at("TCAM monolithic", k).power_w);
        // Ref. [10]: IPStash sits between monolithic TCAM and partitioned.
        assert!(at("IPStash-like", k).power_w < at("TCAM monolithic", k).power_w);
    }

    #[test]
    fn update_cost_runs_and_prices_writes() {
        let cfg = ExperimentConfig::quick();
        let rows = update_cost(&cfg, 3).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.mean_writes_per_update > 1.0);
            assert!(r.write_rate > 0.0 && r.write_rate <= 1.0);
            assert!(r.bram_power_w > 0.0);
            assert!(r.nodes_before > 0 && r.nodes_after > 0);
        }
    }

    #[test]
    fn utilization_study_shows_mu_sensitivity() {
        // The µ signal only shows once the largest and smallest tables
        // need different per-stage BRAM block counts; below ~1k prefixes
        // the 18Kb quantization can make all four engines identical and
        // the comparison degenerates to noise.
        let cfg = ExperimentConfig {
            prefixes_per_table: 1200,
            seed: 99,
            ..ExperimentConfig::quick()
        };
        let rows = utilization_study(&cfg).unwrap();
        let at = |traffic: &str, scheme: &str| {
            rows.iter()
                .find(|r| r.traffic == traffic && r.scheme == scheme)
                .unwrap()
        };
        let vs = "Virtualized-separate";
        let vm = "Virtualized-merged";
        // With unequal tables, concentrating traffic on the largest table
        // costs more dynamic power than on the smallest (Eq. 4's µ).
        assert!(
            at("hot-largest", vs).dynamic_w > at("hot-smallest", vs).dynamic_w,
            "hot-largest {} vs hot-smallest {}",
            at("hot-largest", vs).dynamic_w,
            at("hot-smallest", vs).dynamic_w
        );
        // The merged engine has no µ in Eq. 6 — identical under any skew.
        let vm_dyn: Vec<f64> = ["uniform", "hot-largest", "hot-smallest"]
            .iter()
            .map(|t| at(t, vm).dynamic_w)
            .collect();
        assert!((vm_dyn[0] - vm_dyn[1]).abs() < 1e-12);
        assert!((vm_dyn[0] - vm_dyn[2]).abs() < 1e-12);
    }

    #[test]
    fn queueing_study_shows_burstiness_cost() {
        let cfg = ExperimentConfig::quick();
        let rows = queueing_study(&cfg, 3).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.fully_correct, "burst {}", r.burst_len);
        }
        // Smooth arrivals never wait; long bursts wait visibly.
        assert_eq!(rows[0].mean_wait_cycles, 0.0);
        let last = rows.last().unwrap();
        assert!(last.mean_wait_cycles > rows[1].mean_wait_cycles);
        assert!(last.max_queue_depth > rows[0].max_queue_depth);
    }

    #[test]
    fn device_sweep_right_sizes_the_device() {
        let cfg = ExperimentConfig::quick();
        let rows = device_sweep(&cfg, 4).unwrap();
        assert_eq!(rows.len(), 3);
        // Every catalog device fits 4 separate engines at quick scale...
        let fitting: Vec<_> = rows.iter().filter(|r| r.fits).collect();
        assert!(fitting.len() >= 2);
        // ...and the smallest fitting die draws the least power.
        let powers: Vec<f64> = fitting.iter().map(|r| r.power_w.unwrap()).collect();
        assert!(
            powers.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "power must not grow down the catalog: {powers:?}"
        );
        // Pin budgets differ: the LX240T admits fewer engines.
        let lx240 = rows.iter().find(|r| r.device == "XC6VLX240T").unwrap();
        let lx760 = rows.iter().find(|r| r.device == "XC6VLX760").unwrap();
        assert!(lx240.max_vs_engines < lx760.max_vs_engines);
    }

    #[test]
    fn merged_scaling_finds_the_memory_wall_direction() {
        let cfg = ExperimentConfig::quick();
        let rows = merged_scaling(&cfg).unwrap();
        assert!(rows.len() >= 2);
        // Memory demand grows monotonically with K at fixed (low) α.
        for pair in rows.windows(2) {
            assert!(pair[1].memory_mbits > pair[0].memory_mbits);
            assert!(pair[1].bram_36k >= pair[0].bram_36k);
        }
        // At quick scale everything still fits one device.
        assert!(rows.iter().all(|r| r.fits_one_device));
    }

    #[test]
    fn quick_estimate_works_end_to_end() {
        let cfg = ExperimentConfig::quick();
        let tables = cfg.family(3, 0.5).unwrap();
        let e = quick_estimate(&tables, SchemeKind::Separate, SpeedGrade::Minus2).unwrap();
        assert!(e.total_w() > 3.0 && e.total_w() < 7.0);
    }
}
