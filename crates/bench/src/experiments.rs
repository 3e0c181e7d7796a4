//! The experiment table behind `all_experiments`: one `fn(&Ctx)` per
//! table/figure/study, each writing `results/<name>.{csv,json}` under
//! its table name. Experiments that read the K × scheme × grade power
//! sweep (`fig5`–`fig8`, `lowpower`, `claims`, the closing summary) share one
//! computation of it through [`Ctx`].

use crate::{emit, opt_num};
use serde::Serialize;
use std::cell::{Cell, OnceCell};
use vr_engine::{LpmCache, DEFAULT_CACHE_SLOTS};
use vr_net::{NextHop, SkewedSpec, SkewedTraffic, VnId};
use vr_power::claims::{check_claims, ClaimCheck};
use vr_power::experiments::{
    ablation_gating, ablation_merged_memory, ablation_stride, device_sweep, fig2_series,
    fig3_series, fig4_series, merged_scaling, power_sweep, queueing_study, quick_estimate,
    statics_rows, table2_rows, table3_rows, tcam_comparison, update_cost, utilization_study,
    ExperimentConfig, SweepPoint,
};
use vr_power::models::cache_discounted_memory_w;
use vr_power::report::num;
use vr_power::{Device, SchemeKind, SpeedGrade};
use vr_trie::JumpTrie;

/// What one run of the table shares between its experiments.
pub struct Ctx {
    /// Paper-scale or `--quick` configuration.
    cfg: ExperimentConfig,
    /// Table name of the experiment being run: the `results/` file stem.
    name: Cell<&'static str>,
    sweep: OnceCell<Vec<SweepPoint>>,
    claims: OnceCell<Vec<ClaimCheck>>,
}

impl Ctx {
    fn new(cfg: ExperimentConfig) -> Self {
        Self {
            cfg,
            name: Cell::new(""),
            sweep: OnceCell::new(),
            claims: OnceCell::new(),
        }
    }

    /// The power sweep, computed by the first experiment that asks.
    fn sweep(&self) -> &[SweepPoint] {
        self.sweep
            .get_or_init(|| power_sweep(&self.cfg).expect("power sweep"))
    }

    /// Prints `rows` and writes them under the running experiment's name.
    fn emit<T: Serialize>(&self, headers: &[&str], rows: &[T], cells: impl Fn(&T) -> Vec<String>) {
        let cells: Vec<_> = rows.iter().map(cells).collect();
        emit(self.name.get(), headers, &cells, &rows);
    }
}

/// A table entry: the `results/` file stem and the experiment writing it.
pub type Experiment = (&'static str, fn(&Ctx));

/// Every experiment, in the order a bare `all_experiments` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table2", table2),
    ("fig2", fig2),
    ("table3", table3),
    ("fig3", fig3),
    ("statics", statics),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("lowpower", lowpower),
    ("ablation_merged_mem", ablation_merged_mem),
    ("ablation_gating", ablation_gating_study),
    ("ablation_stride", ablation_stride_study),
    ("tcam_baseline", tcam_baseline),
    ("updates", updates),
    ("queueing", queueing),
    ("devices", devices),
    ("utilization", utilization),
    ("merged_scaling", merged_scaling_wall),
    ("cache_skew", cache_skew),
    ("claims", claims),
];

/// Runs the named experiments in the order given (all of them, in table
/// order, when `names` is empty) and prints a closing summary of what
/// they computed. `Ok(false)` means a paper claim failed; `Err` names an
/// experiment the table does not have and lists the ones it does.
pub fn run(cfg: ExperimentConfig, names: &[String]) -> Result<bool, String> {
    let selected = select(names)?;
    let ctx = Ctx::new(cfg);
    for &(name, experiment) in &selected {
        ctx.name.set(name);
        experiment(&ctx);
    }
    let mut findings = Vec::new();
    if let Some(sweep) = ctx.sweep.get() {
        let max_err = sweep
            .iter()
            .map(|p| p.error_pct.abs())
            .fold(0.0f64, f64::max);
        findings.push(format!("Max |model error| = {max_err:.3}% (paper: ≤3%)"));
    }
    let checks = ctx.claims.get().map_or(&[][..], Vec::as_slice);
    let failed = checks.iter().filter(|c| !c.holds).count();
    if !checks.is_empty() {
        findings.push(format!(
            "{}/{} paper claims hold",
            checks.len() - failed,
            checks.len()
        ));
    }
    let what = if names.is_empty() {
        "All experiments regenerated".to_string()
    } else {
        format!("Regenerated {}", names.join(", "))
    };
    let findings = match findings.is_empty() {
        true => String::new(),
        false => format!(" {}.", findings.join("; ")),
    };
    println!("\n{what}.{findings}");
    Ok(failed == 0)
}

/// Resolves `names` against [`EXPERIMENTS`]; no names selects the table.
fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|(known, _)| known == name)
                .copied()
                .ok_or_else(|| {
                    let known: Vec<_> = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
                    format!(
                        "unknown experiment `{name}`; EXPERIMENTS has: {}",
                        known.join(" ")
                    )
                })
        })
        .collect()
}

/// Table II: Virtex-6 XC6VLX760 device specs.
fn table2(ctx: &Ctx) {
    ctx.emit(
        &["Resource", "Amount"],
        &table2_rows(&Device::xc6vlx760()),
        |r| vec![r.resource.clone(), r.amount.clone()],
    );
}

/// Fig. 2: single-BRAM power vs operating frequency, four curves
/// (18 Kb / 36 Kb × speed grades -2 / -1L).
fn fig2(ctx: &Ctx) {
    ctx.emit(
        &["Setup", "Frequency (MHz)", "BRAM power (mW)"],
        &fig2_series(),
        |p| {
            vec![
                format!("{} ({})", p.mode, p.grade),
                num(p.freq_mhz, 0),
                num(p.power_mw, 3),
            ]
        },
    );
}

/// Table III: the BRAM power model coefficients.
fn table3(ctx: &Ctx) {
    ctx.emit(&["Setup", "Power (µW)"], &table3_rows(), |r| {
        vec![
            r.setup.clone(),
            format!("⌈M/block⌉ × {} × f", num(r.uw_per_block_mhz, 2)),
        ]
    });
}

/// Fig. 3: per-stage logic+signal power vs frequency.
fn fig3(ctx: &Ctx) {
    ctx.emit(
        &["Series", "Frequency (MHz)", "Per-stage power (mW)"],
        &fig3_series(),
        |p| {
            vec![
                format!("logic ({})", p.grade),
                num(p.freq_mhz, 0),
                num(p.power_mw, 3),
            ]
        },
    );
}

/// §V-A static-power summary: 4.5 W (-2) and 3.1 W (-1L) with the ±5 %
/// area-dependent band.
fn statics(ctx: &Ctx) {
    ctx.emit(
        &["Grade", "Base (W)", "Min −5% (W)", "Max +5% (W)"],
        &statics_rows(),
        |r| {
            vec![
                r.grade.to_string(),
                num(r.base_w, 2),
                num(r.min_w, 3),
                num(r.max_w, 3),
            ]
        },
    );
}

/// Fig. 4: pointer and NHI memory requirements vs K for the merged
/// (α ≈ 0.8, α ≈ 0.2) and separate approaches.
fn fig4(ctx: &Ctx) {
    ctx.emit(
        &[
            "Series",
            "K",
            "Pointer memory (Mb)",
            "NHI memory (Mb)",
            "measured α",
        ],
        &fig4_series(&ctx.cfg).expect("fig4 series"),
        |p| {
            vec![
                p.series.clone(),
                p.k.to_string(),
                num(p.pointer_mbits, 3),
                num(p.nhi_mbits, 3),
                opt_num(p.measured_alpha, 3),
            ]
        },
    );
}

/// The columns Fig. 5 and Fig. 6 share: model and experimental watts.
fn emit_total_power(ctx: &Ctx, points: &[SweepPoint]) {
    ctx.emit(
        &[
            "Series",
            "Grade",
            "K",
            "Model (W)",
            "Experimental (W)",
            "measured α",
        ],
        points,
        |p| {
            vec![
                p.series.clone(),
                p.grade.to_string(),
                p.k.to_string(),
                num(p.model_w, 3),
                num(p.experimental_w, 3),
                opt_num(p.alpha, 3),
            ]
        },
    );
}

/// Fig. 5: total power of NV vs VS vs VM (α ≈ 0.2, 0.8) for both speed
/// grades, K = 1..15. Both the analytical (model) and the simulated
/// post-PAR (experimental) values are printed.
fn fig5(ctx: &Ctx) {
    emit_total_power(ctx, ctx.sweep());
}

/// Fig. 6: total power among the *virtualized* schemes only (VS and VM
/// at both α targets), both speed grades. The experimental column shows
/// the slight decrease with K caused by synthesis optimizations (§VI-A).
fn fig6(ctx: &Ctx) {
    let virtualized: Vec<_> = ctx
        .sweep()
        .iter()
        .filter(|p| p.series != "NV")
        .cloned()
        .collect();
    emit_total_power(ctx, &virtualized);
}

/// Fig. 7: percentage error of the model estimation vs the (simulated)
/// post place-and-route measurement, for every scheme × grade × K. The
/// paper's claim: |error| ≤ 3 %, larger for the merged scheme.
fn fig7(ctx: &Ctx) {
    ctx.emit(&["Series", "Grade", "K", "Error (%)"], ctx.sweep(), |p| {
        vec![
            p.series.clone(),
            p.grade.to_string(),
            p.k.to_string(),
            num(p.error_pct, 3),
        ]
    });
}

/// Fig. 8: power per unit throughput (mW/Gbps, 40-byte packets) for
/// every scheme × grade × K. The paper's ordering: separate best,
/// conventional second, merged worst (worse at low α).
fn fig8(ctx: &Ctx) {
    ctx.emit(
        &[
            "Series",
            "Grade",
            "K",
            "Capacity (Gbps)",
            "mW/Gbps",
            "Clock (MHz)",
        ],
        ctx.sweep(),
        |p| {
            vec![
                p.series.clone(),
                p.grade.to_string(),
                p.k.to_string(),
                num(p.capacity_gbps, 1),
                num(p.mw_per_gbps, 2),
                num(p.freq_mhz, 1),
            ]
        },
    );
}

/// §VI-B low-power-FPGA comparison: the -1L grade saves ≈30 % power
/// while delivering essentially the same mW/Gbps as -2 (at lower
/// absolute throughput).
fn lowpower(ctx: &Ctx) {
    let points = ctx.sweep();
    let at = |series: &str, k: usize, grade: SpeedGrade| {
        points
            .iter()
            .find(|p| p.series == series && p.k == k && p.grade == grade)
    };
    let mut raw = Vec::new();
    for series in ["NV", "VS", "VM (α≈0.8)", "VM (α≈0.2)"] {
        for k in 1..=ctx.cfg.k_max {
            if let (Some(hi), Some(lo)) = (
                at(series, k, SpeedGrade::Minus2),
                at(series, k, SpeedGrade::Minus1L),
            ) {
                let power_saving = 1.0 - lo.model_w / hi.model_w;
                let eff_ratio = lo.mw_per_gbps / hi.mw_per_gbps;
                raw.push((series.to_string(), k, power_saving, eff_ratio));
            }
        }
    }
    ctx.emit(
        &[
            "Series",
            "K",
            "-1L power saving (%)",
            "mW/Gbps ratio (-1L / -2)",
        ],
        &raw,
        |(series, k, power_saving, eff_ratio)| {
            vec![
                series.clone(),
                k.to_string(),
                num(power_saving * 100.0, 1),
                num(*eff_ratio, 3),
            ]
        },
    );
}

/// Ablation (ours): Eq. 5 exactly as printed (merged memory = α·ΣM) vs
/// the structural model derived from actually merging the tries. The two
/// diverge exactly as DESIGN.md §3 documents.
fn ablation_merged_mem(ctx: &Ctx) {
    ctx.emit(
        &[
            "K",
            "measured α",
            "Eq.5 literal (Mb)",
            "structural (Mb)",
            "literal / structural",
        ],
        &ablation_merged_memory(&ctx.cfg).expect("ablation merged mem"),
        |r| {
            vec![
                r.k.to_string(),
                num(r.alpha, 3),
                num(r.literal_mbits, 3),
                num(r.structural_mbits, 3),
                num(r.literal_mbits / r.structural_mbits.max(1e-12), 2),
            ]
        },
    );
}

/// Ablation (ours): how much dynamic power the §IV idle-mode mechanisms
/// (logic flags + memory clock gating) save, measured on the cycle-level
/// simulator across offered loads.
fn ablation_gating_study(ctx: &Ctx) {
    ctx.emit(
        &[
            "Offered load",
            "Gated dynamic (mW)",
            "Ungated dynamic (mW)",
            "Saving (%)",
        ],
        &ablation_gating(&ctx.cfg, 4.min(ctx.cfg.k_max)).expect("ablation gating"),
        |r| {
            vec![
                num(r.offered_load, 2),
                num(r.gated_dynamic_w * 1e3, 3),
                num(r.ungated_dynamic_w * 1e3, 3),
                num(
                    (1.0 - r.gated_dynamic_w / r.ungated_dynamic_w.max(1e-12)) * 100.0,
                    1,
                ),
            ]
        },
    );
}

/// Ablation: multi-bit stride width vs pipeline depth, memory and power
/// (the depth-bounded trade-off of the paper's refs. [7][8]).
fn ablation_stride_study(ctx: &Ctx) {
    ctx.emit(
        &[
            "Stride",
            "Stages",
            "Latency (cycles)",
            "Entries",
            "Memory (Mb)",
            "BRAM blocks",
            "Dynamic (mW)",
        ],
        &ablation_stride(&ctx.cfg).expect("ablation stride"),
        |r| {
            vec![
                r.stride.to_string(),
                r.stages.to_string(),
                r.latency_cycles.to_string(),
                r.entries.to_string(),
                num(r.memory_mbits, 3),
                r.bram_blocks.to_string(),
                num(r.dynamic_w * 1e3, 1),
            ]
        },
    );
}

/// Baseline: the paper's FPGA trie engine vs TCAM organizations (§II-B,
/// refs. [20][10]) on one power / throughput / mW-per-Gbps axis.
fn tcam_baseline(ctx: &Ctx) {
    ctx.emit(
        &["Engine", "K", "Power (W)", "Throughput (Gbps)", "mW/Gbps"],
        &tcam_comparison(&ctx.cfg).expect("tcam comparison"),
        |r| {
            vec![
                r.engine.clone(),
                r.k.to_string(),
                num(r.power_w, 3),
                num(r.throughput_gbps, 1),
                num(r.mw_per_gbps, 2),
            ]
        },
    );
}

/// Update-cost experiment (after paper ref. [6]): incremental
/// announce/withdraw churn on the merged trie, and its power price via
/// the write-rate-aware Table III model (§V-B assumed a 1 % write rate).
fn updates(ctx: &Ctx) {
    ctx.emit(
        &[
            "Updates",
            "Writes/update",
            "Nodes before",
            "Nodes after",
            "Write rate (%)",
            "Merged BRAM power (mW)",
        ],
        &update_cost(&ctx.cfg, 4.min(ctx.cfg.k_max)).expect("update cost"),
        |r| {
            vec![
                r.updates.to_string(),
                num(r.mean_writes_per_update, 2),
                r.nodes_before.to_string(),
                r.nodes_after.to_string(),
                num(r.write_rate * 100.0, 3),
                num(r.bram_power_w * 1e3, 2),
            ]
        },
    );
}

/// Queueing study: burstiness vs distributor queueing delay at constant
/// mean load (the Fig. 1 distributor, QoS angle of §I).
fn queueing(ctx: &Ctx) {
    ctx.emit(
        &[
            "Burst length",
            "Mean wait (cycles)",
            "Max queue depth",
            "Throughput (Gbps)",
            "Correct",
        ],
        &queueing_study(&ctx.cfg, 4.min(ctx.cfg.k_max)).expect("queueing study"),
        |r| {
            vec![
                r.burst_len.to_string(),
                num(r.mean_wait_cycles, 2),
                r.max_queue_depth.to_string(),
                num(r.throughput_gbps, 1),
                r.fully_correct.to_string(),
            ]
        },
    );
}

/// Device sweep: right-sizing the FPGA for a K-engine separate design
/// (extension of the paper's §VI device-family exploration).
fn devices(ctx: &Ctx) {
    ctx.emit(
        &["Device", "Max VS engines", "Fits", "Power (W)", "mW/Gbps"],
        &device_sweep(&ctx.cfg, 8.min(ctx.cfg.k_max)).expect("device sweep"),
        |r| {
            vec![
                r.device.clone(),
                r.max_vs_engines.to_string(),
                r.fits.to_string(),
                opt_num(r.power_w, 3),
                opt_num(r.mw_per_gbps, 2),
            ]
        },
    );
}

/// Utilization study (§IV-A): non-uniform µ over a heterogeneous family —
/// where the traffic lands changes Eq. 4's dynamic power; Eq. 6 is
/// indifferent.
fn utilization(ctx: &Ctx) {
    ctx.emit(
        &["Traffic", "Scheme", "Total (W)", "Dynamic (mW)"],
        &utilization_study(&ctx.cfg).expect("utilization study"),
        |r| {
            vec![
                r.traffic.clone(),
                r.scheme.clone(),
                num(r.total_w, 4),
                num(r.dynamic_w * 1e3, 2),
            ]
        },
    );
}

/// The merged scheme's single-device memory wall (§IV-C) at the low
/// merging-efficiency target.
fn merged_scaling_wall(ctx: &Ctx) {
    ctx.emit(
        &[
            "K",
            "measured α",
            "Merged memory (Mb)",
            "36Kb blocks",
            "Fits XC6VLX760",
        ],
        &merged_scaling(&ctx.cfg).expect("merged scaling"),
        |r| {
            vec![
                r.k.to_string(),
                num(r.alpha, 3),
                num(r.memory_mbits, 2),
                r.bram_36k.to_string(),
                r.fits_one_device.to_string(),
            ]
        },
    );
}

/// Result-cache hit rate and the memory power it would save vs Zipf
/// skew (deterministic: no column is timed).
fn cache_skew(ctx: &Ctx) {
    ctx.emit(
        &["K", "Zipf s", "Slots", "Hit rate", "Memory W", "Cached W"],
        &cache_skew_study(&ctx.cfg, 4).expect("cache skew study"),
        |r| {
            vec![
                r.k.to_string(),
                num(r.zipf_s, 2),
                r.cache_slots.to_string(),
                num(r.hit_rate, 3),
                num(r.memory_w, 3),
                num(r.memory_w_cached, 3),
            ]
        },
    );
}

/// Zipf exponents swept by [`cache_skew_study`]: uniform traffic
/// (`s = 0`) through strongly skewed (`s = 1.5`).
const CACHE_SKEW_SWEEP: [f64; 4] = [0.0, 0.5, 1.0, 1.5];

/// One row of the result-cache skew sweep: the hit rate an LPM cache in
/// front of the walk reaches on traffic of one skew, and the dynamic
/// memory power that hit rate would discount.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct CacheSkewRow {
    /// Virtual networks merged into the trie under test.
    k: usize,
    /// Zipf exponent of the offered traffic (0 = uniform).
    zipf_s: f64,
    /// Cache capacity in slots (power of two).
    cache_slots: usize,
    /// Distinct destinations the stream draws from.
    working_set: usize,
    /// Steady-state cache hit rate over the measured stream.
    hit_rate: f64,
    /// Analytical dynamic memory power of the merged scheme, in watts.
    memory_w: f64,
    /// Memory power that survives the cache discount, in watts.
    memory_w_cached: f64,
}

/// Cache skew sweep: a merged `JumpTrie` over a K-network family is
/// driven by seeded [`SkewedTraffic`] streams at each
/// [`CACHE_SKEW_SWEEP`] exponent through an [`LpmCache`] at the default
/// capacity and a quarter of it. Each row records the hit rate alongside
/// the analytical memory power discounted by it
/// ([`cache_discounted_memory_w`]). No service runs this cache (DESIGN
/// §15); the study prices what one would save in the pipeline's BRAM.
///
/// The hit rate is measured honestly: the cache is warmed on one stream
/// from the distribution, stats are reset, and the rate is taken over an
/// independent continuation stream — neither cold misses nor a literal
/// replay of the warmup inflate it.
fn cache_skew_study(
    cfg: &ExperimentConfig,
    k: usize,
) -> Result<Vec<CacheSkewRow>, Box<dyn std::error::Error>> {
    const CHUNK: usize = 512;
    // The probe/fill path tags slots with a generation; any fixed value
    // works when driving the trie directly.
    const GENERATION: u64 = 1;

    let tables = cfg.family(k, 0.5)?;
    let jump = JumpTrie::from_tables(&tables)?;
    let memory_w = quick_estimate(&tables, SchemeKind::Merged, SpeedGrade::Minus2)?.memory_w;
    // Enough packets that the warm cache reaches its steady state,
    // bounded so the quick configuration stays fast.
    let measure = (cfg.prefixes_per_table * k * 8).clamp(16_384, 262_144);

    let mut rows = Vec::new();
    for &s in &CACHE_SKEW_SWEEP {
        for slots in [DEFAULT_CACHE_SLOTS >> 2, DEFAULT_CACHE_SLOTS] {
            let spec = SkewedSpec::zipf(k, s, cfg.seed);
            let mut traffic = SkewedTraffic::new(spec, &tables)?;
            let warm_pairs: Vec<(VnId, u32)> = traffic.pairs(measure);
            let pairs: Vec<(VnId, u32)> = traffic.pairs(measure);
            let mut out: Vec<Option<NextHop>> = vec![None; CHUNK];
            let mut cache = LpmCache::new(slots)?;
            for chunk in warm_pairs.chunks(CHUNK) {
                cache.lookup_batch(&jump, GENERATION, chunk, &mut out[..chunk.len()]);
            }
            cache.reset_stats();
            for chunk in pairs.chunks(CHUNK) {
                cache.lookup_batch(&jump, GENERATION, chunk, &mut out[..chunk.len()]);
            }
            let hit_rate = cache.stats().hit_rate();
            rows.push(CacheSkewRow {
                k,
                zipf_s: s,
                cache_slots: cache.capacity(),
                working_set: traffic.working_set(),
                hit_rate,
                memory_w,
                memory_w_cached: cache_discounted_memory_w(memory_w, hit_rate),
            });
        }
    }
    Ok(rows)
}

/// The paper-claims checklist: every quantitative claim re-derived from
/// this reproduction's own sweep, with a pass/fail verdict.
fn claims(ctx: &Ctx) {
    let checks = ctx
        .claims
        .get_or_init(|| check_claims(ctx.sweep(), ctx.cfg.k_max).expect("claim checks"));
    ctx.emit(
        &["", "Claim", "Paper", "Statement", "Measured"],
        checks,
        |c| {
            vec![
                if c.holds { "✓" } else { "✗" }.to_string(),
                c.id.clone(),
                c.section.clone(),
                c.statement.clone(),
                c.measured.clone(),
            ]
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<&'static str> {
        EXPERIMENTS.iter().map(|&(name, _)| name).collect()
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut sorted = names();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), EXPERIMENTS.len());
    }

    #[test]
    fn cache_skew_study_discounts_memory_power_with_skew() {
        let cfg = ExperimentConfig::quick();
        let rows = cache_skew_study(&cfg, 2).unwrap();
        assert_eq!(rows.len(), CACHE_SKEW_SWEEP.len() * 2);
        for row in &rows {
            assert_eq!(row.k, 2);
            assert!(row.cache_slots.is_power_of_two());
            assert!(row.working_set > 0);
            assert!((0.0..=1.0).contains(&row.hit_rate));
            assert!(row.memory_w > 0.0);
            assert!(row.memory_w_cached <= row.memory_w);
            // The discount is exactly the hit-rate share of memory power.
            let expected = row.memory_w * (1.0 - row.hit_rate);
            assert!((row.memory_w_cached - expected).abs() < 1e-12);
        }
        // The quick family's working set fits the cache, so skewed
        // traffic must hit nearly always and uniform traffic must still
        // hit often enough to discount meaningfully.
        let skewed = rows.iter().find(|r| r.zipf_s > 1.25).unwrap();
        assert!(skewed.hit_rate > 0.9, "s=1.5 hit rate {}", skewed.hit_rate);
        // Nothing is timed, so a second run writes the same table.
        assert_eq!(cache_skew_study(&cfg, 2).unwrap(), rows);
    }

    #[test]
    fn unknown_name_is_an_error_naming_the_table() {
        let err = select(&["fig5".to_string(), "fig9".to_string()]).unwrap_err();
        assert!(err.contains("`fig9`"), "{err}");
        for name in names() {
            assert!(err.contains(name), "{err} should list {name}");
        }
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let picked = select(&["claims".to_string(), "fig5".to_string()]).unwrap();
        assert_eq!(
            picked.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            ["claims", "fig5"]
        );
    }

    /// The `[A-Za-z0-9_]+` run at the start of `text`.
    fn ident(text: &str) -> &str {
        let end = text
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(text.len());
        &text[..end]
    }

    /// A first slice of ROADMAP's `docs-check`, in both directions: every
    /// experiment the docs tell a reader to run, and every `results/` table
    /// they cite, exists; every experiment has its table on disk (and no
    /// table outlives its experiment) and its `all_experiments -- <name>`
    /// entry in EXPERIMENTS.md.
    #[test]
    fn docs_cite_only_experiments_the_table_has() {
        let known = names();
        let results = crate::results_dir();
        let root = results.parent().expect("workspace root");

        let mut on_disk: Vec<String> = std::fs::read_dir(&results)
            .expect("results/")
            .map(|entry| entry.expect("results/ entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        on_disk.sort_unstable();
        let mut expected = known.clone();
        expected.sort_unstable();
        assert_eq!(on_disk, expected, "results/*.csv vs EXPERIMENTS");

        let mut cited = 0usize;
        let mut justified = Vec::new();
        for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            for (at, _) in text.match_indices("all_experiments -- ") {
                let args = text[at + "all_experiments -- ".len()..]
                    .split(['`', '\n', '#'])
                    .next()
                    .unwrap_or("");
                for name in args.split_whitespace().filter(|a| !a.starts_with("--")) {
                    assert!(known.contains(&name), "{doc}: `all_experiments -- {name}`");
                    cited += 1;
                    if doc == "EXPERIMENTS.md" {
                        justified.push(name.to_string());
                    }
                }
            }
            for (at, _) in text.match_indices("results/") {
                let rest = &text[at + "results/".len()..];
                let name = ident(rest);
                let ext = &rest[name.len()..];
                let is_table = [".csv", ".json", ".{csv,json}"]
                    .iter()
                    .any(|e| ext.starts_with(e));
                if is_table && !name.is_empty() {
                    assert!(known.contains(&name), "{doc}: results/{name}{ext:.12}");
                    cited += 1;
                }
            }
        }
        assert!(cited > EXPERIMENTS.len(), "only {cited} citations found");
        for name in known {
            assert!(
                justified.iter().any(|j| j == name),
                "EXPERIMENTS.md has no `all_experiments -- {name}` entry"
            );
        }
    }

    fn workspace_root() -> std::path::PathBuf {
        let results = crate::results_dir();
        results.parent().expect("workspace root").to_path_buf()
    }

    /// Every first-party crate under `crates/`: its package name and its
    /// first-party (`vr-*`) `[dependencies]`, read off the manifests.
    fn manifests(root: &std::path::Path) -> Vec<(String, std::path::PathBuf, Vec<String>)> {
        let mut crates = Vec::new();
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let dir = entry.expect("crates/ entry").path();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let (mut name, mut deps, mut section) = (String::new(), Vec::new(), "");
            for line in manifest.lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line;
                } else if let Some((key, value)) = line.split_once(" = ") {
                    match section {
                        "[package]" if key == "name" => name = value.trim_matches('"').to_string(),
                        "[dependencies]" if key.starts_with("vr-") => deps.push(key.to_string()),
                        _ => {}
                    }
                }
            }
            deps.sort_unstable();
            crates.push((name, dir, deps));
        }
        crates.sort_unstable();
        crates
    }

    /// DESIGN §6's table is the dependency graph the manifests declare,
    /// one row per crate, and the paper side links none of the serving
    /// stack.
    #[test]
    fn design_crate_table_matches_the_manifests() {
        let root = workspace_root();
        let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("6. "))
            .expect("DESIGN §6");
        let mut rows = Vec::new();
        for row in section.lines().filter_map(|line| line.strip_prefix("| `")) {
            let (name, rest) = row.split_once('`').expect("crate cell");
            let deps = rest.rsplit('|').nth(1).expect("dependency cell").split('`');
            let mut deps: Vec<String> = deps
                .filter(|w| w.starts_with("vr-"))
                .map(String::from)
                .collect();
            deps.sort_unstable();
            rows.push((name.to_string(), deps));
        }
        rows.sort_unstable();
        let declared: Vec<(String, Vec<String>)> = manifests(&root)
            .into_iter()
            .map(|(name, _, deps)| (name, deps))
            .collect();
        assert_eq!(rows, declared, "DESIGN §6 vs crates/*/Cargo.toml");
        let power = ["vr-net", "vr-trie"].map(String::from).to_vec();
        assert!(
            declared.contains(&("vr-power".to_string(), power)),
            "vr-power's dependencies"
        );
    }

    /// Every `vr_<crate>::<segment>` the docs cite names a module or a
    /// re-export that exists: `<segment>.rs` or `<segment>/` under the
    /// crate's `src/`, or a `mod`, `pub use` or item of its `lib.rs`. A
    /// braced list checks each of its names. A path spelled with the
    /// package name (`vr-<crate>::`) is checked the same way.
    #[test]
    fn docs_cite_only_module_paths_that_exist() {
        fn words(text: &str) -> impl Iterator<Item = &str> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|word| !word.is_empty())
        }
        let root = workspace_root();
        let crates = manifests(&root);
        let exists = |krate: &str, segment: &str| {
            let Some((_, dir, _)) = crates
                .iter()
                .find(|(name, _, _)| name.replace('-', "_") == krate)
            else {
                return false;
            };
            let src = dir.join("src");
            if src.join(format!("{segment}.rs")).is_file() || src.join(segment).is_dir() {
                return true;
            }
            let lib = std::fs::read_to_string(src.join("lib.rs")).unwrap_or_default();
            let tokens: Vec<&str> = words(&lib).collect();
            let declared = tokens.windows(2).any(|pair| {
                ["mod", "struct", "enum", "fn", "const", "type", "trait"].contains(&pair[0])
                    && pair[1] == segment
            });
            let mut uses = lib.split("pub use ").skip(1);
            declared
                || uses
                    .any(|stmt| words(stmt.split(';').next().unwrap_or("")).any(|w| w == segment))
        };
        let mut cited = 0usize;
        for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md"] {
            let text = std::fs::read_to_string(root.join(doc))
                .expect(doc)
                .replace("vr-", "vr_");
            for (at, _) in text.match_indices("vr_") {
                let krate = format!("vr_{}", ident(&text[at + 3..]));
                let Some(rest) = text[at + krate.len()..].strip_prefix("::") else {
                    continue;
                };
                let segments: Vec<&str> = match rest.strip_prefix('{') {
                    Some(list) => list
                        .split('}')
                        .next()
                        .unwrap_or("")
                        .split(',')
                        .map(|item| ident(item.trim()))
                        .collect(),
                    None => vec![ident(rest)],
                };
                for segment in segments {
                    assert!(exists(&krate, segment), "{doc}: `{krate}::{segment}`");
                    cited += 1;
                }
            }
        }
        assert!(cited > 50, "only {cited} module paths found");
    }

    /// The next slice of `docs-check`: every `ROADMAP item N` or
    /// `ROADMAP item N(x)` pointer in README, EXPERIMENTS and DESIGN
    /// names an open item (a `- **N.` heading in ROADMAP.md), and its
    /// `(x)`, when given, appears inside that item. A pointer may wrap
    /// across lines.
    #[test]
    fn docs_cite_only_open_roadmap_items() {
        let root = workspace_root();
        let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).expect("ROADMAP.md");
        // Item number → its text, from its heading to the next item or
        // section heading.
        let mut items: Vec<(String, String)> = Vec::new();
        for line in roadmap.lines() {
            let heading = line
                .strip_prefix("- **")
                .and_then(|rest| rest.split_once('.'));
            if let Some((n, _)) =
                heading.filter(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            {
                items.push((n.to_string(), String::new()));
            } else if line.starts_with("## ") {
                items.push((String::new(), String::new()));
            }
            if let Some((_, text)) = items.last_mut() {
                text.push_str(line);
                text.push('\n');
            }
        }
        let item = |n: &str| items.iter().find(|(m, _)| m == n).map(|(_, text)| text);

        let mut cited = 0usize;
        for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            let words: Vec<&str> = text.split_whitespace().collect();
            for window in words.windows(3) {
                let [roadmap, kw, pointer] = window else {
                    unreachable!()
                };
                if !roadmap.ends_with("ROADMAP") || *kw != "item" {
                    continue;
                }
                let n = &pointer[..pointer.bytes().take_while(u8::is_ascii_digit).count()];
                if n.is_empty() {
                    continue; // "an open ROADMAP item consumes", not a pointer
                }
                let body = item(n)
                    .unwrap_or_else(|| panic!("{doc}: ROADMAP item {n} is not an open item"));
                let rest = &pointer[n.len()..];
                if let Some(sub) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
                    let sub = format!("({})", sub.0);
                    assert!(body.contains(&sub), "{doc}: ROADMAP item {n} has no {sub}");
                }
                cited += 1;
            }
        }
        assert!(cited >= 4, "only {cited} ROADMAP item pointers found");
    }

    /// Blanks line comments and the contents of string literals, so
    /// `Relaxed` in a doc comment or `"13.65"` in a message cannot fire a
    /// source rule. Block comments are handled across lines via the
    /// `in_block` state. The pass is length-preserving: every input byte
    /// maps to one output byte, non-ASCII bytes becoming spaces.
    fn strip_line(line: &str, in_block: &mut bool) -> String {
        let bytes = line.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        let mut in_str = false;
        while i < bytes.len() {
            if *in_block {
                if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    *in_block = false;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(b' ');
                    i += 1;
                }
                continue;
            }
            let c = bytes[i];
            if in_str {
                if c == b'\\' && i + 1 < bytes.len() {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    in_str = false;
                    out.push(b'"');
                } else {
                    out.push(b' ');
                }
                i += 1;
                continue;
            }
            match c {
                b'"' => {
                    in_str = true;
                    out.push(b'"');
                    i += 1;
                }
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                    out.resize(bytes.len(), b' ');
                    break;
                }
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                    *in_block = true;
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                _ => {
                    out.push(if c.is_ascii() { c } else { b' ' });
                    i += 1;
                }
            }
        }
        String::from_utf8(out).expect("blanked line is pure ASCII")
    }

    /// Byte offset of the first non-trivial float literal in a stripped
    /// line: one carrying calibration information. Zero, one and powers
    /// of ten (`1e-6`, `100.0`) are unit conversions and comparisons.
    fn find_float_literal(stripped: &str) -> Option<usize> {
        let bytes = stripped.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !bytes[i].is_ascii_digit() {
                i += 1;
                continue;
            }
            // Runs continuing an identifier, a hex literal or a tuple
            // field access (`group.1`) are not floats.
            let glued = i > 0
                && (bytes[i - 1].is_ascii_alphanumeric()
                    || bytes[i - 1] == b'_'
                    || bytes[i - 1] == b'.');
            let (mut j, mut saw_dot, mut saw_exp) = (i, false, false);
            let mut mantissa = String::new();
            while j < bytes.len() {
                let c = bytes[j];
                let next = bytes.get(j + 1).copied().unwrap_or(b' ');
                if c.is_ascii_digit() {
                    if !saw_exp {
                        mantissa.push(c as char);
                    }
                    j += 1;
                } else if c == b'_' && !saw_exp {
                    j += 1;
                } else if c == b'.' && !saw_dot && !saw_exp && next.is_ascii_digit() {
                    saw_dot = true;
                    j += 1;
                } else if (c == b'e' || c == b'E')
                    && !saw_exp
                    && (next == b'-' || next == b'+' || next.is_ascii_digit())
                {
                    saw_exp = true;
                    j += if next.is_ascii_digit() { 1 } else { 2 };
                } else {
                    break;
                }
            }
            let trimmed = mantissa.trim_start_matches('0').trim_end_matches('0');
            if !glued && (saw_dot || saw_exp) && !trimmed.is_empty() && trimmed != "1" {
                return Some(i);
            }
            i = j;
        }
        None
    }

    /// Byte offset of `word` in `haystack` where it stands alone, not
    /// inside an identifier (`unsafe` does not match `unsafe_code`).
    fn find_word(haystack: &str, word: &str) -> Option<usize> {
        let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        haystack.match_indices(word).map(|(at, _)| at).find(|&at| {
            let end = at + word.len();
            (at == 0 || !is_ident(haystack.as_bytes()[at - 1]))
                && (end == haystack.len() || !is_ident(haystack.as_bytes()[end]))
        })
    }

    /// The two source rules no compiler lint can state, over one file's
    /// text up to its `#[cfg(test)]` tail (`rel` is workspace-relative):
    ///
    /// * `no-raw-power-literal`: in `crates/core`, a
    ///   non-trivial float literal on a line that names a power unit
    ///   belongs in `units.rs` or in `grade.rs`'s Table III
    ///   calibration, the one source of watts the reproduction has;
    /// * `no-relaxed-publish`: anywhere, `Relaxed` on a line naming
    ///   `generation` or `publish` is a generation published without
    ///   release ordering.
    fn source_findings(rel: &str, text: &str) -> Vec<String> {
        const POWER_MARKERS: [&str; 6] = ["watt", "_w ", "_uw", "_mw", "uw_per", "mhz"];
        let power_scope = rel.starts_with("crates/core/")
            && !rel.ends_with("/units.rs")
            && !rel.ends_with("/grade.rs");
        let mut in_block = false;
        let mut findings = Vec::new();
        let body = text
            .lines()
            .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"));
        for (n, line) in body.enumerate() {
            let stripped = strip_line(line, &mut in_block);
            let lower = stripped.to_ascii_lowercase();
            let mut fire = |rule: &str| findings.push(format!("{rel}:{}: {rule}: {line}", n + 1));
            if power_scope
                && find_float_literal(&stripped).is_some()
                && POWER_MARKERS.iter().any(|m| lower.contains(m))
            {
                fire("no-raw-power-literal");
            }
            if find_word(&stripped, "Relaxed").is_some()
                && ["generation", "publish"].iter().any(|m| lower.contains(m))
            {
                fire("no-relaxed-publish");
            }
        }
        findings
    }

    /// Every first-party `.rs` file keeps the two rules of
    /// [`source_findings`]; the compiler checks the rest (the root
    /// `clippy.toml`, `unsafe_code` and module privacy).
    #[test]
    fn no_raw_power_literal_or_relaxed_publication() {
        const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", ".claude"];
        let root = workspace_root();
        let (mut stack, mut scanned, mut findings) = (vec![root.clone()], 0, Vec::new());
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("readable directory") {
                let path = entry.expect("directory entry").path();
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                if path.is_dir() && !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                } else if name.ends_with(".rs") {
                    let rel = path.strip_prefix(&root).expect("under the root");
                    let text = std::fs::read_to_string(&path).expect("source file");
                    findings.extend(source_findings(&rel.to_string_lossy(), &text));
                    scanned += 1;
                }
            }
        }
        assert!(scanned > 100, "only {scanned} files scanned");
        assert!(findings.is_empty(), "{}", findings.join("\n"));
    }

    #[test]
    fn strip_line_is_length_preserving() {
        let mut in_block = false;
        for line in [
            "let x = 1; // trailing comment with unsafe",
            "let s = \"unsafe in a string\"; let y = 2;",
            "before /* block unsafe */ after",
            "plain line",
        ] {
            let stripped = strip_line(line, &mut in_block);
            assert_eq!(stripped.len(), line.len(), "{line:?}");
        }
        // An open block comment blanks to the end of the line.
        let stripped = strip_line("code(); /* starts here", &mut in_block);
        assert!(in_block);
        assert_eq!(stripped.len(), "code(); /* starts here".len());
        assert!(stripped.starts_with("code(); "));
    }

    #[test]
    fn unsafe_in_comments_strings_and_attributes_is_ignored() {
        let mut in_block = false;
        for line in [
            "// unsafe here",
            "/* unsafe",
            " unsafe */",
            "let s = \"unsafe\";",
            "#![forbid(unsafe_code)]",
        ] {
            let stripped = strip_line(line, &mut in_block);
            assert_eq!(find_word(&stripped, "unsafe"), None, "{line:?}");
        }
        assert_eq!(find_word("fn f() { unsafe { } }", "unsafe"), Some(9));
    }

    #[test]
    fn raw_power_literal_fires_in_power_crates_only() {
        let text = "let static_w = 4.5;\n";
        let findings = source_findings("crates/core/src/bram.rs", text);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("no-raw-power-literal"), "{findings:?}");
        // Outside the power crate the same line is fine.
        assert!(source_findings("crates/trie/src/stats.rs", text).is_empty());
        // In the designated calibration homes it is also fine.
        assert!(source_findings("crates/core/src/grade.rs", text).is_empty());
        assert!(source_findings("crates/core/src/units.rs", text).is_empty());
    }

    #[test]
    fn float_without_power_marker_is_fine() {
        let text = "let ratio = 0.5;\n";
        assert!(source_findings("crates/core/src/par.rs", text).is_empty());
    }

    #[test]
    fn float_literal_shapes() {
        assert_eq!(find_float_literal("let x = 13.65;"), Some(8));
        assert!(find_float_literal("let x = 0.32;").is_some());
        assert!(find_float_literal("let x = 2.5e3;").is_some());
        assert!(find_float_literal("let x = 42;").is_none());
        assert!(find_float_literal("let x = 0xE5;").is_none());
        assert!(find_float_literal("foo.bar()").is_none());
        assert!(find_float_literal("group.1.push(x)").is_none());
        // Trivial scale factors and identities are not calibration data.
        assert!(find_float_literal("w * 1e-6").is_none());
        assert!(find_float_literal("w * 1e3").is_none());
        assert!(find_float_literal("ratio * 100.0").is_none());
        assert!(find_float_literal("if x > 0.0 {").is_none());
        assert!(find_float_literal("1.0 - systematic").is_none());
    }

    #[test]
    fn relaxed_publication_fires_in_every_crate() {
        // A generation published without release ordering.
        let text = "self.generation.store(next, Ordering::Relaxed);\n";
        let findings = source_findings("crates/engine/src/service.rs", text);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("no-relaxed-publish"), "{findings:?}");
        let publish = "publish_flag.store(1, Ordering::Relaxed);\n";
        assert_eq!(
            source_findings("crates/control/src/plane.rs", publish).len(),
            1
        );
        // Relaxed without a publication-side name is a statistics counter.
        let counter = "self.count.fetch_add(1, Ordering::Relaxed);\n";
        assert!(source_findings("crates/engine/src/service.rs", counter).is_empty());
        // A mention in a comment does not fire.
        let prose = "// a Relaxed generation store would tear\n";
        assert!(source_findings("crates/engine/src/service.rs", prose).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let text =
            "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { gen.store(generation, Relaxed); } }\n";
        assert!(source_findings("crates/engine/src/service.rs", text).is_empty());
        let text = "fn f() {}\n    #[cfg(test)]\n    const IDLE_W: f64 = 4.5;\n";
        assert!(source_findings("crates/core/src/bram.rs", text).is_empty());
    }
}
