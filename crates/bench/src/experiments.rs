//! The experiment table behind `all_experiments`: one `fn(&Ctx)` per
//! table/figure/study, each writing `results/<name>.{csv,json}` under
//! its table name. Experiments that read the K × scheme × grade power
//! sweep (`fig5`–`fig8`, `lowpower`, `claims`, the closing summary) share one
//! computation of it through [`Ctx`].

use crate::{emit, opt_num};
use serde::Serialize;
use std::cell::{Cell, OnceCell};
use vr_power::claims::{check_claims, ClaimCheck};
use vr_power::experiments::{
    ablation_gating, ablation_merged_memory, ablation_stride, cache_skew_study, device_sweep,
    fig2_series, fig3_series, fig4_series, merged_scaling, power_sweep, queueing_study,
    statics_rows, table2_rows, table3_rows, tcam_comparison, update_cost, utilization_study,
    ExperimentConfig, SweepPoint,
};
use vr_power::report::num;
use vr_power::{Device, SpeedGrade};

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

/// Result-cache hit rate, speedup and watts/Gbps vs Zipf skew
/// (wall-clock timed: rows differ run to run).
fn cache_skew(ctx: &Ctx) {
    ctx.emit(
        &[
            "K",
            "Zipf s",
            "Slots",
            "Hit rate",
            "ns uncached",
            "ns cached",
            "Speedup",
            "Memory W",
            "Cached W",
            "W/Gbps",
            "W/Gbps cached",
        ],
        &cache_skew_study(&ctx.cfg, 4).expect("cache skew study"),
        |r| {
            vec![
                r.k.to_string(),
                num(r.zipf_s, 2),
                r.cache_slots.to_string(),
                num(r.hit_rate, 3),
                num(r.ns_uncached, 1),
                num(r.ns_cached, 1),
                num(r.speedup, 2),
                num(r.memory_w, 3),
                num(r.memory_w_cached, 3),
                num(r.w_per_gbps_uncached, 3),
                num(r.w_per_gbps_cached, 3),
            ]
        },
    );
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
        // `results/` files written by other binaries (`replay_client`,
        // the flight recorder's numbered dumps).
        const NOT_EXPERIMENTS: [&str; 2] = ["wire_replay", "flightrec_NNNN"];
        let known = names();
        let results = crate::results_dir();
        let root = results.parent().expect("workspace root");

        let mut on_disk: Vec<String> = std::fs::read_dir(&results)
            .expect("results/")
            .map(|entry| entry.expect("results/ entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| !NOT_EXPERIMENTS.contains(&stem.as_str()))
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
                if is_table && !name.is_empty() && !NOT_EXPERIMENTS.contains(&name) {
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
}
