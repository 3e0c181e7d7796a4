//! The paper's headline claims, asserted end to end across all crates.
//!
//! Each test names the claim and the paper section it comes from. These
//! run on reduced workloads (300-prefix tables); the bench binaries
//! regenerate the same quantities at full paper scale.

use vr_fpga::par::ParSimulator;
use vr_integration_tests::{family, scenario};
use vr_power::efficiency::efficiency_point;
use vr_power::experiments::{power_sweep, ExperimentConfig, SweepPoint};
use vr_power::models::analytical_power;
use vr_power::validate::validate_scenario;
use vr_power::{SchemeKind, SpeedGrade};

/// Abstract: "power savings proportional to the number of virtual
/// networks can be achieved compared with non-virtualized routers."
#[test]
fn savings_proportional_to_k() {
    for k in [3usize, 6, 12] {
        let tables = family(k, 0.6, 1);
        let nv = analytical_power(&scenario(
            &tables,
            SchemeKind::NonVirtualized,
            SpeedGrade::Minus2,
        ));
        let vs = analytical_power(&scenario(&tables, SchemeKind::Separate, SpeedGrade::Minus2));
        let ratio = nv.total_w() / vs.total_w();
        assert!(
            ratio > 0.6 * k as f64 && ratio < 1.4 * k as f64,
            "K={k}: NV/VS power ratio {ratio} not ∝ K"
        );
    }
}

/// Abstract / Fig. 7: "the models stand accurate with only a ±3% maximum
/// error" against post place-and-route results.
#[test]
fn model_error_within_three_percent() {
    let par = ParSimulator::default();
    for scheme in SchemeKind::ALL {
        for grade in SpeedGrade::ALL {
            for k in [1usize, 4, 9, 15] {
                let tables = family(k, 0.6, 2);
                let point = validate_scenario(&scenario(&tables, scheme, grade), &par);
                assert!(
                    point.error_pct.abs() <= 3.0,
                    "{scheme} {grade} K={k}: error {:.2}%",
                    point.error_pct
                );
            }
        }
    }
}

/// §VI-A: NV power grows with K while virtualized schemes stay near one
/// device's static power (Figs. 5 and 6).
#[test]
fn fig5_total_power_shapes() {
    let k = 10;
    let tables = family(k, 0.6, 3);
    let nv = analytical_power(&scenario(
        &tables,
        SchemeKind::NonVirtualized,
        SpeedGrade::Minus2,
    ));
    let vs = analytical_power(&scenario(&tables, SchemeKind::Separate, SpeedGrade::Minus2));
    let vm = analytical_power(&scenario(&tables, SchemeKind::Merged, SpeedGrade::Minus2));
    // NV ≈ K × one device's static power.
    assert!(nv.total_w() > 0.8 * k as f64 * SpeedGrade::Minus2.static_base_w());
    // Virtualized: within 2× of one device's static power.
    for p in [&vs, &vm] {
        assert!(p.total_w() < 2.0 * SpeedGrade::Minus2.static_base_w());
        assert!(p.total_w() > 0.8 * SpeedGrade::Minus2.static_base_w());
    }
}

/// §VI-B / Fig. 8: "the virtualized separate approach yields the best
/// power efficiency. The conventional router is the second best while
/// merged approach shows the worst performance."
#[test]
fn fig8_efficiency_ordering() {
    let k = 10;
    let tables = family(k, 0.6, 4);
    for grade in SpeedGrade::ALL {
        let vs = efficiency_point(&scenario(&tables, SchemeKind::Separate, grade));
        let nv = efficiency_point(&scenario(&tables, SchemeKind::NonVirtualized, grade));
        let vm = efficiency_point(&scenario(&tables, SchemeKind::Merged, grade));
        assert!(vs.mw_per_gbps < nv.mw_per_gbps, "{grade}: VS must beat NV");
        assert!(nv.mw_per_gbps < vm.mw_per_gbps, "{grade}: NV must beat VM");
    }
}

/// §VI-B: merged is worse at lower merging efficiency — "when the merging
/// efficiency is much less, the amount of resources consumed by the
/// router increases, while the throughput decreases."
#[test]
fn merged_low_alpha_is_worse() {
    let k = 8;
    let low = family(k, 0.05, 5);
    let high = family(k, 0.9, 5);
    let e_low = efficiency_point(&scenario(&low, SchemeKind::Merged, SpeedGrade::Minus2));
    let e_high = efficiency_point(&scenario(&high, SchemeKind::Merged, SpeedGrade::Minus2));
    assert!(e_low.alpha.unwrap() < e_high.alpha.unwrap());
    assert!(e_low.power_w >= e_high.power_w, "low α must not be cheaper");
}

/// §VI-B: "We observed a 30% less power consumption when speed grade -1L
/// was chosen compared to speed grade -2 ... The two speed grades perform
/// almost the same way [in mW/Gbps]."
#[test]
fn low_power_grade_tradeoff() {
    let tables = family(6, 0.6, 6);
    for scheme in SchemeKind::ALL {
        let hi = efficiency_point(&scenario(&tables, scheme, SpeedGrade::Minus2));
        let lo = efficiency_point(&scenario(&tables, scheme, SpeedGrade::Minus1L));
        let saving = 1.0 - lo.power_w / hi.power_w;
        assert!(
            (0.2..=0.4).contains(&saving),
            "{scheme}: power saving {saving}"
        );
        let eff_gap = (lo.mw_per_gbps - hi.mw_per_gbps).abs() / hi.mw_per_gbps;
        assert!(eff_gap < 0.2, "{scheme}: efficiency gap {eff_gap}");
        // The saving comes at the expense of throughput.
        assert!(lo.capacity_gbps < hi.capacity_gbps);
    }
}

/// §VI-A: "We limited the maximum number of virtual networks to 15 since
/// in the case of virtualized-separate, the I/O pin requirement exceeded."
#[test]
fn separate_pin_limit_at_15() {
    use vr_power::{Device, Scenario, ScenarioSpec};
    let ok = family(15, 0.6, 7);
    assert!(Scenario::build(
        &ok,
        ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2),
        Device::xc6vlx760()
    )
    .is_ok());
    let too_many = family(16, 0.6, 7);
    assert!(Scenario::build(
        &too_many,
        ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2),
        Device::xc6vlx760()
    )
    .is_err());
    // NV and merged are not pin-bound at K = 16.
    for scheme in [SchemeKind::NonVirtualized, SchemeKind::Merged] {
        assert!(Scenario::build(
            &too_many,
            ScenarioSpec::paper_default(scheme, SpeedGrade::Minus2),
            Device::xc6vlx760()
        )
        .is_ok());
    }
}

/// §IV-C: the merged scheme's clock (hence throughput) collapses with K
/// while the separate scheme's only mildly degrades.
#[test]
fn merged_clock_collapse() {
    let k = 12;
    let tables = family(k, 0.6, 8);
    let vm = scenario(&tables, SchemeKind::Merged, SpeedGrade::Minus2);
    let vs = scenario(&tables, SchemeKind::Separate, SpeedGrade::Minus2);
    let base = SpeedGrade::Minus2.base_clock_mhz();
    assert!(vm.freq_mhz() < 0.6 * base);
    assert!(vs.freq_mhz() > 0.9 * base);
}

/// The Figs. 5–8 sweep the way it was first written, kept as the
/// reference `power_sweep` is held to: every point generates its own
/// K-table family and builds its own scenario from scratch, sharing
/// nothing with any other point.
fn rebuild_every_point(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    use vr_power::{Device, Scenario, ScenarioSpec};
    let (frac_low, frac_high) = cfg.resolve_shared_fractions();
    let par = ParSimulator::default();
    let mut points = Vec::new();
    for k in 1..=cfg.k_max {
        for (series, scheme, frac) in [
            ("NV", SchemeKind::NonVirtualized, frac_high),
            ("VM (α≈0.2)", SchemeKind::Merged, frac_low),
            ("VM (α≈0.8)", SchemeKind::Merged, frac_high),
            ("VS", SchemeKind::Separate, frac_high),
        ] {
            for grade in [SpeedGrade::Minus1L, SpeedGrade::Minus2] {
                let tables = cfg.family(k, frac).expect("family generation");
                let spec = ScenarioSpec {
                    stages: cfg.stages,
                    ..ScenarioSpec::paper_default(scheme, grade)
                };
                let scenario =
                    Scenario::build(&tables, spec, Device::xc6vlx760()).expect("scenario build");
                let point = validate_scenario(&scenario, &par);
                let capacity = scenario.capacity_gbps();
                points.push(SweepPoint {
                    series: series.into(),
                    scheme,
                    grade,
                    k,
                    alpha: scenario.alpha(),
                    model_w: point.model_w,
                    experimental_w: point.experimental_w,
                    error_pct: point.error_pct,
                    capacity_gbps: capacity,
                    mw_per_gbps: vr_fpga::timing::mw_per_gbps(point.experimental_w, capacity),
                    freq_mhz: scenario.freq_mhz(),
                });
            }
        }
    }
    points
}

/// `f64` fields compared by bit pattern: sharing structures across the
/// sweep's points may not move a single ulp.
fn assert_bit_equal(shared: &[SweepPoint], rebuilt: &[SweepPoint]) {
    assert_eq!(shared.len(), rebuilt.len());
    for (s, r) in shared.iter().zip(rebuilt) {
        let who = format!("{} {} K={}", r.series, r.grade, r.k);
        assert_eq!(
            (&s.series, s.scheme, s.grade, s.k),
            (&r.series, r.scheme, r.grade, r.k)
        );
        assert_eq!(
            s.alpha.map(f64::to_bits),
            r.alpha.map(f64::to_bits),
            "{who}: alpha"
        );
        for (name, a, b) in [
            ("model_w", s.model_w, r.model_w),
            ("experimental_w", s.experimental_w, r.experimental_w),
            ("error_pct", s.error_pct, r.error_pct),
            ("capacity_gbps", s.capacity_gbps, r.capacity_gbps),
            ("mw_per_gbps", s.mw_per_gbps, r.mw_per_gbps),
            ("freq_mhz", s.freq_mhz, r.freq_mhz),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{who}: {name} {a} vs {b}");
        }
    }
}

/// Building each structure once and pricing it many times is an
/// optimisation of the sweep, not a change to it: every point equals the
/// one a from-scratch build of that point alone produces.
#[test]
fn shared_structure_sweep_equals_a_rebuild_of_every_point() {
    let cfg = ExperimentConfig::quick();
    let shared = power_sweep(&cfg).expect("power sweep");
    assert_bit_equal(&shared, &rebuild_every_point(&cfg));
}

/// The same at the paper's scale (K = 15 × 3 725 prefixes, 120 points);
/// the CI `reproduce` job runs it with `--release -- --ignored`.
#[test]
#[ignore = "paper scale: ~2 s in release, far longer unoptimised"]
fn shared_structure_sweep_equals_a_rebuild_of_every_point_at_paper_scale() {
    let cfg = ExperimentConfig::paper();
    let shared = power_sweep(&cfg).expect("power sweep");
    assert_bit_equal(&shared, &rebuild_every_point(&cfg));
}

/// The rebuild above goes through `Scenario::build`, which reads its
/// structures off the same streamed statistics the sweep does. This keeps
/// the reference independent: both structures' stage bits equal
/// pipelines mapped from leaf-pushed tries that are actually built.
#[test]
fn walked_structures_equal_pipelines_of_built_leaf_pushed_tries() {
    use vr_power::scenario::EngineStructure;
    use vr_trie::{MemoryLayout, MergedTrie, PipelineProfile, SweepStats};
    let (cfg, layout) = (ExperimentConfig::quick(), MemoryLayout::default());
    let bits = |tables: &[vr_net::RoutingTable]| {
        let pushed = MergedTrie::from_tables(tables).unwrap().leaf_pushed();
        let profile =
            PipelineProfile::from_stats(&pushed.stats(), pushed.arity(), cfg.stages, layout)
                .unwrap();
        profile.per_stage_memory_bits()
    };
    let (frac_low, frac_high) = cfg.resolve_shared_fractions();
    for frac in [frac_low, frac_high] {
        let tables = cfg.family(cfg.k_max, frac).unwrap();
        let sweep = SweepStats::from_tables(&tables).unwrap();
        for k in 1..=cfg.k_max {
            let merged = EngineStructure::merged(&sweep, k, cfg.stages, layout).unwrap();
            let built = [bits(&tables[..k])];
            assert_eq!(merged.engine_stage_bits, built, "merged K={k}");
            let singles: Vec<_> = tables[..k].chunks(1).map(bits).collect();
            let separate = EngineStructure::separate(&sweep, k, cfg.stages, layout).unwrap();
            assert_eq!(separate.engine_stage_bits, singles, "separate K={k}");
        }
    }
}

/// The sweeps' statistics, streamed off the sorted routes, equal the walk
/// of the built merged trie for both α families of the paper's
/// configuration, at the power sweep's K and at Fig. 4's; the CI
/// `reproduce` job runs it with `--release -- --ignored`.
#[test]
#[ignore = "paper scale: ~0.2 s in release, far longer unoptimised"]
fn streamed_sweep_stats_equal_the_arena_walk_at_paper_scale() {
    use vr_trie::{MergedTrie, SweepStats};
    let cfg = ExperimentConfig::paper();
    let (frac_low, frac_high) = cfg.resolve_shared_fractions();
    for frac in [frac_low, frac_high] {
        for k in [cfg.k_max, cfg.k_max_fig4] {
            let tables = cfg.family(k, frac).unwrap();
            let walked = MergedTrie::from_tables(&tables).unwrap().sweep_stats();
            let streamed = SweepStats::from_tables(&tables).unwrap();
            assert_eq!(streamed, walked, "K = {k}, shared fraction {frac}");
        }
    }
}

/// The trie the services publish for both α families of the paper's
/// configuration, at the power sweep's K and at Fig. 4's, is the one a
/// walk of the materialised leaf-pushed trie gives, word for word, from
/// each of the painter's feeds; the CI `reproduce` job runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "paper scale: ~0.5 s in release, far longer unoptimised"]
fn served_trie_equals_the_leaf_pushed_build_at_paper_scale() {
    use vr_trie::{DirtyBuckets, JumpTrie, MergedTrie};
    let cfg = ExperimentConfig::paper();
    let (frac_low, frac_high) = cfg.resolve_shared_fractions();
    for frac in [frac_low, frac_high] {
        for k in [cfg.k_max, cfg.k_max_fig4] {
            let tables = cfg.family(k, frac).unwrap();
            let (merged, served) = MergedTrie::from_tables_with_jump(&tables).unwrap();
            let reference = JumpTrie::from_leaf_pushed(&merged.leaf_pushed());
            let painted = JumpTrie::from_tables(&tables).unwrap();
            let repainted = served.repaint(&merged, &DirtyBuckets::all());
            for (feed, trie) in [
                ("routes beside the arena", &served),
                ("routes", &painted),
                ("arena repaint", &repainted),
            ] {
                assert!(
                    trie.raw_parts() == reference.raw_parts(),
                    "{feed}: K = {k}, shared fraction {frac}"
                );
            }
        }
    }
}
