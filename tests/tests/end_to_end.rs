//! End-to-end integration: the full stack (tables → tries → pipelines →
//! power models → validation → experiments) exercised together.

use vr_integration_tests::{family, scenario};
use vr_power::experiments::{fig4_series, power_sweep, ExperimentConfig};
use vr_power::models::analytical_power;
use vr_power::validate::behavioral_check;
use vr_power::{SchemeKind, SpeedGrade};

/// The cycle-level simulator's measured dynamic power must track the
/// analytical model's dynamic component: equal coefficients, same
/// utilization, with the simulator strictly below (it only charges memory
/// reads that actually happen; the model charges every stage).
#[test]
fn simulator_and_model_agree_on_dynamic_power() {
    for scheme in SchemeKind::ALL {
        let tables = family(4, 0.6, 11);
        let s = scenario(&tables, scheme, SpeedGrade::Minus2);
        let check = behavioral_check(&tables, &s, 3000, 5).expect("behavioral check");
        assert!(check.fully_correct, "{scheme}: forwarding must be exact");
        assert!(
            check.ratio > 0.3 && check.ratio <= 1.1,
            "{scheme}: simulated/model dynamic ratio {} out of band",
            check.ratio
        );
    }
}

/// The µ-weighting of Eqs. 2/4 is real behaviour, not bookkeeping: halving
/// the offered load halves the simulated dynamic power of a gated engine.
#[test]
fn dynamic_power_scales_with_offered_load() {
    use vr_power::{ArrivalModel, EngineConfig, SimConfig, VirtualRouterSim};
    use vr_net::{SkewedSpec, SkewedTraffic};

    let tables = family(2, 0.6, 13);
    let run = |load: f64| {
        let cfg = SimConfig {
            organization: SchemeKind::Merged,
            stages: 28,
            engine: EngineConfig::paper_default(),
            arrivals: ArrivalModel::SharedLine { offered_load: load },
            arrival_seed: 7,
        };
        let mut sim = VirtualRouterSim::new(tables.clone(), cfg).unwrap();
        let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(2, 9), &tables).unwrap();
        sim.run(&mut traffic, 4000).unwrap().dynamic_power_w()
    };
    let full = run(1.0);
    let half = run(0.5);
    let ratio = half / full;
    assert!(
        (0.4..=0.6).contains(&ratio),
        "half-load dynamic power ratio {ratio} should be ≈0.5"
    );
}

/// Fig. 4 through the public experiments API, with the α ordering and
/// growth directions the paper plots.
#[test]
fn fig4_series_shapes() {
    let cfg = ExperimentConfig::quick();
    let points = fig4_series(&cfg).expect("fig4");
    // Three series, every K present.
    for series in ["separate", "merged (α≈0.8)", "merged (α≈0.2)"] {
        let count = points.iter().filter(|p| p.series == series).count();
        assert_eq!(count, cfg.k_max_fig4, "{series}");
    }
    // At the largest K the merged α≈0.8 series stores the least pointer
    // memory (that is the point of merging).
    let k = cfg.k_max_fig4;
    let ptr = |series: &str| {
        points
            .iter()
            .find(|p| p.series == series && p.k == k)
            .unwrap()
            .pointer_mbits
    };
    assert!(ptr("merged (α≈0.8)") < ptr("merged (α≈0.2)"));
    assert!(ptr("merged (α≈0.8)") < ptr("separate"));
}

/// The sweep behind Figs. 5–8, checked for internal consistency: the
/// experimental value stays in the model's ±3 % band, and the efficiency
/// column is exactly power/capacity.
#[test]
fn power_sweep_is_internally_consistent() {
    let cfg = ExperimentConfig::quick();
    let points = power_sweep(&cfg).expect("sweep");
    assert!(!points.is_empty());
    for p in &points {
        assert!(p.error_pct.abs() <= 3.0, "{} K={}", p.series, p.k);
        let recomputed = p.experimental_w * 1e3 / p.capacity_gbps;
        assert!(
            (recomputed - p.mw_per_gbps).abs() < 1e-9,
            "efficiency column must be power/capacity"
        );
        assert!(p.freq_mhz > 0.0 && p.capacity_gbps > 0.0);
        if p.scheme == SchemeKind::Merged {
            assert!(p.alpha.is_some());
        } else {
            assert!(p.alpha.is_none());
        }
    }
}

/// Utilization weights flow through the whole stack: a skewed µ vector
/// changes the NV static/dynamic split exactly as Eq. 2 predicts.
#[test]
fn skewed_utilization_changes_only_dynamic_power() {
    use vr_power::{Device, Scenario, ScenarioSpec};
    let tables = family(3, 0.6, 17);
    let uniform = scenario(&tables, SchemeKind::Separate, SpeedGrade::Minus2);
    let skewed = Scenario::build(
        &tables,
        ScenarioSpec {
            utilization: Some(vec![1.0, 0.0, 0.0]),
            ..ScenarioSpec::paper_default(SchemeKind::Separate, SpeedGrade::Minus2)
        },
        Device::xc6vlx760(),
    )
    .unwrap();
    let pu = analytical_power(&uniform);
    let ps = analytical_power(&skewed);
    // Same silicon: identical static power.
    assert!((pu.static_w - ps.static_w).abs() < 1e-12);
    // Equal-size tables: total dynamic is ≈ equal too (Σµ = 1 both ways)
    // — the point is that µ redistributes, it does not add power.
    let rel = (pu.dynamic_w() - ps.dynamic_w()).abs() / pu.dynamic_w();
    assert!(rel < 0.1, "dynamic drift {rel}");
}

/// The oracle-mismatch counter is not vacuous: a stale data plane (the
/// window between a control-plane update and the hardware write-back,
/// paper ref. [6]'s problem) produces counted mismatches, and rebuilding
/// the engines clears them.
#[test]
fn stale_data_plane_is_detected_and_rebuild_clears_it() {
    use vr_power::{ArrivalModel, EngineConfig, SimConfig, VirtualRouterSim};
    use vr_net::{RouteUpdate, SkewedSpec, SkewedTraffic};

    let tables = family(2, 0.6, 23);
    let cfg = SimConfig {
        organization: SchemeKind::Separate,
        stages: 28,
        engine: EngineConfig::paper_default(),
        arrivals: ArrivalModel::SharedLine { offered_load: 1.0 },
        arrival_seed: 3,
    };
    let mut sim = VirtualRouterSim::new(tables.clone(), cfg).unwrap();
    let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(2, 9), &tables).unwrap();

    // Fresh engines: fully correct.
    let report = sim.run(&mut traffic, 500).unwrap();
    assert!(report.is_fully_correct());

    // Control plane rewrites every route's next hop; hardware is stale.
    for (vnid, table) in tables.iter().enumerate() {
        for entry in table.iter() {
            sim.apply_update(&RouteUpdate::Announce {
                vnid: vnid as u16,
                prefix: entry.prefix,
                next_hop: entry.next_hop.wrapping_add(100),
            });
        }
    }
    let stale = sim.run(&mut traffic, 500).unwrap();
    assert!(
        stale.mismatches > 400,
        "stale data plane must misforward: {} mismatches",
        stale.mismatches
    );

    // Write-back: rebuild and verify correctness returns.
    sim.rebuild_engines().unwrap();
    let fresh = sim.run(&mut traffic, 500).unwrap();
    assert!(fresh.is_fully_correct());
}

/// Merged arity beyond the presence-mask limit fails loudly, not subtly.
#[test]
fn merged_arity_limit_is_enforced_end_to_end() {
    let tables = family(3, 0.5, 19);
    let mut many = Vec::new();
    for _ in 0..22 {
        many.extend(tables.iter().cloned());
    }
    assert_eq!(many.len(), 66);
    let result = vr_trie::MergedTrie::from_tables(&many);
    assert!(matches!(
        result,
        Err(vr_trie::TrieError::BadMergeArity(66))
    ));
}
