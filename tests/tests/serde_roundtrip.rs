//! Serde round-trips of every public configuration and result type the
//! harness persists — the JSON written under `results/` must deserialize
//! back into the same values (EXPERIMENTS.md reproducibility contract).

use vr_integration_tests::{family, scenario};
use vr_power::experiments::{fig2_series, statics_rows, table3_rows, ExperimentConfig, Fig2Point};
use vr_power::models::analytical_power;
use vr_power::{SchemeKind, SpeedGrade};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn experiment_config_round_trips() {
    let cfg = ExperimentConfig::paper();
    assert_eq!(round_trip(&cfg), cfg);
    let quick = ExperimentConfig::quick();
    assert_eq!(round_trip(&quick), quick);
}

#[test]
fn calibration_rows_round_trip() {
    // Float-bearing rows: JSON float printing may drop the last ulp, so
    // compare structurally with a tolerance far below anything reported.
    let fig2 = fig2_series();
    let back: Vec<Fig2Point> = round_trip(&fig2);
    assert_eq!(back.len(), fig2.len());
    for (a, b) in back.iter().zip(&fig2) {
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.grade, b.grade);
        assert!((a.freq_mhz - b.freq_mhz).abs() < 1e-9);
        assert!((a.power_mw - b.power_mw).abs() < 1e-9);
    }
    assert_eq!(round_trip(&table3_rows()), table3_rows());
    for (a, b) in round_trip(&statics_rows()).iter().zip(statics_rows()) {
        assert_eq!(a.grade, b.grade);
        assert!((a.base_w - b.base_w).abs() < 1e-12);
        assert!((a.min_w - b.min_w).abs() < 1e-9);
        assert!((a.max_w - b.max_w).abs() < 1e-9);
    }
}

#[test]
fn power_estimate_round_trips() {
    let tables = family(3, 0.6, 1);
    let estimate = analytical_power(&scenario(&tables, SchemeKind::Separate, SpeedGrade::Minus2));
    let back = round_trip(&estimate);
    assert_eq!(back.scheme, estimate.scheme);
    assert_eq!(back.grade, estimate.grade);
    assert_eq!(back.k, estimate.k);
    assert!((back.total_w() - estimate.total_w()).abs() < 1e-9);
    assert!((back.static_w - estimate.static_w).abs() < 1e-9);
}

#[test]
fn routing_table_round_trips_through_json_and_dump() {
    let tables = family(2, 0.5, 2);
    for t in &tables {
        assert_eq!(round_trip(t), *t);
        let dump_back: vr_net::RoutingTable = t.to_dump().parse().unwrap();
        assert_eq!(dump_back, *t);
    }
}

#[test]
fn net_config_types_round_trip() {
    let spec = vr_net::synth::TableSpec::paper_worst_case(9);
    assert_eq!(round_trip(&spec), spec);
    let traffic = vr_net::SkewedSpec {
        tenant_weights: Some(vec![0.5, 0.25, 0.25]),
        ..vr_net::SkewedSpec::zipf(3, 1.0, 3)
    };
    assert_eq!(round_trip(&traffic), traffic);
    let mix = vr_net::UpdateMix::default();
    assert_eq!(round_trip(&mix), mix);
}

#[test]
fn fpga_types_round_trip() {
    let device = vr_power::Device::xc6vlx760();
    assert_eq!(round_trip(&device), device);
    for grade in SpeedGrade::ALL {
        assert_eq!(round_trip(&grade), grade);
    }
    for scheme in SchemeKind::ALL {
        assert_eq!(round_trip(&scheme), scheme);
    }
    let tcam = vr_fpga::tcam::TcamSpec::partitioned(10_000, 4);
    assert_eq!(round_trip(&tcam), tcam);
}

#[test]
fn scenario_spec_round_trips() {
    use vr_power::{MergedMemoryModel, ScenarioSpec};
    let mut spec = ScenarioSpec::paper_default(SchemeKind::Merged, SpeedGrade::Minus1L);
    spec.utilization = Some(vec![0.5, 0.25, 0.25]);
    spec.merged_memory = MergedMemoryModel::PaperLiteral { alpha: 0.8 };
    assert_eq!(round_trip(&spec), spec);
}

#[test]
fn sim_report_round_trips() {
    use vr_net::{SkewedSpec, SkewedTraffic};
    use vr_power::{ArrivalModel, EngineConfig, SimConfig, VirtualRouterSim};
    let tables = family(2, 0.5, 3);
    let cfg = SimConfig {
        organization: SchemeKind::Merged,
        stages: 16,
        engine: EngineConfig::paper_default(),
        arrivals: ArrivalModel::SharedLine { offered_load: 1.0 },
        arrival_seed: 1,
    };
    let mut sim = VirtualRouterSim::new(tables.clone(), cfg).unwrap();
    let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(2, 5), &tables).unwrap();
    let report = sim.run(&mut traffic, 200).unwrap();
    let back = round_trip(&report);
    assert_eq!(back.cycles, report.cycles);
    assert_eq!(back.completed, report.completed);
    assert_eq!(back.correct, report.correct);
    assert_eq!(back.per_engine.len(), report.per_engine.len());
    assert!((back.dynamic_power_w() - report.dynamic_power_w()).abs() < 1e-9);
}
