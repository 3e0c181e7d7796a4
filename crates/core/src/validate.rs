//! Model validation — Fig. 7's pipeline, plus a behavioural cross-check.
//!
//! Two independent validations of the analytical models:
//!
//! 1. **Against the PAR simulator** (what the paper does with post
//!    place-and-route results): percentage error `(model − experimental)
//!    / experimental`, which must stay within ±3 %.
//! 2. **Against the cycle-level engine simulator** (ours): the simulator
//!    derives dynamic power from per-cycle energy with the same
//!    coefficients; at matched offered load the two agree up to the
//!    model's conservative assumption that every packet reads memory in
//!    *every* stage (real walks terminate at their leaf depth, so the
//!    simulated BRAM energy is bounded above by the model's).

use crate::models::{analytical_power, experimental_power_w};
use crate::par::{percentage_error, ParSimulator};
use crate::scenario::Scenario;
use crate::{ArrivalModel, EngineConfig, PowerError, SimConfig, VirtualRouterSim};
use crate::{SchemeKind, SpeedGrade};
use serde::{Deserialize, Serialize};
use vr_net::{RoutingTable, SkewedSpec, SkewedTraffic};

/// One model-vs-experimental comparison (a point of Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// Scheme evaluated.
    pub scheme: SchemeKind,
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Number of virtual networks.
    pub k: usize,
    /// Analytical model total, in watts.
    pub model_w: f64,
    /// Simulated post-PAR total, in watts.
    pub experimental_w: f64,
    /// Percentage error, the paper's formula.
    pub error_pct: f64,
}

/// Validates a scenario against the PAR simulator.
#[must_use]
pub fn validate_scenario(scenario: &Scenario, par: &ParSimulator) -> ValidationPoint {
    let model_w = analytical_power(scenario).total_w();
    let experimental_w = experimental_power_w(scenario, par);
    ValidationPoint {
        scheme: scenario.spec().scheme,
        grade: scenario.spec().grade,
        k: scenario.k(),
        model_w,
        experimental_w,
        error_pct: percentage_error(model_w, experimental_w),
    }
}

/// Result of the behavioural (cycle-level) cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehavioralCheck {
    /// Model dynamic power, in watts.
    pub model_dynamic_w: f64,
    /// Simulator-measured dynamic power, in watts.
    pub simulated_dynamic_w: f64,
    /// simulated / model ratio (≤ ~1 by construction, see module docs).
    pub ratio: f64,
    /// Lookups completed in the simulation.
    pub completed: u64,
    /// All lookups matched the linear-scan oracle.
    pub fully_correct: bool,
}

/// Runs the engine simulator at saturated shared-line load and compares
/// its measured dynamic power to the model's dynamic component.
///
/// # Errors
/// Propagates simulator construction/run errors.
pub fn behavioral_check(
    tables: &[RoutingTable],
    scenario: &Scenario,
    packets: u64,
    seed: u64,
) -> Result<BehavioralCheck, PowerError> {
    let spec = scenario.spec();
    let sim_cfg = SimConfig {
        organization: spec.scheme,
        stages: spec.stages,
        engine: EngineConfig {
            grade: spec.grade,
            bram_mode: spec.bram_mode,
            gating: crate::gating::GatingPolicy::PAPER,
            freq_mhz: scenario.freq_mhz(),
        },
        arrivals: ArrivalModel::SharedLine { offered_load: 1.0 },
        arrival_seed: seed,
    };
    let mut sim = VirtualRouterSim::new(tables.to_vec(), sim_cfg)?;
    let mut traffic = SkewedTraffic::new(SkewedSpec::uniform(tables.len(), seed), tables)?;
    let report = sim.run(&mut traffic, packets)?;

    let model_dynamic_w = analytical_power(scenario).dynamic_w();
    let simulated_dynamic_w = report.dynamic_power_w();
    Ok(BehavioralCheck {
        model_dynamic_w,
        simulated_dynamic_w,
        ratio: if model_dynamic_w > 0.0 {
            simulated_dynamic_w / model_dynamic_w
        } else {
            0.0
        },
        completed: report.completed,
        fully_correct: report.is_fully_correct(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use crate::Device;
    use vr_net::synth::FamilySpec;

    fn family(k: usize) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: 250,
            shared_fraction: 0.6,
            seed: 5,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn validation_points_stay_in_envelope() {
        let par = ParSimulator::default();
        for scheme in SchemeKind::ALL {
            for k in [1usize, 7, 14] {
                let tables = family(k);
                let s = Scenario::build(
                    &tables,
                    ScenarioSpec::paper_default(scheme, SpeedGrade::Minus1L),
                    Device::xc6vlx760(),
                )
                .unwrap();
                let point = validate_scenario(&s, &par);
                assert!(point.error_pct.abs() <= 3.0, "{scheme} K={k}");
                assert!(point.model_w > 0.0 && point.experimental_w > 0.0);
            }
        }
    }

    #[test]
    fn behavioral_check_is_correct_and_bounded() {
        for scheme in SchemeKind::ALL {
            let tables = family(3);
            let s = Scenario::build(
                &tables,
                ScenarioSpec::paper_default(scheme, SpeedGrade::Minus2),
                Device::xc6vlx760(),
            )
            .unwrap();
            let check = behavioral_check(&tables, &s, 1500, 17).unwrap();
            assert!(check.fully_correct, "{scheme}");
            assert_eq!(check.completed, 1500);
            // Simulated ≤ model (early walk termination) but same order.
            assert!(
                check.ratio > 0.3 && check.ratio < 1.15,
                "{scheme}: ratio {}",
                check.ratio
            );
        }
    }
}
