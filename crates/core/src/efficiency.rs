//! Power efficiency (§VI-B): mW per Gbps of lookup capacity.
//!
//! "A router may use more and more power to support higher throughput. In
//! order to compare such architectures with power efficient architectures,
//! we use the power dissipated per unit throughput as the metric" — lower
//! is better. Throughput is computed at the 40-byte minimum packet size.

use crate::models::analytical_power;
use crate::scenario::Scenario;
use crate::timing::mw_per_gbps;
use crate::{SchemeKind, SpeedGrade};
use serde::{Deserialize, Serialize};

/// One scheme's efficiency at one operating point (a point of Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyPoint {
    /// Scheme evaluated.
    pub scheme: SchemeKind,
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Number of virtual networks.
    pub k: usize,
    /// Analytical total power, in watts.
    pub power_w: f64,
    /// Aggregate lookup capacity, in Gbps (40-byte packets).
    pub capacity_gbps: f64,
    /// The metric: mW/Gbps (lower is better).
    pub mw_per_gbps: f64,
    /// Measured merging efficiency (merged scenarios).
    pub alpha: Option<f64>,
}

/// Computes the efficiency point of a scenario.
#[must_use]
pub fn efficiency_point(scenario: &Scenario) -> EfficiencyPoint {
    let estimate = analytical_power(scenario);
    let capacity = scenario.capacity_gbps();
    EfficiencyPoint {
        scheme: scenario.spec().scheme,
        grade: scenario.spec().grade,
        k: scenario.k(),
        power_w: estimate.total_w(),
        capacity_gbps: capacity,
        mw_per_gbps: mw_per_gbps(estimate.total_w(), capacity),
        alpha: scenario.alpha(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioSpec};
    use crate::Device;
    use vr_net::synth::FamilySpec;
    use vr_net::RoutingTable;

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

    fn point(scheme: SchemeKind, k: usize) -> EfficiencyPoint {
        let s = Scenario::build(
            &family(k),
            ScenarioSpec::paper_default(scheme, SpeedGrade::Minus2),
            Device::xc6vlx760(),
        )
        .unwrap();
        efficiency_point(&s)
    }

    #[test]
    fn separate_efficiency_improves_with_k() {
        // Fig. 8: VS is best and gets better with K (static power shared
        // over growing aggregate capacity).
        let e2 = point(SchemeKind::Separate, 2);
        let e10 = point(SchemeKind::Separate, 10);
        assert!(e10.mw_per_gbps < e2.mw_per_gbps);
    }

    #[test]
    fn merged_efficiency_worsens_with_k() {
        // Fig. 8: VM's clock (hence capacity) collapses as K grows.
        let e2 = point(SchemeKind::Merged, 2);
        let e10 = point(SchemeKind::Merged, 10);
        assert!(e10.mw_per_gbps > e2.mw_per_gbps);
    }

    #[test]
    fn nv_efficiency_is_roughly_flat() {
        let e2 = point(SchemeKind::NonVirtualized, 2);
        let e12 = point(SchemeKind::NonVirtualized, 12);
        let rel = (e12.mw_per_gbps - e2.mw_per_gbps).abs() / e2.mw_per_gbps;
        assert!(rel < 0.15, "NV efficiency drifted {rel}");
    }
}
