//! The power models — Eqs. 2, 4 and 6.
//!
//! Three components (§IV): leakage P_L (per device, §V-A band), logic
//! P(Lᵢ,ⱼ) (§V-C) and memory P(Mᵢ,ⱼ) (Table III), with dynamic terms
//! weighted by the per-network utilization µᵢ where the hardware idles
//! between packets (clock gating / flags, §IV):
//!
//! * **Eq. 2 (NV)**: `Σᵢ (P_L + µᵢ·Σⱼ (P(Lᵢ,ⱼ) + P(Mᵢ,ⱼ)))` — K devices.
//! * **Eq. 4 (VS)**: `P_L + Σᵢ µᵢ·Σⱼ (P(Lᵢ,ⱼ) + P(Mᵢ,ⱼ))` — one device.
//! * **Eq. 6 (VM)**: `P_L + Σⱼ (P(L₀,ⱼ) + P(M_merged,ⱼ))` — one engine
//!   that is *always* active (it carries the whole merged stream), so no µ
//!   scaling applies to its dynamic power.

use crate::bram::blocks_for_stages;
use crate::logic::pipeline_logic_power_w;
use crate::par::ParSimulator;
use crate::scenario::Scenario;
use crate::{bram, SchemeKind, SpeedGrade};
use serde::{Deserialize, Serialize};

/// An evaluated power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerEstimate {
    /// Scheme evaluated.
    pub scheme: SchemeKind,
    /// Speed grade.
    pub grade: SpeedGrade,
    /// Number of virtual networks.
    pub k: usize,
    /// Total leakage across devices, in watts.
    pub static_w: f64,
    /// µ-weighted dynamic logic power, in watts.
    pub logic_w: f64,
    /// µ-weighted dynamic memory power, in watts.
    pub memory_w: f64,
    /// Operating frequency used, in MHz.
    pub freq_mhz: f64,
    /// Measured merging efficiency (merged scenarios).
    pub alpha: Option<f64>,
}

impl PowerEstimate {
    /// Total power in watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.static_w + self.logic_w + self.memory_w
    }

    /// Dynamic power in watts.
    #[must_use]
    pub fn dynamic_w(&self) -> f64 {
        self.logic_w + self.memory_w
    }
}

/// Evaluates the analytical model (Eq. 2/4/6) for a scenario.
#[must_use]
pub fn analytical_power(scenario: &Scenario) -> PowerEstimate {
    let spec = scenario.spec();
    let f = scenario.freq_mhz();
    let grade = spec.grade;
    let stages = spec.stages;

    // Full-activity per-engine dynamic components. P_L is the constant
    // per-device leakage, exactly as the paper's equations use it — the
    // ±5 % area-dependent variation (§V-A) is a property of *measurement*
    // and lives in the PAR simulator's deviation, not in the model. The
    // per-device base scales with die size for non-LX760 devices.
    let static_per_device_w = grade.static_base_w() * scenario.device().static_power_scale;
    let logic_full_w = pipeline_logic_power_w(grade, stages, f);
    let engine_mem_full_w = |stage_bits: &Vec<u64>| {
        let blocks = blocks_for_stages(spec.bram_mode, stage_bits);
        bram::bram_power_w(spec.bram_mode, grade, blocks, f)
    };

    let (static_w, logic_w, memory_w) = match spec.scheme {
        SchemeKind::NonVirtualized => {
            // Eq. 2: one device per network, each leaking on its own.
            let mut logic_w = 0.0;
            let mut memory_w = 0.0;
            for (bits, &mu) in scenario.engine_stage_bits().iter().zip(scenario.mu()) {
                logic_w += mu * logic_full_w;
                memory_w += mu * engine_mem_full_w(bits);
            }
            (static_per_device_w * scenario.k() as f64, logic_w, memory_w)
        }
        SchemeKind::Separate => {
            // Eq. 4: one shared device leaks once.
            let mut logic_w = 0.0;
            let mut memory_w = 0.0;
            for (bits, &mu) in scenario.engine_stage_bits().iter().zip(scenario.mu()) {
                logic_w += mu * logic_full_w;
                memory_w += mu * engine_mem_full_w(bits);
            }
            (static_per_device_w, logic_w, memory_w)
        }
        SchemeKind::Merged => {
            // Eq. 6: the single merged engine never idles.
            let bits = &scenario.engine_stage_bits()[0];
            (static_per_device_w, logic_full_w, engine_mem_full_w(bits))
        }
    };

    PowerEstimate {
        scheme: spec.scheme,
        grade,
        k: scenario.k(),
        static_w,
        logic_w,
        memory_w,
        freq_mhz: f,
        alpha: scenario.alpha(),
    }
}

/// Simulated post place-and-route ("experimental") total power for the
/// scenario, in watts (§VI-A, Fig. 7's measurement side).
#[must_use]
pub fn experimental_power_w(scenario: &Scenario, par: &ParSimulator) -> f64 {
    let estimate = analytical_power(scenario);
    par.measured_power_w(
        scenario.spec().scheme,
        scenario.k(),
        scenario.spec().grade,
        estimate.total_w(),
    )
}

/// Memory-power delta (watts) between a baseline table footprint and the
/// current one, priced with the Table III BRAM model at the paper's 1 %
/// reference write rate.
///
/// The control plane reports this after every update batch: as churn
/// erodes merging efficiency, the merged structure's bit footprint
/// grows, and this converts that growth into the watts the deployment
/// pays over the footprint it was built with. Positive means the current
/// footprint costs more than the baseline.
#[must_use]
pub fn memory_power_delta_w(
    mode: crate::BramMode,
    grade: SpeedGrade,
    baseline_bits: u64,
    current_bits: u64,
    freq_mhz: f64,
) -> f64 {
    let price = |bits: u64| {
        bram::bram_power_w_with_writes(
            mode,
            grade,
            mode.blocks_for(bits),
            freq_mhz,
            bram::REFERENCE_WRITE_RATE,
        )
    };
    price(current_bits) - price(baseline_bits)
}

/// Dynamic memory power (watts) that remains once a hot-path result
/// cache answers `hit_rate` of the lookups.
///
/// A cache hit resolves the lookup from the worker-private slot array
/// without touching the pipeline's BRAM stages, so only the miss
/// fraction of the stream still pays the Table III dynamic memory
/// power; leakage and logic toggling are unaffected. `hit_rate` is
/// clamped to `[0, 1]`, so a degenerate measurement can never turn the
/// discount into a surcharge.
#[must_use]
pub fn cache_discounted_memory_w(memory_w: f64, hit_rate: f64) -> f64 {
    memory_w * (1.0 - hit_rate.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use crate::Device;
    use vr_net::synth::FamilySpec;
    use vr_net::RoutingTable;

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

    fn scenario(scheme: SchemeKind, k: usize, grade: SpeedGrade) -> Scenario {
        Scenario::build(
            &family(k),
            ScenarioSpec::paper_default(scheme, grade),
            Device::xc6vlx760(),
        )
        .unwrap()
    }

    fn estimate(scheme: SchemeKind, k: usize, grade: SpeedGrade) -> PowerEstimate {
        analytical_power(&scenario(scheme, k, grade))
    }

    fn mw_per_gbps(scheme: SchemeKind, k: usize, grade: SpeedGrade) -> f64 {
        crate::efficiency::efficiency_point(&scenario(scheme, k, grade)).mw_per_gbps
    }

    #[test]
    fn nv_static_power_grows_linearly_with_k() {
        // Fig. 5's headline: NV total power ∝ K.
        let p1 = estimate(SchemeKind::NonVirtualized, 1, SpeedGrade::Minus2);
        let p8 = estimate(SchemeKind::NonVirtualized, 8, SpeedGrade::Minus2);
        assert!(p8.static_w > 7.5 * p1.static_w);
        assert!(p8.static_w < 8.5 * p1.static_w);
        // Dynamic stays ≈ one engine's worth (µ = 1/K each).
        assert!((p8.dynamic_w() - p1.dynamic_w()).abs() < 0.2 * p1.dynamic_w());
    }

    #[test]
    fn vs_total_power_stays_near_one_device() {
        // Fig. 6: virtualized schemes sit near one device's static power.
        for k in [1usize, 4, 8, 15] {
            let p = estimate(SchemeKind::Separate, k, SpeedGrade::Minus2);
            assert!(
                (4.0..6.5).contains(&p.total_w()),
                "K={k}: {} W",
                p.total_w()
            );
        }
    }

    #[test]
    fn virtualization_saves_power_proportional_to_k() {
        // Abstract: "power savings proportional to the number of virtual
        // networks can be achieved compared with non-virtualized routers".
        for k in [2usize, 5, 10, 15] {
            let nv = estimate(SchemeKind::NonVirtualized, k, SpeedGrade::Minus2);
            let vs = estimate(SchemeKind::Separate, k, SpeedGrade::Minus2);
            let ratio = nv.total_w() / vs.total_w();
            assert!(ratio > 0.6 * k as f64, "K={k}: ratio {ratio} not ∝ K");
        }
    }

    #[test]
    fn vm_dynamic_is_full_activity_vs_is_mu_weighted() {
        // Eq. 6 has no µ: the merged engine's dynamic power equals its
        // full-activity logic + memory power at its (degraded) clock.
        let k = 8;
        let vm_scenario = scenario(SchemeKind::Merged, k, SpeedGrade::Minus2);
        let vm = analytical_power(&vm_scenario);
        let f = vm_scenario.freq_mhz();
        let logic_full = crate::logic::pipeline_logic_power_w(SpeedGrade::Minus2, 28, f);
        let blocks = crate::bram::blocks_for_stages(
            vm_scenario.spec().bram_mode,
            &vm_scenario.engine_stage_bits()[0],
        );
        let mem_full =
            crate::bram::bram_power_w(vm_scenario.spec().bram_mode, SpeedGrade::Minus2, blocks, f);
        assert!((vm.dynamic_w() - (logic_full + mem_full)).abs() < 1e-12);

        // Eq. 4 is µ-weighted: with uniform µ and equal-size tables, VS
        // dynamic power is ≈ one engine's full-activity power, not K×.
        let vs_scenario = scenario(SchemeKind::Separate, k, SpeedGrade::Minus2);
        let vs = analytical_power(&vs_scenario);
        let f = vs_scenario.freq_mhz();
        let one_engine_full = crate::logic::pipeline_logic_power_w(SpeedGrade::Minus2, 28, f)
            + crate::bram::bram_power_w(
                vs_scenario.spec().bram_mode,
                SpeedGrade::Minus2,
                crate::bram::blocks_for_stages(
                    vs_scenario.spec().bram_mode,
                    &vs_scenario.engine_stage_bits()[0],
                ),
                f,
            );
        assert!(vs.dynamic_w() < 1.3 * one_engine_full);
        assert!(vs.dynamic_w() > 0.7 * one_engine_full);
    }

    #[test]
    fn low_power_grade_saves_roughly_30_percent() {
        // §VI-B: "We observed a 30% less power consumption when speed
        // grade -1L was chosen compared to speed grade -2."
        for scheme in SchemeKind::ALL {
            let hi = estimate(scheme, 6, SpeedGrade::Minus2);
            let lo = estimate(scheme, 6, SpeedGrade::Minus1L);
            let saving = 1.0 - lo.total_w() / hi.total_w();
            assert!((0.2..=0.4).contains(&saving), "{scheme}: saving {saving}");
            // −1L is cheaper in every component, not only in total.
            assert!(lo.static_w < hi.static_w, "{scheme}");
            assert!(lo.logic_w < hi.logic_w, "{scheme}");
            assert!(lo.memory_w < hi.memory_w, "{scheme}");
        }
    }

    #[test]
    fn static_power_dominates_single_engine_designs() {
        // §I/§IV motivation: sharing static power is the big win, so the
        // static component must dominate dynamic at paper scale.
        let p = estimate(SchemeKind::Separate, 4, SpeedGrade::Minus2);
        assert!(p.static_w > 5.0 * p.dynamic_w());
    }

    #[test]
    fn experimental_power_stays_within_3_percent_of_model() {
        let par = ParSimulator::default();
        for scheme in SchemeKind::ALL {
            for k in [1usize, 5, 10, 15] {
                let s = scenario(scheme, k, SpeedGrade::Minus2);
                let model = analytical_power(&s).total_w();
                let exp = experimental_power_w(&s, &par);
                let err = crate::par::percentage_error(model, exp);
                assert!(err.abs() <= 3.0, "{scheme} K={k}: {err}%");
            }
        }
    }

    #[test]
    fn efficiency_ordering_matches_fig8() {
        // §VI-B: separate best, conventional second, merged worst.
        let k = 10;
        let nv = mw_per_gbps(SchemeKind::NonVirtualized, k, SpeedGrade::Minus2);
        let vs = mw_per_gbps(SchemeKind::Separate, k, SpeedGrade::Minus2);
        let vm = mw_per_gbps(SchemeKind::Merged, k, SpeedGrade::Minus2);
        assert!(vs < nv, "separate ({vs}) must beat NV ({nv})");
        assert!(nv < vm, "NV ({nv}) must beat merged ({vm})");
    }

    #[test]
    fn grades_have_similar_efficiency() {
        // §VI-B: "The two speed grades perform almost the same way" in
        // mW/Gbps.
        let hi = mw_per_gbps(SchemeKind::Separate, 8, SpeedGrade::Minus2);
        let lo = mw_per_gbps(SchemeKind::Separate, 8, SpeedGrade::Minus1L);
        let rel = (hi - lo).abs() / hi;
        assert!(rel < 0.15, "grades diverge by {rel}");
    }

    #[test]
    fn memory_power_delta_tracks_footprint_growth() {
        let mode = crate::BramMode::K18;
        let grade = SpeedGrade::Minus2;
        let f = grade.base_clock_mhz();
        let same = memory_power_delta_w(mode, grade, 1 << 20, 1 << 20, f);
        assert!(same.abs() < 1e-12, "identical footprints cost nothing");
        let grew = memory_power_delta_w(mode, grade, 1 << 20, 1 << 22, f);
        assert!(grew > 0.0, "a larger footprint must cost more watts");
        let shrank = memory_power_delta_w(mode, grade, 1 << 22, 1 << 20, f);
        assert!((grew + shrank).abs() < 1e-12, "delta is antisymmetric");
    }

    #[test]
    fn cache_discount_scales_memory_power_by_miss_rate() {
        let base = 4.0;
        assert!((cache_discounted_memory_w(base, 0.0) - base).abs() < 1e-12);
        assert!(cache_discounted_memory_w(base, 1.0).abs() < 1e-12);
        let half = cache_discounted_memory_w(base, 0.5);
        assert!((half - base / 2.0).abs() < 1e-12);
        // Degenerate measurements clamp instead of inverting the sign.
        assert!((cache_discounted_memory_w(base, 1.5)).abs() < 1e-12);
        assert!((cache_discounted_memory_w(base, -0.5) - base).abs() < 1e-12);
    }
}
