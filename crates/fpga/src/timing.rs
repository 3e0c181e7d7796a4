//! Clock and throughput models.
//!
//! The paper's engines do one lookup per cycle, so throughput in Gbps at
//! minimum packet size (40 bytes, §VI-B) is `0.32 × f(MHz)` per pipeline.
//! The achievable clock is where the schemes differ (§VI-B):
//!
//! * **merged** engines slow down markedly as K grows — each stage's BRAM
//!   grows with the number of virtual routers, deepening the read muxes
//!   ("the operating frequency decreases significantly");
//! * **separate** engines suffer mild congestion as more engines share the
//!   fabric;
//! * **non-virtualized** engines (one per device) run at the base clock.
//!
//! The degradation coefficients are shape calibrations (DESIGN.md §8): the
//! paper reports the consequences (Fig. 8's ordering and growth), not the
//! raw curves.

use crate::grade::SpeedGrade;
use crate::units::GBPS_PER_MHZ;
use serde::{Deserialize, Serialize};

/// Per-K clock degradation rate of the merged scheme.
pub const MERGED_DEGRADATION_PER_VN: f64 = 0.08;

/// Per-engine clock degradation rate of the separate scheme.
pub const SEPARATE_DEGRADATION_PER_ENGINE: f64 = 0.005;

/// Floor on the achievable clock as a fraction of the base clock.
pub const MIN_CLOCK_FRACTION: f64 = 0.15;

/// What the timing model needs to know about a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingContext {
    /// Number of parallel lookup engines on the device (1 for NV/merged).
    pub parallel_engines: usize,
    /// Number of virtual networks sharing one merged engine (1 if not
    /// merged).
    pub merged_arity: usize,
}

impl TimingContext {
    /// A single dedicated engine (the NV case and each VS engine's view).
    pub const SINGLE: TimingContext = TimingContext {
        parallel_engines: 1,
        merged_arity: 1,
    };
}

/// Achievable pipeline clock in MHz for `ctx` on `grade`.
#[must_use]
pub fn clock_mhz(grade: SpeedGrade, ctx: TimingContext) -> f64 {
    let base = grade.base_clock_mhz();
    let engines = ctx.parallel_engines.max(1) as f64;
    let arity = ctx.merged_arity.max(1) as f64;
    let merged_factor = 1.0 / (1.0 + MERGED_DEGRADATION_PER_VN * (arity - 1.0));
    let congestion_factor = 1.0 - SEPARATE_DEGRADATION_PER_ENGINE * (engines - 1.0);
    (base * merged_factor * congestion_factor).max(base * MIN_CLOCK_FRACTION)
}

/// Throughput of one pipeline at `freq_mhz`, in Gbps (40-byte packets).
#[must_use]
pub fn throughput_gbps(freq_mhz: f64) -> f64 {
    GBPS_PER_MHZ * freq_mhz
}

/// Aggregate capacity of `engines` identical pipelines, in Gbps.
#[must_use]
pub fn aggregate_throughput_gbps(freq_mhz: f64, engines: usize) -> f64 {
    throughput_gbps(freq_mhz) * engines as f64
}

/// The power-efficiency metric of §VI-B: mW per Gbps (lower is better).
#[must_use]
pub fn mw_per_gbps(power_w: f64, throughput_gbps: f64) -> f64 {
    if throughput_gbps <= 0.0 {
        return f64::INFINITY;
    }
    power_w * 1e3 / throughput_gbps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_engine_runs_at_base_clock() {
        for grade in SpeedGrade::ALL {
            assert_eq!(
                clock_mhz(grade, TimingContext::SINGLE),
                grade.base_clock_mhz()
            );
        }
    }

    #[test]
    fn merged_clock_decreases_with_arity() {
        let mut prev = f64::INFINITY;
        for k in 1..=15 {
            let f = clock_mhz(
                SpeedGrade::Minus2,
                TimingContext {
                    parallel_engines: 1,
                    merged_arity: k,
                },
            );
            assert!(f < prev, "k={k}");
            prev = f;
        }
        // "decreases significantly": less than half the base by K = 15.
        assert!(prev < 0.5 * SpeedGrade::Minus2.base_clock_mhz());
    }

    #[test]
    fn separate_clock_degrades_mildly() {
        let f15 = clock_mhz(
            SpeedGrade::Minus2,
            TimingContext {
                parallel_engines: 15,
                merged_arity: 1,
            },
        );
        let base = SpeedGrade::Minus2.base_clock_mhz();
        assert!(f15 < base);
        assert!(f15 > 0.9 * base, "separate degradation must stay mild");
    }

    #[test]
    fn clock_never_falls_below_floor() {
        let f = clock_mhz(
            SpeedGrade::Minus2,
            TimingContext {
                parallel_engines: 1,
                merged_arity: 1000,
            },
        );
        assert!(f >= MIN_CLOCK_FRACTION * SpeedGrade::Minus2.base_clock_mhz() - 1e-12);
    }

    #[test]
    fn throughput_at_min_packets() {
        // 350 MHz × 320 bits = 112 Gbps.
        assert!((throughput_gbps(350.0) - 112.0).abs() < 1e-9);
        assert!((aggregate_throughput_gbps(350.0, 4) - 448.0).abs() < 1e-9);
    }

    #[test]
    fn mw_per_gbps_metric() {
        assert!((mw_per_gbps(4.5, 112.0) - 40.178_571_428).abs() < 1e-6);
        assert_eq!(mw_per_gbps(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn low_power_grade_is_slower() {
        let hi = clock_mhz(SpeedGrade::Minus2, TimingContext::SINGLE);
        let lo = clock_mhz(SpeedGrade::Minus1L, TimingContext::SINGLE);
        assert!(lo < hi);
    }
}
