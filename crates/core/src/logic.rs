//! Logic & signal power (§V-C, Fig. 3) and the per-stage PE profile.
//!
//! The paper measures logic at the granularity of one processing element
//! (PE) per pipeline stage — stage registers plus the logic doing the
//! memory access and per-stage computation — and reports that logic power
//! grows linearly with both stage count and frequency.

use crate::grade::SpeedGrade;
use serde::{Deserialize, Serialize};

/// Resource consumption of one pipeline-stage processing element, as
/// measured by the paper for its uni-bit trie engine (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeProfile {
    /// Slice registers used as flip-flops.
    pub slice_registers: u64,
    /// Slice LUTs used as logic.
    pub luts_logic: u64,
    /// Slice LUTs used as memory (distributed RAM).
    pub luts_memory: u64,
    /// Slice LUTs used as routing.
    pub luts_routing: u64,
}

impl PeProfile {
    /// The paper's measured uni-bit trie PE: 1689 FF, 336 logic LUTs,
    /// 126 memory LUTs, 376 routing LUTs.
    pub const PAPER_UNIBIT: PeProfile = PeProfile {
        slice_registers: 1689,
        luts_logic: 336,
        luts_memory: 126,
        luts_routing: 376,
    };

    /// Total LUTs of any kind.
    #[must_use]
    pub fn total_luts(&self) -> u64 {
        self.luts_logic + self.luts_memory + self.luts_routing
    }
}

/// Per-stage logic+signal power at `freq_mhz`, in watts (§V-C):
/// 5.180·f µW (-2) or 3.937·f µW (-1L).
#[must_use]
pub(crate) fn stage_logic_power_w(grade: SpeedGrade, freq_mhz: f64) -> f64 {
    grade.logic_stage_uw_per_mhz() * freq_mhz * 1e-6
}

/// Logic power of a whole pipeline: linear in the stage count, as the
/// paper observed.
#[must_use]
pub(crate) fn pipeline_logic_power_w(grade: SpeedGrade, stages: usize, freq_mhz: f64) -> f64 {
    stages as f64 * stage_logic_power_w(grade, freq_mhz)
}

/// Per-stage logic power in mW, Fig. 3's y-axis.
#[must_use]
pub(crate) fn stage_logic_power_mw(grade: SpeedGrade, freq_mhz: f64) -> f64 {
    stage_logic_power_w(grade, freq_mhz) * 1e3
}

/// Total logic resources of `engines` pipelines of `stages` stages each
/// (Lᵢ,ⱼ summed): used for area-driven static power and fit checks.
#[must_use]
pub(crate) fn total_resources(pe: PeProfile, engines: usize, stages: usize) -> PeProfile {
    let n = (engines * stages) as u64;
    PeProfile {
        slice_registers: pe.slice_registers * n,
        luts_logic: pe.luts_logic * n,
        luts_memory: pe.luts_memory * n,
        luts_routing: pe.luts_routing * n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pe_profile_numbers() {
        let pe = PeProfile::PAPER_UNIBIT;
        assert_eq!(pe.slice_registers, 1689);
        assert_eq!(pe.total_luts(), 336 + 126 + 376);
    }

    #[test]
    fn stage_power_formula_is_exact() {
        let w = stage_logic_power_w(SpeedGrade::Minus2, 350.0);
        assert!((w - 5.180 * 350.0 * 1e-6).abs() < 1e-15);
        let w = stage_logic_power_w(SpeedGrade::Minus1L, 250.0);
        assert!((w - 3.937 * 250.0 * 1e-6).abs() < 1e-15);
    }

    #[test]
    fn pipeline_power_is_linear_in_stages() {
        let one = pipeline_logic_power_w(SpeedGrade::Minus2, 1, 300.0);
        let twenty_eight = pipeline_logic_power_w(SpeedGrade::Minus2, 28, 300.0);
        assert!((twenty_eight - 28.0 * one).abs() < 1e-12);
    }

    #[test]
    fn fig3_magnitudes() {
        // Fig. 3 plots roughly 0.5..2.6 mW per stage over 100..500 MHz.
        assert!((stage_logic_power_mw(SpeedGrade::Minus2, 500.0) - 2.59).abs() < 0.01);
        assert!((stage_logic_power_mw(SpeedGrade::Minus1L, 100.0) - 0.3937).abs() < 0.001);
    }

    #[test]
    fn total_resources_scale_with_engines_and_stages() {
        let pe = PeProfile::PAPER_UNIBIT;
        let total = total_resources(pe, 3, 28);
        assert_eq!(total.slice_registers, 1689 * 84);
        assert_eq!(total.luts_logic, 336 * 84);
    }
}
