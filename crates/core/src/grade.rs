//! Speed-grade-dependent constants.
//!
//! Every number here is taken from the paper's own calibration:
//!
//! * static power: 4.5 W (-2) / 3.1 W (-1L), ±5 % with area (§V-A);
//! * BRAM dynamic power coefficients (Table III), in µW per block per MHz;
//! * per-stage logic+signal power: 5.180·f (-2) / 3.937·f (-1L) µW (§V-C);
//!
//! plus one *calibrated* value of ours — the base pipeline clock — since
//! the paper reports relative throughput behaviour, not an absolute clock.
//! 350 MHz (-2) / 250 MHz (-1L) is representative of published Virtex-6
//! trie pipelines and yields mW/Gbps magnitudes inside Fig. 8's axis range
//! (see DESIGN.md §8).

use crate::units::{Megahertz, MicroWattsPerMegahertz, Watts};
use serde::{Deserialize, Serialize};

/// Calibration table for one speed grade, every entry unit-typed. This is
/// the **only** place (together with `units.rs`) where raw power/clock
/// literals are allowed — a vr-bench source check flags power literals
/// elsewhere in `crates/core` that bypass these
/// constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradeCalibration {
    /// Base static power of the XC6VLX760 (§V-A).
    pub static_base: Watts,
    /// Table III: dynamic coefficient per 18 Kb BRAM block.
    pub bram_18k: MicroWattsPerMegahertz,
    /// Table III: dynamic coefficient per 36 Kb BRAM block.
    pub bram_36k: MicroWattsPerMegahertz,
    /// §V-C: per-pipeline-stage logic+signal coefficient.
    pub logic_stage: MicroWattsPerMegahertz,
    /// Calibrated base pipeline clock (ours; see module docs).
    pub base_clock: Megahertz,
}

/// §V-A / Table III / §V-C calibration for the `-2` grade.
pub(crate) const MINUS2: GradeCalibration = GradeCalibration {
    static_base: Watts(4.5),
    bram_18k: MicroWattsPerMegahertz(13.65),
    bram_36k: MicroWattsPerMegahertz(24.60),
    logic_stage: MicroWattsPerMegahertz(5.180),
    base_clock: Megahertz(350.0),
};

/// §V-A / Table III / §V-C calibration for the `-1L` grade.
pub(crate) const MINUS1L: GradeCalibration = GradeCalibration {
    static_base: Watts(3.1),
    bram_18k: MicroWattsPerMegahertz(11.00),
    bram_36k: MicroWattsPerMegahertz(19.70),
    logic_stage: MicroWattsPerMegahertz(3.937),
    base_clock: Megahertz(250.0),
};

/// Xilinx Virtex-6 speed grades evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpeedGrade {
    /// `-2`: the high-performance grade.
    Minus2,
    /// `-1L`: the low-power grade (≈2000 mA lower supply current, §V-A).
    Minus1L,
}

impl SpeedGrade {
    /// All grades, in the order the paper plots them.
    pub const ALL: [SpeedGrade; 2] = [SpeedGrade::Minus2, SpeedGrade::Minus1L];

    /// Display label used in figures ("-2" / "-1L").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpeedGrade::Minus2 => "-2",
            SpeedGrade::Minus1L => "-1L",
        }
    }

    /// The grade's full unit-typed calibration table.
    #[must_use]
    pub const fn calibration(self) -> &'static GradeCalibration {
        match self {
            SpeedGrade::Minus2 => &MINUS2,
            SpeedGrade::Minus1L => &MINUS1L,
        }
    }

    /// Base static power of the XC6VLX760 in watts (§V-A).
    #[must_use]
    pub fn static_base_w(self) -> f64 {
        self.calibration().static_base.value()
    }

    /// Table III: µW per 18 Kb BRAM block per MHz.
    #[must_use]
    pub fn bram_18k_uw_per_mhz(self) -> f64 {
        self.calibration().bram_18k.value()
    }

    /// Table III: µW per 36 Kb BRAM block per MHz.
    #[must_use]
    pub fn bram_36k_uw_per_mhz(self) -> f64 {
        self.calibration().bram_36k.value()
    }

    /// §V-C: per-pipeline-stage logic+signal power in µW per MHz.
    #[must_use]
    pub fn logic_stage_uw_per_mhz(self) -> f64 {
        self.calibration().logic_stage.value()
    }

    /// Calibrated base pipeline clock in MHz (ours; see module docs).
    #[must_use]
    pub fn base_clock_mhz(self) -> f64 {
        self.calibration().base_clock.value()
    }
}

impl std::fmt::Display for SpeedGrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_coefficients_are_exact() {
        assert_eq!(SpeedGrade::Minus2.bram_18k_uw_per_mhz(), 13.65);
        assert_eq!(SpeedGrade::Minus2.bram_36k_uw_per_mhz(), 24.60);
        assert_eq!(SpeedGrade::Minus1L.bram_18k_uw_per_mhz(), 11.00);
        assert_eq!(SpeedGrade::Minus1L.bram_36k_uw_per_mhz(), 19.70);
    }

    #[test]
    fn low_power_grade_is_cheaper_but_slower() {
        let hi = SpeedGrade::Minus2;
        let lo = SpeedGrade::Minus1L;
        assert!(lo.static_base_w() < hi.static_base_w());
        assert!(lo.logic_stage_uw_per_mhz() < hi.logic_stage_uw_per_mhz());
        assert!(lo.base_clock_mhz() < hi.base_clock_mhz());
    }

    #[test]
    fn static_bases_match_section_v_a() {
        assert_eq!(SpeedGrade::Minus2.static_base_w(), 4.5);
        assert_eq!(SpeedGrade::Minus1L.static_base_w(), 3.1);
    }

    #[test]
    fn labels() {
        assert_eq!(SpeedGrade::Minus2.to_string(), "-2");
        assert_eq!(SpeedGrade::Minus1L.to_string(), "-1L");
    }
}
