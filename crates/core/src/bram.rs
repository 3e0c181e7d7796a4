//! BRAM block quantization and the Table III power model.
//!
//! "Despite how small the amount of memory required, a BRAM block has to
//! be assigned to serve the purpose. Therefore, BRAM power is determined
//! by the number of blocks used rather than the total size of memory."
//! (§V-B.) Power per block grows linearly with operating frequency; the
//! per-block coefficients are Table III's, encoded in [`SpeedGrade`].

use crate::device::{BRAM_18K_BITS, BRAM_36K_BITS};
use crate::grade::SpeedGrade;
use serde::{Deserialize, Serialize};

/// Which block granularity a design maps its stage memories onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BramMode {
    /// 18 Kb half-blocks.
    K18,
    /// 36 Kb full blocks.
    K36,
}

impl BramMode {
    /// Both modes, for sweeps like Fig. 2 / Table III.
    pub const ALL: [BramMode; 2] = [BramMode::K18, BramMode::K36];

    /// Capacity of one block in bits.
    #[must_use]
    pub fn block_bits(self) -> u64 {
        match self {
            BramMode::K18 => BRAM_18K_BITS,
            BramMode::K36 => BRAM_36K_BITS,
        }
    }

    /// Table III coefficient for this mode, in µW per block per MHz.
    #[must_use]
    pub fn uw_per_block_mhz(self, grade: SpeedGrade) -> f64 {
        match self {
            BramMode::K18 => grade.bram_18k_uw_per_mhz(),
            BramMode::K36 => grade.bram_36k_uw_per_mhz(),
        }
    }

    /// Number of blocks needed for `bits` of memory: ⌈M / block⌉ (§V-B).
    /// Zero bits need zero blocks (an absent stage memory maps to nothing).
    #[must_use]
    pub fn blocks_for(self, bits: u64) -> u64 {
        bits.div_ceil(self.block_bits())
    }

    /// Display label used in figures ("18Kb" / "36Kb").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BramMode::K18 => "18Kb",
            BramMode::K36 => "36Kb",
        }
    }
}

impl std::fmt::Display for BramMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Table III: dynamic power of `blocks` BRAM blocks at `freq_mhz`, in
/// watts. `P(µW) = blocks × coeff × f`.
///
/// ```
/// use vr_power::bram::bram_power_w;
/// use vr_power::{BramMode, SpeedGrade};
///
/// // One 18 Kb block at 350 MHz on the -2 grade: 13.65 µW/MHz × 350.
/// let w = bram_power_w(BramMode::K18, SpeedGrade::Minus2, 1, 350.0);
/// assert!((w - 13.65 * 350.0 * 1e-6).abs() < 1e-12);
/// ```
#[must_use]
pub fn bram_power_w(mode: BramMode, grade: SpeedGrade, blocks: u64, freq_mhz: f64) -> f64 {
    blocks as f64 * mode.uw_per_block_mhz(grade) * freq_mhz * 1e-6
}

/// The write rate the paper calibrated Table III at (§V-B: "We assumed a
/// write rate of 1 % (low update rate)").
pub const REFERENCE_WRITE_RATE: f64 = 0.01;

/// Relative power cost of a write vs a read port cycle. XPE reports BRAM
/// writes marginally more expensive than reads; 0.3 keeps the correction
/// second-order, consistent with the paper treating 1 % as negligible.
pub const WRITE_POWER_FACTOR: f64 = 0.3;

/// Table III power adjusted for a route-update write rate other than the
/// 1 % the coefficients were calibrated at (extension; used by the
/// `updates` bench to price update-heavy deployments).
///
/// `write_rate` is the fraction of cycles performing a table write, in
/// `[0, 1]`. At exactly [`REFERENCE_WRITE_RATE`] this returns the plain
/// Table III power.
#[must_use]
pub fn bram_power_w_with_writes(
    mode: BramMode,
    grade: SpeedGrade,
    blocks: u64,
    freq_mhz: f64,
    write_rate: f64,
) -> f64 {
    let write_rate = write_rate.clamp(0.0, 1.0);
    let base = bram_power_w(mode, grade, blocks, freq_mhz);
    base * (1.0 + WRITE_POWER_FACTOR * (write_rate - REFERENCE_WRITE_RATE))
}

/// Power of a single BRAM block at `freq_mhz` (Fig. 2's y-axis), in mW.
#[must_use]
pub fn single_block_power_mw(mode: BramMode, grade: SpeedGrade, freq_mhz: f64) -> f64 {
    bram_power_w(mode, grade, 1, freq_mhz) * 1e3
}

/// Total blocks for a per-stage memory map (one entry per pipeline stage):
/// each stage has its own independently accessible memory, so each stage's
/// requirement is rounded up to whole blocks separately (§V-D).
#[must_use]
pub fn blocks_for_stages(mode: BramMode, stage_bits: &[u64]) -> u64 {
    stage_bits.iter().map(|&bits| mode.blocks_for(bits)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_quantization() {
        assert_eq!(BramMode::K18.blocks_for(0), 0);
        assert_eq!(BramMode::K18.blocks_for(1), 1);
        assert_eq!(BramMode::K18.blocks_for(BRAM_18K_BITS), 1);
        assert_eq!(BramMode::K18.blocks_for(BRAM_18K_BITS + 1), 2);
        assert_eq!(BramMode::K36.blocks_for(BRAM_36K_BITS * 3), 3);
    }

    #[test]
    fn table_iii_formula_is_exact() {
        // 18Kb (-2): ⌈M/18K⌉ × 13.65 × f µW, e.g. one block at 400 MHz.
        let w = bram_power_w(BramMode::K18, SpeedGrade::Minus2, 1, 400.0);
        assert!((w - 13.65 * 400.0 * 1e-6).abs() < 1e-12);
        let w = bram_power_w(BramMode::K36, SpeedGrade::Minus1L, 2, 100.0);
        assert!((w - 2.0 * 19.70 * 100.0 * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn power_is_monotonic_in_frequency_and_size() {
        // The paper observed BRAM power monotonically increasing with both.
        let power = |bits: u64, f: f64| {
            let blocks = BramMode::K18.blocks_for(bits);
            bram_power_w(BramMode::K18, SpeedGrade::Minus2, blocks, f)
        };
        assert!(power(50_000, 200.0) > power(50_000, 100.0));
        let small = power(10_000, 100.0);
        let large = power(500_000, 100.0);
        assert!(large > small);
    }

    #[test]
    fn two_halves_cost_more_than_one_full_block() {
        // 13.65 × 2 > 24.60: packing into 36 Kb blocks is cheaper per bit,
        // matching Fig. 2's curve ordering.
        for grade in SpeedGrade::ALL {
            assert!(
                2.0 * BramMode::K18.uw_per_block_mhz(grade) > BramMode::K36.uw_per_block_mhz(grade)
            );
        }
    }

    #[test]
    fn low_power_grade_is_cheaper_per_block() {
        for mode in BramMode::ALL {
            assert!(
                mode.uw_per_block_mhz(SpeedGrade::Minus1L)
                    < mode.uw_per_block_mhz(SpeedGrade::Minus2)
            );
        }
    }

    #[test]
    fn per_stage_quantization_exceeds_pooled() {
        // 28 stages of 1 Kb each: per-stage rounding needs 28 blocks;
        // pooled rounding would need only ⌈28K/18K⌉ = 2.
        let stages = vec![1024u64; 28];
        assert_eq!(blocks_for_stages(BramMode::K18, &stages), 28);
        assert_eq!(BramMode::K18.blocks_for(28 * 1024), 2);
    }

    #[test]
    fn single_block_mw_matches_fig2_magnitudes() {
        // Fig. 2 plots fractions of a mW up to ~10 mW over 100..500 MHz.
        let p = single_block_power_mw(BramMode::K36, SpeedGrade::Minus2, 500.0);
        assert!((p - 12.3).abs() < 0.01, "{p} mW"); // 24.60 × 500 µW
        let p = single_block_power_mw(BramMode::K18, SpeedGrade::Minus1L, 100.0);
        assert!((p - 1.1).abs() < 0.01, "{p} mW");
    }

    #[test]
    fn labels() {
        assert_eq!(BramMode::K18.to_string(), "18Kb");
        assert_eq!(BramMode::K36.to_string(), "36Kb");
    }

    #[test]
    fn write_rate_adjustment_is_anchored_at_one_percent() {
        let base = bram_power_w(BramMode::K18, SpeedGrade::Minus2, 10, 300.0);
        let at_ref = bram_power_w_with_writes(
            BramMode::K18,
            SpeedGrade::Minus2,
            10,
            300.0,
            REFERENCE_WRITE_RATE,
        );
        assert!((base - at_ref).abs() < 1e-15);
        // Heavier updates cost more; a read-only table costs slightly less.
        let heavy = bram_power_w_with_writes(BramMode::K18, SpeedGrade::Minus2, 10, 300.0, 0.20);
        let read_only = bram_power_w_with_writes(BramMode::K18, SpeedGrade::Minus2, 10, 300.0, 0.0);
        assert!(heavy > base);
        assert!(read_only < base);
        // The correction stays second-order even at an absurd 100 % rate.
        let max = bram_power_w_with_writes(BramMode::K18, SpeedGrade::Minus2, 10, 300.0, 1.0);
        assert!(max < base * 1.31);
        // Out-of-range rates are clamped.
        let clamped = bram_power_w_with_writes(BramMode::K18, SpeedGrade::Minus2, 10, 300.0, 7.0);
        assert_eq!(clamped, max);
    }
}
