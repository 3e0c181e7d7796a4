//! Static (leakage) power with the ±5 % band of §V-A.
//!
//! Static power is frequency independent but proportional to the area the
//! design occupies: the paper reports 4.5 W (-2) and 3.1 W (-1L) with "a
//! maximum of ±5 % deviation ... based on the amount of resources used".
//! The band is the base value scaled linearly from −5 % at zero
//! utilization to +5 % at full utilization; the `statics` table prints
//! its ends. The analytical models use the constant base P_L, as the
//! paper's equations do.

use crate::grade::SpeedGrade;

/// Static power in watts: base × (0.95 + 0.10 × utilization), i.e. the
/// §V-A ±5 % band anchored at the reported base values.
#[must_use]
pub(crate) fn static_power_w(grade: SpeedGrade, utilization: f64) -> f64 {
    let u = utilization.clamp(0.0, 1.0);
    grade.static_base_w() * (0.95 + 0.10 * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_is_plus_minus_five_percent() {
        for grade in SpeedGrade::ALL {
            let base = grade.static_base_w();
            assert!((static_power_w(grade, 0.0) - base * 0.95).abs() < 1e-12);
            assert!((static_power_w(grade, 1.0) - base * 1.05).abs() < 1e-12);
            assert!((static_power_w(grade, 0.5) - base).abs() < 1e-12);
        }
    }

    #[test]
    fn utilization_is_clamped() {
        let a = static_power_w(SpeedGrade::Minus2, -3.0);
        let b = static_power_w(SpeedGrade::Minus2, 0.0);
        assert_eq!(a, b);
        let c = static_power_w(SpeedGrade::Minus2, 7.0);
        let d = static_power_w(SpeedGrade::Minus2, 1.0);
        assert_eq!(c, d);
    }

    #[test]
    fn low_power_grade_has_lower_static_power_everywhere() {
        for u in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!(static_power_w(SpeedGrade::Minus1L, u) < static_power_w(SpeedGrade::Minus2, u));
        }
    }
}
