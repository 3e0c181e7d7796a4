//! Unit-typed wrappers for power and frequency quantities.
//!
//! The power models in this crate and in `vr-power` mix three scales —
//! watts for static/report totals, µW-per-MHz for the Table III dynamic
//! coefficients, and MHz for clocks. A bare `4.5` in an expression says
//! nothing about which scale it is on, and a literal on the wrong scale
//! is exactly the kind of silent 10³/10⁶ bug a power study cannot
//! afford. These newtypes make the scale part of the constant's type:
//! calibration values are declared through [`Watts`],
//! [`MicroWattsPerMegahertz`] and [`Megahertz`] constructors (see
//! `grade.rs`), and a vr-bench source check flags raw `f64` power
//! literals elsewhere in `crates/core` that bypass them.
//!
//! The wrappers are `const`-constructible and deliberately minimal: model
//! arithmetic still happens on `f64` (via [`Watts::value`] and friends),
//! so no public `-> f64` API changes shape — the types gate where
//! *literals* may appear, not how math is written.

use serde::{Deserialize, Serialize};

/// A power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Watts(pub f64);

impl Watts {
    /// The wrapped value in watts.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The same power expressed in milliwatts.
    #[cfg(test)]
    #[must_use]
    pub const fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// The same power expressed in microwatts.
    #[cfg(test)]
    #[must_use]
    pub const fn as_microwatts(self) -> f64 {
        self.0 * 1e6
    }
}

/// A dynamic-power coefficient in µW per MHz (numerically equal to a
/// pJ-per-cycle energy, which is how the cycle-level simulator reads it).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct MicroWattsPerMegahertz(pub f64);

impl MicroWattsPerMegahertz {
    /// The wrapped coefficient in µW/MHz.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The dissipation at a given clock, in watts.
    #[must_use]
    pub fn at(self, clock: Megahertz) -> Watts {
        Watts(self.0 * clock.value() * 1e-6)
    }
}

/// A clock frequency in MHz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Megahertz(pub f64);

impl Megahertz {
    /// The wrapped frequency in MHz.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }
}

/// Gbps carried per MHz of pipeline clock at 40-byte packets:
/// 40 B × 8 = 320 bits per lookup, one lookup per cycle.
pub(crate) const GBPS_PER_MHZ: f64 = 0.32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_conversions_are_exact() {
        let p = Watts(4.5);
        assert_eq!(p.value(), 4.5);
        assert_eq!(p.as_milliwatts(), 4500.0);
        assert_eq!(p.as_microwatts(), 4.5e6);
    }

    #[test]
    fn coefficient_times_clock_lands_in_watts() {
        // 13.65 µW/MHz at 400 MHz = 5.46 mW.
        let w = MicroWattsPerMegahertz(13.65).at(Megahertz(400.0));
        assert!((w.value() - 5.46e-3).abs() < 1e-12);
    }

    #[test]
    fn units_serialize_transparently_enough() {
        let json = serde_json::to_string(&Watts(3.1)).unwrap();
        let back: Watts = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Watts(3.1));
    }
}
