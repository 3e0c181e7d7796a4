//! Calibrating table families to a target merging efficiency α.
//!
//! The paper sweeps α ∈ {0.2, 0.8} as a free parameter (Assumption 4). Our
//! synthetic families control structural overlap through the *shared
//! prefix fraction* `s`, and the realized α is the merged trie's, counted in
//! one pass over the family's sorted routes without building the trie.
//! α(s) is monotone non-decreasing, so a bisection over `s` finds the `s`
//! realizing any reachable α.
//!
//! Note the reachable range: even fully disjoint prefix sets share the top
//! trie levels, so α(0) > 0; and α(1) < 1 only when tables are equal. The
//! search reports the closest achievable value when the target lies
//! outside `[α(0), α(1)]`.

use crate::merge::merging_efficiency_of;
use crate::TrieError;
use vr_net::synth::{FamilySpec, PrefixLenDistribution};
use vr_net::RoutingTable;

/// Outcome of a calibration search.
#[derive(Debug, Clone)]
pub struct CalibratedFamily {
    /// The generated tables realizing the α below.
    pub tables: Vec<RoutingTable>,
    /// The shared prefix fraction found by the search.
    pub shared_fraction: f64,
    /// The measured merging efficiency of the merged trie.
    pub achieved_alpha: f64,
}

/// Parameters of the calibration search.
#[derive(Debug, Clone)]
pub struct CalibrationSpec {
    /// Number of virtual networks K.
    pub k: usize,
    /// Prefixes per table.
    pub prefixes_per_table: usize,
    /// Target merging efficiency.
    pub target_alpha: f64,
    /// Acceptable |achieved − target|.
    pub tolerance: f64,
    /// RNG seed for the family generator.
    pub seed: u64,
    /// Maximum bisection iterations.
    pub max_iterations: usize,
}

impl CalibrationSpec {
    /// Sensible defaults: tolerance 0.02, 24 iterations.
    #[must_use]
    pub fn new(k: usize, prefixes_per_table: usize, target_alpha: f64, seed: u64) -> Self {
        Self {
            k,
            prefixes_per_table,
            target_alpha,
            tolerance: 0.02,
            seed,
            max_iterations: 24,
        }
    }

    fn family(&self, shared_fraction: f64) -> Result<Vec<RoutingTable>, TrieError> {
        FamilySpec {
            k: self.k,
            prefixes_per_table: self.prefixes_per_table,
            shared_fraction,
            seed: self.seed,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 16,
        }
        .generate()
        .map_err(|_| TrieError::InvalidParameter("family generation failed"))
    }

    /// Runs the bisection.
    ///
    /// # Errors
    /// [`TrieError::CalibrationFailed`] when the target is unreachable
    /// within tolerance (the closest value is reported), or parameter
    /// errors from family generation / merging.
    pub fn run(&self) -> Result<CalibratedFamily, TrieError> {
        if !(0.0..=1.0).contains(&self.target_alpha) {
            return Err(TrieError::InvalidParameter(
                "target alpha must be in [0, 1]",
            ));
        }
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        let lo_tables = self.family(lo)?;
        let lo_alpha = merging_efficiency_of(&lo_tables)?;
        if lo_alpha >= self.target_alpha {
            // Even disjoint tables overlap at least this much; accept the
            // closest end point if within tolerance.
            return if lo_alpha - self.target_alpha <= self.tolerance {
                Ok(CalibratedFamily {
                    tables: lo_tables,
                    shared_fraction: lo,
                    achieved_alpha: lo_alpha,
                })
            } else {
                Err(TrieError::CalibrationFailed {
                    target: self.target_alpha,
                    achieved: lo_alpha,
                })
            };
        }
        let hi_tables = self.family(hi)?;
        let hi_alpha = merging_efficiency_of(&hi_tables)?;
        if hi_alpha <= self.target_alpha {
            return if self.target_alpha - hi_alpha <= self.tolerance {
                Ok(CalibratedFamily {
                    tables: hi_tables,
                    shared_fraction: hi,
                    achieved_alpha: hi_alpha,
                })
            } else {
                Err(TrieError::CalibrationFailed {
                    target: self.target_alpha,
                    achieved: hi_alpha,
                })
            };
        }

        let mut best: Option<CalibratedFamily> = None;
        for _ in 0..self.max_iterations {
            let mid = (lo + hi) / 2.0;
            let tables = self.family(mid)?;
            let alpha = merging_efficiency_of(&tables)?;
            let err = (alpha - self.target_alpha).abs();
            if best
                .as_ref()
                .is_none_or(|b| err < (b.achieved_alpha - self.target_alpha).abs())
            {
                best = Some(CalibratedFamily {
                    tables,
                    shared_fraction: mid,
                    achieved_alpha: alpha,
                });
            }
            if err <= self.tolerance {
                break;
            }
            if alpha < self.target_alpha {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let best = best.expect("at least one bisection iteration ran");
        if (best.achieved_alpha - self.target_alpha).abs() <= self.tolerance {
            Ok(best)
        } else {
            Err(TrieError::CalibrationFailed {
                target: self.target_alpha,
                achieved: best.achieved_alpha,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrates_to_low_alpha() {
        let spec = CalibrationSpec {
            tolerance: 0.05,
            ..CalibrationSpec::new(4, 400, 0.35, 11)
        };
        let fam = spec.run().unwrap();
        assert!((fam.achieved_alpha - 0.35).abs() <= 0.05);
        assert_eq!(fam.tables.len(), 4);
    }

    #[test]
    fn calibrates_to_high_alpha() {
        let spec = CalibrationSpec {
            tolerance: 0.05,
            ..CalibrationSpec::new(4, 400, 0.8, 12)
        };
        let fam = spec.run().unwrap();
        assert!((fam.achieved_alpha - 0.8).abs() <= 0.05);
        assert!(fam.shared_fraction > 0.2);
    }

    #[test]
    fn rejects_out_of_range_targets() {
        assert!(CalibrationSpec::new(3, 200, 1.5, 1).run().is_err());
        assert!(CalibrationSpec::new(3, 200, -0.1, 1).run().is_err());
    }

    #[test]
    fn unreachably_low_target_reports_closest() {
        // α(0) is well above 0 for small K with shared top levels.
        let spec = CalibrationSpec {
            tolerance: 0.001,
            ..CalibrationSpec::new(2, 400, 0.0, 5)
        };
        match spec.run() {
            Err(TrieError::CalibrationFailed { target, achieved }) => {
                assert_eq!(target, 0.0);
                assert!(achieved > 0.0);
            }
            Ok(fam) => {
                // Acceptable only if genuinely within tolerance.
                assert!(fam.achieved_alpha <= 0.001);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn alpha_one_is_reachable_only_with_identical_structures() {
        // shared_fraction = 1 gives identical prefix sets => alpha = 1.
        let spec = CalibrationSpec {
            tolerance: 0.01,
            ..CalibrationSpec::new(3, 300, 1.0, 8)
        };
        let fam = spec.run().unwrap();
        assert!(fam.achieved_alpha >= 0.99);
        assert!((fam.shared_fraction - 1.0).abs() < 1e-9);
    }
}
