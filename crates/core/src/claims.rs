//! The paper's claims as checkable artifacts.
//!
//! Every quantitative claim the paper makes is encoded here as a
//! [`ClaimCheck`] evaluated against this reproduction's own sweep —
//! `all_experiments -- claims` prints the checklist, and the integration tests pin
//! every verdict to `holds == true`. This is the repository's one-glance
//! answer to "does the reproduction actually reproduce the paper?".

use crate::experiments::{power_sweep, ExperimentConfig, SweepPoint};
use crate::PowerError;
use crate::{Device, SpeedGrade};
use serde::{Deserialize, Serialize};

/// Claim 3's threshold: the merged clock at K must fall below this share
/// of its K = 1 clock to count as a significant decrease.
const VM_CLOCK_COLLAPSE_RATIO: f64 = 0.75;

/// One verified (or refuted) paper claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimCheck {
    /// Short identifier, e.g. `error-3pct`.
    pub id: String,
    /// Where the paper makes the claim.
    pub section: String,
    /// The claim, paraphrased.
    pub statement: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the measurement supports the claim.
    pub holds: bool,
}

fn find<'a>(
    points: &'a [SweepPoint],
    series: &str,
    grade: SpeedGrade,
    k: usize,
) -> Result<&'a SweepPoint, PowerError> {
    points
        .iter()
        .find(|p| p.series == series && p.grade == grade && p.k == k)
        .ok_or(PowerError::InvalidParameter(
            "claims need a sweep covering every series × grade at K = 1 and K = k_max",
        ))
}

/// Evaluates the full claim checklist on `cfg`'s workload scale:
/// [`power_sweep`], then [`check_claims`].
///
/// # Errors
/// Rejects `k_max == 0`; propagates sweep construction errors.
pub fn verify_claims(cfg: &ExperimentConfig) -> Result<Vec<ClaimCheck>, PowerError> {
    check_claims(&power_sweep(cfg)?, cfg.k_max)
}

/// Checks the eight claims against an already computed [`power_sweep`]
/// over K = 1..=`k_max`.
///
/// # Errors
/// [`PowerError::InvalidParameter`] if `points` lacks a point a claim
/// reads (a sweep of another `k_max`, or an empty one).
pub fn check_claims(points: &[SweepPoint], k_max: usize) -> Result<Vec<ClaimCheck>, PowerError> {
    let g = SpeedGrade::Minus2;
    let k = k_max;
    let mut checks = Vec::new();

    // 1. Abstract / Fig. 7: model error within ±3 %.
    let max_err = points
        .iter()
        .map(|p| p.error_pct.abs())
        .fold(0.0f64, f64::max);
    checks.push(ClaimCheck {
        id: "error-3pct".into(),
        section: "Abstract, Fig. 7".into(),
        statement: "analytical model within ±3 % of experimental".into(),
        measured: format!("max |error| = {max_err:.2}%"),
        holds: max_err <= 3.0,
    });

    // 2. Abstract: savings proportional to K.
    let nv = find(points, "NV", g, k)?;
    let vs = find(points, "VS", g, k)?;
    let ratio = nv.model_w / vs.model_w;
    checks.push(ClaimCheck {
        id: "savings-prop-k".into(),
        section: "Abstract, Fig. 5".into(),
        statement: "virtualization saves power proportional to K".into(),
        measured: format!("NV/VS power ratio at K={k}: {ratio:.1} (K = {k})"),
        holds: ratio > 0.6 * k as f64,
    });

    // 3. Fig. 6: measured virtualized power decreases with K.
    let vs_first = find(points, "VS", g, 1)?;
    checks.push(ClaimCheck {
        id: "fig6-decrease".into(),
        section: "§VI-A, Fig. 6".into(),
        statement: "experimental virtualized power decreases slightly with K".into(),
        measured: format!(
            "VS experimental: {:.3} W at K=1 → {:.3} W at K={k}",
            vs_first.experimental_w, vs.experimental_w
        ),
        holds: vs.experimental_w < vs_first.experimental_w,
    });

    // 4. §VI-B / Fig. 8: efficiency ordering VS < NV < VM.
    let vm_hi = find(points, "VM (α≈0.8)", g, k)?;
    let vm_lo = find(points, "VM (α≈0.2)", g, k)?;
    checks.push(ClaimCheck {
        id: "fig8-ordering".into(),
        section: "§VI-B, Fig. 8".into(),
        statement: "mW/Gbps: separate best, conventional second, merged worst".into(),
        measured: format!(
            "VS {:.1} < NV {:.1} < VM(α≈0.8) {:.1} ≤ VM(α≈0.2) {:.1}",
            vs.mw_per_gbps, nv.mw_per_gbps, vm_hi.mw_per_gbps, vm_lo.mw_per_gbps
        ),
        holds: vs.mw_per_gbps < nv.mw_per_gbps
            && nv.mw_per_gbps < vm_hi.mw_per_gbps
            && vm_hi.mw_per_gbps <= vm_lo.mw_per_gbps * 1.001,
    });

    // 5. §VI-B: -1L saves ≈30 % power.
    let vs_lo = find(points, "VS", SpeedGrade::Minus1L, k)?;
    let saving = 1.0 - vs_lo.model_w / vs.model_w;
    checks.push(ClaimCheck {
        id: "lowpower-30pct".into(),
        section: "§VI-B".into(),
        statement: "-1L grade consumes ≈30 % less power than -2".into(),
        measured: format!("VS at K={k}: {:.1}% saving", saving * 100.0),
        holds: (0.2..=0.4).contains(&saving),
    });

    // 6. §VI-B: the grades' mW/Gbps is almost the same.
    let eff_gap = (vs_lo.mw_per_gbps - vs.mw_per_gbps).abs() / vs.mw_per_gbps;
    checks.push(ClaimCheck {
        id: "grades-same-efficiency".into(),
        section: "§VI-B".into(),
        statement: "both speed grades deliver almost the same mW/Gbps".into(),
        measured: format!("VS efficiency gap at K={k}: {:.1}%", eff_gap * 100.0),
        holds: eff_gap < 0.2,
    });

    // 7. §VI-A: separate hits the pin wall just past K = 15.
    let pin_limit = crate::io::max_engines(&Device::xc6vlx760());
    checks.push(ClaimCheck {
        id: "vs-pin-limit".into(),
        section: "§VI-A".into(),
        statement: "separate limited to 15 virtual networks by I/O pins".into(),
        measured: format!("max separate engines on XC6VLX760: {pin_limit}"),
        holds: pin_limit == 15,
    });

    // 8. §IV-C: merged throughput collapses with K.
    let vm_k = find(points, "VM (α≈0.8)", g, k)?;
    let vm_1 = find(points, "VM (α≈0.8)", g, 1)?;
    checks.push(ClaimCheck {
        id: "vm-clock-collapse".into(),
        section: "§IV-C, §VI-B".into(),
        statement: "merged operating frequency decreases significantly with K".into(),
        measured: format!(
            "VM clock: {:.0} MHz at K=1 → {:.0} MHz at K={k}",
            vm_1.freq_mhz, vm_k.freq_mhz
        ),
        holds: vm_k.freq_mhz < VM_CLOCK_COLLAPSE_RATIO * vm_1.freq_mhz,
    });

    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_holds_on_the_quick_configuration() {
        let checks = verify_claims(&ExperimentConfig::quick()).unwrap();
        assert_eq!(checks.len(), 8);
        for check in &checks {
            assert!(
                check.holds,
                "{}: {} — measured {}",
                check.id, check.statement, check.measured
            );
        }
        // Ids are unique (the checklist is keyed by them).
        let mut ids: Vec<&str> = checks.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), checks.len());
    }

    #[test]
    fn a_sweep_over_no_k_is_a_typed_error_not_a_panic() {
        let cfg = ExperimentConfig {
            k_max: 0,
            k_max_fig4: 0,
            ..ExperimentConfig::quick()
        };
        let rejected =
            |r: Result<(), PowerError>| matches!(r, Err(PowerError::InvalidParameter(_)));
        assert!(rejected(power_sweep(&cfg).map(drop)));
        assert!(rejected(verify_claims(&cfg).map(drop)));
        assert!(rejected(crate::experiments::fig4_series(&cfg).map(drop)));
        assert!(rejected(
            crate::experiments::ablation_merged_memory(&cfg).map(drop)
        ));
        // The checks read K = 1 and K = k_max of every series: an empty
        // sweep, or one that stops short of k_max, is refused as well.
        assert!(rejected(check_claims(&[], 0).map(drop)));
        let quick = ExperimentConfig::quick();
        let points = power_sweep(&quick).unwrap();
        assert!(rejected(check_claims(&points, quick.k_max + 1).map(drop)));
        assert_eq!(check_claims(&points, quick.k_max), verify_claims(&quick));
    }
}
