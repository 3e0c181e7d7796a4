//! Virtual-network identifiers and the tenant mix µ.
//!
//! Assumption 1 of the paper distributes traffic uniformly across the K
//! virtual routers (µᵢ = 1/K), and "more complex distributions can be
//! modeled by appropriately changing the µᵢ values" (§IV-A).
//! [`tenant_mix`] is the one place a weight vector becomes µ: the packet
//! source, [`SkewedTraffic`](crate::models::SkewedTraffic), draws each
//! packet's VN from it, and the power scenarios weight each VN's dynamic
//! power by it. A packet, to the lookup engines, is a `(VnId, u32)` pair:
//! its network and destination; payload is irrelevant to Layer-3 lookup.

use crate::error::NetError;

/// Virtual-network identifier (VNID). The paper tags packets in the merged
/// stream with a VNID used to index per-network NHI vectors (§IV-C).
pub type VnId = u16;

/// The tenant mix µ over `k` networks: `weights` normalized to sum 1
/// (each `x / sum`), or the uniform 1/K of Assumption 1 for `None`.
///
/// # Errors
/// Rejects `k == 0`, a weight vector whose length is not `k`, a negative
/// or non-finite weight, and an all-zero weight vector.
pub fn tenant_mix(k: usize, weights: Option<&[f64]>) -> Result<Vec<f64>, NetError> {
    if k == 0 {
        return Err(NetError::InvalidSpec("k must be at least 1"));
    }
    let Some(w) = weights else {
        return Ok(vec![1.0 / k as f64; k]);
    };
    if w.len() != k {
        return Err(NetError::InvalidSpec("tenant weights length must equal k"));
    }
    if w.iter().any(|x| *x < 0.0 || !x.is_finite()) {
        return Err(NetError::InvalidSpec(
            "tenant weights must be finite and non-negative",
        ));
    }
    let sum: f64 = w.iter().sum();
    if sum <= 0.0 {
        return Err(NetError::InvalidSpec("tenant weights must not be all zero"));
    }
    Ok(w.iter().map(|x| x / sum).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mu_sums_to_one() {
        let mu = tenant_mix(4, None).unwrap();
        assert_eq!(mu.len(), 4);
        assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(mu.iter().all(|m| (m - 0.25).abs() < 1e-12));
    }

    #[test]
    fn weighted_mu_normalizes() {
        let mu = tenant_mix(3, Some(&[1.0, 3.0, 0.0])).unwrap();
        assert_eq!(mu, [0.25, 0.75, 0.0]);
    }
}
