//! Traffic across K virtual networks: the one packet source, drawn from
//! fixed per-VN destination pools with Zipf skew and the tenant mix.
//!
//! [`SkewedTraffic`] keeps per-VN *concrete destination pools* (one or
//! more fixed addresses per table prefix, host bits randomized once at
//! build time) drawn through per-VN Zipf rank CDFs, P(r) ∝ 1/(r+1)^s
//! (`s = 0` is uniform), with each packet's VN drawn from the tenant mix
//! µ ([`tenant_mix`]; Assumption 1's µᵢ = 1/K by default). Real router
//! traffic repeats destinations, so the stream does too, and a result
//! cache in front of the lookup path sees the hit rate the skew implies;
//! the cache-less pipeline simulator draws the same source with `s = 0`.
//!
//! Everything is deterministic under the caller-provided seed, matching
//! the rest of vr-net.

use crate::error::NetError;
use crate::table::RoutingTable;
use crate::traffic::{tenant_mix, VnId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The normalized Zipf CDF over `n` ranks with exponent `s`:
/// `cdf[r]` = P(rank ≤ r), with P(r) ∝ 1/(r+1)^s. A draw is a uniform
/// `x` and a binary search for the first `cdf[r] > x`.
fn zipf_cdf(n: usize, s: f64) -> Result<Vec<f64>, NetError> {
    if n == 0 {
        return Err(NetError::InvalidSpec("zipf sampler needs at least 1 rank"));
    }
    if !s.is_finite() || s < 0.0 {
        return Err(NetError::InvalidSpec(
            "zipf exponent must be finite and non-negative",
        ));
    }
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            acc += ((r + 1) as f64).powf(-s);
            acc
        })
        .collect();
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    Ok(cdf)
}

/// Specification of a K-network traffic stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkewedSpec {
    /// Number of virtual networks K (VNIDs are `0..k`).
    pub k: usize,
    /// Zipf exponent applied to every network's destination pool.
    /// `0.0` is uniform over the pool; `1.0` is the classic web/router
    /// working-set skew; larger is hotter.
    pub s: f64,
    /// Per-VNID tenant-mix weights, normalized by [`tenant_mix`]; `None`
    /// means uniform across networks.
    pub tenant_weights: Option<Vec<f64>>,
    /// Concrete destination addresses materialized per table prefix.
    /// Larger values grow the working set without touching the table.
    pub expansions: usize,
    /// RNG seed (pools, rank order, and the draw stream all derive from
    /// it deterministically).
    pub seed: u64,
}

impl SkewedSpec {
    /// Zipf(s) traffic over `k` networks: one concrete destination per
    /// prefix, uniform tenant mix.
    #[must_use]
    pub fn zipf(k: usize, s: f64, seed: u64) -> Self {
        Self {
            k,
            s,
            tenant_weights: None,
            expansions: 1,
            seed,
        }
    }

    /// Uniform traffic over the same concrete pools (`s = 0`): every
    /// pool entry equally likely. The pipeline simulator's source, and the
    /// locality-free control for skew sweeps.
    #[must_use]
    pub fn uniform(k: usize, seed: u64) -> Self {
        Self::zipf(k, 0.0, seed)
    }
}

/// A seeded traffic generator over fixed per-VN destination pools.
///
/// The concrete destination addresses are materialized once at build time
/// (host bits randomized under the seed), so the stream *repeats* exact
/// destinations — hot ranks recur with Zipf frequency. Rank order is a
/// seeded shuffle of the pool, decorrelating hotness from table order.
/// Every destination lies under a prefix of its own network's table.
///
/// ```
/// use vr_net::models::{SkewedSpec, SkewedTraffic};
/// use vr_net::RoutingTable;
///
/// let tables: Vec<RoutingTable> =
///     vec!["10.0.0.0/8 1\n".parse().unwrap(), "11.0.0.0/8 2\n".parse().unwrap()];
/// let mut gen = SkewedTraffic::new(SkewedSpec::zipf(2, 1.0, 7), &tables).unwrap();
/// let (vn, dst) = gen.next_packet();
/// assert!(tables[usize::from(vn)].lookup(dst).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SkewedTraffic {
    spec: SkewedSpec,
    /// Cumulative tenant-mix weights for the VN draw.
    vn_cdf: Vec<f64>,
    /// Per-VN concrete destinations in rank order (rank 0 = hottest).
    pools: Vec<Vec<u32>>,
    /// Shared Zipf CDF per VN (pool sizes can differ across VNs).
    cdfs: Vec<Vec<f64>>,
    rng: SmallRng,
}

impl SkewedTraffic {
    /// Builds a generator for `tables` (one table per virtual network).
    ///
    /// # Errors
    /// Rejects a spec whose `k` differs from `tables.len()`, empty
    /// tables, zero `expansions`, tenant weights [`tenant_mix`] rejects
    /// (and `k == 0`), and an invalid Zipf exponent.
    pub fn new(spec: SkewedSpec, tables: &[RoutingTable]) -> Result<Self, NetError> {
        if spec.k != tables.len() {
            return Err(NetError::InvalidSpec("spec.k must equal tables.len()"));
        }
        let mu = tenant_mix(spec.k, spec.tenant_weights.as_deref())?;
        if spec.expansions == 0 {
            return Err(NetError::InvalidSpec("expansions must be at least 1"));
        }
        // The cumulative mix for the VN draw. The uniform one is i / k,
        // not a running sum of 1/k, which rounds differently.
        let vn_cdf = match spec.tenant_weights {
            None => (1..=spec.k).map(|i| i as f64 / spec.k as f64).collect(),
            Some(_) => mu
                .iter()
                .scan(0.0, |acc, m| {
                    *acc += m;
                    Some(*acc)
                })
                .collect(),
        };
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let mut pools = Vec::with_capacity(spec.k);
        let mut cdfs = Vec::with_capacity(spec.k);
        for table in tables {
            let mut pool: Vec<u32> = Vec::new();
            for prefix in table.prefixes() {
                for _ in 0..spec.expansions {
                    pool.push(concrete_destination(&mut rng, prefix.addr(), prefix.len()));
                }
            }
            if pool.is_empty() {
                return Err(NetError::InvalidSpec(
                    "skewed traffic requires non-empty tables",
                ));
            }
            // Exact-match dedup keeps the cache-visible working set
            // honest, then a seeded Fisher–Yates shuffle assigns ranks.
            pool.sort_unstable();
            pool.dedup();
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.gen_range(0..=i));
            }
            cdfs.push(zipf_cdf(pool.len(), spec.s)?);
            pools.push(pool);
        }
        Ok(Self {
            spec,
            vn_cdf,
            pools,
            cdfs,
            rng,
        })
    }

    /// The spec this generator was built from.
    #[must_use]
    pub fn spec(&self) -> &SkewedSpec {
        &self.spec
    }

    /// Total distinct destinations across all networks — the exact-match
    /// working-set size a result cache competes against.
    #[must_use]
    pub fn working_set(&self) -> usize {
        self.pools.iter().map(Vec::len).sum()
    }

    /// Draws the next packet as the `(vnid, dst)` pair the lookup
    /// engines consume: a VN from the tenant mix, then
    /// [`SkewedTraffic::packet_for`] that VN.
    pub fn next_packet(&mut self) -> (VnId, u32) {
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let vn = self
            .vn_cdf
            .partition_point(|c| *c <= x)
            .min(self.spec.k - 1);
        self.packet_for(vn as VnId)
    }

    /// Draws a packet for network `vn`, bypassing the tenant mix: a rank
    /// from `vn`'s Zipf sampler, mapped through its pool. Capacity
    /// (saturation) measurements use it to keep every engine busy with
    /// its own network's traffic.
    ///
    /// # Panics
    /// Panics if `vn` is outside `0..k`.
    pub fn packet_for(&mut self, vn: VnId) -> (VnId, u32) {
        let at = usize::from(vn);
        let cdf = &self.cdfs[at];
        let y: f64 = self.rng.gen_range(0.0..1.0);
        let rank = cdf.partition_point(|c| *c <= y).min(cdf.len() - 1);
        (vn, self.pools[at][rank])
    }

    /// Draws `n` packets.
    pub fn pairs(&mut self, n: usize) -> Vec<(VnId, u32)> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

/// Materializes one concrete address under `prefix`: network bits kept,
/// host bits drawn once at pool-build time (so the stream repeats it).
fn concrete_destination<R: Rng>(rng: &mut R, addr: u32, len: u8) -> u32 {
    let host_bits = 32 - u32::from(len);
    if host_bits == 0 {
        addr
    } else {
        let mask = ((1u64 << host_bits) - 1) as u32;
        addr | (rng.gen::<u32>() & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TableSpec;
    use std::collections::HashSet;

    fn tables(k: usize) -> Vec<RoutingTable> {
        (0..k)
            .map(|i| {
                TableSpec {
                    prefixes: 200,
                    seed: 900 + i as u64,
                    distribution: crate::synth::PrefixLenDistribution::edge_default(),
                    clustering: None,
                    include_default_route: true,
                    next_hops: 4,
                }
                .generate()
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let cdf = zipf_cdf(1000, 1.0).unwrap();
        assert!((cdf[999] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > cdf[999] / 1000.0);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let cdf = zipf_cdf(100, 0.0).unwrap();
        assert!((cdf[49] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zipf_skew_concentrates_head() {
        let spec = SkewedSpec {
            expansions: 50,
            ..SkewedSpec::zipf(1, 1.2, 7)
        };
        let mut g = SkewedTraffic::new(spec, &tables(1)).unwrap();
        let top = g.working_set() / 100;
        let head: HashSet<u32> = g.pools[0][..top].iter().copied().collect();
        const N: usize = 20_000;
        let hits = g
            .pairs(N)
            .iter()
            .filter(|(_, dst)| head.contains(dst))
            .count();
        // Top 1% of ranks must dominate at s = 1.2 (analytic mass ≈ 0.77).
        assert!(hits as f64 / N as f64 > 0.6, "head share {hits}/{N}");
        assert!(g.cdfs[0][top - 1] > 0.7);
    }

    #[test]
    fn zipf_rejects_bad_parameters() {
        assert!(zipf_cdf(0, 1.0).is_err());
        assert!(zipf_cdf(10, -0.5).is_err());
        assert!(zipf_cdf(10, f64::NAN).is_err());
    }

    #[test]
    fn skewed_packets_are_covered_and_deterministic() {
        let t = tables(3);
        let spec = SkewedSpec::zipf(3, 1.0, 11);
        let mut a = SkewedTraffic::new(spec.clone(), &t).unwrap();
        let mut b = SkewedTraffic::new(spec, &t).unwrap();
        let pairs = a.pairs(500);
        assert_eq!(pairs, b.pairs(500));
        for &(vn, dst) in &pairs {
            assert!(t[usize::from(vn)].lookup(dst).is_some());
        }
    }

    #[test]
    fn skewed_stream_repeats_destinations() {
        let t = tables(2);
        let mut g = SkewedTraffic::new(SkewedSpec::zipf(2, 1.0, 3), &t).unwrap();
        let mut distinct = g.pairs(2000);
        distinct.sort_unstable();
        distinct.dedup();
        // Temporal locality: far fewer distinct keys than packets.
        assert!(distinct.len() < 1000, "{} distinct", distinct.len());
    }

    #[test]
    fn tenant_mix_weights_bias_vn_choice() {
        let t = tables(3);
        let spec = SkewedSpec {
            tenant_weights: Some(vec![1.0, 9.0, 0.0]),
            ..SkewedSpec::zipf(3, 0.5, 5)
        };
        let mut g = SkewedTraffic::new(spec, &t).unwrap();
        let pairs = g.pairs(2000);
        let vn1 = pairs.iter().filter(|&&(vn, _)| vn == 1).count();
        assert!(vn1 > 1600, "vn1 share {vn1}/2000");
        // A zero-weight tenant is never drawn.
        assert!(pairs.iter().all(|&(vn, _)| vn != 2));
    }

    /// `packet_for` draws only its own VN, and every destination lies
    /// under a route of that VN's table (no table has a default route).
    #[test]
    fn packet_for_stays_on_its_vn() {
        let t: Vec<RoutingTable> = (0..3)
            .map(|i| {
                TableSpec {
                    prefixes: 200,
                    seed: 40 + i,
                    distribution: crate::synth::PrefixLenDistribution::edge_default(),
                    clustering: None,
                    include_default_route: false,
                    next_hops: 4,
                }
                .generate()
                .unwrap()
            })
            .collect();
        let mut g = SkewedTraffic::new(SkewedSpec::uniform(3, 8), &t).unwrap();
        for vn in [2, 0, 1] {
            for _ in 0..300 {
                let (drawn, dst) = g.packet_for(vn);
                assert_eq!(drawn, vn);
                assert!(
                    t[usize::from(vn)].lookup(dst).is_some(),
                    "vn {vn} {dst:#010x}"
                );
            }
        }
    }

    #[test]
    fn skewed_rejects_bad_specs() {
        let t = tables(2);
        assert!(SkewedTraffic::new(SkewedSpec::zipf(3, 1.0, 0), &t).is_err());
        let mut spec = SkewedSpec::zipf(2, 1.0, 0);
        spec.expansions = 0;
        assert!(SkewedTraffic::new(spec, &t).is_err());
        assert!(SkewedTraffic::new(SkewedSpec::zipf(1, 1.0, 0), &[RoutingTable::new()]).is_err());
    }

    #[test]
    fn expansions_grow_working_set() {
        let t = tables(1);
        let one = SkewedTraffic::new(SkewedSpec::zipf(1, 1.0, 2), &t).unwrap();
        let mut spec = SkewedSpec::zipf(1, 1.0, 2);
        spec.expansions = 4;
        let four = SkewedTraffic::new(spec, &t).unwrap();
        assert!(four.working_set() > 2 * one.working_set());
    }
}
