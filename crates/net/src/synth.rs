//! Synthetic routing tables and table families.
//!
//! The paper evaluates on real edge-network tables from bgp.potaroo.net;
//! the largest one had **3725 prefixes** (whose uni-bit trie had 9726 nodes,
//! 16127 after leaf pushing — §V-E). Real dumps are a data gate for this
//! reproduction, so this module generates *synthetic* tables from a seeded
//! RNG with an edge-style prefix-length distribution, calibrated so the
//! default worst-case table lands in the same size regime. A parser for
//! real dumps exists in [`crate::parser`] for when real data is available.
//!
//! For the virtualization experiments we additionally need **families** of
//! K structurally-similar tables: the merged scheme's cost depends on the
//! node overlap (merging efficiency α, Assumption 4). [`FamilySpec`]
//! generates K tables as `shared core + per-table unique prefixes`; the
//! share of core prefixes monotonically controls the resulting α (the exact
//! α is *measured* on the merged trie in `vr-trie`). Families are
//! prefix-nested — the first k tables of a K-table family are the k-table
//! family — so a sweep over K generates once at the largest K and slices.

use crate::error::NetError;
use crate::prefix::Ipv4Prefix;
use crate::table::{NextHop, RoutingTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Number of prefixes in the paper's worst-case edge table (§V-E).
pub const PAPER_TABLE_PREFIXES: usize = 3725;

/// Trie nodes of the paper's worst-case table without leaf pushing (§V-E).
pub const PAPER_TRIE_NODES: usize = 9726;

/// Trie nodes of the paper's worst-case table with leaf pushing (§V-E).
pub const PAPER_TRIE_NODES_LEAF_PUSHED: usize = 16127;

/// A weighted distribution over prefix lengths `0..=32`.
///
/// Weights need not be normalized. Sampling walks the cumulative weights,
/// which is plenty fast for table generation (done once per experiment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixLenDistribution {
    weights: Vec<f64>, // always exactly 33 entries (lengths 0..=32)
}

impl PrefixLenDistribution {
    /// Builds a distribution from per-length weights.
    ///
    /// # Errors
    /// Rejects negative weights and all-zero weight vectors.
    pub fn new(weights: [f64; 33]) -> Result<Self, NetError> {
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(NetError::InvalidSpec(
                "prefix-length weights must be finite and non-negative",
            ));
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(NetError::InvalidSpec(
                "prefix-length weights must not be all zero",
            ));
        }
        Ok(Self {
            weights: weights.to_vec(),
        })
    }

    /// Edge-network distribution modeled on public BGP snapshots: a heavy
    /// peak at /24, secondary mass at /16 and /20–/23, and a light tail of
    /// shorter aggregates. Host routes (/25–/32) are rare at the edge.
    #[must_use]
    pub fn edge_default() -> Self {
        let mut w = [0.0f64; 33];
        w[8] = 0.5;
        w[9] = 0.3;
        w[10] = 0.5;
        w[11] = 0.8;
        w[12] = 1.5;
        w[13] = 1.8;
        w[14] = 2.5;
        w[15] = 2.5;
        w[16] = 10.5;
        w[17] = 3.0;
        w[18] = 4.5;
        w[19] = 7.0;
        w[20] = 8.0;
        w[21] = 7.5;
        w[22] = 9.5;
        w[23] = 8.5;
        w[24] = 30.0;
        w[25] = 0.3;
        w[26] = 0.3;
        w[27] = 0.2;
        w[28] = 0.2;
        w[29] = 0.2;
        w[30] = 0.2;
        w[31] = 0.05;
        w[32] = 0.45;
        Self::new(w).expect("static weights are valid")
    }

    /// Uniform distribution over a length range (useful in tests).
    ///
    /// # Errors
    /// Rejects empty or out-of-range length ranges.
    pub fn uniform(min_len: u8, max_len: u8) -> Result<Self, NetError> {
        if min_len > max_len || max_len > 32 {
            return Err(NetError::InvalidSpec("empty or out-of-range length range"));
        }
        let mut w = [0.0f64; 33];
        for len in min_len..=max_len {
            w[usize::from(len)] = 1.0;
        }
        Self::new(w)
    }

    /// Samples one prefix length.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u8 {
        let total: f64 = self.weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (len, w) in self.weights.iter().enumerate() {
            if x < *w {
                return len as u8;
            }
            x -= w;
        }
        32 // numerically unreachable; guard for fp rounding
    }

    /// The raw weight assigned to a length.
    #[must_use]
    pub fn weight(&self, len: u8) -> f64 {
        self.weights[usize::from(len)]
    }
}

/// Address clustering of a synthetic table.
///
/// Real BGP tables are *clustered*: allocations come from a limited set of
/// registry blocks, so prefixes share long leading bit-strings and the
/// resulting uni-bit trie is compact (the paper's 3725-prefix table yields
/// only 9726 nodes ≈ 2.6 nodes/prefix). Sampling fully random addresses
/// instead produces tries several times larger. This knob reproduces the
/// clustering: prefixes longer than `cluster_len` draw their leading
/// `cluster_len` bits from a pool of `clusters` bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of distinct allocation blocks.
    pub clusters: usize,
    /// Bits shared within a block.
    pub cluster_len: u8,
    /// Mean length of a *run* of consecutive same-length prefixes emitted
    /// from one allocation (registry allocations are contiguous, so real
    /// tables contain long runs of adjacent /24s etc. — that contiguity is
    /// what makes real tries compact).
    pub mean_run: usize,
}

impl ClusterSpec {
    /// Calibrated so a 3725-prefix edge table lands near the paper's trie
    /// shape (§V-E: 9726 nodes, 16127 after leaf pushing — i.e. ~2.6
    /// nodes/prefix with a 1.66× leaf-push growth from long single-child
    /// chains and nested aggregates).
    #[must_use]
    pub fn edge_default(prefixes: usize) -> Self {
        Self {
            clusters: (prefixes / 40).max(4),
            cluster_len: 11,
            mean_run: 8,
        }
    }
}

/// Specification for one synthetic routing table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSpec {
    /// Number of distinct prefixes to generate.
    pub prefixes: usize,
    /// RNG seed; equal specs generate equal tables.
    pub seed: u64,
    /// Prefix-length distribution.
    pub distribution: PrefixLenDistribution,
    /// Address clustering (`None` = fully random addresses).
    pub clustering: Option<ClusterSpec>,
    /// Whether to include a `0.0.0.0/0` default route (typical at the edge).
    pub include_default_route: bool,
    /// Number of distinct next hops to draw from (edge routers have few
    /// uplinks; the paper's NHI fits in a small field).
    pub next_hops: NextHop,
}

impl TableSpec {
    /// A spec matching the paper's worst-case table (3725 prefixes,
    /// clustered so the trie lands near the published 9726 nodes).
    #[must_use]
    pub fn paper_worst_case(seed: u64) -> Self {
        Self {
            prefixes: PAPER_TABLE_PREFIXES,
            seed,
            distribution: PrefixLenDistribution::edge_default(),
            clustering: Some(ClusterSpec::edge_default(PAPER_TABLE_PREFIXES)),
            include_default_route: true,
            next_hops: 16,
        }
    }

    /// Generates the table.
    ///
    /// # Errors
    /// Rejects a zero next-hop pool and a prefix count that cannot be
    /// realized (astronomically unlikely below 2^24 prefixes).
    pub fn generate(&self) -> Result<RoutingTable, NetError> {
        if self.next_hops == 0 {
            return Err(NetError::InvalidSpec("next-hop pool must be non-empty"));
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let pool = cluster_pool(&mut rng, self.clustering);
        let prefixes = sample_distinct_prefixes(
            &mut rng,
            &self.distribution,
            self.prefixes,
            &[],
            self.clustering,
            &pool,
        )?;
        let mut table = RoutingTable::new();
        if self.include_default_route {
            table.insert(Ipv4Prefix::DEFAULT_ROUTE, 0);
        }
        for p in prefixes {
            let nh = rng.gen_range(0..self.next_hops);
            table.insert(p, nh);
        }
        Ok(table)
    }
}

/// Specification for a family of K structurally-similar tables.
///
/// Each virtual network's table is the union of a *core* shared by all K
/// tables and a per-table unique remainder. All tables have exactly
/// [`FamilySpec::prefixes_per_table`] prefixes (Assumption 2: equal sizes).
/// Per-table next hops for core prefixes differ — different networks
/// forward the same destination differently, which is what forces the
/// merged trie to store K-wide NHI vectors at its leaves.
///
/// **Families are prefix-nested.** With every other field equal, the
/// family of `k` tables is the first `k` tables of any larger family:
/// `FamilySpec { k, .. }.generate() == FamilySpec { k: k_max, .. }
/// .generate()[..k]` for every `k ≤ k_max`. The core is drawn before any
/// table and table i consumes the RNG stream only after tables `0..i`, so
/// K never feeds back into what an earlier table holds. K sweeps rely on
/// this to generate one family at `k_max` and slice it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySpec {
    /// Number of virtual networks K.
    pub k: usize,
    /// Prefixes per table (identical for all tables, Assumption 2).
    pub prefixes_per_table: usize,
    /// Fraction of each table drawn from the shared core, in `[0, 1]`.
    /// Higher values yield higher merging efficiency α.
    pub shared_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Prefix-length distribution for core and unique parts alike.
    pub distribution: PrefixLenDistribution,
    /// Next-hop pool size per table.
    pub next_hops: NextHop,
}

impl FamilySpec {
    /// A paper-scale family: K tables of 3725 prefixes each.
    #[must_use]
    pub fn paper_worst_case(k: usize, shared_fraction: f64, seed: u64) -> Self {
        Self {
            k,
            prefixes_per_table: PAPER_TABLE_PREFIXES,
            shared_fraction,
            seed,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 16,
        }
    }

    /// Generates the K tables.
    ///
    /// # Errors
    /// Rejects `k == 0`, an out-of-range shared fraction, and specs whose
    /// distinct-prefix demands cannot be realized.
    pub fn generate(&self) -> Result<Vec<RoutingTable>, NetError> {
        if self.k == 0 {
            return Err(NetError::InvalidSpec("family must contain at least one table"));
        }
        if !(0.0..=1.0).contains(&self.shared_fraction) || !self.shared_fraction.is_finite() {
            return Err(NetError::InvalidSpec("shared fraction must be in [0, 1]"));
        }
        if self.next_hops == 0 {
            return Err(NetError::InvalidSpec("next-hop pool must be non-empty"));
        }
        let core_count =
            ((self.prefixes_per_table as f64) * self.shared_fraction).round() as usize;
        let unique_count = self.prefixes_per_table - core_count.min(self.prefixes_per_table);

        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Clustering keeps each table's trie in the paper's compactness
        // regime. The core draws from one shared pool (common allocation
        // blocks); each table's unique part draws from its own pool, so
        // low shared fractions still yield structurally distant tables.
        let core_clustering = (core_count > 0).then(|| ClusterSpec::edge_default(core_count));
        let core_pool = cluster_pool(&mut rng, core_clustering);
        // Shared core prefixes (next hops assigned per table below).
        let core = sample_distinct_prefixes(
            &mut rng,
            &self.distribution,
            core_count,
            &[],
            core_clustering,
            &core_pool,
        )?;

        let mut tables = Vec::with_capacity(self.k);
        let mut taken: Vec<Ipv4Prefix> = core.clone();
        for _ in 0..self.k {
            let unique_clustering =
                (unique_count > 0).then(|| ClusterSpec::edge_default(unique_count));
            let unique_pool = cluster_pool(&mut rng, unique_clustering);
            let unique = sample_distinct_prefixes(
                &mut rng,
                &self.distribution,
                unique_count,
                &taken,
                unique_clustering,
                &unique_pool,
            )?;
            taken.extend_from_slice(&unique);
            let mut table = RoutingTable::new();
            for p in core.iter().chain(unique.iter()) {
                table.insert(*p, rng.gen_range(0..self.next_hops));
            }
            tables.push(table);
        }
        Ok(tables)
    }
}

/// Generates a family of tables of *different* sizes — relaxing the
/// paper's Assumption 2 (equal table sizes) for the utilization study.
///
/// The shared core is sized from the smallest table so it fits inside all
/// of them: `core = round(shared_fraction × min(sizes))`. Each table is
/// core + its own unique remainder from a per-table allocation pool.
///
/// # Errors
/// Same domain checks as [`FamilySpec::generate`].
pub fn generate_heterogeneous(
    sizes: &[usize],
    shared_fraction: f64,
    seed: u64,
    distribution: &PrefixLenDistribution,
    next_hops: NextHop,
) -> Result<Vec<RoutingTable>, NetError> {
    if sizes.is_empty() {
        return Err(NetError::InvalidSpec(
            "family must contain at least one table",
        ));
    }
    if !(0.0..=1.0).contains(&shared_fraction) || !shared_fraction.is_finite() {
        return Err(NetError::InvalidSpec("shared fraction must be in [0, 1]"));
    }
    if next_hops == 0 {
        return Err(NetError::InvalidSpec("next-hop pool must be non-empty"));
    }
    let min_size = *sizes.iter().min().expect("non-empty");
    let core_count = ((min_size as f64) * shared_fraction).round() as usize;

    let mut rng = SmallRng::seed_from_u64(seed);
    let core_clustering = (core_count > 0).then(|| ClusterSpec::edge_default(core_count));
    let core_pool = cluster_pool(&mut rng, core_clustering);
    let core = sample_distinct_prefixes(
        &mut rng,
        distribution,
        core_count,
        &[],
        core_clustering,
        &core_pool,
    )?;

    let mut tables = Vec::with_capacity(sizes.len());
    let mut taken: Vec<Ipv4Prefix> = core.clone();
    for &size in sizes {
        let unique_count = size.saturating_sub(core_count);
        let unique_clustering =
            (unique_count > 0).then(|| ClusterSpec::edge_default(unique_count));
        let unique_pool = cluster_pool(&mut rng, unique_clustering);
        let unique = sample_distinct_prefixes(
            &mut rng,
            distribution,
            unique_count,
            &taken,
            unique_clustering,
            &unique_pool,
        )?;
        taken.extend_from_slice(&unique);
        let mut table = RoutingTable::new();
        for p in core.iter().chain(unique.iter()) {
            table.insert(*p, rng.gen_range(0..next_hops));
        }
        tables.push(table);
    }
    Ok(tables)
}

/// The cluster base addresses for a clustering spec (`None` → empty pool →
/// fully random addresses). The spec, not the pool, travels in configs so
/// equal seeds keep producing equal tables.
fn cluster_pool(rng: &mut SmallRng, clustering: Option<ClusterSpec>) -> Vec<(u32, u8)> {
    match clustering {
        None => Vec::new(),
        Some(spec) => (0..spec.clusters.max(1))
            .map(|_| {
                let base = Ipv4Prefix::must(rng.gen::<u32>(), spec.cluster_len.min(32));
                (base.addr(), base.len())
            })
            .collect(),
    }
}

/// Samples `count` prefixes distinct among themselves and from `exclude`.
///
/// With clustering, prefixes are emitted in **runs of consecutive
/// same-length blocks** anchored in the allocation pool — mirroring how
/// registries hand out contiguous space. Contiguity is what makes real
/// tries compact (the paper's table: 2.6 nodes/prefix); independent random
/// addresses would scatter the trie several-fold wider. Without clustering
/// every prefix is an independent random draw.
fn sample_distinct_prefixes(
    rng: &mut SmallRng,
    dist: &PrefixLenDistribution,
    count: usize,
    exclude: &[Ipv4Prefix],
    clustering: Option<ClusterSpec>,
    pool: &[(u32, u8)],
) -> Result<Vec<Ipv4Prefix>, NetError> {
    use std::collections::HashSet;
    let excluded: HashSet<Ipv4Prefix> = exclude.iter().copied().collect();
    let mut out = Vec::with_capacity(count);
    let mut seen: HashSet<Ipv4Prefix> = HashSet::with_capacity(count);
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(64).max(1 << 16);
    while out.len() < count {
        attempts += 1;
        if attempts > max_attempts {
            return Err(NetError::InvalidSpec(
                "could not realize the requested number of distinct prefixes",
            ));
        }
        let len = dist.sample(rng);
        if len == 0 {
            continue;
        }
        // Block stride at this prefix length.
        let step = 1u32 << (32 - u32::from(len));
        let (start, run) = match (clustering, pool.is_empty()) {
            (Some(spec), false) => {
                let (base, cluster_len) = pool[rng.gen_range(0..pool.len())];
                let anchor = if len > cluster_len {
                    // Dive inside the allocation: random sub-block start.
                    base | (rng.gen::<u32>() & !crate::prefix::mask(cluster_len))
                } else {
                    // Aggregate at or above the allocation: jitter around
                    // the truncated base so repeated draws stay distinct
                    // while remaining near the allocation's neighbourhood.
                    (base & crate::prefix::mask(len))
                        .wrapping_add(step.wrapping_mul(rng.gen_range(0..64)))
                };
                let run = 1 + rng.gen_range(0..spec.mean_run.max(1) * 2);
                (anchor & crate::prefix::mask(len), run)
            }
            _ => (rng.gen::<u32>() & crate::prefix::mask(len), 1),
        };
        // Real allocations nest: an aggregate is announced alongside its
        // more-specifics. Emit the covering block for ~30 % of runs — it
        // lies on an existing trie path, which is what keeps real tables'
        // node-per-prefix ratio low.
        if clustering.is_some() && run > 1 && rng.gen_bool(0.25) {
            let span_bits = usize::BITS - (run - 1).leading_zeros(); // ⌈log2(run)⌉
            let agg_len = len.saturating_sub(span_bits as u8 + rng.gen_range(0..2));
            if agg_len > 0 && out.len() < count {
                let p = Ipv4Prefix::must(start, agg_len);
                if !excluded.contains(&p) && seen.insert(p) {
                    out.push(p);
                }
            }
        }
        for i in 0..run {
            if out.len() >= count {
                break;
            }
            // Punched holes: registries' customers do not announce every
            // block of an allocation; holes create the single-child chain
            // nodes that drive the paper's 1.66× leaf-push growth.
            if clustering.is_some() && i > 0 && rng.gen_bool(0.25) {
                continue;
            }
            let addr = start.wrapping_add(step.wrapping_mul(i as u32));
            let p = Ipv4Prefix::must(addr, len);
            if excluded.contains(&p) || !seen.insert(p) {
                continue;
            }
            out.push(p);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The nesting guarantee in [`FamilySpec`]'s docs.
        #[test]
        fn family_of_k_is_a_prefix_of_the_family_of_k_max(
            k_max in 1usize..=8,
            k_pick in any::<usize>(),
            shared_pct in 0u32..=100,
            prefixes_per_table in 1usize..=120,
            seed in any::<u64>(),
        ) {
            let spec = |k| FamilySpec {
                k,
                prefixes_per_table,
                shared_fraction: f64::from(shared_pct) / 100.0,
                seed,
                distribution: PrefixLenDistribution::edge_default(),
                next_hops: 16,
            };
            let k = 1 + k_pick % k_max;
            let largest = spec(k_max).generate().unwrap();
            prop_assert_eq!(largest.len(), k_max);
            prop_assert_eq!(&spec(k).generate().unwrap()[..], &largest[..k]);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = TableSpec::paper_worst_case(7);
        assert_eq!(spec.generate().unwrap(), spec.generate().unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let a = TableSpec::paper_worst_case(1).generate().unwrap();
        let b = TableSpec::paper_worst_case(2).generate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn generates_requested_count() {
        let spec = TableSpec {
            prefixes: 500,
            seed: 3,
            distribution: PrefixLenDistribution::edge_default(),
            clustering: None,
            include_default_route: true,
            next_hops: 4,
        };
        let t = spec.generate().unwrap();
        assert_eq!(t.len(), 501); // 500 + default route
        assert!(t.contains(&Ipv4Prefix::DEFAULT_ROUTE));
    }

    #[test]
    fn paper_scale_table_has_paper_scale_size() {
        let t = TableSpec::paper_worst_case(42).generate().unwrap();
        assert_eq!(t.len(), PAPER_TABLE_PREFIXES + 1);
    }

    #[test]
    fn edge_distribution_peaks_at_24() {
        let d = PrefixLenDistribution::edge_default();
        for len in 1..=32u8 {
            if len != 24 {
                assert!(d.weight(24) >= d.weight(len), "w(24) < w({len})");
            }
        }
    }

    #[test]
    fn uniform_distribution_stays_in_range() {
        let d = PrefixLenDistribution::uniform(10, 12).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..200 {
            let len = d.sample(&mut rng);
            assert!((10..=12).contains(&len));
        }
    }

    #[test]
    fn rejects_bad_distributions() {
        assert!(PrefixLenDistribution::new([0.0; 33]).is_err());
        let mut w = [0.0; 33];
        w[8] = -1.0;
        assert!(PrefixLenDistribution::new(w).is_err());
        assert!(PrefixLenDistribution::uniform(12, 10).is_err());
        assert!(PrefixLenDistribution::uniform(10, 40).is_err());
    }

    #[test]
    fn rejects_zero_next_hops() {
        let mut spec = TableSpec::paper_worst_case(1);
        spec.next_hops = 0;
        assert!(spec.generate().is_err());
    }

    #[test]
    fn family_shares_exactly_the_core() {
        let spec = FamilySpec {
            k: 4,
            prefixes_per_table: 300,
            shared_fraction: 0.5,
            seed: 11,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 8,
        };
        let tables = spec.generate().unwrap();
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.len(), 300);
        }
        // Pairwise shared prefixes == core size (150) for every pair.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(tables[i].shared_prefix_count(&tables[j]), 150);
            }
        }
    }

    #[test]
    fn family_extremes() {
        let mk = |frac| FamilySpec {
            k: 3,
            prefixes_per_table: 100,
            shared_fraction: frac,
            seed: 5,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 8,
        };
        let disjoint = mk(0.0).generate().unwrap();
        assert_eq!(disjoint[0].shared_prefix_count(&disjoint[1]), 0);
        let identical = mk(1.0).generate().unwrap();
        assert_eq!(identical[0].shared_prefix_count(&identical[1]), 100);
        // Same prefixes but (almost surely) different next hops somewhere.
        assert_ne!(identical[0], identical[1]);
    }

    #[test]
    fn family_rejects_bad_specs() {
        let mut spec = FamilySpec::paper_worst_case(0, 0.5, 1);
        assert!(spec.generate().is_err());
        spec = FamilySpec::paper_worst_case(2, 1.5, 1);
        assert!(spec.generate().is_err());
        spec = FamilySpec::paper_worst_case(2, 0.5, 1);
        spec.next_hops = 0;
        assert!(spec.generate().is_err());
    }

    #[test]
    fn family_is_deterministic() {
        let spec = FamilySpec::paper_worst_case(3, 0.6, 99);
        assert_eq!(spec.generate().unwrap(), spec.generate().unwrap());
    }

    #[test]
    fn heterogeneous_sizes_are_honoured() {
        let sizes = [500usize, 200, 100];
        let tables = generate_heterogeneous(
            &sizes,
            0.5,
            7,
            &PrefixLenDistribution::edge_default(),
            8,
        )
        .unwrap();
        assert_eq!(tables.len(), 3);
        for (t, &size) in tables.iter().zip(&sizes) {
            assert_eq!(t.len(), size);
        }
        // Core = 0.5 × min(sizes) = 50 prefixes, shared by every pair.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(tables[i].shared_prefix_count(&tables[j]), 50);
            }
        }
    }

    #[test]
    fn heterogeneous_rejects_bad_specs() {
        let d = PrefixLenDistribution::edge_default();
        assert!(generate_heterogeneous(&[], 0.5, 1, &d, 8).is_err());
        assert!(generate_heterogeneous(&[100], 1.5, 1, &d, 8).is_err());
        assert!(generate_heterogeneous(&[100], 0.5, 1, &d, 0).is_err());
    }

    #[test]
    fn heterogeneous_is_deterministic() {
        let d = PrefixLenDistribution::edge_default();
        let a = generate_heterogeneous(&[300, 100], 0.4, 5, &d, 8).unwrap();
        let b = generate_heterogeneous(&[300, 100], 0.4, 5, &d, 8).unwrap();
        assert_eq!(a, b);
    }
}
