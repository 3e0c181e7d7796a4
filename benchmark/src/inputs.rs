//! Everything a workload is fed, generated from `--seed` before the first
//! timed segment: the table family, the key stream, the expected answer for
//! every key, the cache warm-up draw and the route-update batches. The
//! program under test receives only these values.

use std::time::Instant;

use vr_net::synth::FamilySpec;
use vr_net::{
    Ipv4Prefix, NextHop, RouteUpdate, RoutingTable, SkewedSpec, SkewedTraffic, UpdateMix,
    UpdateStream, VnId,
};

/// The paper's K: 15 virtual networks of 3 725 prefixes each.
pub const K: usize = 15;
pub const SHARED_FRACTION: f64 = 0.5;
/// Concrete destinations per prefix: 15 x 3 725 x 16, about 878 k distinct
/// keys, far more than the 65 536 result-cache slots.
pub const EXPANSIONS: usize = 16;
pub const KEYS: usize = 1 << 20;
pub const WARM_KEYS: usize = 1 << 19;
pub const UPDATES_PER_BATCH: usize = 16;
pub const UPDATE_HZ: u32 = 20;

/// Zipf exponent of the skewed workloads: the classic 1.0, the repo's own
/// `bench_lookup` and `cache_skew` convention. It is not tuned to the cache:
/// over this key pool the 65 536-slot result cache hits about 0.63, so the
/// cached workloads run with a cache that misses a third of the time.
pub const ZIPF_S: f64 = 1.0;

/// How keys are drawn from the destination pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    /// Zipf with exponent [`ZIPF_S`].
    Zipf,
}

impl Dist {
    fn exponent(self) -> f64 {
        match self {
            Dist::Uniform => 0.0,
            Dist::Zipf => ZIPF_S,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipf => "zipf(1.0)",
        }
    }
}

/// An independent stream seed per purpose (splitmix64 of seed + tag), so
/// the warm-up draw and the key stream never coincide.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed.wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn family_spec(seed: u64) -> FamilySpec {
    FamilySpec::paper_worst_case(K, SHARED_FRACTION, seed)
}

/// One network's routes as a plain binary trie: the oracle. It shares no
/// code with the tries under test; `RoutingTable::lookup` scans every entry
/// (12 us a key here), so it is used to spot-check this oracle, not to
/// answer a million keys.
#[derive(Debug, Clone)]
struct BitTrie {
    child: Vec<[u32; 2]>,
    hop: Vec<Option<NextHop>>,
}

impl BitTrie {
    fn new() -> Self {
        Self {
            child: vec![[0, 0]],
            hop: vec![None],
        }
    }

    fn set(&mut self, prefix: Ipv4Prefix, hop: Option<NextHop>) {
        let mut node = 0usize;
        for bit in prefix.bits() {
            let next = self.child[node][usize::from(bit)];
            node = if next == 0 {
                self.child.push([0, 0]);
                self.hop.push(None);
                let id = self.child.len() - 1;
                self.child[node][usize::from(bit)] = id as u32;
                id
            } else {
                next as usize
            };
        }
        self.hop[node] = hop;
    }

    fn lookup(&self, ip: u32) -> Option<NextHop> {
        let mut node = 0usize;
        let mut best = self.hop[0];
        for shift in (0..32).rev() {
            node = self.child[node][((ip >> shift) & 1) as usize] as usize;
            if node == 0 {
                break;
            }
            best = self.hop[node].or(best);
        }
        best
    }
}

/// Longest-prefix-match oracle over a table family; follows route updates
/// so it can be advanced generation by generation.
#[derive(Debug, Clone)]
pub struct Oracle {
    vns: Vec<BitTrie>,
}

impl Oracle {
    pub fn new(tables: &[RoutingTable]) -> Self {
        let vns = tables
            .iter()
            .map(|table| {
                let mut trie = BitTrie::new();
                for entry in table.iter() {
                    trie.set(entry.prefix, Some(entry.next_hop));
                }
                trie
            })
            .collect();
        Self { vns }
    }

    pub fn lookup(&self, vn: VnId, dst: u32) -> Option<NextHop> {
        self.vns[usize::from(vn)].lookup(dst)
    }

    pub fn apply(&mut self, update: &RouteUpdate) {
        match *update {
            RouteUpdate::Announce {
                vnid,
                prefix,
                next_hop,
            } => {
                self.vns[usize::from(vnid)].set(prefix, Some(next_hop));
            }
            RouteUpdate::Withdraw { vnid, prefix } => {
                self.vns[usize::from(vnid)].set(prefix, None);
            }
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub seed: u64,
    pub dist: Dist,
    pub tables: Vec<RoutingTable>,
    pub oracle: Oracle,
    pub keys: Vec<(VnId, u32)>,
    pub expected: Vec<Option<NextHop>>,
    /// An independent draw from the same pool, used to warm result caches.
    pub warm: Vec<(VnId, u32)>,
    pub updates: Vec<Vec<RouteUpdate>>,
    pub working_set: usize,
    /// Harness time spent here; reported as `bench.inputs_s`, never as
    /// part of `setup_s`.
    pub inputs_s: f64,
}

fn draw(tables: &[RoutingTable], dist: Dist, seed: u64, n: usize) -> (Vec<(VnId, u32)>, usize) {
    let mut spec = SkewedSpec::zipf(tables.len(), dist.exponent(), seed);
    spec.expansions = EXPANSIONS;
    let mut traffic = SkewedTraffic::new(spec, tables).expect("non-empty tables, valid spec");
    let working_set = traffic.working_set();
    (traffic.pairs(n), working_set)
}

impl Inputs {
    /// `update_batches` route-update batches are drawn; each mutates the
    /// stream's own table mirror, so they must be applied in order.
    pub fn generate(seed: u64, dist: Dist, keys: usize, update_batches: usize) -> Self {
        let clock = Instant::now();
        let spec = family_spec(seed);
        let tables = spec.generate().expect("the paper family spec is valid");
        let (keys, working_set) = draw(&tables, dist, sub_seed(seed, 1), keys);
        let (warm, _) = draw(&tables, dist, sub_seed(seed, 2), WARM_KEYS.min(keys.len()));
        let oracle = Oracle::new(&tables);
        let expected: Vec<_> = keys
            .iter()
            .map(|&(vn, dst)| oracle.lookup(vn, dst))
            .collect();
        // The oracle itself is checked against the repo's reference scan.
        for (&(vn, dst), want) in keys.iter().zip(&expected).take(256) {
            assert_eq!(
                tables[usize::from(vn)].lookup(dst),
                *want,
                "oracle disagrees with RoutingTable::lookup"
            );
        }
        let mut stream = UpdateStream::new(
            tables.clone(),
            UpdateMix::default(),
            spec.next_hops,
            sub_seed(seed, 3),
        )
        .expect("valid update stream");
        let updates = (0..update_batches)
            .map(|_| stream.batch(UPDATES_PER_BATCH))
            .collect();
        Self {
            seed,
            dist,
            tables,
            oracle,
            keys,
            expected,
            warm,
            updates,
            working_set,
            inputs_s: clock.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_the_reference_scan_through_updates() {
        let inputs = Inputs::generate(7, Dist::Uniform, 2048, 8);
        let mut oracle = inputs.oracle.clone();
        let mut tables = inputs.tables.clone();
        for batch in &inputs.updates {
            for update in batch {
                oracle.apply(update);
                match *update {
                    RouteUpdate::Announce {
                        vnid,
                        prefix,
                        next_hop,
                    } => {
                        tables[usize::from(vnid)].insert(prefix, next_hop);
                    }
                    RouteUpdate::Withdraw { vnid, prefix } => {
                        tables[usize::from(vnid)].remove(&prefix);
                    }
                }
            }
        }
        for &(vn, dst) in inputs.keys.iter().take(300) {
            assert_eq!(oracle.lookup(vn, dst), tables[usize::from(vn)].lookup(dst));
        }
    }

    #[test]
    fn same_seed_same_inputs_and_streams_are_independent() {
        let a = Inputs::generate(11, Dist::Zipf, 4096, 2);
        let b = Inputs::generate(11, Dist::Zipf, 4096, 2);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.updates, b.updates);
        assert_ne!(
            a.keys[..a.warm.len().min(64)],
            a.warm[..a.warm.len().min(64)]
        );
        let c = Inputs::generate(12, Dist::Zipf, 4096, 2);
        assert_ne!(a.keys, c.keys);
    }
}
