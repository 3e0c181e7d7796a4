//! Hot-path LPM result cache with generation invalidation.
//!
//! Real router traffic is heavily skewed: a small set of hot destinations
//! dominates, yet every lookup still pays the DIR-16 root load plus up to
//! two block loads. This module short-circuits the repeat lookups with a
//! per-worker **result cache** in front of the trie walk
//! (`lookup_batch_mixed`):
//!
//! * **Direct-mapped, fixed-size, power-of-two** slot array keyed by
//!   `(dst_addr, vnid)` and storing the encoded next-hop result — 16
//!   bytes per slot, probed with one Fibonacci multiply and one load.
//! * **Generation-tagged invalidation.** Every slot carries the RCU
//!   publish generation it was filled under as a vr-sync [`GenTag`]. A
//!   probe hits only when the
//!   slot's tag equals the *current* snapshot generation, so
//!   `publish_tables` / `apply_updates` invalidate the whole cache in
//!   O(1) by construction: the generation bump makes every existing tag
//!   mismatch. No flush loop, no epochs, no atomics.
//! * **Private per worker.** Each `LookupService` worker and each
//!   `ShardedService` shard thread owns its own cache; nothing is shared,
//!   so the probe/fill path is plain single-threaded loads and stores.
//! * **Allocation-free batch flow.** [`LpmCache::lookup_batch`] probes
//!   the whole batch (prefetching slots [`SLOT_AHEAD`] packets ahead),
//!   compacts the misses into a dense sub-batch, walks *only the misses*
//!   through `lookup_batch_mixed`, then scatters the results back
//!   into submission order and fills the slots. The miss scratch buffers
//!   live in the cache and are reused across batches.
//!
//! Negative results are cached too: "no route" is as deterministic a
//! function of `(table generation, dst, vnid)` as any next hop.
//!
//! Reading a slot's stored result is only legal through the
//! generation-checked probe API in this module — vr-audit lint rule 7
//! (`no-raw-cache-slot`) enforces that no other engine module touches a
//! `.nhi` slot field directly.

use vr_net::table::NextHop;
use vr_net::VnId;
use vr_obs::{Stage, TraceBuilder};
use vr_sync::GenTag;
use vr_trie::prefetch::prefetch_index;
use vr_trie::JumpTrie;

use crate::service::lookup_batch_mixed;
use crate::EngineError;

/// Default slot count for service caches when the caller asks for "a
/// cache" without sizing it: 2^16 slots × 16 B = 1 MiB per worker, which
/// at paper scale (K=15 × 3725 prefixes ≈ 56 K distinct covered
/// destinations) holds the bulk of the working set.
pub const DEFAULT_CACHE_SLOTS: usize = 1 << 16;

/// How many packets ahead of the probe cursor the slot line is
/// prefetched, the same lookahead the lane stepper's root sweep uses.
const SLOT_AHEAD: usize = 8;

/// Fibonacci hashing constant (2^64 / φ) spreading the packed
/// `(vnid, dst)` key across the slot array.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Encoded cached result: 0 = no route, `1 + nh` = `Some(nh)`. Same
/// scheme as the trie's NHI slab encoding, kept local so the cache does
/// not reach into `vr-trie` internals.
type CacheCode = u16;

#[inline]
fn encode(nh: Option<NextHop>) -> CacheCode {
    match nh {
        None => 0,
        Some(n) => 1 + CacheCode::from(n),
    }
}

#[inline]
#[allow(clippy::cast_possible_truncation)]
fn decode(code: CacheCode) -> Option<NextHop> {
    if code == 0 {
        None
    } else {
        Some((code - 1) as NextHop)
    }
}

/// One direct-mapped cache slot: the key it holds, the publish
/// generation the result was computed under (a [`GenTag`], whose `EMPTY`
/// sentinel can never match a live generation), and the encoded result.
#[derive(Debug, Clone, Copy)]
struct Slot {
    dst: u32,
    vnid: VnId,
    nhi: CacheCode,
    generation: GenTag,
}

const EMPTY_SLOT: Slot = Slot {
    dst: 0,
    vnid: 0,
    nhi: 0,
    generation: GenTag::EMPTY,
};

/// Cumulative probe/fill counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from a slot (generation and key matched).
    pub hits: u64,
    /// Probes that fell through to the trie walk.
    pub misses: u64,
    /// Slots written after a miss walk.
    pub fills: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when nothing was probed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-worker, allocation-free LPM result cache (see the module docs
/// for the design).
///
/// ```
/// use vr_engine::cache::LpmCache;
/// use vr_net::RoutingTable;
/// use vr_trie::JumpTrie;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let trie = JumpTrie::from_table(&table);
/// let mut cache = LpmCache::new(1024).unwrap();
///
/// let packets = vec![(0, 0x0A01_0103u32), (0, 0x0A02_0000), (0, 0x0B00_0000)];
/// let mut out = vec![None; 3];
/// cache.lookup_batch(&trie, 0, &packets, &mut out);
/// assert_eq!(out, vec![Some(2), Some(1), None]);
/// // Same batch again: all three (including the negative result) hit.
/// cache.lookup_batch(&trie, 0, &packets, &mut out);
/// assert_eq!(cache.stats().hits, 3);
/// // A generation bump invalidates everything without touching a slot.
/// cache.lookup_batch(&trie, 1, &packets, &mut out);
/// assert_eq!(cache.stats().misses, 6);
/// ```
#[derive(Debug)]
pub struct LpmCache {
    slots: Box<[Slot]>,
    mask: usize,
    stats: CacheStats,
    /// Stats accumulated since the last [`Self::take_delta`], flushed to
    /// telemetry counters once per batch.
    delta: CacheStats,
    /// Miss-compaction scratch, reused across batches.
    miss_idx: Vec<u32>,
    miss_packets: Vec<(VnId, u32)>,
    miss_out: Vec<Option<NextHop>>,
}

impl LpmCache {
    /// Builds a cache with `capacity` slots, rounded up to a power of
    /// two.
    ///
    /// # Errors
    /// Rejects a zero capacity and capacities beyond 2^32 slots.
    pub fn new(capacity: usize) -> Result<Self, EngineError> {
        if capacity == 0 {
            return Err(EngineError::InvalidParameter(
                "cache capacity must be at least 1 slot",
            ));
        }
        if capacity > (1 << 32) {
            return Err(EngineError::InvalidParameter(
                "cache capacity beyond 2^32 slots",
            ));
        }
        let cap = capacity.next_power_of_two();
        Ok(Self {
            slots: vec![EMPTY_SLOT; cap].into_boxed_slice(),
            mask: cap - 1,
            stats: CacheStats::default(),
            delta: CacheStats::default(),
            miss_idx: Vec::new(),
            miss_packets: Vec::new(),
            miss_out: Vec::new(),
        })
    }

    /// Slot count (always a power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative probe/fill counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the cumulative and delta counters (slots are untouched —
    /// used by benchmarks to measure steady-state hit rates after a
    /// warmup pass).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.delta = CacheStats::default();
    }

    /// Returns and clears the counters accumulated since the last call;
    /// the worker loop flushes this into its telemetry counters once per
    /// batch.
    pub fn take_delta(&mut self) -> CacheStats {
        std::mem::take(&mut self.delta)
    }

    /// Slot index of a key: Fibonacci hash of the packed `(vnid, dst)`
    /// key, taking bits from the upper half of the product.
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn index(&self, vnid: VnId, dst: u32) -> usize {
        let key = (u64::from(vnid) << 32) | u64::from(dst);
        (key.wrapping_mul(FIB) >> 32) as usize & self.mask
    }

    /// Generation-checked single probe: `Some(result)` when the slot
    /// holds `(vnid, dst)` filled under exactly `generation`, `None`
    /// otherwise. This (and [`Self::lookup_batch`]) is the only legal way
    /// to read a cached result — lint rule 7 pins raw slot access to this
    /// module.
    pub fn probe(&mut self, generation: u64, vnid: VnId, dst: u32) -> Option<Option<NextHop>> {
        let slot = self.slots[self.index(vnid, dst)];
        if slot.generation.matches(generation) && slot.dst == dst && slot.vnid == vnid {
            self.stats.hits += 1;
            self.delta.hits += 1;
            Some(decode(slot.nhi))
        } else {
            self.stats.misses += 1;
            self.delta.misses += 1;
            None
        }
    }

    /// Stores `result` for `(vnid, dst)` under `generation`, evicting
    /// whatever occupied the slot.
    pub fn fill(&mut self, generation: u64, vnid: VnId, dst: u32, result: Option<NextHop>) {
        let idx = self.index(vnid, dst);
        self.slots[idx] = Slot {
            dst,
            vnid,
            nhi: encode(result),
            generation: GenTag::of(generation),
        };
        self.stats.fills += 1;
        self.delta.fills += 1;
    }

    /// Resolves a possibly mixed-VN batch against `trie` at `generation`,
    /// answering repeats from the cache: probe all packets (slots
    /// prefetched [`SLOT_AHEAD`] ahead), compact the misses, walk only
    /// the misses (each with its own VN), scatter the results back
    /// into submission order, and fill the freshly walked slots.
    ///
    /// Results are bit-identical to an uncached
    /// `lookup_batch_mixed(trie, packets, out)` — the cache-parity
    /// proptests hold this to arbitrary traffic/churn interleavings.
    #[allow(clippy::cast_possible_truncation)]
    pub fn lookup_batch(
        &mut self,
        trie: &JumpTrie,
        generation: u64,
        packets: &[(VnId, u32)],
        out: &mut [Option<NextHop>],
    ) {
        let misses = self.probe_phase(generation, packets, out);
        if misses == 0 {
            return;
        }
        self.walk_phase(trie);
        self.scatter_phase(generation, out);
    }

    /// [`Self::lookup_batch`] with per-phase trace spans: closes
    /// `CacheProbe`, `LaneWalk`, and `Scatter` marks on `trace` around
    /// the three phases. An all-hit batch still closes all three spans
    /// (the walk and scatter come out zero-duration), so the stage
    /// chain has one shape regardless of hit rate. Results are
    /// bit-identical to the untraced path.
    pub fn lookup_batch_traced(
        &mut self,
        trie: &JumpTrie,
        generation: u64,
        packets: &[(VnId, u32)],
        out: &mut [Option<NextHop>],
        trace: &mut TraceBuilder,
    ) {
        let misses = self.probe_phase(generation, packets, out);
        trace.mark(Stage::CacheProbe);
        if misses > 0 {
            self.walk_phase(trie);
        }
        trace.mark(Stage::LaneWalk);
        if misses > 0 {
            self.scatter_phase(generation, out);
        }
        trace.mark(Stage::Scatter);
    }

    /// Probe phase: answers hits in place, compacts misses into the
    /// scratch buffers, and accounts probe stats. Returns the miss
    /// count.
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn probe_phase(
        &mut self,
        generation: u64,
        packets: &[(VnId, u32)],
        out: &mut [Option<NextHop>],
    ) -> usize {
        debug_assert_eq!(packets.len(), out.len());
        let n = packets.len().min(out.len());
        self.miss_idx.clear();
        self.miss_packets.clear();
        for i in 0..n {
            if let Some(&(vn_a, dst_a)) = packets.get(i + SLOT_AHEAD) {
                prefetch_index(&self.slots, self.index(vn_a, dst_a) as u32);
            }
            let (vnid, dst) = packets[i];
            let slot = self.slots[self.index(vnid, dst)];
            if slot.generation.matches(generation) && slot.dst == dst && slot.vnid == vnid {
                out[i] = decode(slot.nhi);
            } else {
                self.miss_idx.push(i as u32);
                self.miss_packets.push((vnid, dst));
            }
        }
        let m = self.miss_packets.len();
        self.stats.hits += (n - m) as u64;
        self.delta.hits += (n - m) as u64;
        self.stats.misses += m as u64;
        self.delta.misses += m as u64;
        m
    }

    /// Walk phase: resolves the compacted misses into the miss scratch.
    #[inline]
    fn walk_phase(&mut self, trie: &JumpTrie) {
        let m = self.miss_packets.len();
        self.miss_out.clear();
        self.miss_out.resize(m, None);
        lookup_batch_mixed(trie, &self.miss_packets, &mut self.miss_out);
    }

    /// Scatter phase: restores submission order and fills the freshly
    /// walked slots under `generation`.
    #[inline]
    fn scatter_phase(&mut self, generation: u64, out: &mut [Option<NextHop>]) {
        let m = self.miss_packets.len();
        for j in 0..m {
            let i = self.miss_idx[j] as usize;
            let result = self.miss_out[j];
            out[i] = result;
            let (vnid, dst) = self.miss_packets[j];
            let idx = self.index(vnid, dst);
            self.slots[idx] = Slot {
                dst,
                vnid,
                nhi: encode(result),
                generation: GenTag::of(generation),
            };
        }
        self.stats.fills += m as u64;
        self.delta.fills += m as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::RoutingTable;

    fn trie() -> JumpTrie {
        let table: RoutingTable = "10.0.0.0/8 1\n10.1.0.0/16 2\n192.168.0.0/16 3\n"
            .parse()
            .unwrap();
        JumpTrie::from_table(&table)
    }

    #[test]
    fn new_rejects_zero_and_rounds_to_power_of_two() {
        assert!(LpmCache::new(0).is_err());
        assert_eq!(LpmCache::new(1).unwrap().capacity(), 1);
        assert_eq!(LpmCache::new(3).unwrap().capacity(), 4);
        assert_eq!(LpmCache::new(1000).unwrap().capacity(), 1024);
    }

    #[test]
    fn probe_fill_roundtrip_including_negative_results() {
        let mut c = LpmCache::new(64).unwrap();
        assert_eq!(c.probe(0, 1, 0x0A00_0001), None);
        c.fill(0, 1, 0x0A00_0001, Some(7));
        assert_eq!(c.probe(0, 1, 0x0A00_0001), Some(Some(7)));
        c.fill(0, 2, 0x0B00_0001, None);
        assert_eq!(c.probe(0, 2, 0x0B00_0001), Some(None));
        // Key mismatch in an occupied slot is a miss, not a wrong answer.
        assert_eq!(c.probe(0, 1, 0x0A00_0002), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fills), (2, 2, 2));
    }

    #[test]
    fn generation_bump_invalidates_without_touching_slots() {
        let mut c = LpmCache::new(64).unwrap();
        c.fill(5, 0, 0xC0A8_0001, Some(3));
        assert_eq!(c.probe(5, 0, 0xC0A8_0001), Some(Some(3)));
        // The new generation sees a miss — O(1) invalidation...
        assert_eq!(c.probe(6, 0, 0xC0A8_0001), None);
        // ...and the slot itself was not modified by that probe: the old
        // generation still hits, proving invalidation wrote nothing.
        assert_eq!(c.probe(5, 0, 0xC0A8_0001), Some(Some(3)));
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn batch_matches_uncached_and_second_pass_hits() {
        let t = trie();
        let mut c = LpmCache::new(256).unwrap();
        let packets: Vec<(VnId, u32)> = vec![
            (0, 0x0A01_0001),
            (0, 0x0A02_0000),
            (0, 0xC0A8_0101),
            (0, 0x7F00_0001),
            (0, 0x0A01_0001),
        ];
        let mut cached = vec![None; packets.len()];
        let mut uncached = vec![None; packets.len()];
        c.lookup_batch(&t, 0, &packets, &mut cached);
        lookup_batch_mixed(&t, &packets, &mut uncached);
        assert_eq!(cached, uncached);
        // In-batch duplicates are both walked (all probes happen before
        // any fill of the same batch), so pass 1 is all misses.
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().fills, 5);
        // Pass 2 is all hits, duplicate included.
        c.lookup_batch(&t, 0, &packets, &mut cached);
        assert_eq!(cached, uncached);
        assert_eq!(c.stats().hits, 5);
    }

    #[test]
    fn take_delta_drains_and_reset_clears() {
        let t = trie();
        let mut c = LpmCache::new(16).unwrap();
        let packets: Vec<(VnId, u32)> = vec![(0, 0x0A01_0001), (0, 0x0A01_0001)];
        let mut out = vec![None; 2];
        c.lookup_batch(&t, 0, &packets, &mut out);
        let d = c.take_delta();
        assert_eq!(d.misses, 2);
        assert_eq!(c.take_delta(), CacheStats::default());
        c.lookup_batch(&t, 0, &packets, &mut out);
        assert_eq!(c.take_delta().hits, 2);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn delta_accounting_across_a_generation_bump() {
        let t = trie();
        let mut c = LpmCache::new(64).unwrap();
        let packets: Vec<(VnId, u32)> = vec![(0, 0x0A01_0001), (0, 0xC0A8_0101)];
        let mut out = vec![None; 2];
        c.lookup_batch(&t, 0, &packets, &mut out);
        let _ = c.take_delta(); // flush the cold-start misses
        // Steady state at generation 0: all hits.
        c.lookup_batch(&t, 0, &packets, &mut out);
        let warm = c.take_delta();
        assert_eq!((warm.hits, warm.misses, warm.fills), (2, 0, 0));
        // Generation bump: the same traffic is all misses + refills, and
        // the per-batch delta shows exactly that — the invalidation cost
        // is observable batch by batch, not smeared into cumulative
        // stats (what the telemetry counters flush per batch).
        c.lookup_batch(&t, 1, &packets, &mut out);
        let bumped = c.take_delta();
        assert_eq!((bumped.hits, bumped.misses, bumped.fills), (0, 2, 2));
        // The next pass at the new generation hits again...
        c.lookup_batch(&t, 1, &packets, &mut out);
        assert_eq!(c.take_delta().hits, 2);
        // ...and the cumulative stats aggregate the whole history.
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.stats().fills, 4);
    }

    #[test]
    fn traced_batch_matches_untraced_and_closes_all_phases() {
        use vr_obs::Tracer;
        let t = trie();
        let mut traced = LpmCache::new(256).unwrap();
        let mut plain = LpmCache::new(256).unwrap();
        let tracer = Tracer::new(1, 8);
        let packets: Vec<(VnId, u32)> =
            vec![(0, 0x0A01_0001), (0, 0xC0A8_0101), (0, 0x7F00_0001)];
        let mut a = vec![None; 3];
        let mut b = vec![None; 3];
        // Pass 1 walks everything; pass 2 is all hits, where the walk
        // and scatter spans must still close (zero-duration).
        for pass in 0..2u64 {
            let mut tb = tracer.begin(pass, packets.len());
            tb.mark(Stage::Enqueue);
            tb.mark(Stage::Dequeue);
            traced.lookup_batch_traced(&t, 0, &packets, &mut a, &mut tb);
            tb.set_worker(0);
            tb.mark(Stage::Complete);
            plain.lookup_batch(&t, 0, &packets, &mut b);
            assert_eq!(a, b);
            let trace = tb.finish();
            trace.validate().unwrap();
            assert_eq!(trace.stages.len(), 6, "all phases span, hit or miss");
        }
        assert_eq!(traced.stats(), plain.stats());
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 9,
            misses: 1,
            fills: 1,
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn vnid_disambiguates_identical_destinations() {
        let mut c = LpmCache::new(64).unwrap();
        c.fill(0, 0, 0x0A00_0001, Some(1));
        c.fill(0, 1, 0x0A00_0001, Some(2));
        assert_eq!(c.probe(0, 0, 0x0A00_0001), Some(Some(1)));
        assert_eq!(c.probe(0, 1, 0x0A00_0001), Some(Some(2)));
    }
}
