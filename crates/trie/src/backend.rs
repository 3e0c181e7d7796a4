//! [`LookupBackend`] — the one interface the "for each encoding" drivers
//! (`bench_lookup`, `vr-audit`'s parity checks, `batch_parity.rs`) are
//! written against, so an encoding is enumerated once per driver instead
//! of once per entry point.
//!
//! Each impl sits next to its type. Exactly one layout overrides the
//! batch method, because a measurement puts it ahead of the scalar loop:
//! [`FlatStrideTrie`]'s dense sweep streams one contiguous slab per pass.
//! [`JumpTrie`]'s walk is at most three dependent loads with no loop, so
//! there is nothing for a batch stepper to overlap and its batch path is
//! the provided scalar loop. The pointer tries allocate nodes in
//! insertion order, so a lockstep pass over them chases the same
//! scattered arena slots as the scalar walk plus its own bookkeeping —
//! their hand-written walkers measured 0.66–1.26× scalar and were
//! removed; they take the provided scalar loop too.
//!
//! The serving path does not go through this trait: it calls
//! [`JumpTrie::lookup_vn`](crate::JumpTrie::lookup_vn) by name.
//!
//! [`FlatStrideTrie`]: crate::FlatStrideTrie
//! [`JumpTrie`]: crate::JumpTrie

use vr_net::table::NextHop;
use vr_net::RoutingTable;

/// A structure that answers longest-prefix-match queries per virtual
/// network.
///
/// ```
/// use vr_trie::{JumpTrie, LookupBackend, UnibitTrie};
///
/// fn hits(backend: &impl LookupBackend, dsts: &[u32]) -> usize {
///     let mut out = vec![None; dsts.len()];
///     backend.lookup_batch_vn(0, dsts, &mut out);
///     out.iter().flatten().count()
/// }
///
/// let table: vr_net::RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
/// let dsts = [0x0A00_0001, 0x0B00_0001];
/// assert_eq!(hits(&table, &dsts), 1); // the linear-scan oracle
/// assert_eq!(hits(&UnibitTrie::from_table(&table), &dsts), 1);
/// assert_eq!(hits(&JumpTrie::from_table(&table), &dsts), 1);
/// ```
pub trait LookupBackend {
    /// Longest-prefix match for `ip` in virtual network `vn`.
    /// Single-table encodings host exactly VN 0.
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop>;

    /// Batched longest-prefix match in one virtual network: element `i`
    /// of `out` receives exactly `self.lookup_vn(vn, dsts[i])`. The
    /// provided method is the scalar loop.
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    fn lookup_batch_vn(&self, vn: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        assert_eq!(
            dsts.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        for (slot, &ip) in out.iter_mut().zip(dsts) {
            *slot = self.lookup_vn(vn, ip);
        }
    }
}

/// The linear-scan oracle the parity drivers compare every encoding
/// against.
impl LookupBackend for RoutingTable {
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        debug_assert_eq!(vn, 0, "a routing table is one virtual network");
        self.lookup(ip)
    }
}
