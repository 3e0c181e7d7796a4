//! [`LookupBackend`] — the one interface the "for each encoding" drivers
//! (`bench_lookup`, this crate's audit parity checks) are written against, so
//! an encoding is enumerated once per driver instead of once per entry
//! point.
//!
//! It is one method. Each impl sits next to its type and forwards to the
//! encoding's own scalar walk; a batch is the caller's loop. A batch walk
//! earns a place only where a measurement puts it ahead of that loop, and
//! none does: [`JumpTrie`]'s walk is at most three dependent loads with no
//! loop, leaving a batch stepper nothing to overlap, and the pointer
//! tries' lockstep walkers measured 0.66–1.26× scalar and were removed.
//!
//! The serving path does not go through this trait: it calls
//! [`JumpTrie::lookup_vn`](crate::JumpTrie::lookup_vn) by name.
//!
//! [`JumpTrie`]: crate::JumpTrie

use vr_net::table::NextHop;
use vr_net::RoutingTable;

/// A structure that answers longest-prefix-match queries per virtual
/// network.
///
/// ```
/// use vr_trie::{JumpTrie, LookupBackend, MergedTrie};
///
/// fn hits(backend: &impl LookupBackend, vn: usize, dsts: &[u32]) -> usize {
///     dsts.iter().filter(|&&ip| backend.lookup_vn(vn, ip).is_some()).count()
/// }
///
/// let table: vr_net::RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
/// let single = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
/// let dsts = [0x0A00_0001, 0x0B00_0001];
/// assert_eq!(hits(&table, 0, &dsts), 1); // the linear-scan oracle
/// assert_eq!(hits(&single, 0, &dsts), 1); // the pointer trie at K = 1
/// assert_eq!(hits(&JumpTrie::from_table(&table), 0, &dsts), 1);
/// assert_eq!(hits(&single, 1, &dsts), 0); // VN 1 is not hosted
/// ```
pub trait LookupBackend {
    /// Longest-prefix match for `ip` in virtual network `vn`.
    ///
    /// A structure of arity K hosts VNs `0..K` (a single table hosts
    /// exactly VN 0). For `vn ≥ K` the answer is `None` in every build
    /// profile: never a panic, and never another VN's route.
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop>;
}

/// The linear-scan oracle the parity drivers compare every encoding
/// against.
impl LookupBackend for RoutingTable {
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        // A routing table is one virtual network.
        if vn != 0 {
            return None;
        }
        self.lookup(ip)
    }
}
