//! [`LookupBackend`] — the one interface the "for each encoding" drivers
//! (`bench_lookup`, `vr-audit`'s parity checks) are written against, so
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
/// use vr_trie::{JumpTrie, LookupBackend, UnibitTrie};
///
/// fn hits(backend: &impl LookupBackend, dsts: &[u32]) -> usize {
///     dsts.iter().filter(|&&ip| backend.lookup_vn(0, ip).is_some()).count()
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
}

/// The linear-scan oracle the parity drivers compare every encoding
/// against.
impl LookupBackend for RoutingTable {
    fn lookup_vn(&self, vn: usize, ip: u32) -> Option<NextHop> {
        debug_assert_eq!(vn, 0, "a routing table is one virtual network");
        self.lookup(ip)
    }
}
