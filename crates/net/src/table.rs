//! Routing tables and the reference longest-prefix-match oracle.

use crate::error::NetError;
use crate::prefix::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Next-hop information (NHI). The paper stores NHI in trie leaves; 8 bits
/// is the representative width used throughout the evaluation (§V-B uses
/// 18-bit data words per BRAM read, which bundle NHI with node pointers).
pub type NextHop = u8;

/// One routing-table entry: a prefix and its next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Next-hop identifier stored in the lookup engine's leaves.
    pub next_hop: NextHop,
}

impl RouteEntry {
    /// Convenience constructor.
    #[must_use]
    pub fn new(prefix: Ipv4Prefix, next_hop: NextHop) -> Self {
        Self { prefix, next_hop }
    }
}

/// An IPv4 routing table.
///
/// Entries are kept sorted and unique by prefix; inserting the same prefix
/// twice *replaces* the next hop (route update semantics). The table offers
/// a deliberately simple linear-scan [`RoutingTable::lookup`] which serves
/// as the correctness oracle for the trie (`vr-trie`) and the pipeline
/// engines (`vr-engine`) in tests and simulations.
///
/// ```
/// use vr_net::RoutingTable;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.0.0/16 2\n".parse().unwrap();
/// assert_eq!(table.lookup(0x0A01_0203), Some(2)); // longest match wins
/// assert_eq!(table.lookup(0x0A02_0203), Some(1));
/// assert_eq!(table.lookup(0x0B00_0000), None);
/// ```
///
/// Serde note: the table serializes as a *sequence of entries* (not a
/// map), so it works with formats requiring string keys (JSON) and its
/// dumps stay human-diffable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    entries: BTreeMap<Ipv4Prefix, NextHop>,
}

impl Serialize for RoutingTable {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<'de> Deserialize<'de> for RoutingTable {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let entries = Vec::<RouteEntry>::deserialize(deserializer)?;
        Ok(Self::from_entries(entries))
    }
}

impl RoutingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table from an iterator of entries in one bulk pass (sort,
    /// then build). Later duplicates replace earlier ones, as with
    /// [`RoutingTable::insert`].
    pub fn from_entries<I: IntoIterator<Item = RouteEntry>>(entries: I) -> Self {
        // `BTreeMap`'s bulk build sorts stably and keeps the last of equal
        // keys; `from_entries_keeps_the_last_of_repeated_prefixes` pins it.
        Self {
            entries: entries
                .into_iter()
                .map(|e| (e.prefix, e.next_hop))
                .collect(),
        }
    }

    /// Inserts or replaces a route. Returns the previous next hop, if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, next_hop: NextHop) -> Option<NextHop> {
        self.entries.insert(prefix, next_hop)
    }

    /// Withdraws a route. Returns the removed next hop, if present.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<NextHop> {
        self.entries.remove(prefix)
    }

    /// Whether the table contains an exact entry for `prefix`.
    #[must_use]
    pub fn contains(&self, prefix: &Ipv4Prefix) -> bool {
        self.entries.contains_key(prefix)
    }

    /// Exact-match next hop for `prefix`, if present.
    #[must_use]
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<NextHop> {
        self.entries.get(prefix).copied()
    }

    /// Number of routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the routes in canonical `(addr, len)` order.
    pub fn iter(&self) -> impl Iterator<Item = RouteEntry> + '_ {
        self.entries
            .iter()
            .map(|(&prefix, &next_hop)| RouteEntry { prefix, next_hop })
    }

    /// Iterates just the prefixes in canonical order.
    pub fn prefixes(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.entries.keys().copied()
    }

    /// Reference longest-prefix match: scans every entry and keeps the
    /// longest prefix containing `ip`. O(n) by design — this is the oracle
    /// the fast paths are validated against, so it stays obviously correct.
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        let mut best: Option<(u8, NextHop)> = None;
        for (prefix, &nh) in &self.entries {
            if prefix.contains(ip) && best.is_none_or(|(len, _)| prefix.len() >= len) {
                best = Some((prefix.len(), nh));
            }
        }
        best.map(|(_, nh)| nh)
    }

    /// Histogram of prefix lengths, indexed 0..=32.
    #[must_use]
    pub fn length_histogram(&self) -> [usize; 33] {
        let mut h = [0usize; 33];
        for prefix in self.entries.keys() {
            h[usize::from(prefix.len())] += 1;
        }
        h
    }

    /// Longest prefix length present (0 for an empty table).
    #[must_use]
    pub fn max_prefix_len(&self) -> u8 {
        self.entries.keys().map(Ipv4Prefix::len).max().unwrap_or(0)
    }

    /// Serializes the table in the dump format accepted by
    /// [`crate::parser::parse_dump`] (one `prefix next_hop` per line).
    #[must_use]
    pub fn to_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.len() * 24);
        for e in self.iter() {
            let _ = writeln!(out, "{} {}", e.prefix, e.next_hop);
        }
        out
    }

    /// Merges `other` into `self`; on conflicts `other` wins. Returns the
    /// number of prefixes that were newly added (not replacements).
    pub fn absorb(&mut self, other: &RoutingTable) -> usize {
        let mut added = 0;
        for e in other.iter() {
            if self.insert(e.prefix, e.next_hop).is_none() {
                added += 1;
            }
        }
        added
    }

    /// Number of prefixes present in both tables (structural overlap at the
    /// prefix level; the trie-level overlap α is computed in `vr-trie`).
    #[cfg(test)]
    #[must_use]
    pub fn shared_prefix_count(&self, other: &RoutingTable) -> usize {
        self.entries.keys().filter(|p| other.contains(p)).count()
    }

    /// Validates internal invariants; used by property tests. Always true
    /// for tables built through the public API.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        // BTreeMap keys are unique and sorted by construction; verify
        // canonicalization (host bits zero) survived serde round-trips.
        self.entries.keys().all(|p| p.addr() & !p.netmask() == 0)
    }
}

impl FromIterator<RouteEntry> for RoutingTable {
    fn from_iter<I: IntoIterator<Item = RouteEntry>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

impl std::str::FromStr for RoutingTable {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parser::parse_dump(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_replaces_and_remove_withdraws() {
        let mut t = RoutingTable::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn lookup_prefers_longest_match() {
        let t = RoutingTable::from_entries([
            RouteEntry::new(p("0.0.0.0/0"), 9),
            RouteEntry::new(p("10.0.0.0/8"), 1),
            RouteEntry::new(p("10.1.0.0/16"), 2),
            RouteEntry::new(p("10.1.2.0/24"), 3),
        ]);
        assert_eq!(t.lookup(0x0A01_0203), Some(3)); // 10.1.2.3
        assert_eq!(t.lookup(0x0A01_0303), Some(2)); // 10.1.3.3
        assert_eq!(t.lookup(0x0A02_0000), Some(1)); // 10.2.0.0
        assert_eq!(t.lookup(0x0B00_0000), Some(9)); // 11.0.0.0 -> default
    }

    #[test]
    fn lookup_without_default_route_can_miss() {
        let t = RoutingTable::from_entries([RouteEntry::new(p("10.0.0.0/8"), 1)]);
        assert_eq!(t.lookup(0x0B00_0000), None);
    }

    #[test]
    fn iteration_is_sorted_and_unique() {
        let t = RoutingTable::from_entries([
            RouteEntry::new(p("192.168.0.0/16"), 1),
            RouteEntry::new(p("10.0.0.0/8"), 2),
            RouteEntry::new(p("10.0.0.0/8"), 3),
        ]);
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].prefix, p("10.0.0.0/8"));
        assert_eq!(v[0].next_hop, 3);
    }

    /// The bulk build keeps `insert`'s replace semantics: of repeated
    /// prefixes, wherever they sit in the input, the last one wins.
    #[test]
    fn from_entries_keeps_the_last_of_repeated_prefixes() {
        let entries = [
            RouteEntry::new(p("10.0.0.0/8"), 1),
            RouteEntry::new(p("192.168.0.0/16"), 2),
            RouteEntry::new(p("10.0.0.0/8"), 3),
            RouteEntry::new(p("9.0.0.0/8"), 4),
            RouteEntry::new(p("192.168.0.0/16"), 5),
            RouteEntry::new(p("10.0.0.0/8"), 6),
        ];
        let t = RoutingTable::from_entries(entries);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(6));
        assert_eq!(t.get(&p("192.168.0.0/16")), Some(5));
        assert_eq!(t.get(&p("9.0.0.0/8")), Some(4));
        let mut inserted = RoutingTable::new();
        for e in entries {
            inserted.insert(e.prefix, e.next_hop);
        }
        assert_eq!(t, inserted);
        // Deserialize builds through `from_entries` too.
        let json = serde_json::to_string(&entries).unwrap();
        assert_eq!(
            serde_json::from_str::<RoutingTable>(&json).unwrap(),
            inserted
        );
    }

    #[test]
    fn histogram_counts_lengths() {
        let t = RoutingTable::from_entries([
            RouteEntry::new(p("10.0.0.0/8"), 1),
            RouteEntry::new(p("11.0.0.0/8"), 1),
            RouteEntry::new(p("10.1.0.0/16"), 2),
        ]);
        let h = t.length_histogram();
        assert_eq!(h[8], 2);
        assert_eq!(h[16], 1);
        assert_eq!(h.iter().sum::<usize>(), 3);
        assert_eq!(t.max_prefix_len(), 16);
    }

    #[test]
    fn dump_round_trips() {
        let t = RoutingTable::from_entries([
            RouteEntry::new(p("10.0.0.0/8"), 1),
            RouteEntry::new(p("10.1.0.0/16"), 2),
        ]);
        let back: RoutingTable = t.to_dump().parse().unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn absorb_counts_only_new_prefixes() {
        let mut a = RoutingTable::from_entries([RouteEntry::new(p("10.0.0.0/8"), 1)]);
        let b = RoutingTable::from_entries([
            RouteEntry::new(p("10.0.0.0/8"), 7),
            RouteEntry::new(p("11.0.0.0/8"), 2),
        ]);
        assert_eq!(a.absorb(&b), 1);
        assert_eq!(a.get(&p("10.0.0.0/8")), Some(7)); // other wins
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn shared_prefix_count_is_symmetric() {
        let a = RoutingTable::from_entries([
            RouteEntry::new(p("10.0.0.0/8"), 1),
            RouteEntry::new(p("12.0.0.0/8"), 1),
        ]);
        let b = RoutingTable::from_entries([
            RouteEntry::new(p("10.0.0.0/8"), 5),
            RouteEntry::new(p("13.0.0.0/8"), 1),
        ]);
        assert_eq!(a.shared_prefix_count(&b), 1);
        assert_eq!(b.shared_prefix_count(&a), 1);
    }

    #[test]
    fn invariants_hold() {
        let t = RoutingTable::from_entries([RouteEntry::new(p("10.128.0.0/9"), 1)]);
        assert!(t.check_invariants());
    }
}
