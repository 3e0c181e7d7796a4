//! Structural verifiers for every lookup-table encoding in this crate.
//!
//! The encodings trade safety margins for speed: [`JumpTrie`] indexes raw
//! word slabs with no bounds checks beyond the slice's own, and the
//! services swap whole tables under live traffic. A single corrupt word —
//! a flipped leaf tag, a block base past the tail — silently misroutes
//! packets rather than crashing. This module is the counterweight.
//!
//! Each `audit_*` function walks one encoding and returns an
//! [`AuditReport`]. The checks are deliberately independent of the
//! builders: they re-derive every invariant from the raw slabs (via
//! [`JumpTrie::raw_parts`]) or the public node accessors, so a corrupted
//! encoding — hand-built, or mutated by the property tests below — is
//! caught even though the builders could never have produced it. They
//! cover tag decodability, child bounds, level order (acyclicity),
//! leaf-pushing completeness, K-wide NHI vector coverage, jump-table
//! prefix-expansion consistency and oracle lookup parity.
//!
//! Severity policy: anything that can send a lookup out of bounds, into a
//! cycle, or to a wrong next hop is an `Error` and fails the audit; pure
//! accounting findings (dead slabs, stale NHI vectors) are `Info` and are
//! reported without failing — wasted memory cannot corrupt a lookup. A
//! [`JumpTrie`] block no entry references is the exception: every block
//! is born with exactly one referrer, so an orphan means an internal
//! entry was overwritten and the lookups through it now answer wrongly.
//!
//! `vr_engine`'s publish gate runs [`audit_jump`] on every candidate
//! table in debug builds, before the swap makes it live; the `vr-audit`
//! binary's `tables` command runs every audit here over freshly built
//! synthetic tables and emits the reports as JSON.

mod report;

pub use report::{
    AuditReport, AuditStats, CheckKind, CheckOutcome, Coordinates, Severity, Violation,
    MAX_RECORDED_VIOLATIONS,
};

use crate::jump::{self, JumpTrieParts};
use crate::{JumpTrie, LeafPushedTrie, LookupBackend, MergedTrie, NodeId};
use report::Audit;
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};

/// Highest valid encoded NHI code: `0` = no route, `1 + nh` with
/// `nh: u8`, so anything above `256` silently truncates on decode.
const MAX_NHI_CODE: u16 = 1 + (NextHop::MAX as u16);

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Validates the NHI slab shape. Returns the number of leaf vectors when
/// slot-indexed checks are sound.
fn check_nhi_slab(a: &mut Audit, nhis: &[u16], k: usize) -> Option<usize> {
    a.declare(CheckKind::NhiVector);
    a.declare(CheckKind::TagDecode);
    if k == 0 {
        a.error(
            CheckKind::NhiVector,
            Coordinates::none(),
            "NHI vector width k is 0",
        );
        return None;
    }
    if !nhis.len().is_multiple_of(k) {
        a.error(
            CheckKind::NhiVector,
            Coordinates::none(),
            format!(
                "NHI slab length {} is not a multiple of k = {k}",
                nhis.len()
            ),
        );
        return None;
    }
    for (i, &code) in nhis.iter().enumerate() {
        if code > MAX_NHI_CODE {
            a.error(
                CheckKind::TagDecode,
                Coordinates::word(0, i, u64::from(code)),
                format!("NHI code {code} exceeds the encodable range 0..={MAX_NHI_CODE}"),
            );
        }
    }
    Some(nhis.len() / k)
}

// ---------------------------------------------------------------------------
// JumpTrie
// ---------------------------------------------------------------------------

/// Which tier claimed a tail block: the root table (level 1, address
/// bits 16–23) or a level-1 block (level 2, bits 24–31).
#[derive(Clone, Copy, PartialEq)]
enum Owner {
    Nobody,
    Root,
    LevelOne,
}

/// State of one [`JumpTrie`] audit: the per-block owner map and the
/// per-vector reference map the three entry passes fill in.
struct JumpAudit<'a> {
    parts: JumpTrieParts<'a>,
    /// NHI vectors in the slab, when slot-indexed checks are sound.
    leaf_slots: Option<usize>,
    owners: Vec<Owner>,
    referenced: Vec<bool>,
}

impl JumpAudit<'_> {
    /// A leaf entry must name an existing NHI vector.
    fn leaf(&mut self, a: &mut Audit, at: Coordinates, entry: u32) {
        let slot = (entry & jump::PAYLOAD_MASK) as usize;
        match self.leaf_slots {
            Some(count) if slot >= count => a.error(
                CheckKind::NhiVector,
                at,
                format!("leaf references NHI vector {slot} of {count}"),
            ),
            Some(_) => self.referenced[slot] = true,
            None => {}
        }
    }

    /// An internal entry must be the base of a whole block inside the
    /// tail that no other entry has claimed.
    fn claim(&mut self, a: &mut Audit, at: Coordinates, entry: u32, owner: Owner) {
        let base = entry as usize;
        if !base.is_multiple_of(jump::BLOCK_ENTRIES) {
            a.error(
                CheckKind::ChildBounds,
                at,
                format!(
                    "block base {base} is not a multiple of {}",
                    jump::BLOCK_ENTRIES
                ),
            );
        } else if base + jump::BLOCK_ENTRIES > self.parts.tail.len() {
            a.error(
                CheckKind::ChildBounds,
                at,
                format!(
                    "block {base}..{} outside the tail of {}",
                    base + jump::BLOCK_ENTRIES,
                    self.parts.tail.len()
                ),
            );
        } else if self.owners[base / jump::BLOCK_ENTRIES] != Owner::Nobody {
            a.error(
                CheckKind::ChildBounds,
                at,
                format!("block at {base} referenced twice"),
            );
        } else {
            self.owners[base / jump::BLOCK_ENTRIES] = owner;
        }
    }

    /// Checks every entry of the blocks `owner` claimed. Level-1 entries
    /// may claim level-2 blocks; a level-2 block holds leaves only — the
    /// address has no bits left below it.
    fn sweep_blocks(&mut self, a: &mut Audit, owner: Owner) {
        let level = if owner == Owner::Root { 1 } else { 2 };
        for block in 0..self.owners.len() {
            if self.owners[block] != owner {
                continue;
            }
            let base = block * jump::BLOCK_ENTRIES;
            for at in base..base + jump::BLOCK_ENTRIES {
                let entry = self.parts.tail[at];
                let coords = Coordinates::word(level, at, u64::from(entry));
                if entry & jump::LEAF_BIT != 0 {
                    self.leaf(a, coords, entry);
                } else if owner == Owner::Root {
                    self.claim(a, coords, entry, Owner::LevelOne);
                } else {
                    a.error(
                        CheckKind::LeafCompleteness,
                        coords,
                        "internal entry in a level-2 block",
                    );
                }
            }
        }
    }
}

fn check_jump(a: &mut Audit, parts: JumpTrieParts<'_>) -> AuditStats {
    a.declare(CheckKind::TagDecode);
    a.declare(CheckKind::ChildBounds);
    a.declare(CheckKind::LevelOrder);
    a.declare(CheckKind::LeafCompleteness);
    a.declare(CheckKind::Invariants);
    a.declare(CheckKind::Reachability);
    let leaf_slots = check_nhi_slab(a, parts.nhis, parts.k);
    let mut stats = AuditStats {
        nodes: (parts.root.len() + parts.tail.len()) as u64,
        nhi_entries: parts.nhis.len() as u64,
        arity: parts.k as u64,
        ..AuditStats::default()
    };
    if parts.root.len() != jump::ROOT_ENTRIES {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            format!(
                "root table holds {} entries instead of {}",
                parts.root.len(),
                jump::ROOT_ENTRIES
            ),
        );
        return stats;
    }
    if !parts.tail.len().is_multiple_of(jump::BLOCK_ENTRIES) {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            format!(
                "tail of {} entries is not whole {}-entry blocks",
                parts.tail.len(),
                jump::BLOCK_ENTRIES
            ),
        );
        return stats;
    }

    // Root entries claim level-1 blocks (aligned runs of leaves may share
    // an NHI slot — legal), level-1 entries claim level-2 blocks, and
    // every block must end up claimed exactly once.
    let mut audit = JumpAudit {
        parts,
        leaf_slots,
        owners: vec![Owner::Nobody; parts.tail.len() / jump::BLOCK_ENTRIES],
        referenced: vec![false; leaf_slots.unwrap_or(0)],
    };
    for (bucket, &entry) in parts.root.iter().enumerate() {
        let coords = Coordinates::word(0, bucket, u64::from(entry));
        if entry & jump::LEAF_BIT != 0 {
            audit.leaf(a, coords, entry);
        } else {
            audit.claim(a, coords, entry, Owner::Root);
        }
    }
    audit.sweep_blocks(a, Owner::Root);
    audit.sweep_blocks(a, Owner::LevelOne);

    let owned = |owner| audit.owners.iter().filter(|&&o| o == owner).count() as u64;
    stats.levels = 1 + u64::from(owned(Owner::Root) > 0) + u64::from(owned(Owner::LevelOne) > 0);
    stats.leaves = audit.referenced.len() as u64;
    stats.dead_words = owned(Owner::Nobody) * jump::BLOCK_ENTRIES as u64;
    stats.stale_nhi_vectors = audit.referenced.iter().filter(|r| !**r).count() as u64;
    for (block, _) in audit
        .owners
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == Owner::Nobody)
    {
        let base = block * jump::BLOCK_ENTRIES;
        a.error(
            CheckKind::ChildBounds,
            Coordinates {
                level: None,
                offset: Some(base as u64),
                word: None,
            },
            format!("block at {base} referenced by no entry"),
        );
    }
    if stats.stale_nhi_vectors > 0 {
        a.info(
            CheckKind::Reachability,
            Coordinates::none(),
            format!(
                "{} of {} NHI vectors referenced by no leaf",
                stats.stale_nhi_vectors,
                audit.referenced.len()
            ),
        );
    }
    stats
}

/// Audits a [`JumpTrie`].
#[must_use]
pub fn audit_jump(trie: &JumpTrie) -> AuditReport {
    let mut a = Audit::new(format!("jump(k={})", trie.arity()));
    let stats = check_jump(&mut a, trie.raw_parts());
    a.finish(stats)
}

/// Audits a [`JumpTrie`] structurally and checks prefix-expansion
/// consistency against an independently built uni-bit oracle (the
/// pointer trie at K = 1) for the source `table`.
#[must_use]
pub fn audit_jump_with_table(trie: &JumpTrie, table: &RoutingTable) -> AuditReport {
    let mut a = Audit::new(format!("jump(k={})", trie.arity()));
    let stats = check_jump(&mut a, trie.raw_parts());
    let tables = std::slice::from_ref(table);
    check_vn_parity(&mut a, CheckKind::JumpConsistency, tables, 1, trie);
    a.finish(stats)
}

/// Audits a K-way [`JumpTrie`] structurally, checks every virtual
/// network's lookups against an oracle built from its own table, and
/// holds its encoding to `reference` — the same tables' trie from another
/// builder — field for field: a field whose words differ is one
/// [`CheckKind::OracleParity`] violation, located at its first differing
/// word.
#[must_use]
pub fn audit_jump_against(
    trie: &JumpTrie,
    tables: &[RoutingTable],
    reference: &JumpTrie,
) -> AuditReport {
    let mut a = Audit::new(format!("jump(k={})", trie.arity()));
    let stats = check_jump(&mut a, trie.raw_parts());
    check_vn_parity(&mut a, CheckKind::OracleParity, tables, trie.arity(), trie);
    check_same_encoding(&mut a, trie.raw_parts(), reference.raw_parts());
    a.finish(stats)
}

fn check_same_encoding(a: &mut Audit, parts: JumpTrieParts<'_>, reference: JumpTrieParts<'_>) {
    fn first_difference<T: Copy + PartialEq + Into<u64>>(
        ours: &[T],
        theirs: &[T],
    ) -> Option<(usize, u64)> {
        let at = ours.iter().zip(theirs).position(|(x, y)| x != y);
        let at = at.or((ours.len() != theirs.len()).then(|| ours.len().min(theirs.len())))?;
        Some((at, ours.get(at).map_or(0, |&word| word.into())))
    }
    if parts.k != reference.k {
        let message = format!("arity {} where the reference has {}", parts.k, reference.k);
        a.error(CheckKind::OracleParity, Coordinates::none(), message);
    }
    let fields = [
        (
            "root",
            parts.root.len(),
            reference.root.len(),
            first_difference(parts.root, reference.root),
        ),
        (
            "tail",
            parts.tail.len(),
            reference.tail.len(),
            first_difference(parts.tail, reference.tail),
        ),
        (
            "NHI slab",
            parts.nhis.len(),
            reference.nhis.len(),
            first_difference(parts.nhis, reference.nhis),
        ),
    ];
    for (level, (field, len, want, difference)) in fields.into_iter().enumerate() {
        if let Some((at, word)) = difference {
            a.error(
                CheckKind::OracleParity,
                Coordinates::word(level, at, word),
                format!(
                    "{field} ({len} entries) differs from the reference's ({want}) at entry {at}"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pointer tries
// ---------------------------------------------------------------------------

/// Traverses a leaf-pushed trie from its root, verifying that every
/// node is visited exactly once (tree, not DAG or cycle) and that every
/// path terminates within the 32-bit address depth. Returns
/// `(visited, leaves, internal)`.
fn sweep_full_binary(a: &mut Audit, trie: &LeafPushedTrie) -> (usize, usize, usize) {
    let node_count = trie.node_count();
    a.declare(CheckKind::LevelOrder);
    a.declare(CheckKind::LeafCompleteness);
    a.declare(CheckKind::Invariants);
    let mut visited = std::collections::HashSet::new();
    let mut leaves = 0usize;
    let mut internal = 0usize;
    let mut stack = vec![(NodeId::ROOT, 0u32)];
    while let Some((id, depth)) = stack.pop() {
        if !visited.insert(id) {
            a.error(
                CheckKind::Invariants,
                Coordinates::word(depth as usize, id.raw() as usize, 0),
                format!(
                    "leaf-pushed node {} reached twice (cycle or shared subtree)",
                    id.raw()
                ),
            );
            continue;
        }
        match trie.node_children(id) {
            None => leaves += 1,
            Some((l, r)) => {
                internal += 1;
                if depth >= 32 {
                    a.error(
                        CheckKind::LeafCompleteness,
                        Coordinates::word(depth as usize, id.raw() as usize, 0),
                        format!(
                            "leaf-pushed internal node at depth {depth} exceeds the address width"
                        ),
                    );
                    continue;
                }
                stack.push((l, depth + 1));
                stack.push((r, depth + 1));
            }
        }
    }
    if leaves != internal + 1 {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            format!("full-binary identity broken: {leaves} leaves vs {internal} internal nodes"),
        );
    }
    let dead = node_count.saturating_sub(visited.len());
    if dead > 0 {
        a.declare(CheckKind::Reachability);
        a.info(
            CheckKind::Reachability,
            Coordinates::none(),
            format!("{dead} of {node_count} arena nodes unreachable from the root"),
        );
    }
    (visited.len(), leaves, internal)
}

/// Audits a [`MergedTrie`] of any arity (a single table's trie is
/// K = 1): the presence recursion, node counts, slab size, reachability
/// and the 32-bit depth bound via its own invariant check, plus arity
/// bounds.
#[must_use]
pub fn audit_merged(trie: &MergedTrie) -> AuditReport {
    let mut a = Audit::new(format!("merged(k={})", trie.arity()));
    a.declare(CheckKind::Invariants);
    a.declare(CheckKind::NhiVector);
    if !trie.check_invariants() {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            "presence masks, node counts, the NHI slab, depth, and reachability disagree",
        );
    }
    if trie.arity() == 0 || trie.arity() > 64 {
        a.error(
            CheckKind::NhiVector,
            Coordinates::none(),
            format!("arity {} outside the supported 1..=64", trie.arity()),
        );
    }
    a.finish(AuditStats {
        nodes: trie.node_count() as u64,
        arity: trie.arity() as u64,
        ..AuditStats::default()
    })
}

/// Audits a [`LeafPushedTrie`] of any arity: fullness, single-visit tree
/// shape, depth bounds, and per-VNID lookup parity against the source
/// `tables` (every virtual network's routes must be answered from its
/// slice of the NHI vectors, with no stale cross-VN answers). The report
/// is named `leaf_pushed` at arity 1 and `merged_leaf_pushed(k=K)` above.
#[must_use]
pub fn audit_leaf_pushed(trie: &LeafPushedTrie, tables: &[RoutingTable]) -> AuditReport {
    let mut a = Audit::new(match trie.arity() {
        1 => "leaf_pushed".to_string(),
        k => format!("merged_leaf_pushed(k={k})"),
    });
    let (visited, leaves, _) = sweep_full_binary(&mut a, trie);
    if !trie.is_full() {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            "trie reports itself non-full (leaf/internal identity broken)",
        );
    }
    check_vn_parity(&mut a, CheckKind::OracleParity, tables, trie.arity(), trie);
    a.finish(AuditStats {
        nodes: visited as u64,
        leaves: leaves as u64,
        nhi_entries: (leaves * trie.arity()) as u64,
        arity: trie.arity() as u64,
        ..AuditStats::default()
    })
}

// ---------------------------------------------------------------------------
// Parity probing
// ---------------------------------------------------------------------------

/// Probe addresses exercising every prefix of `table`: the network
/// address, the broadcast address, both one-off neighbours, and the /16
/// bucket edges (which stress the jump-table cut).
#[must_use]
fn parity_probes(table: &RoutingTable) -> Vec<u32> {
    let mut probes = Vec::with_capacity(table.len() * 5 + 8);
    for prefix in table.prefixes() {
        let addr = prefix.addr();
        let host = host_mask(&prefix);
        probes.push(addr);
        probes.push(addr | host);
        probes.push(addr.wrapping_sub(1));
        probes.push((addr | host).wrapping_add(1));
        probes.push(addr | 0xFFFF);
    }
    probes.extend([0, 1, u32::MAX, 0x8000_0000, 0x0000_FFFF, 0x0001_0000]);
    probes
}

fn host_mask(prefix: &Ipv4Prefix) -> u32 {
    match prefix.len() {
        0 => u32::MAX,
        32 => 0,
        len => (1u32 << (32 - len)) - 1,
    }
}

/// Per-VNID parity under `check`: `tables` must cover the structure's
/// `arity` exactly, and every virtual network's lookups must match that
/// network's column of an oracle pointer trie built from `tables`, probed
/// at its own table's [`parity_probes`]; each disagreement is an error.
fn check_vn_parity(
    a: &mut Audit,
    check: CheckKind,
    tables: &[RoutingTable],
    arity: usize,
    trie: &impl LookupBackend,
) {
    a.declare(CheckKind::NhiVector);
    if tables.len() != arity {
        a.error(
            CheckKind::NhiVector,
            Coordinates::none(),
            format!("{} source tables for arity {arity}", tables.len()),
        );
        return;
    }
    let Ok(oracle) = MergedTrie::from_tables(tables) else {
        let why = "no oracle merge of the tables";
        a.error(CheckKind::NhiVector, Coordinates::none(), why);
        return;
    };
    a.declare(check);
    for (vn, table) in tables.iter().enumerate() {
        for ip in parity_probes(table) {
            let (got, want) = (trie.lookup_vn(vn, ip), oracle.lookup(vn, ip));
            if got != want {
                let at = Coordinates {
                    level: u32::try_from(vn).ok(),
                    offset: Some(u64::from(ip)),
                    word: None,
                };
                let why = format!("vn {vn} lookup({ip:#010x}) = {got:?}, oracle says {want:?}");
                a.error(check, at, why);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirtyBuckets;
    use proptest::prelude::*;
    use vr_net::synth::{FamilySpec, TableSpec};
    use vr_net::table::RouteEntry;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn sample() -> RoutingTable {
        table("0.0.0.0/0 9\n10.0.0.0/8 1\n10.1.0.0/16 2\n10.1.1.0/24 3\n192.168.0.0/17 5\n")
    }

    #[test]
    fn well_formed_jump_is_clean() {
        let t = sample();
        let jump = JumpTrie::from_table(&t);
        let report = audit_jump_with_table(&jump, &t);
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn empty_structures_are_clean() {
        let empty = MergedTrie::new(1).unwrap();
        assert!(audit_merged(&empty).is_clean());
        assert!(audit_jump(&JumpTrie::from_table(&RoutingTable::new())).is_clean());
        let pushed = empty.leaf_pushed();
        assert!(audit_leaf_pushed(&pushed, &[RoutingTable::new()]).is_clean());
    }

    /// A table with a level-2 block (10.1.1.0/24 has a /26 inside), two
    /// level-1 blocks, and more than one NHI vector.
    fn deep_sample() -> RoutingTable {
        table("0.0.0.0/0 9\n10.1.0.0/16 2\n10.1.1.0/24 3\n10.1.1.64/26 4\n192.168.0.0/17 5\n")
    }

    /// The deep sample's jump trie with its tail and NHI slab passed
    /// through `mutate`, audited.
    fn audit_mutated(
        mutate: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>, &mut Vec<u16>),
    ) -> AuditReport {
        let jump = JumpTrie::from_table(&deep_sample());
        let p = jump.raw_parts();
        let (mut root, mut tail, mut nhis) = (p.root.to_vec(), p.tail.to_vec(), p.nhis.to_vec());
        mutate(&mut root, &mut tail, &mut nhis);
        audit_jump(&JumpTrie::from_raw_parts(root, tail, nhis, p.k))
    }

    fn failed_checks(report: &AuditReport) -> Vec<CheckKind> {
        report
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.check)
            .collect()
    }

    /// Index in `tail` of the one level-1 entry that opens a level-2
    /// block, and that block's base.
    fn level_two_link(root: &[u32], tail: &[u32]) -> (usize, usize) {
        let level_one = root[0x0A01] as usize;
        let at = level_one + 1; // 10.1.1.x
        assert_eq!(tail[at] & jump::LEAF_BIT, 0);
        (at, tail[at] as usize)
    }

    #[test]
    fn deep_sample_is_clean_and_three_blocks() {
        let report = audit_mutated(|_, tail, _| assert_eq!(tail.len(), 3 * jump::BLOCK_ENTRIES));
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.stats.levels, 3);
        assert_eq!(report.stats.dead_words, 0);
        assert_eq!(report.stats.stale_nhi_vectors, 0);
    }

    #[test]
    fn flipped_leaf_tag_is_caught() {
        // A leaf in a level-1 block with its tag stripped: the payload (a
        // small NHI slot) becomes a bogus, misaligned block base.
        let report = audit_mutated(|root, tail, _| {
            let at = root[0x0A01] as usize + 7;
            assert_ne!(tail[at] & jump::LEAF_BIT, 0);
            tail[at] = (tail[at] & jump::PAYLOAD_MASK) | 1;
        });
        assert_eq!(failed_checks(&report), [CheckKind::ChildBounds]);
    }

    #[test]
    fn oob_child_base_is_caught() {
        // Aligned, but past the end of the tail.
        let report = audit_mutated(|root, tail, _| root[0x0A01] = tail.len() as u32);
        assert!(failed_checks(&report).contains(&CheckKind::ChildBounds));
    }

    #[test]
    fn block_referenced_twice_is_caught() {
        let report = audit_mutated(|root, _, _| root[0x0A02] = root[0x0A01]);
        assert_eq!(failed_checks(&report), [CheckKind::ChildBounds]);
        // ... from two tiers as well: a root entry naming a level-2 block.
        let report = audit_mutated(|root, tail, _| {
            root[0x0A02] = level_two_link(root, tail).1 as u32;
        });
        assert_eq!(failed_checks(&report), [CheckKind::ChildBounds]);
    }

    #[test]
    fn orphan_block_is_caught() {
        // The only reference to the level-2 block becomes a valid leaf:
        // every lookup stays in bounds, and the /24 below answers wrongly.
        let report = audit_mutated(|root, tail, _| {
            let (at, _) = level_two_link(root, tail);
            tail[at] = tail[at - 1];
        });
        assert_eq!(failed_checks(&report), [CheckKind::ChildBounds]);
        assert_eq!(report.stats.dead_words, jump::BLOCK_ENTRIES as u64);
    }

    #[test]
    fn internal_entry_in_level_two_block_is_caught() {
        let report = audit_mutated(|root, tail, _| {
            let (_, level_two) = level_two_link(root, tail);
            tail[level_two + 3] = 0; // an aligned in-bounds base, one level too deep
        });
        assert_eq!(failed_checks(&report), [CheckKind::LeafCompleteness]);
    }

    #[test]
    fn leaf_slot_past_the_nhi_slab_is_caught() {
        let report = audit_mutated(|root, tail, nhis| {
            let (_, level_two) = level_two_link(root, tail);
            tail[level_two] = jump::LEAF_BIT | nhis.len() as u32;
        });
        assert_eq!(failed_checks(&report), [CheckKind::NhiVector]);
    }

    #[test]
    fn truncated_tail_is_caught() {
        // Not whole blocks: nothing below the root can be trusted.
        let report = audit_mutated(|_, tail, _| tail.truncate(tail.len() - 1));
        assert_eq!(failed_checks(&report), [CheckKind::LevelOrder]);
        // Whole blocks, one too few: the last base now points past the end.
        let report = audit_mutated(|_, tail, _| tail.truncate(tail.len() - jump::BLOCK_ENTRIES));
        assert_eq!(failed_checks(&report), [CheckKind::ChildBounds]);
    }

    #[test]
    fn truncated_nhi_slab_is_caught() {
        let report = audit_mutated(|_, _, nhis| nhis.truncate(nhis.len() / 2));
        assert!(!report.is_clean(), "truncated NHI slab must be detected");
    }

    /// Two NHI slots swapped, every leaf renumbered to match: a trie that
    /// is well formed and answers every lookup alike, whose layout alone
    /// differs from the reference's.
    #[test]
    fn a_layout_differing_from_the_reference_is_caught() {
        let t = deep_sample();
        let reference = JumpTrie::from_table(&t);
        let p = reference.raw_parts();
        assert!(reference.leaf_count() >= 2);
        let swap = |entry: u32| match entry & jump::PAYLOAD_MASK {
            0 if entry & jump::LEAF_BIT != 0 => jump::LEAF_BIT | 1,
            1 if entry & jump::LEAF_BIT != 0 => jump::LEAF_BIT,
            _ => entry,
        };
        let mut nhis = p.nhis.to_vec();
        nhis[..2 * p.k].rotate_left(p.k);
        let (root, tail) = (
            p.root.iter().map(|&e| swap(e)),
            p.tail.iter().map(|&e| swap(e)),
        );
        let swapped = JumpTrie::from_raw_parts(root.collect(), tail.collect(), nhis, p.k);
        let tables = std::slice::from_ref(&t);
        assert!(audit_jump_with_table(&swapped, &t).is_clean());
        assert!(audit_jump_against(&reference, tables, &reference).is_clean());
        let report = audit_jump_against(&swapped, tables, &reference);
        assert_eq!(failed_checks(&report), [CheckKind::OracleParity]);
        // The root and the NHI slab differ; the tail may not hold slot 0 or 1.
        assert!(
            (2..=3).contains(&report.error_count()),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn paper_scale_structures_are_clean() {
        let t = TableSpec::paper_worst_case(23).generate().unwrap();
        let single = MergedTrie::from_tables(std::slice::from_ref(&t)).unwrap();
        assert!(audit_merged(&single).is_clean());
        assert!(audit_jump_with_table(&JumpTrie::from_table(&t), &t).is_clean());
    }

    #[test]
    fn merged_audits_against_sources() {
        let tables = [
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
            table(""),
        ];
        let merged = MergedTrie::from_tables(&tables).unwrap();
        assert!(audit_merged(&merged).is_clean());
        let pushed = merged.leaf_pushed();
        assert!(audit_leaf_pushed(&pushed, &tables).is_clean());
    }

    // Mutation coverage in two directions, both load-bearing:
    //
    // * No false negatives: a corrupted encoding (flipped leaf tag,
    //   out-of-slab child base, truncated NHI vector, dropped VNID table)
    //   must fail the audit. Each mutation class gets a property test over
    //   arbitrary tables and mutation sites, because a verifier that only
    //   catches the corruption you thought of is a placebo.
    // * No false positives: every structure the crate can build, through
    //   every `from_*` constructor, audits clean at paper scale. A
    //   verifier that cries wolf gets switched off and dies.

    /// Strategy: an arbitrary routing table of 1 to `max` routes.
    fn arb_table(max: usize) -> impl Strategy<Value = RoutingTable> {
        prop::collection::vec((any::<u32>(), 0u8..=32, any::<NextHop>()), 1..max).prop_map(
            |routes| {
                RoutingTable::from_entries(
                    routes
                        .into_iter()
                        .map(|(addr, len, nh)| RouteEntry::new(Ipv4Prefix::must(addr, len), nh)),
                )
            },
        )
    }

    fn rebuild_jump(
        trie: &JumpTrie,
        mutate: impl FnOnce(&mut Vec<u32>, &mut Vec<u16>),
    ) -> JumpTrie {
        let p = trie.raw_parts();
        let mut tail = p.tail.to_vec();
        let mut nhis = p.nhis.to_vec();
        mutate(&mut tail, &mut nhis);
        JumpTrie::from_raw_parts(p.root.to_vec(), tail, nhis, p.k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Flipping any block entry's leaf/internal tag bit must be detected:
        /// a leaf turned internal is a misaligned or already-claimed base (or
        /// an internal entry in a level-2 block); an internal entry turned
        /// leaf orphans its block and names an NHI slot that does not exist.
        #[test]
        fn jump_detects_flipped_tag(table in arb_table(48), site in any::<usize>()) {
            let trie = JumpTrie::from_table(&table);
            let p = trie.raw_parts();
            if p.tail.is_empty() {
                continue;
            }
            let at = site % p.tail.len();
            let mutated = rebuild_jump(&trie, |tail, _| tail[at] ^= jump::LEAF_BIT);
            prop_assert!(!audit_jump(&mutated).is_clean(), "tag flip at entry {at} not caught");
        }

        /// An internal entry whose block base lands outside the tail must
        /// trip `ChildBounds`.
        #[test]
        fn jump_detects_oob_child_base(table in arb_table(48), site in any::<usize>()) {
            let trie = JumpTrie::from_table(&table);
            let p = trie.raw_parts();
            let internals: Vec<usize> = p
                .tail
                .iter()
                .enumerate()
                .filter(|(_, w)| *w & jump::LEAF_BIT == 0)
                .map(|(i, _)| i)
                .collect();
            if internals.is_empty() {
                continue;
            }
            let at = internals[site % internals.len()];
            let mutated = rebuild_jump(&trie, |tail, _| tail[at] = jump::PAYLOAD_MASK);
            let report = audit_jump(&mutated);
            prop_assert!(!report.is_clean());
            prop_assert!(
                report.checks.iter().any(|c| c.check == CheckKind::ChildBounds && !c.passed),
                "expected a child_bounds failure, got: {}",
                report.summary()
            );
        }

        /// Truncating the NHI slab strands leaf slots past the end (and, for
        /// K > 1, breaks the vector-width divisibility): `NhiVector` fails.
        #[test]
        fn jump_detects_truncated_nhi_slab(table in arb_table(48), cut in 1usize..8) {
            let trie = JumpTrie::from_table(&table);
            if trie.raw_parts().nhis.is_empty() {
                continue;
            }
            let mutated = rebuild_jump(&trie, |_, nhis| {
                let keep = nhis.len().saturating_sub(cut);
                nhis.truncate(keep);
            });
            let report = audit_jump(&mutated);
            prop_assert!(!report.is_clean());
            prop_assert!(
                report.checks.iter().any(|c| c.check == CheckKind::NhiVector && !c.passed),
                "expected an nhi_vector failure, got: {}",
                report.summary()
            );
        }

        /// A merged structure presented with a VNID gap (one source table
        /// missing) must fail the per-VN coverage check rather than silently
        /// auditing the surviving networks.
        #[test]
        fn merged_detects_vnid_gap(tables in prop::collection::vec(arb_table(24), 2..5)) {
            let merged = MergedTrie::from_tables(&tables).unwrap();
            let pushed = merged.leaf_pushed();
            prop_assert!(audit_leaf_pushed(&pushed, &tables).is_clean());
            let gapped = &tables[..tables.len() - 1];
            let report = audit_leaf_pushed(&pushed, gapped);
            prop_assert!(!report.is_clean());
            prop_assert!(
                report.checks.iter().any(|c| c.check == CheckKind::NhiVector && !c.passed),
                "expected an nhi_vector failure, got: {}",
                report.summary()
            );
        }

        /// Arbitrary small tables audit clean through the main constructor
        /// paths — the verifier's false-positive guard at the fuzz scale.
        #[test]
        fn arbitrary_tables_audit_clean(table in arb_table(48)) {
            let single = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
            prop_assert!(audit_merged(&single).is_clean());
            let pushed = single.leaf_pushed();
            prop_assert!(audit_leaf_pushed(&pushed, std::slice::from_ref(&table)).is_clean());
            prop_assert!(audit_jump_with_table(&JumpTrie::from_table(&table), &table).is_clean());
        }
    }

    /// Every encoding, every constructor path, at the paper's worst-case
    /// table scale — all clean, no exceptions.
    #[test]
    fn every_constructor_audits_clean_at_paper_scale() {
        let table = TableSpec::paper_worst_case(23).generate().unwrap();
        let single = MergedTrie::from_tables(std::slice::from_ref(&table)).unwrap();
        assert!(audit_merged(&single).is_clean());
        let pushed = single.leaf_pushed();
        assert!(audit_leaf_pushed(&pushed, std::slice::from_ref(&table)).is_clean());

        for report in [
            audit_jump_with_table(&JumpTrie::from_table(&table), &table),
            audit_jump_with_table(&JumpTrie::from_leaf_pushed(&pushed), &table),
        ] {
            assert!(report.is_clean(), "{}", report.summary());
        }

        let tables = FamilySpec::paper_worst_case(4, 0.5, 23).generate().unwrap();
        let merged = MergedTrie::from_tables(&tables).unwrap();
        assert!(audit_merged(&merged).is_clean());
        let mlp = merged.leaf_pushed();
        let jump = JumpTrie::from_leaf_pushed(&mlp);
        for report in [
            audit_leaf_pushed(&mlp, &tables),
            audit_jump(&jump),
            audit_jump_against(
                &jump.repaint(&merged, &DirtyBuckets::all()),
                &tables,
                &JumpTrie::from_tables(&tables).unwrap(),
            ),
        ] {
            assert!(report.is_clean(), "{}", report.summary());
        }
    }

    /// Reports serialize with coordinates a debugger can act on.
    #[test]
    fn violation_coordinates_locate_the_damage() {
        let table: RoutingTable = "10.0.0.0/8 1\n10.1.0.0/16 2\n10.1.1.0/24 3\n10.1.1.128/25 4\n"
            .parse()
            .unwrap();
        let trie = JumpTrie::from_table(&table);
        let p = trie.raw_parts();
        let bad_word = p
            .tail
            .iter()
            .position(|w| w & jump::LEAF_BIT == 0)
            .expect("table deep enough for a level-2 block");
        let mutated = rebuild_jump(&trie, |tail, _| tail[bad_word] = jump::PAYLOAD_MASK);
        let report = audit_jump(&mutated);
        assert!(!report.is_clean());
        let v = report
            .violations
            .iter()
            .find(|v| v.check == CheckKind::ChildBounds)
            .expect("a recorded child_bounds violation");
        assert_eq!(v.coordinates.offset, Some(bad_word as u64));
        assert_eq!(v.coordinates.word, Some(u64::from(jump::PAYLOAD_MASK)));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("ChildBounds"));
    }
}
