//! Structural verifiers for every lookup-table encoding in `vr-trie`.
//!
//! Each `audit_*` function walks one encoding and returns an
//! [`AuditReport`]. The checks are deliberately independent of the
//! builders: they re-derive every invariant from the raw slabs (via the
//! `*Parts` views) or the public node accessors, so a corrupted artifact
//! — deserialized, hand-built, or mutated by the property tests — is
//! caught even though the builders could never have produced it.
//!
//! Severity policy: anything that can send a lookup out of bounds, into a
//! cycle, or to a wrong next hop is an `Error` and fails the audit; pure
//! accounting findings (dead slabs, stale NHI vectors) are `Info` and are
//! reported without failing — wasted memory cannot corrupt a lookup. A
//! [`JumpTrie`] block no entry references is the exception: every block
//! is born with exactly one referrer, so an orphan means an internal
//! entry was overwritten and the lookups through it now answer wrongly.

use crate::report::{Audit, AuditReport, AuditStats, CheckKind, Coordinates};
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};
use vr_trie::flat::{self, FlatStrideParts};
use vr_trie::jump::{self, JumpTrieParts};
use vr_trie::unibit::NodeId;
use vr_trie::{FlatStrideTrie, JumpTrie, LeafPushedTrie, LookupBackend, MergedTrie, UnibitTrie};

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
            format!("NHI slab length {} is not a multiple of k = {k}", nhis.len()),
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
                format!("block base {base} is not a multiple of {}", jump::BLOCK_ENTRIES),
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
    for (block, _) in audit.owners.iter().enumerate().filter(|(_, &o)| o == Owner::Nobody) {
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

/// Audits a [`JumpTrie`]'s raw encoding.
#[must_use]
pub fn audit_jump_parts(parts: JumpTrieParts<'_>) -> AuditReport {
    let mut a = Audit::new(format!("jump(k={})", parts.k));
    let stats = check_jump(&mut a, parts);
    a.finish(stats)
}

/// Audits a [`JumpTrie`].
#[must_use]
pub fn audit_jump(trie: &JumpTrie) -> AuditReport {
    audit_jump_parts(trie.raw_parts())
}

/// Audits a [`JumpTrie`] structurally and checks prefix-expansion
/// consistency against an independently built uni-bit oracle for the
/// source `table`.
#[must_use]
pub fn audit_jump_with_table(trie: &JumpTrie, table: &RoutingTable) -> AuditReport {
    let mut a = Audit::new(format!("jump(k={})", trie.arity()));
    let stats = check_jump(&mut a, trie.raw_parts());
    let oracle = UnibitTrie::from_table(table);
    check_parity(&mut a, CheckKind::JumpConsistency, 0, table, trie, &oracle);
    a.finish(stats)
}

/// Audits a K-way [`JumpTrie`] structurally and checks every virtual
/// network's lookups against an oracle built from its own table.
#[must_use]
pub fn audit_jump_with_tables(trie: &JumpTrie, tables: &[RoutingTable]) -> AuditReport {
    let mut a = Audit::new(format!("jump(k={})", trie.arity()));
    let stats = check_jump(&mut a, trie.raw_parts());
    check_vn_parity(&mut a, tables, trie.arity(), trie);
    a.finish(stats)
}

// ---------------------------------------------------------------------------
// FlatStrideTrie
// ---------------------------------------------------------------------------

fn check_flat_stride(a: &mut Audit, parts: FlatStrideParts<'_>) -> AuditStats {
    a.declare(CheckKind::TagDecode);
    a.declare(CheckKind::ChildBounds);
    a.declare(CheckKind::LevelOrder);
    a.declare(CheckKind::LeafCompleteness);
    a.declare(CheckKind::Invariants);
    let mut stats = AuditStats {
        nodes: parts.entries.len() as u64,
        levels: parts.strides.len() as u64,
        arity: 1,
        ..AuditStats::default()
    };
    let schedule_ok = !parts.strides.is_empty()
        && parts.strides.iter().all(|&s| (1..=8).contains(&s))
        && parts.strides.iter().map(|&s| u32::from(s)).sum::<u32>() == 32;
    if !schedule_ok {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            format!("invalid stride schedule {:?} (strides must be 1..=8 and sum to 32)", parts.strides),
        );
        return stats;
    }
    let levels = parts.strides.len();
    if parts.level_offsets.len() != levels + 1 {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            format!(
                "{} level offsets for a {levels}-level schedule (want {})",
                parts.level_offsets.len(),
                levels + 1
            ),
        );
        return stats;
    }
    let mut ok = parts.level_offsets[0] == 0;
    if !ok {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::level(0),
            format!("first level offset is {} instead of 0", parts.level_offsets[0]),
        );
    }
    for (level, pair) in parts.level_offsets.windows(2).enumerate() {
        if pair[1] < pair[0] {
            a.error(
                CheckKind::LevelOrder,
                Coordinates::level(level),
                format!("level offsets decrease: {} then {}", pair[0], pair[1]),
            );
            ok = false;
        }
    }
    if *parts.level_offsets.last().expect("non-empty") != parts.entries.len() as u64 {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            format!(
                "level offsets end at {} but the entry array holds {}",
                parts.level_offsets.last().expect("non-empty"),
                parts.entries.len()
            ),
        );
        ok = false;
    }
    if !ok {
        return stats;
    }
    #[allow(clippy::cast_possible_truncation)]
    let offsets: Vec<usize> = parts.level_offsets.iter().map(|&o| o as usize).collect();
    // Only trailing levels may be empty (a table that never reaches the
    // deep strides leaves them as zero-width slabs).
    let mut seen_empty = false;
    for level in 0..levels {
        let width = 1usize << parts.strides[level];
        let size = offsets[level + 1] - offsets[level];
        if size == 0 {
            seen_empty = true;
        } else if seen_empty {
            a.error(
                CheckKind::LevelOrder,
                Coordinates::level(level),
                "non-empty slab after an empty one (levels must drain monotonically)",
            );
        }
        if !size.is_multiple_of(width) {
            a.error(
                CheckKind::LevelOrder,
                Coordinates::level(level),
                format!("slab of {size} entries is not a multiple of the 2^{} node width", parts.strides[level]),
            );
        }
    }
    if offsets[1] != 1usize << parts.strides[0] {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::level(0),
            format!(
                "level 0 holds {} entries instead of exactly one root node of {}",
                offsets[1],
                1usize << parts.strides[0]
            ),
        );
    }
    let mut children_per_level = vec![0usize; levels];
    let mut nhi_count = 0u64;
    for level in 0..levels {
        let (lo, hi) = (offsets[level], offsets[level + 1]);
        for (off, &word) in parts.entries[lo..hi].iter().enumerate() {
            let abs = lo + off;
            if word >> 48 != 0 {
                a.error(
                    CheckKind::TagDecode,
                    Coordinates::word(level, abs, word),
                    "entry has non-zero bits above the NHI field",
                );
            }
            #[allow(clippy::cast_possible_truncation)]
            let code = (word >> flat::NHI_SHIFT) as u16;
            if code > MAX_NHI_CODE {
                a.error(
                    CheckKind::TagDecode,
                    Coordinates::word(level, abs, word),
                    format!("NHI code {code} exceeds the encodable range 0..={MAX_NHI_CODE}"),
                );
            }
            if code != 0 {
                nhi_count += 1;
            }
            let child = word & u64::from(u32::MAX);
            if child == 0 {
                continue;
            }
            if level + 1 >= levels {
                a.error(
                    CheckKind::LeafCompleteness,
                    Coordinates::word(level, abs, word),
                    "entry in the deepest stride level still has a child",
                );
                continue;
            }
            children_per_level[level] += 1;
            #[allow(clippy::cast_possible_truncation)]
            let base = (child - 1) as usize;
            let width = 1usize << parts.strides[level + 1];
            let (nlo, nhi_bound) = (offsets[level + 1], offsets[level + 2]);
            if base < nlo || base + width > nhi_bound {
                a.error(
                    CheckKind::ChildBounds,
                    Coordinates::word(level, abs, word),
                    format!("child block {base}..{} outside next slab {nlo}..{nhi_bound}", base + width),
                );
            } else if !(base - nlo).is_multiple_of(width) {
                a.error(
                    CheckKind::ChildBounds,
                    Coordinates::word(level, abs, word),
                    format!("child base {base} not aligned to the 2^{} block width", parts.strides[level + 1]),
                );
            }
        }
    }
    stats.nhi_entries = nhi_count;
    for (level, &children) in children_per_level.iter().enumerate().take(levels - 1) {
        let width = 1usize << parts.strides[level + 1];
        let next_size = offsets[level + 2] - offsets[level + 1];
        if children * width != next_size {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::level(level),
                format!(
                    "{children} children should open {} entries in the next level, found {next_size}",
                    children * width
                ),
            );
        }
    }
    // Reachability over node blocks.
    a.declare(CheckKind::Reachability);
    let mut visited = vec![false; parts.entries.len()];
    let mut queue: Vec<(usize, usize)> = Vec::new();
    if !parts.entries.is_empty() {
        queue.push((0, 0)); // (block base, level)
    }
    let mut reached = 0usize;
    while let Some((base, level)) = queue.pop() {
        let width = 1usize << parts.strides[level];
        if base + width > parts.entries.len() || visited[base] {
            continue;
        }
        for slot in 0..width {
            visited[base + slot] = true;
        }
        reached += width;
        if level + 1 >= levels {
            continue;
        }
        for slot in 0..width {
            let child = parts.entries[base + slot] & u64::from(u32::MAX);
            if child != 0 {
                #[allow(clippy::cast_possible_truncation)]
                queue.push(((child - 1) as usize, level + 1));
            }
        }
    }
    let dead = (parts.entries.len() - reached) as u64;
    stats.dead_words = dead;
    if dead > 0 {
        a.info(
            CheckKind::Reachability,
            Coordinates::none(),
            format!("{dead} of {} entries unreachable from the root block", parts.entries.len()),
        );
    }
    stats
}

/// Audits a [`FlatStrideTrie`]'s raw encoding.
#[must_use]
pub fn audit_flat_stride_parts(parts: FlatStrideParts<'_>) -> AuditReport {
    let mut a = Audit::new(format!("flat_stride({:?})", parts.strides));
    let stats = check_flat_stride(&mut a, parts);
    a.finish(stats)
}

/// Audits a [`FlatStrideTrie`].
#[must_use]
pub fn audit_flat_stride(trie: &FlatStrideTrie) -> AuditReport {
    audit_flat_stride_parts(trie.raw_parts())
}

/// Audits a [`FlatStrideTrie`] structurally and checks lookup parity
/// against an independently built uni-bit oracle for `table`.
#[must_use]
pub fn audit_flat_stride_with_table(trie: &FlatStrideTrie, table: &RoutingTable) -> AuditReport {
    let mut a = Audit::new(format!("flat_stride({:?})", trie.strides()));
    let stats = check_flat_stride(&mut a, trie.raw_parts());
    let oracle = UnibitTrie::from_table(table);
    check_parity(&mut a, CheckKind::OracleParity, 0, table, trie, &oracle);
    a.finish(stats)
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
                format!("leaf-pushed node {} reached twice (cycle or shared subtree)", id.raw()),
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
                        format!("leaf-pushed internal node at depth {depth} exceeds the address width"),
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

/// Audits a [`UnibitTrie`]: arena accounting (via its own invariant
/// check) plus an independent depth-bounded traversal.
#[must_use]
pub fn audit_unibit(trie: &UnibitTrie) -> AuditReport {
    let mut a = Audit::new("unibit");
    a.declare(CheckKind::Invariants);
    a.declare(CheckKind::LevelOrder);
    if !trie.check_invariants() {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            "arena accounting does not match reachability from the root",
        );
    }
    let mut max_depth = 0u32;
    let mut nodes = 0u64;
    for (_, depth) in trie.walk() {
        nodes += 1;
        max_depth = max_depth.max(u32::from(depth));
    }
    if max_depth > 32 {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            format!("trie depth {max_depth} exceeds the 32-bit address width"),
        );
    }
    a.finish(AuditStats {
        nodes,
        levels: u64::from(max_depth) + 1,
        arity: 1,
        ..AuditStats::default()
    })
}

/// Audits a [`MergedTrie`]: presence/subtree accounting via its own
/// invariant check, plus arity bounds.
#[must_use]
pub fn audit_merged(trie: &MergedTrie) -> AuditReport {
    let mut a = Audit::new(format!("merged(k={})", trie.arity()));
    a.declare(CheckKind::Invariants);
    a.declare(CheckKind::NhiVector);
    if !trie.check_invariants() {
        a.error(
            CheckKind::Invariants,
            Coordinates::none(),
            "presence masks, subtree counters, and reachability disagree",
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
    check_vn_parity(&mut a, tables, trie.arity(), trie);
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
pub fn parity_probes(table: &RoutingTable) -> Vec<u32> {
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

/// Walks virtual network `vn` of `trie` and the single-table `oracle` over
/// the parity probes of `table`, recording every disagreement under
/// `check`.
fn check_parity(
    a: &mut Audit,
    check: CheckKind,
    vn: usize,
    table: &RoutingTable,
    trie: &impl LookupBackend,
    oracle: &impl LookupBackend,
) {
    a.declare(check);
    for ip in parity_probes(table) {
        let (got, want) = (trie.lookup_vn(vn, ip), oracle.lookup_vn(0, ip));
        if got != want {
            a.error(
                check,
                Coordinates {
                    level: u32::try_from(vn).ok(),
                    offset: Some(u64::from(ip)),
                    word: None,
                },
                format!("vn {vn} lookup({ip:#010x}) = {got:?}, oracle says {want:?}"),
            );
        }
    }
}

/// Per-VNID parity: `tables` must cover the structure's `arity` exactly,
/// and every virtual network's lookups must match an oracle built from
/// that network's own table alone.
fn check_vn_parity(
    a: &mut Audit,
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
    for (vn, table) in tables.iter().enumerate() {
        let oracle = UnibitTrie::from_table(table);
        check_parity(a, CheckKind::OracleParity, vn, table, trie, &oracle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::TableSpec;
    use vr_trie::StrideTrie;

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
    fn well_formed_stride_is_clean() {
        let t = sample();
        let stride = StrideTrie::from_table(&t, &[8, 8, 8, 8]).unwrap();
        let flat = FlatStrideTrie::from_stride(&stride);
        let report = audit_flat_stride_with_table(&flat, &t);
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn empty_structures_are_clean() {
        let empty = UnibitTrie::new();
        assert!(audit_unibit(&empty).is_clean());
        assert!(audit_jump(&JumpTrie::from_unibit(&empty)).is_clean());
        let pushed = LeafPushedTrie::from_unibit(&empty);
        assert!(audit_leaf_pushed(&pushed, &[RoutingTable::new()]).is_clean());
    }

    /// A table with a level-2 block (10.1.1.0/24 has a /26 inside), two
    /// level-1 blocks, and more than one NHI vector.
    fn deep_sample() -> RoutingTable {
        table("0.0.0.0/0 9\n10.1.0.0/16 2\n10.1.1.0/24 3\n10.1.1.64/26 4\n192.168.0.0/17 5\n")
    }

    /// The deep sample's jump trie with its tail and NHI slab passed
    /// through `mutate`, audited.
    fn audit_mutated(mutate: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>, &mut Vec<u16>)) -> AuditReport {
        let jump = JumpTrie::from_table(&deep_sample());
        let p = jump.raw_parts();
        let (mut root, mut tail, mut nhis) = (p.root.to_vec(), p.tail.to_vec(), p.nhis.to_vec());
        mutate(&mut root, &mut tail, &mut nhis);
        audit_jump(&JumpTrie::from_raw_parts(root, tail, nhis, p.k))
    }

    fn failed_checks(report: &AuditReport) -> Vec<CheckKind> {
        report.checks.iter().filter(|c| !c.passed).map(|c| c.check).collect()
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

    #[test]
    fn paper_scale_structures_are_clean() {
        let t = TableSpec::paper_worst_case(23).generate().unwrap();
        let unibit = UnibitTrie::from_table(&t);
        assert!(audit_unibit(&unibit).is_clean());
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
}
