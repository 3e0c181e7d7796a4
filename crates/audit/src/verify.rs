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
//! reported without failing — wasted memory cannot corrupt a lookup.

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

/// Sub-slab levels below the DIR-16 root: it already consumed 16 of the
/// 32 address bits, so at most 16 word levels remain.
const MAX_SUB_LEVELS: usize = 16;

/// Validates a level-offset array against its word array: starts at zero,
/// strictly increases (every live level is non-empty), ends exactly at
/// `words_len`, and stays within [`MAX_SUB_LEVELS`]. Returns the offsets
/// as `usize` when usable for slab indexing, `None` when traversal over
/// them would be unsound.
fn check_level_offsets(a: &mut Audit, offsets: &[u32], words_len: usize) -> Option<Vec<usize>> {
    a.declare(CheckKind::LevelOrder);
    if offsets.is_empty() {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            "level offsets are empty (missing end sentinel)",
        );
        return None;
    }
    if offsets[0] != 0 {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::level(0),
            format!("first level offset is {} instead of 0", offsets[0]),
        );
        return None;
    }
    let mut ok = true;
    for (level, pair) in offsets.windows(2).enumerate() {
        if pair[1] <= pair[0] {
            a.error(
                CheckKind::LevelOrder,
                Coordinates::level(level),
                format!(
                    "level offsets not strictly increasing: {} then {}",
                    pair[0], pair[1]
                ),
            );
            ok = false;
        }
    }
    let last = *offsets.last().expect("non-empty") as usize;
    if last != words_len {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            format!("level offsets end at {last} but the word array holds {words_len}"),
        );
        ok = false;
    }
    let levels = offsets.len() - 1;
    if levels > MAX_SUB_LEVELS {
        a.error(
            CheckKind::LevelOrder,
            Coordinates::none(),
            format!("{levels} levels exceed the {MAX_SUB_LEVELS}-level address-width bound"),
        );
        ok = false;
    }
    ok.then(|| offsets.iter().map(|&o| o as usize).collect())
}

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

/// Checks every word of one binary level slab and counts internals.
/// Internal words must point at an even-aligned pair inside the next
/// level's slab; leaf words must name an existing NHI vector.
fn check_binary_slab(
    a: &mut Audit,
    words: &[u32],
    offsets: &[usize],
    level: usize,
    leaf_slots: Option<usize>,
) -> (usize, usize) {
    let levels = offsets.len() - 1;
    let (lo, hi) = (offsets[level], offsets[level + 1]);
    let mut internal = 0usize;
    let mut leaves = 0usize;
    for (off, &word) in words[lo..hi].iter().enumerate() {
        let abs = lo + off;
        if word & jump::LEAF_BIT != 0 {
            leaves += 1;
            let slot = (word & jump::PAYLOAD_MASK) as usize;
            if let Some(count) = leaf_slots {
                if slot >= count {
                    a.error(
                        CheckKind::NhiVector,
                        Coordinates::word(level, abs, u64::from(word)),
                        format!("leaf references NHI vector {slot} of {count}"),
                    );
                }
            }
            continue;
        }
        internal += 1;
        if level + 1 >= levels {
            a.error(
                CheckKind::LeafCompleteness,
                Coordinates::word(level, abs, u64::from(word)),
                "internal word in the deepest sub-slab level",
            );
            continue;
        }
        let base = word as usize;
        let (nlo, nhi_bound) = (offsets[level + 1], offsets[level + 2]);
        if base < nlo || base + 2 > nhi_bound {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::word(level, abs, u64::from(word)),
                format!("child pair {base}..{} outside next slab {nlo}..{nhi_bound}", base + 2),
            );
        } else if !(base - nlo).is_multiple_of(2) {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::word(level, abs, u64::from(word)),
                format!("child base {base} not pair-aligned in slab starting at {nlo}"),
            );
        }
    }
    (internal, leaves)
}

/// Per-level fanout accounting: `internal` nodes in level `l` must open
/// exactly `2 × internal` words in level `l + 1`.
fn check_binary_fanout(a: &mut Audit, offsets: &[usize], internal_per_level: &[usize]) {
    a.declare(CheckKind::ChildBounds);
    for (level, &internal) in internal_per_level.iter().enumerate() {
        if level + 2 > offsets.len() - 1 {
            break;
        }
        let next_size = offsets[level + 2] - offsets[level + 1];
        if internal * 2 != next_size {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::level(level),
                format!(
                    "{internal} internal words should open {} words in the next level, found {next_size}",
                    internal * 2
                ),
            );
        }
    }
}

/// Reachability sweep over binary level-slab words: BFS from `seeds`
/// (word indices), following in-bounds internal words only. Reports dead
/// words and stale NHI vectors as `Info`.
fn sweep_binary_reachability(
    a: &mut Audit,
    words: &[u32],
    seeds: impl IntoIterator<Item = usize>,
    leaf_slots: usize,
    pre_referenced_slots: &[bool],
) -> (u64, u64) {
    a.declare(CheckKind::Reachability);
    let mut visited = vec![false; words.len()];
    let mut referenced = pre_referenced_slots.to_vec();
    referenced.resize(leaf_slots, false);
    let mut queue: Vec<usize> = seeds.into_iter().filter(|&i| i < words.len()).collect();
    for &i in &queue {
        visited[i] = true;
    }
    while let Some(i) = queue.pop() {
        let word = words[i];
        if word & jump::LEAF_BIT != 0 {
            let slot = (word & jump::PAYLOAD_MASK) as usize;
            if slot < leaf_slots {
                referenced[slot] = true;
            }
            continue;
        }
        let base = word as usize;
        for child in [base, base + 1] {
            if child < words.len() && !visited[child] {
                visited[child] = true;
                queue.push(child);
            }
        }
    }
    let dead = visited.iter().filter(|v| !**v).count() as u64;
    let stale = referenced.iter().filter(|r| !**r).count() as u64;
    if dead > 0 {
        a.info(
            CheckKind::Reachability,
            Coordinates::none(),
            format!("{dead} of {} words unreachable from the root", words.len()),
        );
    }
    if stale > 0 {
        a.info(
            CheckKind::Reachability,
            Coordinates::none(),
            format!("{stale} of {leaf_slots} NHI vectors referenced by no leaf"),
        );
    }
    (dead, stale)
}

// ---------------------------------------------------------------------------
// JumpTrie
// ---------------------------------------------------------------------------

fn check_jump(a: &mut Audit, parts: JumpTrieParts<'_>) -> AuditStats {
    a.declare(CheckKind::TagDecode);
    a.declare(CheckKind::ChildBounds);
    a.declare(CheckKind::LeafCompleteness);
    a.declare(CheckKind::Invariants);
    let leaf_slots = check_nhi_slab(a, parts.nhis, parts.k);
    let mut stats = AuditStats {
        nodes: (parts.root.len() + parts.words.len()) as u64,
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
    let Some(offsets) = check_level_offsets(a, parts.level_offsets, parts.words.len()) else {
        return stats;
    };
    let levels = offsets.len() - 1;
    stats.levels = 1 + levels as u64;

    // Root entries: leaves resolve immediately (aligned runs may share an
    // NHI slot — legal); internal entries must each own a distinct pair
    // in the level-0 word slab, and those pairs must partition it.
    let level0 = offsets.get(1).copied().unwrap_or(0);
    let mut pair_owner = vec![false; level0 / 2];
    let mut root_internal = 0usize;
    let mut root_referenced = vec![false; leaf_slots.unwrap_or(0)];
    for (bucket, &entry) in parts.root.iter().enumerate() {
        if entry & jump::LEAF_BIT != 0 {
            let slot = (entry & jump::PAYLOAD_MASK) as usize;
            match leaf_slots {
                Some(count) if slot >= count => a.error(
                    CheckKind::NhiVector,
                    Coordinates::word(0, bucket, u64::from(entry)),
                    format!("root entry references NHI vector {slot} of {count}"),
                ),
                Some(_) => root_referenced[slot] = true,
                None => {}
            }
            continue;
        }
        root_internal += 1;
        let base = entry as usize;
        if levels == 0 || base + 2 > level0 {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::word(0, bucket, u64::from(entry)),
                format!("root entry child pair {base}..{} outside level-0 slab of {level0}", base + 2),
            );
        } else if !base.is_multiple_of(2) {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::word(0, bucket, u64::from(entry)),
                format!("root entry child base {base} not pair-aligned"),
            );
        } else if std::mem::replace(&mut pair_owner[base / 2], true) {
            a.error(
                CheckKind::ChildBounds,
                Coordinates::word(0, bucket, u64::from(entry)),
                format!("child pair at {base} claimed by two root entries"),
            );
        }
    }
    if root_internal * 2 != level0 {
        a.error(
            CheckKind::ChildBounds,
            Coordinates::level(0),
            format!(
                "{root_internal} internal root entries should open {} level-0 words, found {level0}",
                root_internal * 2
            ),
        );
    }

    let mut internal_per_level = Vec::with_capacity(levels);
    let mut total_leaves = 0usize;
    for level in 0..levels {
        let (internal, leaves) =
            check_binary_slab(a, parts.words, &offsets, level, leaf_slots);
        internal_per_level.push(internal);
        total_leaves += leaves;
    }
    stats.leaves = total_leaves as u64;
    check_binary_fanout(a, &offsets, &internal_per_level);
    if let Some(slots) = leaf_slots {
        let seeds: Vec<usize> = parts
            .root
            .iter()
            .filter(|&&e| e & jump::LEAF_BIT == 0)
            .flat_map(|&e| [e as usize, e as usize + 1])
            .collect();
        let (dead, stale) =
            sweep_binary_reachability(a, parts.words, seeds, slots, &root_referenced);
        stats.dead_words = dead;
        stats.stale_nhi_vectors = stale;
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

    /// The sample's jump trie with its sub-slab words and NHI slab passed
    /// through `mutate`, audited.
    fn audit_mutated(mutate: impl FnOnce(&mut Vec<u32>, &mut Vec<u16>, &[u32])) -> AuditReport {
        let jump = JumpTrie::from_table(&sample());
        let p = jump.raw_parts();
        let (mut words, mut nhis) = (p.words.to_vec(), p.nhis.to_vec());
        mutate(&mut words, &mut nhis, p.level_offsets);
        audit_jump(&JumpTrie::from_raw_parts(
            p.root.to_vec(),
            words,
            p.level_offsets.to_vec(),
            nhis,
            p.k,
        ))
    }

    #[test]
    fn flipped_leaf_tag_is_caught() {
        let report = audit_mutated(|words, _, offsets| {
            // Find a leaf in a non-final sub-slab level and strip its tag:
            // the payload becomes a bogus child base.
            let above_deepest = offsets[offsets.len() - 2] as usize;
            let victim = (0..above_deepest)
                .find(|&i| words[i] & jump::LEAF_BIT != 0)
                .expect("some leaf above the deepest level");
            words[victim] &= jump::PAYLOAD_MASK;
        });
        assert!(!report.is_clean(), "tag flip must be detected");
    }

    #[test]
    fn oob_child_base_is_caught() {
        let report = audit_mutated(|words, _, _| {
            let victim = words
                .iter()
                .position(|&w| w & jump::LEAF_BIT == 0)
                .expect("some internal sub-slab word");
            words[victim] = jump::PAYLOAD_MASK; // far out of every slab
        });
        assert!(!report.is_clean(), "out-of-bounds child must be detected");
    }

    #[test]
    fn truncated_nhi_slab_is_caught() {
        let report = audit_mutated(|_, nhis, _| nhis.truncate(nhis.len() / 2));
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
