//! Level→stage mapping and per-stage memory sizing (Mᵢ,ⱼ).
//!
//! Each trie level maps onto one pipeline stage with an independently
//! accessible memory (§V-D, refs. \[7\]\[11\]\[8\]). The paper fixes the
//! pipeline length at **28 stages** (§VI); a uni-bit IPv4 trie has up to 33
//! levels, so the mapping evenly assigns consecutive levels to stages when
//! levels exceed stages (and leaves trailing stages empty when shorter).
//!
//! Per-stage memory is split exactly as Fig. 4 splits it:
//! * **pointer memory** — internal nodes × pointer word width;
//! * **NHI memory** — leaves × NHI width × K (merged leaves store a K-wide
//!   next-hop vector indexed by VNID; K = 1 for non-merged engines).
//!
//! [`stride_stage_entries`] sizes the other pipeline the paper's refs.
//! \[7\]\[8\] build — one fixed-stride multi-bit level per stage — from
//! per-stage node counts, without building the trie.

use crate::{TrieError, TrieStats};
use serde::{Deserialize, Serialize};
use vr_net::RoutingTable;

/// The paper's pipeline depth N (§VI: "for all pipelines we assume a
/// length of 28 stages").
pub const PAPER_PIPELINE_STAGES: usize = 28;

/// Word widths used when translating node counts into bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// Bits per internal (pointer) node word. The paper reads 18-bit wide
    /// data per BRAM access (§V-B), which is the default here.
    pub pointer_bits: u32,
    /// Bits per next-hop entry (per virtual network).
    pub nhi_bits: u32,
}

impl Default for MemoryLayout {
    fn default() -> Self {
        Self {
            pointer_bits: 18,
            nhi_bits: 8,
        }
    }
}

/// Memory profile of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage index (0-based).
    pub stage: usize,
    /// Trie levels mapped to this stage: `[first, last]` inclusive, or
    /// `None` for an empty trailing stage.
    pub levels: Option<(u8, u8)>,
    /// Internal nodes stored in this stage.
    pub pointer_nodes: usize,
    /// Leaves stored in this stage.
    pub leaf_nodes: usize,
    /// Pointer memory in bits.
    pub pointer_bits: u64,
    /// NHI memory in bits (already multiplied by K for merged engines).
    pub nhi_bits: u64,
}

impl StageProfile {
    /// Total memory of the stage (Mᵢ,ⱼ) in bits.
    #[must_use]
    pub fn memory_bits(&self) -> u64 {
        self.pointer_bits + self.nhi_bits
    }
}

/// Memory profile of a whole lookup pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineProfile {
    /// Per-stage profiles, length = configured stage count.
    pub stages: Vec<StageProfile>,
    /// K for merged engines (NHI width multiplier); 1 otherwise.
    pub nhi_width_multiplier: usize,
    /// Word widths used.
    pub layout: MemoryLayout,
}

impl PipelineProfile {
    /// Profile of the pipeline storing the leaf-pushed trie `stats`
    /// describes, which need not be built: an NV or per-VS-engine
    /// pipeline at `nhi_width_multiplier` 1, a merged one (leaves carry
    /// K-wide NHI vectors) at K.
    ///
    /// # Errors
    /// Rejects zero stages.
    pub fn from_stats(
        stats: &TrieStats,
        nhi_width_multiplier: usize,
        n_stages: usize,
        layout: MemoryLayout,
    ) -> Result<Self, TrieError> {
        if n_stages == 0 {
            return Err(TrieError::ZeroStages);
        }
        let depth = stats.depth();
        let mut stages = Vec::with_capacity(n_stages);
        for stage in 0..n_stages {
            let first = stage * depth / n_stages;
            let last = (stage + 1) * depth / n_stages;
            let (mut pointer_nodes, mut leaf_nodes) = (0usize, 0usize);
            for level in first..last {
                pointer_nodes += stats.internal_at_level(level);
                leaf_nodes += stats.leaves_at_level(level);
            }
            let levels = if first < last {
                Some((first as u8, (last - 1) as u8))
            } else {
                None
            };
            stages.push(StageProfile {
                stage,
                levels,
                pointer_nodes,
                leaf_nodes,
                pointer_bits: pointer_nodes as u64 * u64::from(layout.pointer_bits),
                nhi_bits: leaf_nodes as u64
                    * u64::from(layout.nhi_bits)
                    * nhi_width_multiplier as u64,
            });
        }
        Ok(Self {
            stages,
            nhi_width_multiplier,
            layout,
        })
    }

    /// Number of stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total pointer memory across stages, in bits (Fig. 4 left axis).
    #[must_use]
    pub fn pointer_memory_bits(&self) -> u64 {
        self.stages.iter().map(|s| s.pointer_bits).sum()
    }

    /// Total NHI memory across stages, in bits (Fig. 4 right axis).
    #[must_use]
    pub fn nhi_memory_bits(&self) -> u64 {
        self.stages.iter().map(|s| s.nhi_bits).sum()
    }

    /// Total memory (pointer + NHI) in bits.
    #[must_use]
    pub fn total_memory_bits(&self) -> u64 {
        self.pointer_memory_bits() + self.nhi_memory_bits()
    }

    /// Per-stage total memory in bits, Mᵢ,ⱼ for j = 0..N.
    #[must_use]
    pub fn per_stage_memory_bits(&self) -> Vec<u64> {
        self.stages.iter().map(StageProfile::memory_bits).collect()
    }
}

/// Entries (memory words) per stage of the fixed-stride multi-bit trie
/// that controlled prefix expansion (ref. \[16\]) builds over `table`,
/// one stride per stage.
///
/// Stage 0 is one root node of `2^s₀` entries. A prefix longer than the
/// `b_l` bits consumed before stage `l > 0` descends through stage `l`,
/// and prefixes sharing their top `b_l` bits share the node there, so the
/// stage holds one `2^s_l`-entry node per distinct top-`b_l`-bit value
/// among the prefixes longer than `b_l`. Prefixes that end inside a
/// stride expand into entries of a node that already exists.
///
/// # Errors
/// Strides must be non-zero, each ≤ 8 (hardware keeps per-stage memory
/// words addressable), and sum to exactly 32.
pub fn stride_stage_entries(table: &RoutingTable, strides: &[u8]) -> Result<Vec<u64>, TrieError> {
    if strides.is_empty() {
        return Err(TrieError::InvalidParameter("stride schedule is empty"));
    }
    if strides.iter().any(|&s| s == 0 || s > 8) {
        return Err(TrieError::InvalidParameter("each stride must be 1..=8"));
    }
    if strides.iter().map(|&s| u32::from(s)).sum::<u32>() != 32 {
        return Err(TrieError::InvalidParameter("strides must sum to 32"));
    }
    let mut consumed = 0u8;
    let mut entries = Vec::with_capacity(strides.len());
    for &stride in strides {
        let nodes = if consumed == 0 {
            1
        } else {
            let mut tops: Vec<u32> = table
                .prefixes()
                .filter(|p| p.len() > consumed)
                .map(|p| p.addr() >> (32 - consumed))
                .collect();
            tops.sort_unstable();
            tops.dedup();
            tops.len() as u64
        };
        entries.push(nodes << stride);
        consumed += stride;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergedTrie;
    use crate::LeafPushedTrie;
    use vr_net::synth::{FamilySpec, TableSpec};

    fn single_profile(seed: u64, n_stages: usize) -> (LeafPushedTrie, PipelineProfile) {
        let table = TableSpec::paper_worst_case(seed).generate().unwrap();
        let lp = MergedTrie::from_tables(std::slice::from_ref(&table))
            .unwrap()
            .leaf_pushed();
        let profile =
            PipelineProfile::from_stats(&lp.stats(), lp.arity(), n_stages, MemoryLayout::default())
                .unwrap();
        (lp, profile)
    }

    #[test]
    fn zero_stages_is_rejected() {
        let (lp, _) = single_profile(1, 28);
        assert!(matches!(
            PipelineProfile::from_stats(&lp.stats(), lp.arity(), 0, MemoryLayout::default()),
            Err(TrieError::ZeroStages)
        ));
    }

    #[test]
    fn all_nodes_are_assigned_exactly_once() {
        let (lp, profile) = single_profile(5, PAPER_PIPELINE_STAGES);
        let pointer_total: usize = profile.stages.iter().map(|s| s.pointer_nodes).sum();
        let leaf_total: usize = profile.stages.iter().map(|s| s.leaf_nodes).sum();
        assert_eq!(pointer_total, lp.internal_count());
        assert_eq!(leaf_total, lp.leaf_count());
    }

    #[test]
    fn memory_accounts_match_node_counts() {
        let (lp, profile) = single_profile(6, PAPER_PIPELINE_STAGES);
        let layout = MemoryLayout::default();
        assert_eq!(
            profile.pointer_memory_bits(),
            lp.internal_count() as u64 * u64::from(layout.pointer_bits)
        );
        assert_eq!(
            profile.nhi_memory_bits(),
            lp.leaf_count() as u64 * u64::from(layout.nhi_bits)
        );
        assert_eq!(
            profile.total_memory_bits(),
            profile.pointer_memory_bits() + profile.nhi_memory_bits()
        );
    }

    #[test]
    fn more_stages_than_levels_leaves_trailing_stages_empty() {
        let (_, profile) = single_profile(7, 64);
        assert_eq!(profile.stage_count(), 64);
        let empty = profile.stages.iter().filter(|s| s.levels.is_none()).count();
        assert!(empty >= 64 - 33, "at most 33 levels exist for IPv4");
        for s in profile.stages.iter().filter(|s| s.levels.is_none()) {
            assert_eq!(s.memory_bits(), 0);
        }
    }

    #[test]
    fn fewer_stages_than_levels_covers_all_levels() {
        let (lp, profile) = single_profile(8, 4);
        let covered: usize = profile
            .stages
            .iter()
            .filter_map(|s| s.levels)
            .map(|(a, b)| usize::from(b) - usize::from(a) + 1)
            .sum();
        assert_eq!(covered, lp.stats().depth());
        // Ranges must be contiguous and non-overlapping.
        let mut next = 0u8;
        for s in &profile.stages {
            if let Some((a, b)) = s.levels {
                assert_eq!(a, next);
                assert!(b >= a);
                next = b + 1;
            }
        }
    }

    #[test]
    fn merged_profile_multiplies_nhi_width_by_k() {
        let tables = FamilySpec {
            k: 4,
            prefixes_per_table: 300,
            shared_fraction: 0.5,
            seed: 9,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap();
        let pushed = MergedTrie::from_tables(&tables).unwrap().leaf_pushed();
        let profile = PipelineProfile::from_stats(
            &pushed.stats(),
            pushed.arity(),
            PAPER_PIPELINE_STAGES,
            MemoryLayout::default(),
        )
        .unwrap();
        assert_eq!(profile.nhi_width_multiplier, 4);
        assert_eq!(
            profile.nhi_memory_bits(),
            pushed.leaf_count() as u64 * 8 * 4
        );
    }

    #[test]
    fn stride_entries_of_hand_tables() {
        let entries = |text: &str, strides: &[u8]| {
            let table: RoutingTable = text.parse().unwrap();
            stride_stage_entries(&table, strides).unwrap()
        };
        // A default route expands into the root node and opens nothing.
        assert_eq!(entries("0.0.0.0/0 1\n", &[8; 4]), [256, 0, 0, 0]);
        assert_eq!(entries("", &[4; 8]), [16, 0, 0, 0, 0, 0, 0, 0]);
        // A /6 inside the first 8-bit stride expands within stage 0.
        assert_eq!(entries("4.0.0.0/6 7\n", &[8; 4]), [256, 0, 0, 0]);
        // The /8 fills root entries; the /11 opens one stage-1 node.
        assert_eq!(
            entries("10.0.0.0/8 1\n10.32.0.0/11 2\n", &[8; 4]),
            [256, 256, 0, 0]
        );
        // A lone host route: one 2-entry node on every uni-bit stage.
        assert_eq!(entries("1.2.3.4/32 1\n", &[1; 32]), vec![2; 32]);
    }

    #[test]
    fn stride_schedule_is_validated() {
        let table: RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
        for bad in [
            &[][..],
            &[0, 32],
            &[16, 16],
            &[8, 8, 8, 4],
            &[8, 8, 8, 8, 1],
        ] {
            assert!(
                matches!(
                    stride_stage_entries(&table, bad),
                    Err(TrieError::InvalidParameter(_))
                ),
                "{bad:?}"
            );
        }
        assert_eq!(
            stride_stage_entries(&table, &[6, 6, 6, 6, 4, 4])
                .unwrap()
                .len(),
            6
        );
    }
}
