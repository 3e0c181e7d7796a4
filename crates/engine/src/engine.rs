//! One linear lookup pipeline, simulated cycle by cycle.
//!
//! A packet enters stage 0, performs one trie-level step per mapped level
//! in each stage, and exits after the last stage with its NHI resolved.
//! Latency is exactly the stage count; throughput is one packet per cycle
//! when the input is saturated — the properties the paper's architecture
//! guarantees by construction and our tests assert.
//!
//! The stage memories hold one [`LeafPushedTrie`] whatever the scheme: an
//! NV or VS engine is the arity-1 case, the merged engine the arity-K one
//! whose leaf read indexes the NHI vector by VNID (§IV-C).

use serde::{Deserialize, Serialize};
use vr_fpga::bram::BramMode;
use vr_fpga::gating::GatingPolicy;
use vr_fpga::grade::SpeedGrade;
use vr_net::table::NextHop;
use vr_net::VnId;
use vr_trie::unibit::NodeId;
use vr_trie::{LeafPushedTrie, PipelineProfile};

use crate::EngineError;

/// Electrical configuration of an engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Speed grade (selects power coefficients).
    pub grade: SpeedGrade,
    /// BRAM granularity of the stage memories.
    pub bram_mode: BramMode,
    /// Power-management policy.
    pub gating: GatingPolicy,
    /// Operating frequency in MHz (scales power and Gbps, not cycles).
    pub freq_mhz: f64,
}

impl EngineConfig {
    /// The paper's default: -2 grade, 18 Kb blocks, gating on, base clock.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            grade: SpeedGrade::Minus2,
            bram_mode: BramMode::K18,
            gating: GatingPolicy::PAPER,
            freq_mhz: SpeedGrade::Minus2.base_clock_mhz(),
        }
    }
}

/// A finished lookup leaving the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedLookup {
    /// Virtual network of the packet.
    pub vnid: VnId,
    /// Destination address looked up.
    pub dst: u32,
    /// Resolved next hop (None = no matching route).
    pub next_hop: Option<NextHop>,
    /// Pipeline latency in cycles (always the stage count here).
    pub latency_cycles: u64,
}

/// Aggregated counters of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets completed.
    pub completed: u64,
    /// Stage-cycles with a packet present.
    pub occupied_stage_cycles: u64,
    /// Actual stage-memory reads performed.
    pub memory_reads: u64,
    /// Logic energy consumed, in pJ.
    pub logic_energy_pj: f64,
    /// BRAM energy consumed, in pJ.
    pub bram_energy_pj: f64,
    /// Sum of completed-packet latencies, in cycles.
    pub total_latency_cycles: u64,
}

impl EngineStats {
    /// Measured dynamic power in watts at `freq_mhz`:
    /// energy/cycle × cycles/second.
    #[must_use]
    pub fn dynamic_power_w(&self, freq_mhz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.logic_energy_pj + self.bram_energy_pj) * 1e-12 / self.cycles as f64
            * (freq_mhz * 1e6)
    }

    /// Fraction of stage slots occupied over the run.
    #[must_use]
    pub fn occupancy(&self, stages: usize) -> f64 {
        if self.cycles == 0 || stages == 0 {
            return 0.0;
        }
        self.occupied_stage_cycles as f64 / (self.cycles as f64 * stages as f64)
    }

    /// Mean completed-packet latency in cycles.
    #[must_use]
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.total_latency_cycles as f64 / self.completed as f64
    }
}

#[derive(Debug, Clone)]
struct Slot {
    vnid: VnId,
    dst: u32,
    cursor: NodeId,
    result: Option<NextHop>,
    done: bool,
    entered_cycle: u64,
}

/// One simulated lookup pipeline.
///
/// ```
/// use vr_engine::{EngineConfig, PipelineEngine};
/// use vr_net::RoutingTable;
/// use vr_trie::pipeline_map::{MemoryLayout, PipelineProfile};
/// use vr_trie::{LeafPushedTrie, UnibitTrie};
///
/// let table: RoutingTable = "10.0.0.0/8 1\n".parse().unwrap();
/// let trie = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
/// let profile = PipelineProfile::for_trie(&trie, 28, MemoryLayout::default()).unwrap();
/// let mut engine = PipelineEngine::new(trie, &profile, EngineConfig::paper_default()).unwrap();
///
/// engine.tick(Some((0, 0x0A00_0001))); // inject a packet for 10.0.0.1
/// let done = engine.drain().pop().unwrap();
/// assert_eq!(done.next_hop, Some(1));
/// assert_eq!(done.latency_cycles, 28); // one cycle per stage
/// ```
#[derive(Debug, Clone)]
pub struct PipelineEngine {
    /// The stage memories' content: one network's trie (arity 1) behind
    /// the VNID distributor, or the K-way merged one.
    trie: LeafPushedTrie,
    /// Trie-level range handled by each stage (`None` = pass-through).
    stage_levels: Vec<Option<(u8, u8)>>,
    /// BRAM blocks backing each stage's memory.
    stage_blocks: Vec<u64>,
    slots: Vec<Option<Slot>>,
    cfg: EngineConfig,
    stats: EngineStats,
}

impl PipelineEngine {
    /// Builds an engine over `trie`: a single-network engine at arity 1
    /// (NV, or one of VS's K), the merged engine at arity K.
    ///
    /// # Errors
    /// Rejects an empty profile or non-positive frequency.
    pub fn new(
        trie: LeafPushedTrie,
        profile: &PipelineProfile,
        cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        if profile.stage_count() == 0 {
            return Err(EngineError::InvalidParameter("pipeline needs ≥1 stage"));
        }
        if !cfg.freq_mhz.is_finite() || cfg.freq_mhz <= 0.0 {
            return Err(EngineError::InvalidParameter("frequency must be positive"));
        }
        let stage_levels = profile.stages.iter().map(|s| s.levels).collect();
        let stage_blocks = profile
            .stages
            .iter()
            .map(|s| cfg.bram_mode.blocks_for(s.memory_bits()))
            .collect();
        let n = profile.stage_count();
        Ok(Self {
            trie,
            stage_levels,
            stage_blocks,
            slots: vec![None; n],
            cfg,
            stats: EngineStats::default(),
        })
    }

    /// Number of stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.slots.len()
    }

    /// The engine's counters so far.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether any packet is still in flight.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.slots.iter().any(Option::is_some)
    }

    /// Advances one clock cycle. `input` optionally injects a packet into
    /// stage 0 (at most one per cycle — the hardware has one input port).
    /// Returns the packet leaving the last stage this cycle, if any.
    pub fn tick(&mut self, input: Option<(VnId, u32)>) -> Option<CompletedLookup> {
        let n = self.stage_count();
        self.stats.cycles += 1;

        // Packet leaving the last stage completed all its work last cycle.
        let out = self.slots[n - 1].take().map(|slot| CompletedLookup {
            vnid: slot.vnid,
            dst: slot.dst,
            next_hop: slot.result,
            latency_cycles: self.stats.cycles - slot.entered_cycle,
        });
        if let Some(done) = &out {
            self.stats.completed += 1;
            self.stats.total_latency_cycles += done.latency_cycles;
        }

        // Shift everything forward, performing the destination stage's work.
        for j in (0..n - 1).rev() {
            if let Some(mut slot) = self.slots[j].take() {
                self.process_stage(&mut slot, j + 1);
                self.slots[j + 1] = Some(slot);
            }
        }

        // Inject.
        if let Some((vnid, dst)) = input {
            debug_assert!(self.slots[0].is_none(), "stage 0 must be free after shift");
            let mut slot = Slot {
                vnid,
                dst,
                cursor: NodeId::ROOT,
                result: None,
                done: false,
                entered_cycle: self.stats.cycles,
            };
            self.stats.injected += 1;
            self.process_stage(&mut slot, 0);
            self.slots[0] = Some(slot);
        }

        // Energy accounting for this cycle.
        self.account_energy();
        out
    }

    /// Runs the pipeline with no further input until it drains, returning
    /// the completed lookups in exit order.
    pub fn drain(&mut self) -> Vec<CompletedLookup> {
        let mut out = Vec::new();
        while self.is_draining() {
            if let Some(done) = self.tick(None) {
                out.push(done);
            }
        }
        out
    }

    /// Performs stage `j`'s trie-level steps on `slot`.
    fn process_stage(&mut self, slot: &mut Slot, j: usize) {
        let Some((first, last)) = self.stage_levels[j] else {
            return; // pass-through stage: no memory, no work
        };
        for level in first..=last {
            if slot.done {
                break;
            }
            // One memory read: fetch the current node's word. The cursor
            // is at trie level `level` by construction (levels are walked
            // in order across stages).
            self.stats.memory_reads += 1;
            self.stats.bram_energy_pj +=
                self.stage_blocks[j] as f64 * self.cfg.bram_mode.uw_per_block_mhz(self.cfg.grade);
            match self.trie.node_children(slot.cursor) {
                Some((l, r)) => {
                    let bit = (slot.dst >> (31 - u32::from(level))) & 1;
                    slot.cursor = if bit == 0 { l } else { r };
                }
                None => {
                    // An arity-1 engine sits behind the VNID distributor
                    // (Fig. 1), which already consumed the VNID; the
                    // merged engine indexes its leaf vector by it.
                    let vn = if self.trie.arity() == 1 { 0 } else { usize::from(slot.vnid) };
                    slot.result = self.trie.node_nhis(slot.cursor).get(vn).copied().flatten();
                    slot.done = true;
                }
            }
        }
    }

    fn account_energy(&mut self) {
        let logic_pj = self.cfg.grade.logic_stage_uw_per_mhz();
        for (j, slot) in self.slots.iter().enumerate() {
            let occupied = slot.is_some();
            if occupied {
                self.stats.occupied_stage_cycles += 1;
            }
            if occupied || !self.cfg.gating.logic_flags {
                self.stats.logic_energy_pj += logic_pj;
            }
            if !occupied && !self.cfg.gating.memory_clock_gating {
                // Ungated idle memories keep toggling: same read energy.
                self.stats.bram_energy_pj += self.stage_blocks[j] as f64
                    * self.cfg.bram_mode.uw_per_block_mhz(self.cfg.grade);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::TableSpec;
    use vr_net::RoutingTable;
    use vr_trie::pipeline_map::{MemoryLayout, PAPER_PIPELINE_STAGES};
    use vr_trie::UnibitTrie;

    fn build_engine(seed: u64, stages: usize) -> (RoutingTable, PipelineEngine) {
        let table = TableSpec::paper_worst_case(seed).generate().unwrap();
        let lp = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let profile = PipelineProfile::for_trie(&lp, stages, MemoryLayout::default()).unwrap();
        let engine =
            PipelineEngine::new(lp, &profile, EngineConfig::paper_default()).unwrap();
        (table, engine)
    }

    #[test]
    fn latency_equals_stage_count() {
        let (_, mut engine) = build_engine(1, PAPER_PIPELINE_STAGES);
        engine.tick(Some((0, 0x0A00_0001)));
        let mut done = None;
        for _ in 0..PAPER_PIPELINE_STAGES {
            done = engine.tick(None);
            if done.is_some() {
                break;
            }
        }
        let done = done.expect("packet must exit after N cycles");
        assert_eq!(done.latency_cycles, PAPER_PIPELINE_STAGES as u64);
    }

    #[test]
    fn saturated_pipeline_completes_one_per_cycle() {
        let (table, mut engine) = build_engine(2, PAPER_PIPELINE_STAGES);
        let probes: Vec<u32> = table.prefixes().map(|p| p.addr() | 7).take(500).collect();
        let mut completed = 0u64;
        for &ip in &probes {
            if engine.tick(Some((0, ip))).is_some() {
                completed += 1;
            }
        }
        completed += engine.drain().len() as u64;
        assert_eq!(completed, probes.len() as u64);
        // Steady-state throughput: cycles ≈ packets + latency.
        assert_eq!(
            engine.stats().cycles,
            probes.len() as u64 + PAPER_PIPELINE_STAGES as u64
        );
    }

    #[test]
    fn results_match_oracle() {
        let (table, mut engine) = build_engine(3, PAPER_PIPELINE_STAGES);
        let probes: Vec<u32> = table
            .prefixes()
            .map(|p| p.addr().wrapping_add(1))
            .take(300)
            .collect();
        let mut outputs = Vec::new();
        for &ip in &probes {
            if let Some(done) = engine.tick(Some((0, ip))) {
                outputs.push(done);
            }
        }
        outputs.extend(engine.drain());
        assert_eq!(outputs.len(), probes.len());
        for done in outputs {
            assert_eq!(
                done.next_hop,
                table.lookup(done.dst),
                "dst {:#010x}",
                done.dst
            );
        }
    }

    #[test]
    fn merged_engine_resolves_per_vnid() {
        let tables = vr_net::synth::FamilySpec {
            k: 3,
            prefixes_per_table: 200,
            shared_fraction: 0.5,
            seed: 4,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap();
        let pushed = vr_trie::MergedTrie::from_tables(&tables).unwrap().leaf_pushed();
        let profile = PipelineProfile::for_trie(
            &pushed,
            PAPER_PIPELINE_STAGES,
            MemoryLayout::default(),
        )
        .unwrap();
        let mut engine =
            PipelineEngine::new(pushed, &profile, EngineConfig::paper_default()).unwrap();
        let mut inputs = Vec::new();
        for (vnid, table) in tables.iter().enumerate() {
            for p in table.prefixes().take(50) {
                inputs.push((vnid as VnId, p.addr() | 3));
            }
        }
        let mut outputs = Vec::new();
        for &(vnid, dst) in &inputs {
            if let Some(done) = engine.tick(Some((vnid, dst))) {
                outputs.push(done);
            }
        }
        outputs.extend(engine.drain());
        assert_eq!(outputs.len(), inputs.len());
        for done in outputs {
            assert_eq!(
                done.next_hop,
                tables[usize::from(done.vnid)].lookup(done.dst),
                "vn {} dst {:#010x}",
                done.vnid,
                done.dst
            );
        }
    }

    #[test]
    fn gated_idle_engine_burns_no_dynamic_energy() {
        let (_, mut engine) = build_engine(5, PAPER_PIPELINE_STAGES);
        for _ in 0..100 {
            engine.tick(None);
        }
        assert_eq!(engine.stats().logic_energy_pj, 0.0);
        assert_eq!(engine.stats().bram_energy_pj, 0.0);
        assert_eq!(engine.stats().dynamic_power_w(350.0), 0.0);
    }

    #[test]
    fn ungated_idle_engine_burns_full_power() {
        let table = TableSpec::paper_worst_case(6).generate().unwrap();
        let lp = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let profile =
            PipelineProfile::for_trie(&lp, PAPER_PIPELINE_STAGES, MemoryLayout::default())
                .unwrap();
        let mut cfg = EngineConfig::paper_default();
        cfg.gating = GatingPolicy::NONE;
        let mut engine = PipelineEngine::new(lp, &profile, cfg).unwrap();
        for _ in 0..100 {
            engine.tick(None);
        }
        let stats = engine.stats();
        assert!(stats.logic_energy_pj > 0.0);
        assert!(stats.bram_energy_pj > 0.0);
        // Idle ungated logic power equals the full-pipeline logic power.
        let expected_logic_w =
            vr_fpga::logic::pipeline_logic_power_w(SpeedGrade::Minus2, PAPER_PIPELINE_STAGES, 350.0);
        let measured_logic_w = stats.logic_energy_pj * 1e-12 / stats.cycles as f64 * 350.0e6;
        assert!((measured_logic_w - expected_logic_w).abs() / expected_logic_w < 1e-9);
    }

    #[test]
    fn occupancy_reflects_duty_cycle() {
        let (table, mut engine) = build_engine(7, PAPER_PIPELINE_STAGES);
        let probes: Vec<u32> = table.prefixes().map(|p| p.addr()).take(200).collect();
        // Inject every 4th cycle: duty 0.25.
        for (i, &ip) in probes.iter().enumerate() {
            engine.tick(Some((0, ip)));
            if i < probes.len() - 1 {
                for _ in 0..3 {
                    engine.tick(None);
                }
            }
        }
        engine.drain();
        let occ = engine.stats().occupancy(PAPER_PIPELINE_STAGES);
        assert!((occ - 0.25).abs() < 0.05, "occupancy {occ}");
    }

    #[test]
    fn rejects_bad_configs() {
        let table = TableSpec::paper_worst_case(8).generate().unwrap();
        let lp = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&table));
        let profile =
            PipelineProfile::for_trie(&lp, 28, MemoryLayout::default()).unwrap();
        let mut cfg = EngineConfig::paper_default();
        cfg.freq_mhz = -1.0;
        assert!(PipelineEngine::new(lp, &profile, cfg).is_err());
    }

    #[test]
    fn stats_are_consistent() {
        let (table, mut engine) = build_engine(9, 16);
        for p in table.prefixes().take(100) {
            engine.tick(Some((0, p.addr())));
        }
        engine.drain();
        let s = engine.stats();
        assert_eq!(s.injected, 100);
        assert_eq!(s.completed, 100);
        assert!(s.memory_reads > 0);
        assert!(s.occupancy(16) > 0.0);
        assert_eq!(s.mean_latency_cycles(), 16.0);
    }
}
