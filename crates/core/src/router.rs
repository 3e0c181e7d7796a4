//! The three router organizations, driven by a shared traffic source.
//!
//! * **NV**: K single-table engines, each on its own device; packets are
//!   pre-distributed per network (Assumption 3: distributor energy is
//!   negligible and not modeled).
//! * **VS**: K single-table engines space-sharing one device behind a
//!   VNID distributor — structurally identical traffic handling to NV;
//!   the difference is electrical (one device's static power) and is
//!   accounted in `vr-fpga`/`vr-power`, not here.
//! * **VM**: one merged engine; the merged stream enters directly and the
//!   leaf NHI vector is indexed by VNID.
//!
//! Every completed lookup is checked against the `vr-net` linear-scan
//! oracle, `RoutingTable::lookup`; a run's [`SimReport`] counts the
//! agreements.

use crate::engine::{EngineConfig, EngineStats, PipelineEngine};
use crate::PowerError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vr_fpga::{timing, SchemeKind};
use vr_net::{RoutingTable, TrafficGenerator};
use vr_trie::MergedTrie;

/// How packets arrive at the router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// One shared line: at most one packet per cycle arrives with the
    /// given probability (1.0 = saturated line). This is the paper's
    /// setting — the K networks *share* the offered load (µᵢ weights live
    /// in the traffic generator).
    SharedLine {
        /// Per-cycle arrival probability in `[0, 1]`.
        offered_load: f64,
    },
    /// Bursty shared line: with the given probability a whole burst
    /// arrives in one cycle. Consecutive packets of a burst can address
    /// the same engine, so the VNID distributor (Fig. 1) must queue —
    /// this is the arrival model that exercises queueing delay.
    Bursty {
        /// Per-cycle burst-arrival probability in `[0, 1]`.
        burst_probability: f64,
        /// Packets per burst (≥ 1).
        burst_len: usize,
    },
    /// Every engine receives its own packet every cycle — measures
    /// aggregate capacity (the separate scheme's K× line rate).
    PerEngineSaturation,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Which organization to simulate.
    pub organization: SchemeKind,
    /// Pipeline stages per engine (the paper uses 28).
    pub stages: usize,
    /// Engine electrical configuration.
    pub engine: EngineConfig,
    /// Arrival model.
    pub arrivals: ArrivalModel,
    /// Seed for the arrival process.
    pub arrival_seed: u64,
}

/// A router organization under simulation.
pub struct VirtualRouterSim {
    engines: Vec<PipelineEngine>,
    tables: Vec<RoutingTable>,
    cfg: SimConfig,
}

impl VirtualRouterSim {
    /// Builds the organization for `tables` (one per virtual network).
    ///
    /// # Errors
    /// Propagates trie/merge construction errors and rejects empty input
    /// or zero stages.
    pub fn new(tables: Vec<RoutingTable>, cfg: SimConfig) -> Result<Self, PowerError> {
        if tables.is_empty() {
            return Err(PowerError::InvalidParameter("need at least one table"));
        }
        let engines = engines(&tables, &cfg)?;
        Ok(Self {
            engines,
            tables,
            cfg,
        })
    }

    /// Applies a routing update to the *oracle tables only*. The engines
    /// keep forwarding from their build-time snapshot — exactly the
    /// stale-data-plane window between a control-plane update and the
    /// hardware write-back (the problem paper ref. \[6\] attacks). Runs
    /// after this will count oracle mismatches until
    /// [`VirtualRouterSim::rebuild_engines`] is called.
    pub fn apply_update(&mut self, update: &vr_net::RouteUpdate) {
        update.apply_to(&mut self.tables);
    }

    /// Rebuilds the lookup engines from the current (updated) tables —
    /// the hardware write-back ending the staleness window. Engine
    /// counters restart; in-flight packets are discarded.
    ///
    /// # Errors
    /// Propagates trie/engine construction errors.
    pub fn rebuild_engines(&mut self) -> Result<(), PowerError> {
        self.engines = engines(&self.tables, &self.cfg)?;
        Ok(())
    }

    /// Runs the simulation for `packets` offered packets drawn from
    /// `traffic`, then drains the pipelines. Every completed lookup is
    /// checked against the linear-scan oracle.
    ///
    /// # Errors
    /// Rejects an invalid offered load or a traffic source whose VNID
    /// range exceeds the table count.
    pub fn run(
        &mut self,
        traffic: &mut TrafficGenerator,
        packets: u64,
    ) -> Result<SimReport, PowerError> {
        // A shared line is a bursty one whose bursts are one packet long.
        let bursts = match self.cfg.arrivals {
            ArrivalModel::SharedLine { offered_load } => Some((offered_load, 1)),
            ArrivalModel::Bursty {
                burst_probability,
                burst_len,
            } => Some((burst_probability, burst_len)),
            ArrivalModel::PerEngineSaturation => None,
        };
        if let Some((probability, len)) = bursts {
            if len == 0 {
                return Err(PowerError::InvalidParameter("burst length must be ≥ 1"));
            }
            if !(0.0..=1.0).contains(&probability) {
                return Err(PowerError::InvalidParameter("arrival probability must be in [0, 1]"));
            }
            if probability == 0.0 && packets > 0 {
                return Err(PowerError::InvalidParameter(
                    "zero arrival probability can never deliver packets",
                ));
            }
        }
        let mut rng = SmallRng::seed_from_u64(self.cfg.arrival_seed);
        let mut offered = 0u64;
        let (mut correct, mut mismatches) = (0u64, 0u64);
        // Engines accumulate across runs (energy accounting is lifetime-
        // based); the report's packet/cycle counts are per-run deltas.
        let cycles = |engines: &[PipelineEngine]| engines.iter().map(|e| e.stats().cycles).max();
        let completed = |engines: &[PipelineEngine]| -> u64 {
            engines.iter().map(|e| e.stats().completed).sum()
        };
        let (cycles_before, completed_before) = (cycles(&self.engines), completed(&self.engines));
        // The VNID distributor's per-engine queues (Fig. 1). Entries carry
        // their enqueue cycle for queueing-delay accounting.
        let mut queues: Vec<VecDeque<(vr_net::VnId, u32, u64)>> =
            vec![VecDeque::new(); self.engines.len()];
        let mut cycle = 0u64;
        let mut max_queue_depth = 0usize;
        let mut total_queue_wait = 0u64;

        loop {
            // Decide this cycle's arrivals into the distributor queues.
            match bursts {
                Some((probability, len)) if offered < packets => {
                    if rng.gen_range(0.0..1.0) < probability {
                        let burst = (len as u64).min(packets - offered);
                        for p in (0..burst).map(|_| traffic.next_packet()) {
                            let engine_idx = match self.cfg.organization {
                                SchemeKind::Merged => 0,
                                _ => usize::from(p.vnid),
                            };
                            let queue = queues.get_mut(engine_idx).ok_or(
                                PowerError::InvalidParameter("traffic VNID exceeds table count"),
                            )?;
                            queue.push_back((p.vnid, p.dst, cycle));
                        }
                        offered += burst;
                    }
                }
                None => {
                    for (engine_idx, queue) in queues.iter_mut().enumerate() {
                        if offered >= packets {
                            break;
                        }
                        let p = match self.cfg.organization {
                            // The merged engine carries the whole mixed
                            // stream; NV/VS engines each stay busy with
                            // their own network's traffic.
                            SchemeKind::Merged => traffic.next_packet(),
                            _ => traffic.packet_for(engine_idx as vr_net::VnId),
                        };
                        offered += 1;
                        queue.push_back((p.vnid, p.dst, cycle));
                    }
                }
                Some(_) => {}
            }
            max_queue_depth = max_queue_depth.max(queues.iter().map(VecDeque::len).max().unwrap_or(0));

            // Each engine accepts one queued packet per cycle.
            let inputs: Vec<Option<(vr_net::VnId, u32)>> = queues
                .iter_mut()
                .map(|q| {
                    q.pop_front().map(|(vnid, dst, enq)| {
                        total_queue_wait += cycle - enq;
                        (vnid, dst)
                    })
                })
                .collect();
            self.step(&inputs, &mut correct, &mut mismatches);
            cycle += 1;

            if offered >= packets
                && queues.iter().all(VecDeque::is_empty)
                && !self.engines.iter().any(PipelineEngine::is_draining)
            {
                break;
            }
        }

        Ok(SimReport {
            cycles: cycles(&self.engines).unwrap_or(0) - cycles_before.unwrap_or(0),
            offered,
            completed: completed(&self.engines) - completed_before,
            correct,
            mismatches,
            engines: self.engines.len(),
            stages: self.cfg.stages,
            freq_mhz: self.cfg.engine.freq_mhz,
            max_queue_depth,
            total_queue_wait_cycles: total_queue_wait,
            per_engine: self.engines.iter().map(|e| *e.stats()).collect(),
        })
    }

    fn step(
        &mut self,
        inputs: &[Option<(vr_net::VnId, u32)>],
        correct: &mut u64,
        mismatches: &mut u64,
    ) {
        for (engine, input) in self.engines.iter_mut().zip(inputs) {
            if let Some(done) = engine.tick(*input) {
                let expected = self.tables[usize::from(done.vnid)].lookup(done.dst);
                if done.next_hop == expected {
                    *correct += 1;
                } else {
                    *mismatches += 1;
                }
            }
        }
    }
}

/// The organization's engines: the paper's K engines vs. one, that is K
/// tries of arity 1 or one of arity K. Everything after the trie build
/// is scheme-blind.
fn engines(tables: &[RoutingTable], cfg: &SimConfig) -> Result<Vec<PipelineEngine>, PowerError> {
    let tries = match cfg.organization {
        SchemeKind::NonVirtualized | SchemeKind::Separate => tables
            .iter()
            .map(|t| MergedTrie::from_tables(std::slice::from_ref(t)))
            .collect::<Result<_, _>>()?,
        SchemeKind::Merged => vec![MergedTrie::from_tables(tables)?],
    };
    tries
        .into_iter()
        .map(|trie| PipelineEngine::new(trie, cfg.stages, cfg.engine))
        .collect()
}

/// Result of one router-organization simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Cycles simulated (the longest engine's count).
    pub cycles: u64,
    /// Packets offered by the traffic source.
    pub offered: u64,
    /// Packets that completed the lookup pipeline.
    pub completed: u64,
    /// Completed lookups matching the linear-scan oracle.
    pub correct: u64,
    /// Completed lookups NOT matching the oracle (must be 0).
    pub mismatches: u64,
    /// Number of engines simulated.
    pub engines: usize,
    /// Stages per engine.
    pub stages: usize,
    /// Operating frequency in MHz used for power/throughput conversion.
    pub freq_mhz: f64,
    /// Deepest distributor queue observed (0 when arrivals never collide).
    pub max_queue_depth: usize,
    /// Total cycles packets spent waiting in distributor queues.
    pub total_queue_wait_cycles: u64,
    /// Per-engine counters.
    pub per_engine: Vec<EngineStats>,
}

impl SimReport {
    /// Total measured dynamic power across engines, in watts.
    #[must_use]
    pub fn dynamic_power_w(&self) -> f64 {
        self.per_engine
            .iter()
            .map(|s| s.dynamic_power_w(self.freq_mhz))
            .sum()
    }

    /// Achieved throughput in Gbps at 40-byte packets:
    /// completed packets × 320 bits × f / cycles.
    #[must_use]
    pub fn achieved_throughput_gbps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.completed as f64 / self.cycles as f64 * timing::throughput_gbps(self.freq_mhz)
    }

    /// Mean pipeline occupancy across engines.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.per_engine.is_empty() {
            return 0.0;
        }
        self.per_engine
            .iter()
            .map(|s| s.occupancy(self.stages))
            .sum::<f64>()
            / self.per_engine.len() as f64
    }

    /// All completed lookups agreed with the oracle.
    #[must_use]
    pub fn is_fully_correct(&self) -> bool {
        self.mismatches == 0 && self.correct == self.completed
    }

    /// Mean distributor queueing delay per offered packet, in cycles.
    #[must_use]
    pub fn mean_queue_wait_cycles(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.total_queue_wait_cycles as f64 / self.offered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::FamilySpec;
    use vr_net::{TrafficSpec, VnId};
    use vr_trie::pipeline_map::PAPER_PIPELINE_STAGES;
    use vr_trie::{LeafPushedTrie, NodeId};

    fn family(k: usize, seed: u64) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: 200,
            shared_fraction: 0.5,
            seed,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap()
    }

    fn config(org: SchemeKind, arrivals: ArrivalModel) -> SimConfig {
        SimConfig {
            organization: org,
            stages: PAPER_PIPELINE_STAGES,
            engine: EngineConfig::paper_default(),
            arrivals,
            arrival_seed: 99,
        }
    }

    fn run(org: SchemeKind, k: usize, arrivals: ArrivalModel, packets: u64) -> SimReport {
        let tables = family(k, 7);
        let mut traffic =
            TrafficGenerator::new(TrafficSpec::uniform(k, 3), &tables).unwrap();
        let mut sim = VirtualRouterSim::new(tables, config(org, arrivals)).unwrap();
        sim.run(&mut traffic, packets).unwrap()
    }

    #[test]
    fn all_organizations_are_fully_correct() {
        for org in SchemeKind::ALL {
            let report = run(org, 3, ArrivalModel::SharedLine { offered_load: 1.0 }, 400);
            assert_eq!(report.completed, 400, "{org}");
            assert!(report.is_fully_correct(), "{org}");
        }
    }

    #[test]
    fn engine_counts_match_organization() {
        let tables = family(4, 1);
        let sep = VirtualRouterSim::new(
            tables.clone(),
            config(SchemeKind::Separate, ArrivalModel::PerEngineSaturation),
        )
        .unwrap();
        assert_eq!(sep.engines.len(), 4);
        let merged = VirtualRouterSim::new(
            tables,
            config(SchemeKind::Merged, ArrivalModel::PerEngineSaturation),
        )
        .unwrap();
        assert_eq!(merged.engines.len(), 1);
    }

    #[test]
    fn shared_line_splits_load_across_separate_engines() {
        let report = run(
            SchemeKind::Separate,
            4,
            ArrivalModel::SharedLine { offered_load: 1.0 },
            2000,
        );
        // Each of the 4 engines sees ~1/4 of the occupancy of a saturated
        // pipeline.
        let occ = report.mean_occupancy();
        assert!((occ - 0.25).abs() < 0.08, "occupancy {occ}");
    }

    #[test]
    fn saturation_mode_fills_every_engine() {
        let report = run(
            SchemeKind::Separate,
            4,
            ArrivalModel::PerEngineSaturation,
            4000,
        );
        assert!(report.is_fully_correct());
        let occ = report.mean_occupancy();
        assert!(occ > 0.9, "occupancy {occ}");
        // Aggregate throughput approaches K × line rate.
        let agg = report.achieved_throughput_gbps();
        let line = vr_fpga::timing::throughput_gbps(report.freq_mhz);
        assert!(agg > 3.5 * line, "aggregate {agg} vs line {line}");
    }

    #[test]
    fn merged_engine_handles_mixed_stream_at_line_rate() {
        let report = run(
            SchemeKind::Merged,
            3,
            ArrivalModel::SharedLine { offered_load: 1.0 },
            1000,
        );
        assert!(report.is_fully_correct());
        let occ = report.mean_occupancy();
        assert!(occ > 0.9, "merged occupancy {occ}");
    }

    #[test]
    fn low_offered_load_reduces_dynamic_power() {
        let busy = run(
            SchemeKind::Merged,
            2,
            ArrivalModel::SharedLine { offered_load: 1.0 },
            1000,
        );
        let idle = run(
            SchemeKind::Merged,
            2,
            ArrivalModel::SharedLine { offered_load: 0.2 },
            1000,
        );
        assert!(idle.dynamic_power_w() < 0.4 * busy.dynamic_power_w());
    }

    #[test]
    fn bursty_arrivals_queue_in_the_distributor() {
        let report = run(
            SchemeKind::Separate,
            2,
            ArrivalModel::Bursty {
                burst_probability: 0.5,
                burst_len: 8,
            },
            2000,
        );
        assert!(report.is_fully_correct());
        // Bursts of 8 over 2 engines: same-engine collisions are certain,
        // so queues must have built and packets must have waited.
        assert!(report.max_queue_depth >= 2, "depth {}", report.max_queue_depth);
        assert!(report.mean_queue_wait_cycles() > 0.0);
    }

    #[test]
    fn smooth_arrivals_do_not_queue() {
        let report = run(
            SchemeKind::Separate,
            3,
            ArrivalModel::SharedLine { offered_load: 1.0 },
            1000,
        );
        // One arrival per cycle, drained the same cycle: nothing waits.
        assert_eq!(report.total_queue_wait_cycles, 0);
        assert!(report.max_queue_depth <= 1);
    }

    #[test]
    fn bursty_merged_engine_throttles_to_line_rate() {
        // A burst of B packets into the single merged engine takes B
        // cycles to admit: throughput stays at one per cycle and the
        // last packet of a burst waits B−1 cycles.
        let report = run(
            SchemeKind::Merged,
            2,
            ArrivalModel::Bursty {
                burst_probability: 1.0,
                burst_len: 4,
            },
            1000,
        );
        assert!(report.is_fully_correct());
        assert!(report.max_queue_depth >= 3);
        // Every burst cycle admits 1 of 4: average wait ≥ 1 cycle.
        assert!(report.mean_queue_wait_cycles() >= 1.0);
    }

    /// Depth of the leaf `dst` reaches in a leaf-pushed trie.
    fn leaf_depth(trie: &LeafPushedTrie, dst: u32) -> u64 {
        let (mut id, mut depth) = (NodeId::ROOT, 0u32);
        while let Some((l, r)) = trie.node_children(id) {
            id = if (dst >> (31 - depth)) & 1 == 0 { l } else { r };
            depth += 1;
        }
        u64::from(depth)
    }

    /// The engines walk the merged trie as the leaf-pushed one it stands
    /// for: on a paper-scale family, every lookup of every organization
    /// reads one word per level down to its leaf in the reference
    /// `leaf_pushed()` trie, and answers what its table answers.
    #[test]
    fn merged_walk_reads_exactly_the_leaf_pushed_path() {
        let k = 4;
        let tables = FamilySpec {
            k,
            prefixes_per_table: vr_net::synth::PAPER_TABLE_PREFIXES,
            shared_fraction: 0.5,
            seed: 2012,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 16,
        }
        .generate()
        .unwrap();
        let mut traffic = TrafficGenerator::new(TrafficSpec::uniform(k, 5), &tables).unwrap();
        // Covered destinations, and their complements, which mostly miss.
        let probes: Vec<(VnId, u32)> = (0..300)
            .map(|_| traffic.next_packet())
            .flat_map(|p| [(p.vnid, p.dst), (p.vnid, !p.dst)])
            .collect();
        let pushed =
            |tables: &[RoutingTable]| MergedTrie::from_tables(tables).unwrap().leaf_pushed();
        for org in SchemeKind::ALL {
            let cfg = config(org, ArrivalModel::PerEngineSaturation);
            let mut engines = engines(&tables, &cfg).unwrap();
            let reference: Vec<LeafPushedTrie> = match org {
                SchemeKind::Merged => vec![pushed(&tables)],
                _ => tables.iter().map(|t| pushed(std::slice::from_ref(t))).collect(),
            };
            for &(vnid, dst) in &probes {
                let at = if org == SchemeKind::Merged { 0 } else { usize::from(vnid) };
                let engine = &mut engines[at];
                let before = engine.stats().memory_reads;
                engine.tick(Some((vnid, dst)));
                let done = engine.drain().pop().unwrap();
                let reads = engine.stats().memory_reads - before;
                let expected = leaf_depth(&reference[at], dst) + 1;
                assert_eq!(reads, expected, "{org} vn {vnid} dst {dst:#010x}");
                assert_eq!(done.next_hop, tables[usize::from(vnid)].lookup(dst));
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let tables = family(2, 2);
        assert!(VirtualRouterSim::new(
            Vec::new(),
            config(SchemeKind::Merged, ArrivalModel::PerEngineSaturation)
        )
        .is_err());
        let mut sim = VirtualRouterSim::new(
            tables.clone(),
            config(
                SchemeKind::Separate,
                ArrivalModel::SharedLine { offered_load: 1.5 },
            ),
        )
        .unwrap();
        let mut traffic = TrafficGenerator::new(TrafficSpec::uniform(2, 3), &tables).unwrap();
        assert!(sim.run(&mut traffic, 10).is_err());
        let mut sim = VirtualRouterSim::new(
            tables.clone(),
            config(
                SchemeKind::Separate,
                ArrivalModel::SharedLine { offered_load: 0.0 },
            ),
        )
        .unwrap();
        assert!(sim.run(&mut traffic, 10).is_err());
    }

    fn stats(cycles: u64, energy_pj: f64) -> EngineStats {
        EngineStats {
            cycles,
            logic_energy_pj: energy_pj,
            ..EngineStats::default()
        }
    }

    #[test]
    fn dynamic_power_sums_engines() {
        let report = SimReport {
            cycles: 100,
            engines: 2,
            stages: 28,
            freq_mhz: 100.0,
            per_engine: vec![stats(100, 1000.0), stats(100, 1000.0)],
            ..SimReport::default()
        };
        // Each engine: 1000 pJ / 100 cycles × 100 MHz = 1 µW... in watts:
        // 10 pJ/cycle × 1e8 cycles/s = 1e-3 W.
        assert!((report.dynamic_power_w() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn throughput_formula() {
        let report = SimReport {
            cycles: 1000,
            offered: 500,
            completed: 500,
            correct: 500,
            engines: 1,
            stages: 28,
            freq_mhz: 350.0,
            ..SimReport::default()
        };
        // Half the line rate: 0.5 × 112 Gbps.
        assert!((report.achieved_throughput_gbps() - 56.0).abs() < 1e-9);
        assert!(report.is_fully_correct());
    }

    #[test]
    fn zero_cycles_edge_cases() {
        let report = SimReport {
            freq_mhz: 350.0,
            ..SimReport::default()
        };
        assert_eq!(report.achieved_throughput_gbps(), 0.0);
        assert_eq!(report.dynamic_power_w(), 0.0);
        assert_eq!(report.mean_occupancy(), 0.0);
    }

    #[test]
    fn mismatches_break_correctness() {
        let report = SimReport {
            cycles: 10,
            offered: 2,
            completed: 2,
            correct: 1,
            mismatches: 1,
            ..SimReport::default()
        };
        assert!(!report.is_fully_correct());
    }
}
