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

use crate::engine::{EngineConfig, PipelineEngine};
use crate::report::SimReport;
use crate::EngineError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vr_fpga::SchemeKind;
use vr_net::{RoutingTable, TrafficGenerator};
use vr_trie::pipeline_map::MemoryLayout;
use vr_trie::{LeafPushedTrie, MergedTrie, PipelineProfile, UnibitTrie};

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
    organization: SchemeKind,
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
    pub fn new(tables: Vec<RoutingTable>, cfg: SimConfig) -> Result<Self, EngineError> {
        if tables.is_empty() {
            return Err(EngineError::InvalidParameter("need at least one table"));
        }
        // The paper's K engines vs. one: K tries of arity 1, or one of
        // arity K. Everything after this line is scheme-blind.
        let tries = match cfg.organization {
            SchemeKind::NonVirtualized | SchemeKind::Separate => tables
                .iter()
                .map(|t| LeafPushedTrie::from_unibit(&UnibitTrie::from_table(t)))
                .collect(),
            SchemeKind::Merged => vec![MergedTrie::from_tables(&tables)?.leaf_pushed()],
        };
        let engines = tries
            .into_iter()
            .map(|trie| {
                let profile =
                    PipelineProfile::for_trie(&trie, cfg.stages, MemoryLayout::default())?;
                PipelineEngine::new(trie, &profile, cfg.engine)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            organization: cfg.organization,
            engines,
            tables,
            cfg,
        })
    }

    /// Number of engines instantiated (K for NV/VS, 1 for VM).
    #[must_use]
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// The organization being simulated.
    #[must_use]
    pub fn organization(&self) -> SchemeKind {
        self.organization
    }

    /// Applies a routing update to the *oracle tables only*. The engines
    /// keep forwarding from their build-time snapshot — exactly the
    /// stale-data-plane window between a control-plane update and the
    /// hardware write-back (the problem paper ref. [6] attacks). Runs
    /// after this will count oracle mismatches until
    /// [`VirtualRouterSim::rebuild_engines`] is called.
    pub fn apply_update(&mut self, update: &vr_net::RouteUpdate) {
        match *update {
            vr_net::RouteUpdate::Announce {
                vnid,
                prefix,
                next_hop,
            } => {
                self.tables[usize::from(vnid)].insert(prefix, next_hop);
            }
            vr_net::RouteUpdate::Withdraw { vnid, prefix } => {
                self.tables[usize::from(vnid)].remove(&prefix);
            }
        }
    }

    /// Rebuilds the lookup engines from the current (updated) tables —
    /// the hardware write-back ending the staleness window. Engine
    /// counters restart; in-flight packets are discarded.
    ///
    /// # Errors
    /// Propagates trie/engine construction errors.
    pub fn rebuild_engines(&mut self) -> Result<(), EngineError> {
        let rebuilt = Self::new(self.tables.clone(), self.cfg)?;
        self.engines = rebuilt.engines;
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
    ) -> Result<SimReport, EngineError> {
        match self.cfg.arrivals {
            ArrivalModel::SharedLine { offered_load } => {
                if !(0.0..=1.0).contains(&offered_load) || !offered_load.is_finite() {
                    return Err(EngineError::InvalidParameter(
                        "offered load must be in [0, 1]",
                    ));
                }
                if offered_load == 0.0 && packets > 0 {
                    return Err(EngineError::InvalidParameter(
                        "zero offered load can never deliver packets",
                    ));
                }
            }
            ArrivalModel::Bursty {
                burst_probability,
                burst_len,
            } => {
                if !(0.0..=1.0).contains(&burst_probability) || !burst_probability.is_finite() {
                    return Err(EngineError::InvalidParameter(
                        "burst probability must be in [0, 1]",
                    ));
                }
                if burst_len == 0 {
                    return Err(EngineError::InvalidParameter("burst length must be ≥ 1"));
                }
                if burst_probability == 0.0 && packets > 0 {
                    return Err(EngineError::InvalidParameter(
                        "zero burst probability can never deliver packets",
                    ));
                }
            }
            ArrivalModel::PerEngineSaturation => {}
        }
        let mut rng = SmallRng::seed_from_u64(self.cfg.arrival_seed);
        let mut offered = 0u64;
        let (mut correct, mut mismatches) = (0u64, 0u64);
        // Engines accumulate across runs (energy accounting is lifetime-
        // based); the report's packet/cycle counts are per-run deltas.
        let completed_before: u64 = self.engines.iter().map(|e| e.stats().completed).sum();
        let cycles_before = self
            .engines
            .iter()
            .map(|e| e.stats().cycles)
            .max()
            .unwrap_or(0);
        // The VNID distributor's per-engine queues (Fig. 1). Entries carry
        // their enqueue cycle for queueing-delay accounting.
        let mut queues: Vec<VecDeque<(vr_net::VnId, u32, u64)>> =
            vec![VecDeque::new(); self.engines.len()];
        let mut cycle = 0u64;
        let mut max_queue_depth = 0usize;
        let mut total_queue_wait = 0u64;

        let enqueue = |queues: &mut Vec<VecDeque<(vr_net::VnId, u32, u64)>>,
                           organization: SchemeKind,
                           p: vr_net::Packet,
                           cycle: u64|
         -> Result<(), EngineError> {
            let engine_idx = match organization {
                SchemeKind::Merged => 0,
                _ => usize::from(p.vnid),
            };
            if engine_idx >= queues.len() {
                return Err(EngineError::InvalidParameter(
                    "traffic VNID exceeds table count",
                ));
            }
            queues[engine_idx].push_back((p.vnid, p.dst, cycle));
            Ok(())
        };

        loop {
            let arrivals_open = offered < packets;
            // Decide this cycle's arrivals into the distributor queues.
            if arrivals_open {
                match self.cfg.arrivals {
                    ArrivalModel::SharedLine { offered_load } => {
                        if rng.gen_range(0.0..1.0) < offered_load {
                            let p = traffic.next_packet();
                            offered += 1;
                            enqueue(&mut queues, self.organization, p, cycle)?;
                        }
                    }
                    ArrivalModel::Bursty {
                        burst_probability,
                        burst_len,
                    } => {
                        if rng.gen_range(0.0..1.0) < burst_probability {
                            for _ in 0..burst_len {
                                if offered >= packets {
                                    break;
                                }
                                let p = traffic.next_packet();
                                offered += 1;
                                enqueue(&mut queues, self.organization, p, cycle)?;
                            }
                        }
                    }
                    ArrivalModel::PerEngineSaturation => {
                        for (engine_idx, queue) in queues.iter_mut().enumerate() {
                            if offered >= packets {
                                break;
                            }
                            let p = match self.organization {
                                // The merged engine carries the whole
                                // mixed stream; NV/VS engines each stay
                                // busy with their own network's traffic.
                                SchemeKind::Merged => traffic.next_packet(),
                                _ => traffic.packet_for(engine_idx as vr_net::VnId),
                            };
                            offered += 1;
                            queue.push_back((p.vnid, p.dst, cycle));
                        }
                    }
                }
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

        let cycles = self
            .engines
            .iter()
            .map(|e| e.stats().cycles)
            .max()
            .unwrap_or(0)
            - cycles_before;
        let completed: u64 = self
            .engines
            .iter()
            .map(|e| e.stats().completed)
            .sum::<u64>()
            - completed_before;
        Ok(SimReport {
            cycles,
            offered,
            completed,
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

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::FamilySpec;
    use vr_net::TrafficSpec;
    use vr_trie::pipeline_map::PAPER_PIPELINE_STAGES;

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
        assert_eq!(sep.engine_count(), 4);
        assert_eq!(sep.organization(), SchemeKind::Separate);
        let merged = VirtualRouterSim::new(
            tables,
            config(SchemeKind::Merged, ArrivalModel::PerEngineSaturation),
        )
        .unwrap();
        assert_eq!(merged.engine_count(), 1);
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
}
