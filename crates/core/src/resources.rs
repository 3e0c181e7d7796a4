//! Resource models — Eqs. 1, 3 and 5 — and device-fit checks.
//!
//! Resources are what the power models consume: per-stage memories Mᵢ,ⱼ
//! (quantized to BRAM blocks), per-stage logic Lᵢ,ⱼ (the PE profile), the
//! device count D, and I/O pins.
//!
//! ## The two merged-memory models
//!
//! Eq. 5 as printed makes the merged memory `α·ΣᵢΣⱼMᵢ,ⱼ`, which *grows*
//! with the overlap α — contradicting Fig. 4 and §VI-B (see DESIGN.md §3).
//! [`MergedMemoryModel::Structural`] (default) instead derives the merged
//! memory from the actually merged trie; [`MergedMemoryModel::PaperLiteral`]
//! implements the printed equation for the ablation bench.

use crate::bram::blocks_for_stages;
use crate::device::Device;
use crate::logic::{total_resources, PeProfile};
use crate::{io, BramMode, PowerError, SchemeKind};
use serde::{Deserialize, Serialize};

/// How the merged scheme's memory requirement is computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum MergedMemoryModel {
    /// Merge the K tries and measure (default; reproduces Fig. 4).
    #[default]
    Structural,
    /// Eq. 5 exactly as printed: `α × Σ` of the K single-table memories,
    /// with an explicitly supplied α.
    PaperLiteral {
        /// The merging efficiency to plug into Eq. 5.
        alpha: f64,
    },
}

/// Aggregate resource usage of a scenario (Eqs. 1/3/5 evaluated).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Scheme the usage belongs to.
    pub scheme: SchemeKind,
    /// Number of devices D required (K for NV, 1 otherwise).
    pub devices: usize,
    /// Lookup engines per device (1 for NV and VM, K for VS).
    pub engines_per_device: usize,
    /// Total memory demand across all engines, in bits (ΣΣ Mᵢ,ⱼ).
    pub memory_bits: u64,
    /// BRAM blocks (in the chosen granularity) per device.
    pub bram_blocks_per_device: u64,
    /// 36 Kb-equivalent BRAM blocks per device (fit metric).
    pub bram_36k_per_device: u64,
    /// Logic resources per device (Σ Lᵢ,ⱼ over that device's engines).
    pub logic_per_device: PeProfile,
    /// I/O pins required per device.
    pub io_pins_per_device: u64,
}

impl ResourceUsage {
    /// Computes usage from per-engine stage memories.
    ///
    /// `engine_stage_bits` holds, for each engine on ONE device, the
    /// per-stage memory bits. NV replicates that single-engine device K
    /// times; `devices` carries the replication count.
    #[must_use]
    pub fn from_stage_bits(
        scheme: SchemeKind,
        devices: usize,
        engine_stage_bits: &[Vec<u64>],
        bram_mode: BramMode,
        pe: PeProfile,
    ) -> Self {
        let engines_per_device = engine_stage_bits.len();
        let stages = engine_stage_bits.first().map_or(0, Vec::len);
        let blocks_per_device: u64 = engine_stage_bits
            .iter()
            .map(|bits| blocks_for_stages(bram_mode, bits))
            .sum();
        let memory_bits_per_device: u64 = engine_stage_bits
            .iter()
            .map(|bits| bits.iter().sum::<u64>())
            .sum();
        let bram_36k_per_device = match bram_mode {
            BramMode::K36 => blocks_per_device,
            BramMode::K18 => blocks_per_device.div_ceil(2),
        };
        Self {
            scheme,
            devices,
            engines_per_device,
            memory_bits: memory_bits_per_device * devices as u64,
            bram_blocks_per_device: blocks_per_device,
            bram_36k_per_device,
            logic_per_device: total_resources(pe, engines_per_device, stages),
            io_pins_per_device: io::pins_required(engines_per_device),
        }
    }

    /// Checks the per-device demands against `device`.
    ///
    /// # Errors
    /// [`PowerError::ResourceExhausted`] naming the binding resource.
    pub fn check_fit(&self, device: &Device) -> Result<(), PowerError> {
        if self.bram_36k_per_device > device.bram_36k_blocks {
            return Err(PowerError::ResourceExhausted {
                resource: "36 Kb BRAM blocks",
                requested: self.bram_36k_per_device,
                available: device.bram_36k_blocks,
            });
        }
        if self.logic_per_device.slice_registers > device.slice_registers {
            return Err(PowerError::ResourceExhausted {
                resource: "slice registers",
                requested: self.logic_per_device.slice_registers,
                available: device.slice_registers,
            });
        }
        if self.logic_per_device.total_luts() > device.slice_luts {
            return Err(PowerError::ResourceExhausted {
                resource: "slice LUTs",
                requested: self.logic_per_device.total_luts(),
                available: device.slice_luts,
            });
        }
        io::check(device, self.engines_per_device)?;
        Ok(())
    }
}

/// Applies the literal Eq. 5 transform: per-stage merged memory =
/// `α × Σₖ Mₖ,ⱼ` over the K single-table stage maps.
///
/// Returns one per-stage vector for the single merged engine.
#[must_use]
pub(crate) fn paper_literal_merged_stage_bits(
    single_stage_bits: &[Vec<u64>],
    alpha: f64,
) -> Vec<u64> {
    let stages = single_stage_bits.first().map_or(0, Vec::len);
    (0..stages)
        .map(|j| {
            let sum: u64 = single_stage_bits.iter().map(|bits| bits[j]).sum();
            (sum as f64 * alpha).ceil() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_bits(engines: usize, per_stage: u64, stages: usize) -> Vec<Vec<u64>> {
        vec![vec![per_stage; stages]; engines]
    }

    #[test]
    fn separate_usage_counts_k_engines_one_device() {
        let usage = ResourceUsage::from_stage_bits(
            SchemeKind::Separate,
            1,
            &stage_bits(4, 10 * 1024, 28),
            BramMode::K18,
            PeProfile::PAPER_UNIBIT,
        );
        assert_eq!(usage.devices, 1);
        assert_eq!(usage.engines_per_device, 4);
        assert_eq!(usage.bram_blocks_per_device, 4 * 28);
        assert_eq!(usage.memory_bits, 4 * 28 * 10 * 1024);
        assert_eq!(usage.io_pins_per_device, io::pins_required(4));
        assert_eq!(
            usage.logic_per_device.slice_registers,
            PeProfile::PAPER_UNIBIT.slice_registers * 4 * 28
        );
    }

    #[test]
    fn nv_usage_replicates_devices() {
        let usage = ResourceUsage::from_stage_bits(
            SchemeKind::NonVirtualized,
            5,
            &stage_bits(1, 10 * 1024, 28),
            BramMode::K18,
            PeProfile::PAPER_UNIBIT,
        );
        assert_eq!(usage.devices, 5);
        assert_eq!(usage.bram_blocks_per_device, 28);
        assert_eq!(usage.memory_bits, 5 * 28 * 10 * 1024);
        // Per-device demands are single-engine.
        assert_eq!(usage.engines_per_device, 1);
    }

    #[test]
    fn fit_check_passes_and_fails() {
        let device = Device::xc6vlx760();
        let ok = ResourceUsage::from_stage_bits(
            SchemeKind::Separate,
            1,
            &stage_bits(4, 10 * 1024, 28),
            BramMode::K18,
            PeProfile::PAPER_UNIBIT,
        );
        assert!(ok.check_fit(&device).is_ok());
        let too_many_pins = ResourceUsage::from_stage_bits(
            SchemeKind::Separate,
            1,
            &stage_bits(16, 1024, 28),
            BramMode::K18,
            PeProfile::PAPER_UNIBIT,
        );
        assert!(matches!(
            too_many_pins.check_fit(&device),
            Err(PowerError::ResourceExhausted {
                resource: "I/O pins",
                ..
            })
        ));
        let too_much_bram = ResourceUsage::from_stage_bits(
            SchemeKind::Merged,
            1,
            &stage_bits(1, 2 * 1024 * 1024, 28), // 2 Mb per stage
            BramMode::K36,
            PeProfile::PAPER_UNIBIT,
        );
        assert!(matches!(
            too_much_bram.check_fit(&device),
            Err(PowerError::ResourceExhausted {
                resource: "36 Kb BRAM blocks",
                ..
            })
        ));
        // One 28-stage engine needs 1689 × 28 registers and 838 × 28
        // LUTs: a device one short of either is refused for that class,
        // and one with exactly enough fits.
        let one_engine = ResourceUsage::from_stage_bits(
            SchemeKind::Merged,
            1,
            &stage_bits(1, 1024, 28),
            BramMode::K18,
            PeProfile::PAPER_UNIBIT,
        );
        let logic = one_engine.logic_per_device;
        let mut short = device.clone();
        short.slice_registers = logic.slice_registers - 1;
        assert!(matches!(
            one_engine.check_fit(&short),
            Err(PowerError::ResourceExhausted {
                resource: "slice registers",
                ..
            })
        ));
        let mut short = device.clone();
        short.slice_luts = logic.total_luts() - 1;
        assert!(matches!(
            one_engine.check_fit(&short),
            Err(PowerError::ResourceExhausted {
                resource: "slice LUTs",
                ..
            })
        ));
        short.slice_luts += 1;
        assert!(one_engine.check_fit(&short).is_ok());
    }

    #[test]
    fn paper_literal_transform() {
        let singles = vec![vec![100, 200], vec![300, 400]];
        let merged = paper_literal_merged_stage_bits(&singles, 0.5);
        assert_eq!(merged, vec![200, 300]);
        // α = 1 reproduces the plain sum; α = 0 zeroes everything.
        assert_eq!(
            paper_literal_merged_stage_bits(&singles, 1.0),
            vec![400, 600]
        );
        assert_eq!(paper_literal_merged_stage_bits(&singles, 0.0), vec![0, 0]);
        assert!(paper_literal_merged_stage_bits(&[], 0.5).is_empty());
    }

    #[test]
    fn half_block_consolidation() {
        let usage = ResourceUsage::from_stage_bits(
            SchemeKind::Merged,
            1,
            &stage_bits(1, 1024, 3), // 3 half-blocks
            BramMode::K18,
            PeProfile::PAPER_UNIBIT,
        );
        assert_eq!(usage.bram_blocks_per_device, 3);
        assert_eq!(usage.bram_36k_per_device, 2);
    }
}
