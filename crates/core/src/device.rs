//! Device resource catalogs (Table II).
//!
//! The paper's platform is the Virtex-6 XC6VLX760, chosen for its abundant
//! on-chip resources: 758 K logic cells, 8 Mb distributed RAM, 26 Mb block
//! RAM and 1200 I/O pins (Table II). BRAM is organized in 36 Kb blocks
//! that each contain two independently usable 18 Kb halves (§V-B).

use serde::{Deserialize, Serialize};

/// One kilobit, in bits.
pub(crate) const KBIT: u64 = 1024;

/// Capacity of one full BRAM block in bits (36 Kb).
pub(crate) const BRAM_36K_BITS: u64 = 36 * KBIT;

/// Capacity of one BRAM half-block in bits (18 Kb).
pub(crate) const BRAM_18K_BITS: u64 = 18 * KBIT;

/// Static description of an FPGA device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Marketing name, e.g. `XC6VLX760`.
    pub name: String,
    /// Logic cells available.
    pub logic_cells: u64,
    /// Slice registers (flip-flops) available.
    pub slice_registers: u64,
    /// Slice LUTs available.
    pub slice_luts: u64,
    /// Maximum distributed RAM in bits.
    pub distributed_ram_bits: u64,
    /// Number of 36 Kb BRAM blocks.
    pub bram_36k_blocks: u64,
    /// Maximum user I/O pins.
    pub io_pins: u64,
    /// Leakage relative to the XC6VLX760 (static power scales with die
    /// area; the §V-A figures are LX760 figures).
    pub static_power_scale: f64,
}

impl Device {
    /// The paper's device: Virtex-6 XC6VLX760 (Table II).
    ///
    /// 720 × 36 Kb blocks ≈ 26 Mb of BRAM; 8 Mb max distributed RAM;
    /// 1200 I/O pins; 758 K logic cells. Register/LUT counts follow the
    /// Virtex-6 family data sheet (118 560 slices × 8 FF / × 4 LUT).
    #[must_use]
    pub fn xc6vlx760() -> Self {
        Self {
            name: "XC6VLX760".to_owned(),
            logic_cells: 758_784,
            slice_registers: 948_480,
            slice_luts: 474_240,
            distributed_ram_bits: 8 * KBIT * KBIT,
            bram_36k_blocks: 720,
            io_pins: 1200,
            static_power_scale: 1.0,
        }
    }

    /// Mid-size Virtex-6: XC6VLX550T (extension; the paper's §VI explores
    /// device families — the smaller die leaks proportionally less).
    #[must_use]
    pub fn xc6vlx550t() -> Self {
        Self {
            name: "XC6VLX550T".to_owned(),
            logic_cells: 549_888,
            slice_registers: 687_360,
            slice_luts: 343_680,
            distributed_ram_bits: 6200 * KBIT,
            bram_36k_blocks: 632,
            io_pins: 1200,
            static_power_scale: 0.72,
        }
    }

    /// Small Virtex-6: XC6VLX240T.
    #[must_use]
    pub fn xc6vlx240t() -> Self {
        Self {
            name: "XC6VLX240T".to_owned(),
            logic_cells: 241_152,
            slice_registers: 301_440,
            slice_luts: 150_720,
            distributed_ram_bits: 3650 * KBIT,
            bram_36k_blocks: 416,
            io_pins: 720,
            static_power_scale: 0.33,
        }
    }

    /// The catalog the device-sweep experiment walks, largest first.
    #[must_use]
    pub fn catalog() -> Vec<Device> {
        vec![
            Device::xc6vlx760(),
            Device::xc6vlx550t(),
            Device::xc6vlx240t(),
        ]
    }

    /// A deliberately tiny device used in tests to trigger resource
    /// exhaustion without paper-scale workloads.
    #[cfg(test)]
    #[must_use]
    pub fn test_small() -> Self {
        Self {
            name: "TEST-SMALL".to_owned(),
            logic_cells: 10_000,
            slice_registers: 20_000,
            slice_luts: 10_000,
            distributed_ram_bits: 64 * KBIT,
            bram_36k_blocks: 16,
            io_pins: 200,
            static_power_scale: 0.02,
        }
    }

    /// Total BRAM capacity in bits.
    #[must_use]
    pub fn bram_bits(&self) -> u64 {
        self.bram_36k_blocks * BRAM_36K_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc6vlx760_matches_table_ii() {
        let d = Device::xc6vlx760();
        // Table II: 758K logic cells, 26 Mb BRAM, 8 Mb dist RAM, 1200 pins.
        assert_eq!(d.logic_cells, 758_784);
        assert_eq!(d.io_pins, 1200);
        let bram_mbits = d.bram_bits() as f64 / (KBIT * KBIT) as f64;
        assert!((25.0..=26.5).contains(&bram_mbits), "{bram_mbits} Mb");
        assert_eq!(d.distributed_ram_bits, 8 * 1024 * 1024);
    }

    #[test]
    fn half_blocks_double_full_blocks() {
        let d = Device::xc6vlx760();
        assert_eq!(d.bram_36k_blocks, 720);
        assert_eq!(BRAM_36K_BITS, 2 * BRAM_18K_BITS);
    }

    #[test]
    fn test_device_is_small() {
        let d = Device::test_small();
        assert!(d.bram_bits() < Device::xc6vlx760().bram_bits() / 10);
    }

    #[test]
    fn catalog_is_ordered_largest_first() {
        let catalog = Device::catalog();
        assert_eq!(catalog.len(), 3);
        for pair in catalog.windows(2) {
            assert!(pair[0].logic_cells > pair[1].logic_cells);
            assert!(pair[0].static_power_scale > pair[1].static_power_scale);
            assert!(pair[0].bram_36k_blocks >= pair[1].bram_36k_blocks);
        }
        // Leakage scale roughly tracks die size.
        for d in &catalog {
            let cells_ratio = d.logic_cells as f64 / Device::xc6vlx760().logic_cells as f64;
            assert!(
                (d.static_power_scale - cells_ratio).abs() < 0.1,
                "{}",
                d.name
            );
        }
    }
}
