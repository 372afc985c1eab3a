//! The Badge4 board model.

use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, OpCounts};
use crate::dvfs::{DvfsTable, OperatingPoint};
use crate::energy::EnergyModel;
use crate::memory::{MemoryModel, MemoryRegion};

/// The cost of executing a bag of operations on the board.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionCost {
    /// Core cycles including memory stall cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the chosen operating point.
    pub seconds: f64,
    /// Energy in joules (core dynamic + attributable static + memory).
    pub energy_j: f64,
}

impl ExecutionCost {
    /// A zero-cost execution (used as the identity when accumulating).
    pub fn zero() -> Self {
        ExecutionCost {
            cycles: 0,
            seconds: 0.0,
            energy_j: 0.0,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &ExecutionCost) -> ExecutionCost {
        ExecutionCost {
            cycles: self.cycles + other.cycles,
            seconds: self.seconds + other.seconds,
            energy_j: self.energy_j + other.energy_j,
        }
    }

    /// Scales the cost by an integer repetition count.
    pub fn repeated(&self, n: u64) -> ExecutionCost {
        ExecutionCost {
            cycles: self.cycles * n,
            seconds: self.seconds * n as f64,
            energy_j: self.energy_j * n as f64,
        }
    }
}

/// The simulated Badge4: SA-1110 cost model, memory hierarchy, energy model
/// and DVFS table, evaluated at a chosen operating point.
///
/// ```
/// use symmap_platform::machine::Badge4;
/// use symmap_platform::cost::{InstructionClass, OpCounts};
///
/// let badge = Badge4::new();
/// let mut ops = OpCounts::new();
/// ops.add(InstructionClass::IntMac, 64);
/// let cost = badge.cost_of(&ops);
/// assert!(cost.cycles >= 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Badge4 {
    cost: CostModel,
    memory: MemoryModel,
    energy: EnergyModel,
    dvfs: DvfsTable,
    operating_point: OperatingPoint,
}

impl Badge4 {
    /// A Badge4 running at the maximum operating point (the paper's
    /// measurement condition).
    pub fn new() -> Self {
        let dvfs = DvfsTable::sa1110();
        Badge4 {
            cost: CostModel::sa1110(),
            memory: MemoryModel::badge4(),
            energy: EnergyModel::badge4(),
            operating_point: dvfs.max(),
            dvfs,
        }
    }

    /// The active operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.operating_point
    }

    /// The DVFS table of the processor.
    pub fn dvfs(&self) -> &DvfsTable {
        &self.dvfs
    }

    /// The instruction cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Cycles, time and energy for executing `ops` at the active operating
    /// point.
    pub fn cost_of(&self, ops: &OpCounts) -> ExecutionCost {
        let mut cycles = self.cost.cycles(ops);
        for (region, n) in ops.memory_iter() {
            cycles += self.memory.access_cycles(region, n);
        }
        let seconds = self.operating_point.seconds_for(cycles);
        let energy_j = self
            .energy
            .energy_j(cycles, ops, &self.memory, &self.operating_point);
        ExecutionCost {
            cycles,
            seconds,
            energy_j,
        }
    }

    /// A textual description of the board (the reproduction of Figure 1's
    /// component inventory).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str("Badge4 (SmartBadge IV) embedded system\n");
        s.push_str(&format!(
            "  CPU      : StrongARM SA-1110, {:.1} MHz @ {:.2} V (no FPU; software float emulation)\n",
            self.operating_point.frequency_mhz, self.operating_point.voltage_v
        ));
        s.push_str("  Companion: SA-1111 (peripheral control)\n");
        for region in MemoryRegion::ALL {
            let p = self.memory.params(region);
            s.push_str(&format!(
                "  {:<9}: {} KiB, +{} cycles/access, {:.1} nJ/access\n",
                region.to_string(),
                p.capacity_kib,
                p.access_cycles,
                p.energy_nj
            ));
        }
        s.push_str("  Audio    : CODEC with microphone and speakers\n");
        s.push_str("  Network  : Lucent WLAN card (MP3 stream source)\n");
        s.push_str("  Power    : batteries via DC-DC converter\n");
        s.push_str("  OS       : embedded Linux (SRAM-resident core, remote filesystem)\n");
        s
    }
}

impl Default for Badge4 {
    fn default() -> Self {
        Badge4::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::InstructionClass;

    #[test]
    fn cost_includes_memory_stalls() {
        let badge = Badge4::new();
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::Load, 100);
        let base = badge.cost_of(&ops);
        ops.add_memory(MemoryRegion::Sdram, 100);
        let with_mem = badge.cost_of(&ops);
        assert!(with_mem.cycles > base.cycles);
        assert!(with_mem.energy_j > base.energy_j);
    }

    #[test]
    fn execution_cost_arithmetic() {
        let a = ExecutionCost {
            cycles: 10,
            seconds: 1.0,
            energy_j: 0.5,
        };
        let b = ExecutionCost {
            cycles: 5,
            seconds: 0.5,
            energy_j: 0.25,
        };
        let s = a.add(&b);
        assert_eq!(s.cycles, 15);
        assert!((s.energy_j - 0.75).abs() < 1e-12);
        let r = b.repeated(4);
        assert_eq!(r.cycles, 20);
        assert_eq!(ExecutionCost::zero().cycles, 0);
    }

    #[test]
    fn describe_mentions_all_components() {
        let d = Badge4::new().describe();
        for needle in [
            "SA-1110", "SA-1111", "SRAM", "SDRAM", "FLASH", "WLAN", "CODEC", "DC-DC", "Linux",
        ] {
            assert!(d.contains(needle), "description missing {needle}: {d}");
        }
    }

    #[test]
    fn empty_ops_cost_nothing() {
        let c = Badge4::new().cost_of(&OpCounts::new());
        assert_eq!(c.cycles, 0);
        assert_eq!(c.seconds, 0.0);
        assert_eq!(c.energy_j, 0.0);
    }
}
