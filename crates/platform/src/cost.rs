//! Instruction-class cycle costs for the StrongARM SA-1110.
//!
//! The SA-1110 is a single-issue ARMv4 integer core: integer ALU operations
//! are single-cycle, multiplies take a few cycles, and there is **no floating
//! point unit** — every float operation traps into a software emulation
//! routine costing tens to hundreds of cycles. The numbers here are
//! representative (they reproduce the relative gaps the paper measures, not
//! the absolute hardware counts).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Classes of dynamic operations the cost model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InstructionClass {
    /// Integer add/sub/logical/shift (single cycle).
    IntAlu,
    /// Integer multiply (early-terminating ARM MUL).
    IntMul,
    /// Integer multiply-accumulate (MLA).
    IntMac,
    /// Integer divide (no hardware divider: software routine).
    IntDiv,
    /// Load from memory (plus memory-region latency accounted separately).
    Load,
    /// Store to memory.
    Store,
    /// Taken or untaken branch.
    Branch,
    /// Function call/return overhead.
    Call,
    /// Software-emulated floating-point add/sub.
    FloatAddSoft,
    /// Software-emulated floating-point multiply.
    FloatMulSoft,
    /// Software-emulated floating-point divide.
    FloatDivSoft,
    /// Software-emulated float conversion (int ↔ float).
    FloatConvSoft,
    /// Software-emulated transcendental call (exp/log/pow) from the Linux
    /// math library.
    LibmCall,
    /// Table lookup (pre-computed coefficient or Huffman table access).
    TableLookup,
}

impl InstructionClass {
    /// Every class, for iteration.
    pub const ALL: [InstructionClass; 14] = [
        InstructionClass::IntAlu,
        InstructionClass::IntMul,
        InstructionClass::IntMac,
        InstructionClass::IntDiv,
        InstructionClass::Load,
        InstructionClass::Store,
        InstructionClass::Branch,
        InstructionClass::Call,
        InstructionClass::FloatAddSoft,
        InstructionClass::FloatMulSoft,
        InstructionClass::FloatDivSoft,
        InstructionClass::FloatConvSoft,
        InstructionClass::LibmCall,
        InstructionClass::TableLookup,
    ];
}

impl fmt::Display for InstructionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstructionClass::IntAlu => "int-alu",
            InstructionClass::IntMul => "int-mul",
            InstructionClass::IntMac => "int-mac",
            InstructionClass::IntDiv => "int-div",
            InstructionClass::Load => "load",
            InstructionClass::Store => "store",
            InstructionClass::Branch => "branch",
            InstructionClass::Call => "call",
            InstructionClass::FloatAddSoft => "float-add-soft",
            InstructionClass::FloatMulSoft => "float-mul-soft",
            InstructionClass::FloatDivSoft => "float-div-soft",
            InstructionClass::FloatConvSoft => "float-conv-soft",
            InstructionClass::LibmCall => "libm-call",
            InstructionClass::TableLookup => "table-lookup",
        };
        write!(f, "{s}")
    }
}

/// Cycle costs per instruction class: the StrongARM SA-1110, the one
/// processor of the reproduction. Every class has a cost by construction
/// (an exhaustive `match`), so no class can fall through to a default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel;

impl CostModel {
    /// The StrongARM SA-1110 model used throughout the reproduction.
    pub fn sa1110() -> Self {
        CostModel
    }

    /// Cycles charged for one operation of the given class.
    pub fn cycles_for(&self, class: InstructionClass) -> u64 {
        use InstructionClass::*;
        match class {
            IntAlu => 1,
            IntMul | IntMac => 3,
            IntDiv => 22,
            Load | Store | Branch => 2,
            Call => 6,
            // Software floating-point emulation on an FPU-less ARM costs
            // roughly two orders of magnitude more than the integer
            // equivalents.
            FloatAddSoft => 90,
            FloatMulSoft => 110,
            FloatDivSoft => 240,
            FloatConvSoft => 60,
            LibmCall => 4_000,
            TableLookup => 3,
        }
    }

    /// Total cycles for a bag of operation counts.
    pub fn cycles(&self, ops: &OpCounts) -> u64 {
        ops.iter().map(|(c, n)| self.cycles_for(c) * n).sum()
    }
}

/// A bag of dynamic operation counts, the unit of exchange between workload
/// kernels and the platform model.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    counts: BTreeMap<InstructionClass, u64>,
    loads_by_region: BTreeMap<crate::memory::MemoryRegion, u64>,
}

impl OpCounts {
    /// An empty bag.
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Adds `n` operations of a class.
    pub fn add(&mut self, class: InstructionClass, n: u64) {
        if n > 0 {
            *self.counts.entry(class).or_insert(0) += n;
        }
    }

    /// Adds `n` memory accesses attributed to a specific region (in addition
    /// to the [`InstructionClass::Load`]/[`InstructionClass::Store`] issue cost).
    pub fn add_memory(&mut self, region: crate::memory::MemoryRegion, n: u64) {
        if n > 0 {
            *self.loads_by_region.entry(region).or_insert(0) += n;
        }
    }

    /// Count for one class.
    pub fn count(&self, class: InstructionClass) -> u64 {
        self.counts.get(&class).copied().unwrap_or(0)
    }

    /// Iterates over `(class, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (InstructionClass, u64)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    /// Iterates over `(region, accesses)` pairs.
    pub fn memory_iter(&self) -> impl Iterator<Item = (crate::memory::MemoryRegion, u64)> + '_ {
        self.loads_by_region.iter().map(|(&r, &n)| (r, n))
    }

    /// Total dynamic operation count (excluding region-attributed accesses).
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.loads_by_region.is_empty()
    }

    /// Merges another bag into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for (c, n) in other.iter() {
            self.add(c, n);
        }
        for (r, n) in other.memory_iter() {
            self.add_memory(r, n);
        }
    }

    /// Returns a bag with every count divided by `k` (rounding up to at least
    /// one for non-zero counts) — used to attribute per-frame measurements to
    /// a single invocation of a library element.
    pub fn divided(&self, k: u64) -> OpCounts {
        let k = k.max(1);
        let mut out = OpCounts::new();
        for (c, n) in self.iter() {
            out.add(c, (n / k).max(1));
        }
        for (r, n) in self.memory_iter() {
            out.add_memory(r, (n / k).max(1));
        }
        out
    }

    /// Returns a bag with every count multiplied by `k` (e.g. per-granule
    /// counts scaled to a whole frame).
    pub fn scaled(&self, k: u64) -> OpCounts {
        let mut out = OpCounts::new();
        for (c, n) in self.iter() {
            out.add(c, n * k);
        }
        for (r, n) in self.memory_iter() {
            out.add_memory(r, n * k);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryRegion;

    #[test]
    fn sa1110_penalizes_software_float() {
        let m = CostModel::sa1110();
        assert!(
            m.cycles_for(InstructionClass::FloatMulSoft)
                > 30 * m.cycles_for(InstructionClass::IntMul)
        );
        assert!(
            m.cycles_for(InstructionClass::FloatDivSoft)
                > m.cycles_for(InstructionClass::FloatMulSoft)
        );
        assert!(
            m.cycles_for(InstructionClass::LibmCall) > m.cycles_for(InstructionClass::FloatDivSoft)
        );
    }

    #[test]
    fn opcounts_accumulate_and_scale() {
        let mut ops = OpCounts::new();
        assert!(ops.is_empty());
        ops.add(InstructionClass::IntAlu, 10);
        ops.add(InstructionClass::IntAlu, 5);
        ops.add(InstructionClass::IntMul, 2);
        ops.add(InstructionClass::Branch, 0);
        ops.add_memory(MemoryRegion::Sdram, 7);
        assert_eq!(ops.count(InstructionClass::IntAlu), 15);
        assert_eq!(ops.count(InstructionClass::Branch), 0);
        assert!(ops.memory_iter().eq([(MemoryRegion::Sdram, 7)]));
        assert_eq!(ops.total(), 17);
        let doubled = ops.scaled(2);
        assert_eq!(doubled.count(InstructionClass::IntAlu), 30);
        assert!(doubled.memory_iter().eq([(MemoryRegion::Sdram, 14)]));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = OpCounts::new();
        a.add(InstructionClass::IntMul, 3);
        let mut b = OpCounts::new();
        b.add(InstructionClass::IntMul, 4);
        b.add_memory(MemoryRegion::Sram, 2);
        a.merge(&b);
        assert_eq!(a.count(InstructionClass::IntMul), 7);
        assert!(a.memory_iter().eq([(MemoryRegion::Sram, 2)]));
    }

    #[test]
    fn cost_model_totals() {
        let m = CostModel::sa1110();
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::IntAlu, 100);
        ops.add(InstructionClass::FloatMulSoft, 10);
        assert_eq!(
            m.cycles(&ops),
            100 + 10 * m.cycles_for(InstructionClass::FloatMulSoft)
        );
    }

    #[test]
    fn display_names_are_kebab_case() {
        assert_eq!(InstructionClass::FloatMulSoft.to_string(), "float-mul-soft");
        assert_eq!(InstructionClass::IntAlu.to_string(), "int-alu");
    }
}
