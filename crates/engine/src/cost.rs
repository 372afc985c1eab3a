//! Cost and accuracy bookkeeping for candidate mappings.
//!
//! The branch-and-bound search of Table 2 needs a *bounding function*: the
//! paper uses performance and energy. A candidate mapping's cost is the sum of
//! the costs of the library elements it invokes plus the cost of evaluating
//! whatever residual arithmetic is left in plain multiplies and adds on the
//! target processor.

use symmap_algebra::poly::Poly;
use symmap_algebra::var::VarSet;
use symmap_libchar::LibraryElement;
use symmap_platform::cost::{CostModel, InstructionClass};

/// Performance/energy cost of a candidate mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated processor cycles.
    pub cycles: u64,
    /// Estimated energy in nanojoules.
    pub energy_nj: f64,
}

impl CostEstimate {
    /// The zero cost.
    pub fn zero() -> Self {
        CostEstimate {
            cycles: 0,
            energy_nj: 0.0,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &CostEstimate) -> CostEstimate {
        CostEstimate {
            cycles: self.cycles + other.cycles,
            energy_nj: self.energy_nj + other.energy_nj,
        }
    }

    /// Whether this cost is strictly better (fewer cycles) than `other`.
    pub fn better_than(&self, other: &CostEstimate) -> bool {
        self.cycles < other.cycles
    }
}

/// Evaluates candidate mappings: element invocation costs plus residual
/// software cost on the target core.
#[derive(Debug, Clone)]
pub struct CostEvaluator {
    cost_model: CostModel,
    /// Energy charged per cycle of residual software, in nanojoules (derived
    /// from the Badge4 core power at the maximum operating point).
    energy_per_cycle_nj: f64,
}

impl CostEvaluator {
    /// Creates an evaluator for the SA-1110 cost model.
    pub fn new() -> Self {
        CostEvaluator {
            cost_model: CostModel::sa1110(),
            energy_per_cycle_nj: 2.1,
        }
    }

    /// Cost of invoking a library element once.
    pub fn element_cost(&self, element: &LibraryElement) -> CostEstimate {
        CostEstimate {
            cycles: element.cycles(),
            energy_nj: element.energy_nj(),
        }
    }

    /// Cost of evaluating a residual polynomial in plain software. Terms made
    /// only of library-output symbols are already paid for by the element
    /// costs; every multiplication/addition over *program* variables is
    /// charged at the software-float rate, since the original code operates
    /// on doubles and the SA-1110 has no FPU.
    pub fn residual_cost(&self, residual: &Poly, symbols: &VarSet) -> CostEstimate {
        let mut program_ops: u64 = 0;
        for (m, _) in residual.iter() {
            let program_degree: u32 = m
                .iter()
                .filter(|(v, _)| !symbols.contains(*v))
                .map(|(_, e)| e)
                .sum();
            // One multiply per degree, one add per term, one multiply for a
            // non-trivial coefficient.
            program_ops += program_degree as u64 + 1;
        }
        let per_op = self.cost_model.cycles_for(InstructionClass::FloatMulSoft)
            + self.cost_model.cycles_for(InstructionClass::FloatAddSoft);
        let cycles = program_ops * per_op;
        CostEstimate {
            cycles,
            energy_nj: cycles as f64 * self.energy_per_cycle_nj,
        }
    }
}

impl Default for CostEvaluator {
    fn default() -> Self {
        CostEvaluator::new()
    }
}

/// Combines the accuracy bounds of the elements used by a mapping into a
/// single worst-case estimate (errors add in the worst case).
pub fn combined_accuracy(used: &[(&LibraryElement, u32)]) -> f64 {
    used.iter()
        .map(|(e, times)| e.accuracy() * *times as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_libchar::Library;

    fn library() -> Library {
        let mut lib = Library::new("test");
        lib.push(
            LibraryElement::builder("cheap", "c")
                .polynomial(Poly::parse("x + y").unwrap())
                .cycles(4)
                .energy_nj(2.0)
                .accuracy(1e-6)
                .build()
                .unwrap(),
        );
        lib.push(
            LibraryElement::builder("dear", "d")
                .polynomial(Poly::parse("x * y").unwrap())
                .cycles(400)
                .energy_nj(150.0)
                .accuracy(1e-12)
                .build()
                .unwrap(),
        );
        lib
    }

    #[test]
    fn element_cost_lookup() {
        let evaluator = CostEvaluator::new();
        let lib = library();
        let cheap = evaluator.element_cost(lib.element("cheap").unwrap());
        assert_eq!((cheap.cycles, cheap.energy_nj), (4, 2.0));
    }

    #[test]
    fn residual_cost_ignores_symbol_only_terms() {
        let evaluator = CostEvaluator::new();
        let symbols = VarSet::from_names(&["s", "t"]);
        let pure_symbols = Poly::parse("s^2 + s*t").unwrap();
        let mixed = Poly::parse("s^2 + x*y").unwrap();
        let cs = evaluator.residual_cost(&pure_symbols, &symbols);
        let cm = evaluator.residual_cost(&mixed, &symbols);
        assert!(cm.cycles > cs.cycles);
    }

    #[test]
    fn residual_is_priced_at_the_software_float_rate() {
        let evaluator = CostEvaluator::new();
        let model = CostModel::sa1110();
        let per_op = model.cycles_for(InstructionClass::FloatMulSoft)
            + model.cycles_for(InstructionClass::FloatAddSoft);
        // One op per degree plus one per term: (3 + 1) + (1 + 1) + (0 + 1).
        let p = Poly::parse("x^2*y + 3*x + 1").unwrap();
        let cost = evaluator.residual_cost(&p, &VarSet::new());
        assert_eq!(cost.cycles, 7 * per_op);
        assert_eq!(cost.energy_nj, cost.cycles as f64 * 2.1);
        // Far above what the same ops cost as integer MACs.
        assert!(per_op > 20 * model.cycles_for(InstructionClass::IntMac));
    }

    #[test]
    fn combined_accuracy_sums_worst_case() {
        let lib = library();
        let (cheap, dear) = (lib.element("cheap").unwrap(), lib.element("dear").unwrap());
        let acc = combined_accuracy(&[(cheap, 2), (dear, 1)]);
        assert!((acc - (2e-6 + 1e-12)).abs() < 1e-18);
        assert_eq!(combined_accuracy(&[]), 0.0);
    }

    #[test]
    fn cost_estimate_arithmetic() {
        let a = CostEstimate {
            cycles: 10,
            energy_nj: 1.0,
        };
        let b = CostEstimate {
            cycles: 20,
            energy_nj: 2.0,
        };
        assert_eq!(a.add(&b).cycles, 30);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert_eq!(CostEstimate::zero().cycles, 0);
    }
}
