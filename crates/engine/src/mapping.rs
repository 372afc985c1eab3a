//! Mapping solutions.

use std::fmt;

use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::SideRelations;
use symmap_algebra::var::VarSet;
use symmap_libchar::Library;

use crate::cost::CostEstimate;

/// A solution of the library-mapping problem for one target polynomial.
#[derive(Debug, Clone)]
pub struct MappingSolution {
    /// The original target polynomial (in program variables).
    pub target: Poly,
    /// The rewritten polynomial, expressed in library output symbols plus any
    /// residual program variables the library could not cover.
    pub rewritten: Poly,
    /// Elements used, with the number of invocations attributed to each.
    pub used_elements: Vec<(String, u32)>,
    /// The side relations that produced the rewrite (needed to verify it).
    pub relations: SideRelations,
    /// Estimated cost of the mapped code.
    pub cost: CostEstimate,
    /// Worst-case accuracy estimate (sum of element error bounds).
    pub accuracy: f64,
    /// Number of branch-and-bound nodes explored to find this solution.
    pub nodes_explored: usize,
    /// Whether the Gröbner basis behind `rewritten` ran to completion.
    ///
    /// When `false` the rewrite is still functionally valid ([`verify`]
    /// holds — reduction only ever subtracts ideal members) but not
    /// canonical: a truncated basis may leave program variables in
    /// `rewritten` that a complete basis would have eliminated, so "basis
    /// truncated" must never be read as "not expressible in the library".
    ///
    /// [`verify`]: MappingSolution::verify
    pub basis_complete: bool,
}

impl MappingSolution {
    /// Returns `true` when the solution invokes the named element.
    pub fn uses_element(&self, name: &str) -> bool {
        self.used_elements.iter().any(|(n, _)| n == name)
    }

    /// Names of all elements used.
    pub fn element_names(&self) -> Vec<&str> {
        self.used_elements.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Returns `true` when no program variable is left in the rewritten
    /// polynomial (the target is *fully* covered by library elements and
    /// constants).
    pub fn is_complete(&self) -> bool {
        let symbols: VarSet = self.relations.symbols();
        self.rewritten.vars().iter().all(|v| symbols.contains(v))
    }

    /// Verifies the rewrite: substituting every element's polynomial back for
    /// its output symbol must reproduce the original target exactly.
    pub fn verify(&self) -> bool {
        self.relations.expand_back(&self.rewritten) == self.target
    }

    /// A human-readable one-line summary.
    pub fn summary(&self, library: &Library) -> String {
        let elements: Vec<String> = self
            .used_elements
            .iter()
            .map(|(n, times)| {
                let src = library
                    .element(n)
                    .map(|e| e.source().to_string())
                    .unwrap_or_else(|| "?".to_string());
                format!("{n}[{src}]x{times}")
            })
            .collect();
        format!(
            "{} -> {} using {} ({} cycles, err {:.1e})",
            self.target,
            self.rewritten,
            if elements.is_empty() {
                "no elements".to_string()
            } else {
                elements.join(", ")
            },
            self.cost.cycles,
            self.accuracy
        )
    }
}

impl fmt::Display for MappingSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} => {} ({} elements, {} cycles)",
            self.target,
            self.rewritten,
            self.used_elements.len(),
            self.cost.cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_solution() -> MappingSolution {
        let mut relations = SideRelations::new();
        relations.push("s", Poly::parse("x + y").unwrap()).unwrap();
        MappingSolution {
            target: Poly::parse("x^2 + 2*x*y + y^2").unwrap(),
            rewritten: Poly::parse("s^2").unwrap(),
            used_elements: vec![("sum".to_string(), 1)],
            relations,
            cost: CostEstimate {
                cycles: 10,
                energy_nj: 5.0,
            },
            accuracy: 1e-7,
            nodes_explored: 3,
            basis_complete: true,
        }
    }

    #[test]
    fn verify_and_completeness() {
        let s = toy_solution();
        assert!(s.verify());
        assert!(s.is_complete());
        assert!(s.uses_element("sum"));
        assert!(!s.uses_element("other"));
        assert_eq!(s.element_names(), vec!["sum"]);
    }

    #[test]
    fn incomplete_solution_detected() {
        let mut s = toy_solution();
        s.rewritten = Poly::parse("s^2 + z").unwrap();
        assert!(!s.is_complete());
        assert!(!s.verify());
    }

    #[test]
    fn display_and_summary() {
        let s = toy_solution();
        assert!(s.to_string().contains("=>"));
        let lib = Library::new("empty");
        assert!(s.summary(&lib).contains("sum"));
    }
}
