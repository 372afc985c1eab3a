//! Differential proof of the ring-local coordinate layer: on every budgeted
//! workload — and on late-interned (wide-index) copies of them — the
//! ring-local Gröbner path must produce reduced bases **byte-identical** to
//! the exact engine run on global coordinates (`oracle::global_basis`), with
//! identical reduction counts, criterion skips and completion flags. The
//! reduced Gröbner basis is a canonical object, so any divergence is a ring
//! bug, never a matter of taste.

use symmap_algebra::division::normal_form;
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_algebra::ring::Ring;
use symmap_algebra::var::{Var, VarSet};
use symmap_bench::budgets;
use symmap_bench::oracle::global_basis;

fn assert_identical(generators: &[Poly], order: &MonomialOrder, label: &str) {
    let opts = GroebnerOptions::default();
    let ringed = buchberger(generators, order, &opts);
    let unringed = global_basis(generators, order, &opts);
    assert_eq!(
        ringed.polys(),
        unringed.polys,
        "{label}: reduced bases diverged"
    );
    assert_eq!(ringed.reductions, unringed.reductions, "{label}");
    assert_eq!(ringed.skipped_coprime, unringed.skipped_coprime, "{label}");
    assert_eq!(ringed.skipped_chain, unringed.skipped_chain, "{label}");
    assert_eq!(ringed.complete, unringed.complete, "{label}");
}

#[test]
fn ring_local_bases_are_byte_identical_on_all_budget_ideals() {
    for ideal in budgets::budgeted_ideals() {
        assert_identical(&ideal.generators, &ideal.order, ideal.name);
    }
}

#[test]
fn ring_local_reduce_matches_global_reduce_on_budget_ideals() {
    for ideal in budgets::budgeted_ideals() {
        let gb = buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default());
        let oracle = global_basis(&ideal.generators, &ideal.order, &GroebnerOptions::default());
        // Reduce each generator (must vanish) and a few perturbed probes.
        for g in &ideal.generators {
            assert!(gb.reduce(g).is_zero(), "{}: generator escaped", ideal.name);
            let probe = g.mul(g).add(&Poly::integer(1));
            let expected = normal_form(&probe, &oracle.polys, &ideal.order);
            assert_eq!(gb.reduce(&probe), expected, "{}", ideal.name);
        }
    }
}

#[test]
fn elimination_runs_ring_locally_and_matches_budget() {
    // `eliminate` goes through the ring-localized `buchberger`; its budget
    // and the eliminated generators must be exactly the canonical ones.
    let result = budgets::assert_elimination_budget();
    assert!(result.complete);
    // The twisted cubic minus x is the (y, z) curve y^3 = z^2.
    assert!(result
        .eliminated
        .iter()
        .any(|p| *p == Poly::parse("y^3 - z^2").unwrap()));
}

#[test]
fn wide_index_copies_of_budget_ideals_stay_byte_identical() {
    // Late-intern a block of symbols, then rebuild every budget ideal over
    // fresh high-index names: the ring path must still agree with the
    // global-coordinate oracle byte for byte — the differential covers the
    // exact profile the ring layer exists for.
    for i in 0..512 {
        Var::new(&format!("ring_diff_filler_{i:03}"));
    }
    for ideal in budgets::budgeted_ideals() {
        // α-rename: every variable of the workload maps to a fresh name.
        let vars: Vec<Var> = {
            let mut all = ideal.order.vars().clone();
            for g in &ideal.generators {
                all = all.union(&g.vars());
            }
            all.iter().collect()
        };
        let renamed: std::collections::BTreeMap<Var, Poly> = vars
            .iter()
            .map(|v| {
                (
                    *v,
                    Poly::var(Var::new(&format!("rngd_{}_{}", ideal.name, v.name()))),
                )
            })
            .collect();
        let wide_gens: Vec<Poly> = ideal
            .generators
            .iter()
            .map(|g| symmap_algebra::subst::substitute_all(g, &renamed).expect("linear rename"))
            .collect();
        let wide_order = match &ideal.order {
            MonomialOrder::Lex(vs) => MonomialOrder::Lex(rename_set(vs, &renamed)),
            MonomialOrder::GrLex(vs) => MonomialOrder::GrLex(rename_set(vs, &renamed)),
            MonomialOrder::GrevLex(vs) => MonomialOrder::GrevLex(rename_set(vs, &renamed)),
            MonomialOrder::Elimination(vs, k) => {
                MonomialOrder::Elimination(rename_set(vs, &renamed), *k)
            }
        };
        let label = format!("{} (wide)", ideal.name);
        assert_identical(&wide_gens, &wide_order, &label);

        // The wide basis must be the α-image of the narrow one: identical
        // ring-local canonical form.
        let narrow = buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default());
        let wide = buchberger(&wide_gens, &wide_order, &GroebnerOptions::default());
        assert_eq!(narrow.reductions, wide.reductions, "{label}");
        let narrow_ring = Ring::spanning(narrow.polys().iter());
        let wide_ring = Ring::spanning(wide.polys().iter());
        let narrow_local: Vec<Poly> = narrow
            .polys()
            .iter()
            .map(|p| narrow_ring.localize_poly(p))
            .collect();
        let wide_local: Vec<Poly> = wide
            .polys()
            .iter()
            .map(|p| wide_ring.localize_poly(p))
            .collect();
        assert_eq!(narrow_local, wide_local, "{label}: not α-equivalent");
    }
}

fn rename_set(vs: &VarSet, renamed: &std::collections::BTreeMap<Var, Poly>) -> VarSet {
    vs.iter()
        .map(|v| {
            renamed[&v]
                .as_single_variable()
                .expect("renames are single variables")
        })
        .collect()
}
