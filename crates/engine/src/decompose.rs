//! The `Decompose` branch-and-bound library-mapping algorithm (Table 2).
//!
//! Mapping a target polynomial `S` into a library `L` is treated as
//! *simplifying `S` modulo the side relations* contributed by a subset of
//! library elements. The search explores subsets of elements; at every node
//! it reduces the target modulo the chosen relations, prices the result
//! (element invocations + residual software), and keeps the best solution with
//! sufficient accuracy. Performance is the bounding function that prunes the
//! tree, and factorization guides which elements are tried first: an element
//! that is the whole target or one of its factors goes to the front. The
//! paper also guides by Horner coefficients; that is not implemented here
//! (`DESIGN.md` §10).

use std::sync::Arc;

use symmap_algebra::fingerprint::{PolyFingerprint, TargetGuidance};
use symmap_algebra::groebner::{GroebnerOptions, SharedGroebnerCache};
use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::{simplify_generators, SideRelations};
use symmap_algebra::var::VarSet;
use symmap_libchar::{Library, LibraryElement};
use symmap_trace::{trace_event, trace_span};

use crate::batch::EngineConfig;
use crate::cost::{combined_accuracy, CostEstimate, CostEvaluator};
use crate::error::CoreError;
use crate::mapping::MappingSolution;

/// Tuning knobs of the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Maximum number of distinct library elements combined in one solution.
    pub max_depth: usize,
    /// Hard cap on explored nodes (the worst case is exponential, as the
    /// paper notes; the cap keeps the tool interactive).
    pub max_nodes: usize,
    /// Accuracy tolerance: a solution is acceptable when the sum of the used
    /// elements' error bounds stays below this.
    pub accuracy_tolerance: f64,
    /// Enable cost-based pruning (disable only for the ablation benches).
    pub use_bounding: bool,
    /// Enable guidance of the candidate order by factorization structure
    /// (disable only for the ablation benches).
    pub use_guidance: bool,
    /// Whether residual (unmapped) arithmetic runs in software floating point
    /// (true for the original double-precision code) or fixed point.
    pub float_residual: bool,
    /// Options for the Gröbner-basis computations behind every candidate
    /// pricing (iteration bound, Buchberger criteria, pair-queue tiebreak).
    pub groebner: GroebnerOptions,
    /// Batch-engine sizing (worker threads and shared-cache capacity) used
    /// by consumers that fan mapping jobs out — the optimization pipeline
    /// and [`MappingEngine`](crate::batch::MappingEngine). A single
    /// `map_polynomial` call never spawns threads; `workers` only governs
    /// how many jobs of a *batch* run concurrently.
    pub engine: EngineConfig,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            max_depth: 4,
            max_nodes: 20_000,
            accuracy_tolerance: 1e-4,
            use_bounding: true,
            use_guidance: true,
            float_residual: true,
            groebner: GroebnerOptions::default(),
            engine: EngineConfig::default(),
        }
    }
}

/// The library mapper.
///
/// Carries a [`SharedGroebnerCache`] memoizing the basis of every
/// side-relation set the search prices: the branch-and-bound explores
/// subsets of library elements, and across targets (or repeated mapping
/// calls) the same subset keeps reappearing — its basis is computed once and
/// shared. The cache is `Arc`-shared and thread-safe, so mappers running on
/// different batch-engine workers pool their bases, each basis's memoized
/// normal forms and each target's candidate guidance (`DESIGN.md` §10).
#[derive(Debug, Clone)]
pub struct Mapper {
    library: Arc<Library>,
    config: MapperConfig,
    evaluator: CostEvaluator,
    cache: Arc<SharedGroebnerCache>,
}

impl Mapper {
    /// Creates a mapper over a copy of a characterized library with a fresh
    /// basis cache sized by the configuration's [`EngineConfig`].
    pub fn new(library: &Library, config: MapperConfig) -> Self {
        let cache = Arc::new(SharedGroebnerCache::with_config(
            config.engine.cache_config(),
        ));
        Mapper::with_shared_cache(Arc::new(library.clone()), config, cache)
    }

    /// Creates a mapper that shares `library` and `cache` with other owners
    /// (the batch engine uses this so every job — on any worker thread —
    /// maps against its batch's library without copying it and reuses the
    /// bases of earlier runs).
    pub fn with_shared_cache(
        library: Arc<Library>,
        config: MapperConfig,
        cache: Arc<SharedGroebnerCache>,
    ) -> Self {
        Mapper {
            library,
            config,
            evaluator: CostEvaluator::new(),
            cache,
        }
    }

    /// The mapper's configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// `(hits, misses)` of the Gröbner-basis memoization layer.
    pub fn cache_stats(&self) -> (usize, usize) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Maps a target polynomial onto the library, returning the best solution
    /// found.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoCandidateElements`] when no library element
    /// shares a variable with the target, and
    /// [`CoreError::NoAccurateSolution`] when every candidate mapping violates
    /// the accuracy tolerance.
    pub fn map_polynomial(&self, target: &Poly) -> Result<MappingSolution, CoreError> {
        let guidance = self.cache.guidance(target);
        let tvars = &guidance.vars;
        let candidates = self.candidates(&guidance.fingerprint);
        if candidates.is_empty() {
            return Err(CoreError::NoCandidateElements {
                target: target.to_string(),
            });
        }
        let ordered = self.order_candidates(target, &guidance, candidates);

        let mut best: Option<MappingSolution> = None;
        let mut nodes = 0_usize;
        let mut path = Path::default();
        // The branch-and-bound within one job is sequential and a pure
        // function of (target, library, config), so every event below is
        // deterministic job-channel material.
        trace_span!(begin "mapper.search", candidates = ordered.len());
        let explored = self.explore(target, tvars, &ordered, 0, &mut path, &mut best, &mut nodes);
        trace_span!(
            end "mapper.search",
            nodes = nodes,
            found = best.is_some() as usize,
        );
        explored?;

        let mut best = best.ok_or_else(|| CoreError::NoAccurateSolution {
            target: target.to_string(),
            required: self.config.accuracy_tolerance,
        })?;
        best.nodes_explored = nodes;
        Ok(best)
    }

    /// Elements that share at least one variable with the target, in
    /// library insertion order.
    ///
    /// The library's shard index rejects on support disjointness only, per
    /// *shard* instead of per element. Degree signatures deliberately take
    /// no part in rejection here: a low-degree target can still be mapped
    /// through higher-degree elements whose ideal cancels the excess (see
    /// `DESIGN.md` §9 for the counterexample), so support disjointness is
    /// the only sound filter.
    fn candidates(&self, tfp: &PolyFingerprint) -> Vec<&'_ LibraryElement> {
        let scan = self.library.candidates(tfp);
        // Deterministic per-job prune record (a pure function of target
        // and library), plus scheduling-tolerant aggregate counters.
        trace_event!(
            "mapper.candidates",
            shards_skipped = scan.stats.shards_skipped,
            shards_scanned = scan.stats.shards_scanned,
            rejected = scan.stats.rejected,
            kept = scan.stats.kept,
        );
        let metrics = self.cache.metrics();
        metrics
            .counter("index.shards_skipped")
            .add(scan.stats.shards_skipped as u64);
        metrics
            .counter("index.rejected")
            .add(scan.stats.rejected as u64);
        metrics.counter("index.kept").add(scan.stats.kept as u64);
        scan.elements
    }

    /// Orders candidates using the factorization guideline: an element whose
    /// polynomial is the target itself comes first, then elements whose
    /// polynomial is one of the target's factors; within a rank, elements
    /// covering more of the target's variables come first and ties are
    /// broken by ascending cost so cheaper alternatives are reached earlier.
    ///
    /// Fingerprints screen every exact polynomial comparison here: a
    /// `may_equal` miss proves inequality and a `shared_support_count` is the
    /// exact distinct-shared-variable count, so each candidate's score — and
    /// therefore the final order — is identical to the unscreened
    /// computation, element for element. The target's factors and
    /// fingerprints come from the shared cache's guidance memo, and each
    /// score is computed once (`sort_by_cached_key`, stable like
    /// `sort_by_key`).
    fn order_candidates<'a>(
        &self,
        target: &Poly,
        guidance: &TargetGuidance,
        mut candidates: Vec<&'a LibraryElement>,
    ) -> Vec<&'a LibraryElement> {
        if !self.config.use_guidance {
            candidates.sort_by(|a, b| a.name().cmp(b.name()));
            return candidates;
        }
        let tfp = &guidance.fingerprint;
        let score = |e: &LibraryElement| -> i64 {
            let efp = e.fingerprint();
            let mut s = 0_i64;
            if guidance
                .factors
                .iter()
                .any(|(f, ffp)| ffp.may_equal(efp) && f == e.polynomial())
            {
                s -= 1_000_000;
            }
            if tfp.may_equal(efp) && e.polynomial() == target {
                s -= 2_000_000;
            }
            // Elements covering more of the target's variables first.
            s -= efp.shared_support_count(tfp) as i64 * 1_000;
            s + e.cycles() as i64
        };
        candidates.sort_by_cached_key(|e| score(e));
        candidates
    }

    #[allow(clippy::too_many_arguments)]
    fn explore<'a>(
        &self,
        target: &Poly,
        tvars: &VarSet,
        candidates: &[&'a LibraryElement],
        start: usize,
        path: &mut Path<'a>,
        best: &mut Option<MappingSolution>,
        nodes: &mut usize,
    ) -> Result<(), CoreError> {
        if *nodes >= self.config.max_nodes {
            return Ok(());
        }
        *nodes += 1;
        // The newest element joins the generator stack at its first node:
        // this is where its symbol is first interned, and a self-referential
        // element fails here, at the node that would have priced it.
        if let Some(newest) = path.elements.last() {
            let relation = newest.side_relation();
            relation.check()?;
            path.generators.push(relation.generator());
        }

        let priced = self.price(target, tvars, path);
        let chosen_element_cost: u64 = priced
            .used
            .iter()
            .map(|(e, times)| e.cycles() * *times as u64)
            .sum();

        let acceptable = priced.accuracy <= self.config.accuracy_tolerance;
        let improves = best
            .as_ref()
            .map(|b| priced.cost.better_than(&b.cost))
            .unwrap_or(true);
        // One subset-pricing decision: what the node cost and whether it was
        // adopted as the incumbent.
        trace_event!(
            "mapper.price",
            depth = path.elements.len(),
            cycles = priced.cost.cycles,
            acceptable = acceptable as usize,
            adopted = (acceptable && improves) as usize,
        );
        if acceptable && improves {
            *best = Some(priced.into_solution(target, &path.elements)?);
        }

        if path.elements.len() >= self.config.max_depth {
            return Ok(());
        }
        // Bounding: the element invocations already selected are a lower bound
        // on any descendant's cost; prune when they cannot beat the incumbent.
        if self.config.use_bounding {
            if let Some(b) = best.as_ref() {
                if chosen_element_cost >= b.cost.cycles {
                    trace_event!(
                        "mapper.prune",
                        depth = path.elements.len(),
                        bound = chosen_element_cost,
                        incumbent = b.cost.cycles,
                    );
                    return Ok(());
                }
            }
        }
        for i in start..candidates.len() {
            let candidate = candidates[i];
            // Two alternatives with the same output symbol (e.g. the float,
            // fixed and IPP versions of the same function) are mutually
            // exclusive within one solution.
            if path
                .elements
                .iter()
                .any(|e| e.output_symbol() == candidate.output_symbol())
            {
                continue;
            }
            path.elements.push(candidate);
            self.explore(target, tvars, candidates, i + 1, path, best, nodes)?;
            path.elements.pop();
            // A child cut by `max_nodes` never pushed its generator.
            path.generators.truncate(path.elements.len());
        }
        Ok(())
    }

    /// Prices the mapping induced by the path's chosen elements: the target
    /// reduced modulo their side relations under
    /// [`default_order`](symmap_algebra::simplify::default_order)'s
    /// policy (target variables, then body variables, then symbols), the
    /// invocations of each element and the residual software.
    fn price<'a>(&self, target: &Poly, tvars: &VarSet, path: &Path<'a>) -> Priced<'a> {
        let mut order = tvars.clone();
        for e in &path.elements {
            for v in e.side_relation().body_vars().iter() {
                order.push(v);
            }
        }
        let symbols: VarSet = path
            .elements
            .iter()
            .map(|e| e.side_relation().symbol())
            .collect();
        for v in symbols.iter() {
            order.push(v);
        }
        let simplification = simplify_generators(
            target,
            &path.generators,
            order,
            &self.config.groebner,
            &self.cache,
        );
        let rewritten = simplification.result;

        let mut used: Vec<(&'a LibraryElement, u32)> = Vec::new();
        for e in &path.elements {
            let sym = e.side_relation().symbol();
            let occurrences: u32 = rewritten.iter().map(|(m, _)| m.degree_of(sym)).sum();
            if occurrences > 0 {
                used.push((e, occurrences));
            }
        }

        let mut cost = CostEstimate::zero();
        for (e, times) in &used {
            let unit = self.evaluator.element_cost(e);
            cost = cost.add(&CostEstimate {
                cycles: unit.cycles * *times as u64,
                energy_nj: unit.energy_nj * *times as f64,
            });
        }
        cost = cost.add(&self.evaluator.residual_cost(
            &rewritten,
            &symbols,
            self.config.float_residual,
        ));
        let accuracy = combined_accuracy(&used);

        Priced {
            rewritten,
            used,
            cost,
            accuracy,
            basis_complete: simplification.complete,
        }
    }
}

/// The search's current subset: the chosen elements and, for every chosen
/// element whose node has been visited, its borrowed side-relation generator
/// (so `generators.len() <= elements.len()`).
#[derive(Default)]
struct Path<'a> {
    elements: Vec<&'a LibraryElement>,
    generators: Vec<&'a Poly>,
}

/// One node's pricing, before (and unless) it becomes the incumbent.
struct Priced<'a> {
    rewritten: Poly,
    /// The chosen elements the rewrite invokes, with their invocation counts.
    used: Vec<(&'a LibraryElement, u32)>,
    cost: CostEstimate,
    accuracy: f64,
    basis_complete: bool,
}

impl Priced<'_> {
    /// The full solution record, built only for an adopted incumbent.
    fn into_solution(
        self,
        target: &Poly,
        chosen: &[&LibraryElement],
    ) -> Result<MappingSolution, CoreError> {
        let mut relations = SideRelations::new();
        for e in chosen {
            relations.push(e.output_symbol(), e.polynomial().clone())?;
        }
        Ok(MappingSolution {
            target: target.clone(),
            rewritten: self.rewritten,
            used_elements: self
                .used
                .iter()
                .map(|(e, times)| (e.name().to_string(), *times))
                .collect(),
            relations,
            cost: self.cost,
            accuracy: self.accuracy,
            nodes_explored: 0,
            basis_complete: self.basis_complete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_algebra::simplify::{default_order, simplify_modulo_ordered};
    use symmap_algebra::var::Var;

    fn element(name: &str, symbol: &str, poly: &str, cycles: u64, accuracy: f64) -> LibraryElement {
        LibraryElement::builder(name, symbol)
            .polynomial(Poly::parse(poly).unwrap())
            .cycles(cycles)
            .energy_nj(cycles as f64)
            .accuracy(accuracy)
            .build()
            .unwrap()
    }

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn maps_perfect_square_onto_sum_element() {
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 4, 1e-9));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let sol = mapper.map_polynomial(&p("x^2 + 2*x*y + y^2")).unwrap();
        assert!(sol.uses_element("sum"));
        assert!(sol.verify());
        assert!(sol.is_complete());
        assert_eq!(sol.rewritten, p("s^2"));
    }

    #[test]
    fn picks_cheapest_accurate_alternative() {
        // Three implementations of the same function (like float/fixed/IPP in
        // Table 1): cheapest accurate one must win.
        let mut lib = Library::new("t");
        lib.push(element("impl_float", "f1", "a*b + c", 900, 1e-15));
        lib.push(element("impl_fixed", "f1", "a*b + c", 40, 1e-7));
        lib.push(element("impl_ipp", "f1", "a*b + c", 8, 1e-7));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let sol = mapper.map_polynomial(&p("a*b + c")).unwrap();
        assert_eq!(sol.element_names(), vec!["impl_ipp"]);
    }

    #[test]
    fn accuracy_tolerance_excludes_sloppy_elements() {
        let mut lib = Library::new("t");
        lib.push(element("sloppy", "f1", "a*b + c", 5, 1e-1));
        lib.push(element("precise", "f1", "a*b + c", 200, 1e-9));
        let mapper = Mapper::new(
            &lib,
            MapperConfig {
                accuracy_tolerance: 1e-6,
                ..MapperConfig::default()
            },
        );
        let sol = mapper.map_polynomial(&p("a*b + c")).unwrap();
        assert_eq!(sol.element_names(), vec!["precise"]);
    }

    #[test]
    fn combines_two_elements() {
        // x^2 - y^2 + x*y maps onto sum*diff + prod.
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 3, 1e-9));
        lib.push(element("diff", "d", "x - y", 3, 1e-9));
        lib.push(element("prod", "q", "x*y", 5, 1e-9));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let sol = mapper.map_polynomial(&p("x^2 - y^2 + x*y")).unwrap();
        assert!(sol.verify());
        assert!(sol.is_complete(), "rewritten {}", sol.rewritten);
        assert!(sol.used_elements.len() >= 2);
    }

    #[test]
    fn no_candidates_is_an_error() {
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "a + b", 3, 1e-9));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let err = mapper.map_polynomial(&p("u^2 + v")).unwrap_err();
        assert!(matches!(err, CoreError::NoCandidateElements { .. }));
    }

    #[test]
    fn residual_left_when_library_only_partially_covers() {
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 3, 1e-9));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let sol = mapper
            .map_polynomial(&p("x^2 + 2*x*y + y^2 + z^3"))
            .unwrap();
        assert!(sol.uses_element("sum"));
        assert!(!sol.is_complete());
        assert!(sol.verify());
    }

    #[test]
    fn imdct_line_maps_onto_mac_chain() {
        // The paper's earlier work maps IMDCT lines onto MACs; with a MAC-style
        // element (a linear form) the full 4-tap line maps completely.
        let mut lib = Library::new("t");
        lib.push(element(
            "dot4",
            "m",
            "c0*y0 + c1*y1 + c2*y2 + c3*y3",
            12,
            1e-8,
        ));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let sol = mapper
            .map_polynomial(&p("c0*y0 + c1*y1 + c2*y2 + c3*y3"))
            .unwrap();
        assert_eq!(sol.rewritten, p("m"));
        assert!(sol.is_complete());
    }

    #[test]
    fn bounding_and_guidance_do_not_change_the_winner() {
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 3, 1e-9));
        lib.push(element("diff", "d", "x - y", 3, 1e-9));
        lib.push(element("prod", "q", "x*y", 5, 1e-9));
        lib.push(element("sq_x", "sx", "x^2", 4, 1e-9));
        let target = p("x^2 - y^2");
        let full = Mapper::new(&lib, MapperConfig::default())
            .map_polynomial(&target)
            .unwrap();
        let plain = Mapper::new(
            &lib,
            MapperConfig {
                use_bounding: false,
                use_guidance: false,
                ..MapperConfig::default()
            },
        )
        .map_polynomial(&target)
        .unwrap();
        assert_eq!(full.cost.cycles, plain.cost.cycles);
        // Without pruning/guidance at least as many nodes are explored.
        assert!(plain.nodes_explored >= full.nodes_explored);
    }

    #[test]
    fn memoization_reuses_bases_across_targets() {
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 4, 1e-9));
        lib.push(element("prod", "q", "x*y", 5, 1e-9));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        mapper.map_polynomial(&p("x^2 + 2*x*y + y^2")).unwrap();
        let (hits_first, misses_first) = mapper.cache_stats();
        assert!(misses_first > 0);
        // A second target over the same variables prices the same element
        // subsets, so its side-relation bases come from the cache.
        mapper
            .map_polynomial(&p("x^2 + 2*x*y + y^2 + x*y"))
            .unwrap();
        let (hits_second, misses_second) = mapper.cache_stats();
        assert!(
            hits_second > hits_first,
            "second target produced no cache hits ({hits_first} -> {hits_second})"
        );
        // Mapping the first target again is answered entirely from the cache
        // (the deterministic search re-prices exactly the same subsets).
        mapper.map_polynomial(&p("x^2 + 2*x*y + y^2")).unwrap();
        assert_eq!(mapper.cache_stats().1, misses_second);
    }

    #[test]
    fn renamed_libraries_sharing_a_cache_map_to_renamed_solutions() {
        // Two libraries over disjoint variable/symbol names but identical
        // element shapes, sharing one cache: each maps its own target to
        // the same structural solution in its own name space.
        let cache = std::sync::Arc::new(SharedGroebnerCache::new());
        let mut lib_a = Library::new("a");
        lib_a.push(element("sum_a", "as1", "ax + ay", 4, 1e-9));
        lib_a.push(element("prod_a", "ap1", "ax*ay", 5, 1e-9));
        let mut lib_b = Library::new("b");
        lib_b.push(element("sum_b", "bs1", "bx + by", 4, 1e-9));
        lib_b.push(element("prod_b", "bp1", "bx*by", 5, 1e-9));

        let mapper_a =
            Mapper::with_shared_cache(Arc::new(lib_a), MapperConfig::default(), Arc::clone(&cache));
        let sol_a = mapper_a
            .map_polynomial(&p("ax^2 + 2*ax*ay + ay^2"))
            .unwrap();

        let mapper_b =
            Mapper::with_shared_cache(Arc::new(lib_b), MapperConfig::default(), Arc::clone(&cache));
        let sol_b = mapper_b
            .map_polynomial(&p("bx^2 + 2*bx*by + by^2"))
            .unwrap();
        // Same structural solution either way, in each name space.
        assert_eq!(sol_a.rewritten, p("as1^2"));
        assert_eq!(sol_b.rewritten, p("bs1^2"));
        assert!(sol_a.verify() && sol_b.verify());
    }

    #[test]
    fn truncated_groebner_run_is_flagged_but_still_verifies() {
        // prod and sq_x have incomparable, non-coprime leading monomials
        // (x*y vs x^2), so their 2-relation basis needs at least one real
        // S-polynomial reduction: a zero-iteration bound deterministically
        // truncates it. The target x^3*y = (x^2)*(x*y) maps fully onto both
        // elements, making {prod, sq_x} the unique cheapest subset.
        let mut lib = Library::new("t");
        lib.push(element("prod", "q", "x*y", 5, 1e-9));
        lib.push(element("sq_x", "u", "x^2", 4, 1e-9));
        let target = p("x^3*y");
        let full = Mapper::new(&lib, MapperConfig::default())
            .map_polynomial(&target)
            .unwrap();
        assert!(full.basis_complete);
        assert!(full.uses_element("prod") && full.uses_element("sq_x"));
        let truncated = Mapper::new(
            &lib,
            MapperConfig {
                groebner: symmap_algebra::groebner::GroebnerOptions {
                    max_iterations: 0,
                    ..Default::default()
                },
                ..MapperConfig::default()
            },
        )
        .map_polynomial(&target)
        .unwrap();
        // The winner still combines both relations, its basis is truncated,
        // and the solution must say so rather than silently pretending the
        // rewrite is canonical — while remaining a valid rewrite: "basis
        // truncated" is explicitly not "not mappable".
        assert!(truncated.uses_element("prod") && truncated.uses_element("sq_x"));
        assert!(!truncated.basis_complete);
        assert!(truncated.verify(), "truncated rewrite must stay sound");
        assert!(truncated.accuracy <= 1e-4);
    }

    #[test]
    fn fingerprint_index_is_invisible_to_results() {
        // Mixed supports so the index genuinely skips shards, plus
        // equal-polynomial alternatives so the ordering prefilters engage.
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 3, 1e-9));
        lib.push(element("diff", "d", "x - y", 3, 1e-9));
        lib.push(element("prod", "q", "x*y", 5, 1e-9));
        lib.push(element("sq_x", "sx", "x^2", 4, 1e-9));
        lib.push(element("other", "o", "u*w + u^2", 2, 1e-9));
        lib.push(element("sum_ipp", "s", "x + y", 2, 1e-7));
        for target in [
            "x^2 + 2*x*y + y^2",
            "x^2 - y^2 + x*y",
            "x^3*y",
            "u*w + u^2 + x",
            "q^2 + 1",
        ] {
            let t = p(target);
            let tvars = t.vars();
            let scan: Vec<&LibraryElement> = lib
                .iter()
                .filter(|e| e.polynomial().vars().iter().any(|v| tvars.contains(v)))
                .collect();
            // The mapper is deterministic given its candidate list, so the
            // index must hand it exactly the scan's elements, in scan order.
            let indexed = lib.candidates(&PolyFingerprint::of(&t)).elements;
            assert_eq!(indexed.len(), scan.len(), "candidate count for {target}");
            assert!(
                indexed.iter().zip(&scan).all(|(a, b)| std::ptr::eq(*a, *b)),
                "index changed the candidate list for {target}"
            );
        }
    }

    #[test]
    fn candidate_scan_counters_accumulate_on_the_cache_metrics() {
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 3, 1e-9));
        lib.push(element("other", "o", "u*w", 2, 1e-9));
        let mapper = Mapper::new(&lib, MapperConfig::default());
        mapper.map_polynomial(&p("x^2 + 2*x*y + y^2")).unwrap();
        let snapshot = mapper.cache.metrics().snapshot();
        assert_eq!(snapshot.counter("index.kept"), 1);
        assert_eq!(snapshot.counter("index.rejected"), 1);
        assert_eq!(snapshot.counter("index.shards_skipped"), 1);
    }

    /// The search as it ran before per-element side relations, kept as the
    /// oracle: every node builds a `SideRelations`, prices it through
    /// `simplify_modulo_ordered` under `default_order` and looks the used
    /// elements up by name. At each node it also checks that
    /// [`Mapper::price`] over the same path prices the subset identically.
    struct Oracle<'m> {
        mapper: &'m Mapper,
        target: &'m Poly,
        tvars: VarSet,
        best: Option<MappingSolution>,
        nodes: usize,
    }

    impl<'m> Oracle<'m> {
        fn map(mapper: &'m Mapper, target: &'m Poly) -> Result<MappingSolution, CoreError> {
            let guidance = mapper.cache.guidance(target);
            let candidates = mapper.candidates(&guidance.fingerprint);
            if candidates.is_empty() {
                return Err(CoreError::NoCandidateElements {
                    target: target.to_string(),
                });
            }
            let ordered = mapper.order_candidates(target, &guidance, candidates);
            let mut oracle = Oracle {
                mapper,
                target,
                tvars: guidance.vars.clone(),
                best: None,
                nodes: 0,
            };
            oracle.explore(&ordered, 0, &mut Vec::new())?;
            let mut best = oracle.best.ok_or_else(|| CoreError::NoAccurateSolution {
                target: target.to_string(),
                required: mapper.config.accuracy_tolerance,
            })?;
            best.nodes_explored = oracle.nodes;
            Ok(best)
        }

        fn explore<'a>(
            &mut self,
            candidates: &[&'a LibraryElement],
            start: usize,
            chosen: &mut Vec<&'a LibraryElement>,
        ) -> Result<(), CoreError> {
            let config = &self.mapper.config;
            if self.nodes >= config.max_nodes {
                return Ok(());
            }
            self.nodes += 1;
            let solution = self.evaluate(chosen)?;
            let library = &self.mapper.library;
            let chosen_element_cost: u64 = solution
                .used_elements
                .iter()
                .filter_map(|(n, times)| library.element(n).map(|e| e.cycles() * *times as u64))
                .sum();
            let acceptable = solution.is_accurate_within(config.accuracy_tolerance);
            let improves = self
                .best
                .as_ref()
                .map(|b| solution.cost.better_than(&b.cost))
                .unwrap_or(true);
            if acceptable && improves {
                self.best = Some(solution);
            }
            if chosen.len() >= config.max_depth {
                return Ok(());
            }
            if config.use_bounding {
                if let Some(b) = self.best.as_ref() {
                    if chosen_element_cost >= b.cost.cycles {
                        return Ok(());
                    }
                }
            }
            for i in start..candidates.len() {
                let candidate = candidates[i];
                if chosen
                    .iter()
                    .any(|e| e.output_symbol() == candidate.output_symbol())
                {
                    continue;
                }
                chosen.push(candidate);
                self.explore(candidates, i + 1, chosen)?;
                chosen.pop();
            }
            Ok(())
        }

        fn evaluate(&self, chosen: &[&LibraryElement]) -> Result<MappingSolution, CoreError> {
            let mapper = self.mapper;
            let mut relations = SideRelations::new();
            for e in chosen {
                relations.push(e.output_symbol(), e.polynomial().clone())?;
            }
            let simplification = simplify_modulo_ordered(
                self.target,
                &relations,
                default_order(&self.tvars, &relations),
                &mapper.config.groebner,
                &mapper.cache,
            )?;
            let rewritten = simplification.result;
            let mut used_elements: Vec<(String, u32)> = Vec::new();
            for e in chosen {
                let sym = Var::new(e.output_symbol());
                let occurrences: u32 = rewritten.iter().map(|(m, _)| m.degree_of(sym)).sum();
                if occurrences > 0 {
                    used_elements.push((e.name().to_string(), occurrences));
                }
            }
            let by_name = |name: &str| mapper.library.element(name).expect("a chosen element");
            let mut cost = CostEstimate::zero();
            for (name, times) in &used_elements {
                let e = by_name(name);
                cost = cost.add(&CostEstimate {
                    cycles: e.cycles() * *times as u64,
                    energy_nj: e.energy_nj() * *times as f64,
                });
            }
            let accuracy: f64 = used_elements
                .iter()
                .map(|(name, times)| by_name(name).accuracy() * *times as f64)
                .sum();
            cost = cost.add(&mapper.evaluator.residual_cost(
                &rewritten,
                &relations.symbols(),
                mapper.config.float_residual,
            ));

            let path = Path {
                elements: chosen.to_vec(),
                generators: chosen
                    .iter()
                    .map(|e| e.side_relation().generator())
                    .collect(),
            };
            let priced = mapper.price(self.target, &self.tvars, &path);
            assert_eq!(priced.rewritten, rewritten, "rewrite of {chosen:?}");
            assert_eq!(priced.basis_complete, simplification.complete);
            assert_eq!(priced.cost, cost, "cost of {chosen:?}");
            assert_eq!(priced.accuracy.to_bits(), accuracy.to_bits());
            let names: Vec<(String, u32)> = priced
                .used
                .iter()
                .map(|(e, times)| (e.name().to_string(), *times))
                .collect();
            assert_eq!(names, used_elements);

            Ok(MappingSolution {
                target: self.target.clone(),
                rewritten,
                used_elements,
                relations,
                cost,
                accuracy,
                nodes_explored: 0,
                basis_complete: simplification.complete,
            })
        }
    }

    /// Element bodies over three variables: linear, product, square and
    /// mixed shapes, so subsets reduce the target in different ways.
    const SHAPES: [&str; 8] = [
        "dq_a + dq_b",
        "dq_a - dq_b",
        "dq_a*dq_b",
        "dq_a^2",
        "dq_b*dq_c + dq_a",
        "dq_c^2 - dq_a",
        "dq_a*dq_b*dq_c",
        "dq_b + dq_c",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// On small random libraries (alternatives share output symbols,
        /// some elements too inaccurate to use) the search prices every
        /// node as the `SideRelations` search did and returns the same
        /// outcome, node count included, under depth and node caps.
        #[test]
        fn prop_search_prices_every_node_like_the_side_relations_search(
            elements in proptest::collection::vec((0usize..8, 0usize..4, 1u64..60, proptest::prelude::any::<bool>()), 2..7),
            target in (0usize..8, 0usize..8, 0usize..3, 0usize..3),
            max_depth in 1usize..5,
            max_nodes in 1usize..40,
        ) {
            let mut lib = Library::new("prop");
            for (i, (shape, symbol, cycles, accurate)) in elements.iter().enumerate() {
                let accuracy = if *accurate { 1e-9 } else { 1e-3 };
                lib.push(element(
                    &format!("e{i}"),
                    &format!("dq_s{symbol}"),
                    SHAPES[*shape],
                    *cycles,
                    accuracy,
                ));
            }
            let (t1, t2, op, extra) = target;
            let (f, g) = (p(SHAPES[t1]), p(SHAPES[t2]));
            let mut t = match op {
                0 => f.mul(&g),
                1 => f.mul(&f).add(&g),
                _ => f.add(&g.mul(&p("dq_c"))),
            };
            if extra == 0 {
                t = t.add(&p("dq_c^3"));
            }
            for (depth, nodes) in [(max_depth, max_nodes), (max_depth, 20_000), (4, max_nodes)] {
                let config = MapperConfig {
                    max_depth: depth,
                    max_nodes: nodes,
                    ..MapperConfig::default()
                };
                let mapper = Mapper::new(&lib, config);
                let expected = Oracle::map(&mapper, &t);
                let got = mapper.map_polynomial(&t);
                proptest::prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));
            }
        }
    }

    #[test]
    fn bounding_counts_only_the_elements_a_rewrite_uses() {
        // {sum, prod} rewrites the target to s^2 + q for 407 cycles (7 for
        // the elements, 400 for the two residual additions). `high` is
        // never used by a rewrite, so the bound of {sum, high} is sum's
        // 3 invocations, 6 cycles, and its child {sum, high, diff} is still
        // searched; charging `high`'s 500 cycles would prune it.
        let mut lib = Library::new("t");
        lib.push(element("sum", "s", "x + y", 2, 1e-9));
        lib.push(element("prod", "q", "x*y", 3, 1e-9));
        lib.push(element("high", "h", "x^3*y^2", 500, 1e-9));
        lib.push(element("diff", "d", "x - y", 600, 1e-9));
        let target = p("x^2 + 3*x*y + y^2");
        let mapper = Mapper::new(&lib, MapperConfig::default());
        let got = mapper.map_polynomial(&target);
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", Oracle::map(&mapper, &target))
        );
        let solution = got.unwrap();
        assert_eq!(solution.element_names(), vec!["sum", "prod"]);
        assert_eq!(solution.cost.cycles, 407);
    }

    #[test]
    fn node_cap_still_returns_a_solution() {
        let mut lib = Library::new("t");
        for i in 0..12 {
            lib.push(element(
                &format!("e{i}"),
                &format!("v{i}"),
                "x + y",
                10 + i,
                1e-9,
            ));
        }
        let mapper = Mapper::new(
            &lib,
            MapperConfig {
                max_nodes: 5,
                ..MapperConfig::default()
            },
        );
        let sol = mapper.map_polynomial(&p("x^2 + 2*x*y + y^2")).unwrap();
        assert!(sol.verify());
        assert!(sol.nodes_explored <= 5);
    }
}
