//! Buchberger's algorithm for Gröbner bases.
//!
//! Gröbner bases make normal-form reduction canonical: `f` reduces to zero
//! modulo a Gröbner basis of an ideal **iff** `f` is a member of the ideal.
//! The paper leans on this (via Maple) both for simplification modulo side
//! relations and for variable elimination.
//!
//! # Engine design
//!
//! The computation's worst case is exponential (as the paper notes), so the
//! engine earns its keep through bookkeeping rather than raw iteration:
//!
//! * **Heap pair queue.** Pending S-pairs live in a deterministic binary
//!   min-heap keyed by the lcm of the pair's leading monomials (the *normal
//!   selection strategy*), with an optional sugar-degree tiebreak. Selection
//!   is `O(log n)` per pair instead of the former `O(n)` linear scan.
//! * **Criteria.** Buchberger's first (coprime leading monomials, applied at
//!   pair creation) and second (chain, applied at pair selection) criteria
//!   discard pairs whose S-polynomials provably reduce to zero. Both are
//!   independently ablatable via [`GroebnerOptions`].
//! * **Cached leading terms.** The basis is stored as
//!   [`PreparedDivisor`] entries, so leading monomials are computed once per
//!   basis element — pair creation, criteria checks and every division step
//!   reuse the cache instead of rescanning terms.
//! * **Clone-free auto-reduction.** Inter-reduction reduces each element
//!   modulo the others *in place* via an index-skipping division, instead of
//!   deep-cloning the rest of the basis for every tail reduction.
//! * **Ring-local coordinates.** [`buchberger`] rewrites its generators and
//!   order through a per-ideal [`Ring`] into dense local indices `0..n`
//!   before the engine runs, so every monomial operation costs the ideal's
//!   variable count, never the process-wide interner width; conversions are
//!   confined to the entry/exit boundary and the output is byte-identical to
//!   the exact engine run on global coordinates (the oracle of the
//!   differential tests and the `wide_interner` bench).
//! * **Shared memoization.** [`SharedGroebnerCache`] memoizes whole bases by
//!   `(generators, order, options)` in one table behind one lock, with a
//!   bounded FIFO capacity, so the mapper's branch-and-bound — and the batch
//!   engine's worker threads — compute each side-relation basis once per
//!   process. Each cached basis memoizes its normal forms
//!   ([`GroebnerBasis::reduce`]), and the cache memoizes every target's
//!   candidate guidance ([`SharedGroebnerCache::guidance`]), so a batch
//!   derives neither twice.

use std::borrow::Borrow;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use symmap_trace::{trace_event, trace_sched, Counter, Gauge, Histogram, MetricsRegistry};

use crate::coeff::{buchberger_core_in, CPoly, RationalField};
use crate::division::{normal_form, prepared_normal_form, PreparedDivisor};
use crate::fingerprint::TargetGuidance;
use crate::ordering::MonomialOrder;
use crate::poly::Poly;
use crate::ring::Ring;

/// Options controlling the Buchberger computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroebnerOptions {
    /// Upper bound on the number of S-polynomial reductions before giving up.
    /// The mapping algorithm prefers an incomplete basis over an unbounded
    /// computation (its worst case is exponential, as the paper notes).
    /// Criterion skips are free and never count toward this bound.
    pub max_iterations: usize,
    /// Whether to apply Buchberger's first criterion (skip pairs with coprime
    /// leading monomials). Disabling this is only useful in ablation benches.
    pub use_coprime_criterion: bool,
    /// Whether to apply Buchberger's second (chain) criterion: a pair `(i, j)`
    /// is skipped when some other basis element's leading monomial divides
    /// `lcm(lm_i, lm_j)` and both pairs with that element have already been
    /// treated. Disabling this is only useful in ablation benches.
    pub use_chain_criterion: bool,
    /// Break lcm ties in the pair queue by the *sugar degree* (the degree the
    /// S-polynomial would have if the inputs were homogeneous) instead of pair
    /// age alone. Either way the pop order is deterministic; the final
    /// reduced basis is canonical and identical under both tiebreaks.
    pub use_sugar_tiebreak: bool,
    /// Route basis computation through the multi-modular engine
    /// ([`crate::multimodular`]): reduced bases are computed mod a
    /// deterministic prime sequence, CRT-combined, rationally reconstructed
    /// and verified over ℚ, falling back to the exact engine whenever the
    /// lift cannot be certified. The result is byte-identical to the exact
    /// path either way; only the wall clock (and the lift counters) change.
    /// On katsura-3 lex, the coefficient-growth case the lift exists for,
    /// it is 11–16× faster than exact (the `multimodular_lift` quick
    /// bench). **On by default**; a profitability gate still routes small
    /// all-integer ideals straight to the exact engine, where the lift's
    /// fixed cost (1.8–3.1× the exact run) is pure overhead — see
    /// `lift_profitable`. Set `SYMMAP_TEST_MULTIMODULAR=0` to opt out.
    pub multimodular: bool,
}

/// Whether the multi-modular lift is the default compute path: on unless
/// `SYMMAP_TEST_MULTIMODULAR=0`, read once per process so a mid-run
/// environment change can never fork option defaults between threads.
fn multimodular_from_env() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    // lint:allow(D5): this IS the CI switch — the third tier-1 pass sets
    // SYMMAP_TEST_MULTIMODULAR=0 to prove the exact engine remains an
    // independent ground truth with the lift fully disabled.
    *FLAG.get_or_init(|| std::env::var("SYMMAP_TEST_MULTIMODULAR").map_or(true, |v| v != "0"))
}

impl Default for GroebnerOptions {
    fn default() -> Self {
        GroebnerOptions {
            max_iterations: 10_000,
            use_coprime_criterion: true,
            use_chain_criterion: true,
            use_sugar_tiebreak: false,
            multimodular: multimodular_from_env(),
        }
    }
}

/// Ideal-membership verdict of [`GroebnerBasis::membership`].
///
/// On an **incomplete** basis (iteration bound hit) a non-zero normal form
/// proves nothing: the missing basis elements could have reduced it further.
/// Only a complete basis can certify non-membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The polynomial reduces to zero: it is in the ideal. Sound even on an
    /// incomplete basis (every basis element lies in the ideal).
    In,
    /// The polynomial has a non-zero normal form modulo a **complete** basis:
    /// it is definitely not in the ideal.
    NotIn,
    /// Non-zero normal form modulo an *incomplete* basis: membership is
    /// undecided (the truncated basis may simply be too small to reduce it).
    Unknown,
}

/// How many normal forms one basis memoizes ([`GroebnerBasis::reduce`]).
/// Past the bound the oldest inserted target is evicted first.
pub const NF_MEMO_CAPACITY: usize = 64;

/// Registry handles of the normal-form memo, present only on bases handed
/// out by a [`SharedGroebnerCache`] (registered there as `nf.hits` and
/// `nf.misses`).
#[derive(Debug, Clone)]
struct NfCounters {
    hits: Counter,
    misses: Counter,
}

/// A `Poly`-keyed memo table with FIFO eviction: the storage of the
/// normal-form memo and of the cache's guidance layer. Point lookups only
/// (lint rule D1); eviction order comes from `queue`, which shares each key
/// with `entries`.
#[derive(Debug, Clone)]
struct FifoMemo<V> {
    entries: HashMap<Arc<Poly>, V, BuildHasherDefault<WordHasher>>,
    queue: VecDeque<Arc<Poly>>,
}

impl<V> Default for FifoMemo<V> {
    fn default() -> Self {
        FifoMemo {
            entries: HashMap::default(),
            queue: VecDeque::new(),
        }
    }
}

impl<V: Clone> FifoMemo<V> {
    fn get(&self, key: &Poly) -> Option<V> {
        self.entries.get(key).cloned()
    }

    /// Publishes a value computed outside the lock and returns the one the
    /// memo holds: if a racing thread published first, its value is
    /// adopted. Past `capacity` entries the oldest inserted is evicted.
    fn publish(&mut self, key: &Poly, value: V, capacity: usize) -> V {
        let key = Arc::new(key.clone());
        match self.entries.entry(Arc::clone(&key)) {
            Entry::Occupied(existing) => return existing.get().clone(),
            Entry::Vacant(slot) => slot.insert(value.clone()),
        };
        self.queue.push_back(key);
        while self.queue.len() > capacity {
            if let Some(oldest) = self.queue.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        value
    }
}

/// FxHash-style word hasher for the memo tables. Their keys are whole
/// target polynomials, whose dense exponent vectors span the interner width:
/// SipHash took about as long to hash an MP3 target as a memo hit saves.
/// Not DoS-resistant, which is fine for keys the program builds itself.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The normal-form memo of one basis: target → normal form, FIFO-bounded by
/// [`NF_MEMO_CAPACITY`]. A normal form is a pure function of (basis,
/// target), so a memoized answer is the answer.
#[derive(Debug, Default)]
struct NfMemo {
    table: Mutex<FifoMemo<Poly>>,
    counters: Option<NfCounters>,
}

impl NfMemo {
    /// The memoized normal form of `f`, counting the hit or the miss.
    fn get(&self, f: &Poly) -> Option<Poly> {
        let hit = self.table.lock().get(f);
        if hit.is_some() {
            if let Some(c) = &self.counters {
                c.hits.inc();
            }
            trace_sched!("cache.nf.hit");
        } else {
            if let Some(c) = &self.counters {
                c.misses.inc();
            }
            trace_sched!("cache.nf.miss");
        }
        hit
    }

    fn publish(&self, f: &Poly, nf: Poly) -> Poly {
        self.table.lock().publish(f, nf, NF_MEMO_CAPACITY)
    }
}

impl Clone for NfMemo {
    fn clone(&self) -> Self {
        NfMemo {
            table: Mutex::new(self.table.lock().clone()),
            counters: self.counters.clone(),
        }
    }
}

/// A Gröbner basis together with the order it was computed under.
///
/// The basis is held in the **ring-local coordinates** of its computation
/// and globalized lazily: [`GroebnerBasis::reduce`] (and everything built on
/// it — membership, the mapper's pricing) works directly on the local
/// polynomials, so the dominant consumers never materialize global exponent
/// vectors at all. [`GroebnerBasis::polys`] globalizes on first access and
/// memoizes the result.
#[derive(Debug, Clone)]
pub struct GroebnerBasis {
    /// Ring of the computation.
    ring: Ring,
    /// The (reduced, monic) basis in the ring's local coordinates.
    local_polys: Vec<Poly>,
    /// Lazily globalized basis (untouched when the ring is the identity).
    global: OnceLock<Vec<Poly>>,
    /// Lazily prepared reduction state for [`GroebnerBasis::reduce`]'s
    /// local fast path: the localized order plus one [`PreparedDivisor`]
    /// per basis element, built once per basis instead of per call.
    local_prepared: OnceLock<(MonomialOrder, Vec<PreparedDivisor>)>,
    /// Normal forms already computed against this basis.
    nf_memo: NfMemo,
    /// The monomial order of the computation.
    pub order: MonomialOrder,
    /// Whether the computation finished before hitting the iteration bound.
    pub complete: bool,
    /// Number of S-polynomial reductions performed (ablation metric).
    pub reductions: usize,
    /// Pairs discarded by the coprime (first) criterion (ablation metric).
    pub skipped_coprime: usize,
    /// Pairs discarded by the chain (second) criterion (ablation metric).
    pub skipped_chain: usize,
}

impl GroebnerBasis {
    /// The (reduced, monic) basis polynomials in **global** coordinates,
    /// globalized from the ring-local computation on first access and
    /// memoized. Callers that only reduce modulo the basis never pay this —
    /// [`GroebnerBasis::reduce`] stays in local coordinates.
    pub fn polys(&self) -> &[Poly] {
        if self.ring.is_identity() {
            return &self.local_polys;
        }
        self.global.get_or_init(|| {
            self.local_polys
                .iter()
                .map(|p| self.ring.globalize_poly(p))
                .collect()
        })
    }

    /// Normal form of `f` modulo this basis.
    ///
    /// Valid (`f − reduce(f)` lies in the ideal) even when the basis is
    /// incomplete; canonical only when [`GroebnerBasis::complete`] is true.
    ///
    /// When `f` lives inside the basis ring (the mapper's standard case —
    /// targets share the side relations' variables), the whole reduction
    /// runs in ring-local coordinates: divisors are prepared from the local
    /// basis, only the (small) remainder is globalized, and no wide global
    /// exponent vector is ever built. A target with variables outside the
    /// ring falls back to [`normal_form`], which spans a joint ring over
    /// basis and target; both paths are byte-identical to global division.
    ///
    /// The result is memoized per basis (at most [`NF_MEMO_CAPACITY`]
    /// targets, FIFO), so every job that gets this basis from a
    /// [`SharedGroebnerCache`] reduces a given target once.
    pub fn reduce(&self, f: &Poly) -> Poly {
        if let Some(nf) = self.nf_memo.get(f) {
            return nf;
        }
        self.nf_memo.publish(f, self.normal_form_of(f))
    }

    /// [`GroebnerBasis::reduce`] without the memo.
    fn normal_form_of(&self, f: &Poly) -> Poly {
        let ring = &self.ring;
        if ring.is_identity() {
            return normal_form(f, &self.local_polys, &self.order);
        }
        match ring.try_localize_poly(f) {
            Some(lf) => {
                let (lorder, prepared) = self.local_prepared.get_or_init(|| {
                    let lorder = self.order.localized(ring);
                    let prepared = self
                        .local_polys
                        .iter()
                        .filter_map(|g| PreparedDivisor::new(g.clone(), &lorder))
                        .collect();
                    (lorder, prepared)
                });
                ring.globalize_poly(&prepared_normal_form(&lf, prepared, lorder, None))
            }
            None => normal_form(f, self.polys(), &self.order),
        }
    }

    /// Three-valued ideal-membership test; see [`Membership`] for the exact
    /// contract on incomplete bases.
    pub fn membership(&self, f: &Poly) -> Membership {
        if self.reduce(f).is_zero() {
            Membership::In
        } else if self.complete {
            Membership::NotIn
        } else {
            Membership::Unknown
        }
    }

    /// Boolean ideal-membership test: `true` exactly when [`membership`]
    /// returns [`Membership::In`].
    ///
    /// **Caller contract:** on an incomplete basis `false` means *"not proven
    /// a member"*, not *"not a member"* — use [`membership`] when the
    /// distinction matters (the mapper records [`GroebnerBasis::complete`]
    /// alongside every rewrite for exactly this reason).
    ///
    /// [`membership`]: GroebnerBasis::membership
    pub fn contains(&self, f: &Poly) -> bool {
        self.membership(f) == Membership::In
    }
}

/// Basis data in whatever coordinate system the computation ran in — the
/// ring-agnostic core result, wrapped into a [`GroebnerBasis`] (with the
/// caller's order and global coordinates) at the ring boundary.
#[derive(Debug)]
struct CoreBasis {
    polys: Vec<Poly>,
    complete: bool,
    reductions: usize,
    skipped_coprime: usize,
    skipped_chain: usize,
}

/// The Buchberger engine proper. Coordinate-agnostic: generators and order
/// merely have to agree on a coordinate system; [`buchberger`] feeds it
/// ring-local data, the differential tests' oracle feeds it global data.
///
/// Since PR 6 this is a thin ℚ instantiation of the field-generic engine in
/// [`crate::coeff`] (which ℤ/p shares — see [`crate::modular`]). The entry
/// and exit conversions are zero-copy term-vector moves; the arithmetic
/// performed is operation-for-operation identical to the historic concrete
/// engine, pinned down by the seed-oracle differential tests below.
fn buchberger_core(
    generators: &[Poly],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> CoreBasis {
    let cgens: Vec<CPoly<RationalField>> = generators
        .iter()
        .map(|g| CPoly::from_sorted_terms(g.sorted_terms().to_vec()))
        .collect();
    let core = buchberger_core_in(&RationalField, &cgens, order, options);
    let polys: Vec<Poly> = core
        .polys
        .into_iter()
        .map(|p| Poly::from_sorted_terms_unchecked(p.into_terms()))
        .collect();
    CoreBasis {
        polys,
        complete: core.complete,
        reductions: core.reductions,
        skipped_coprime: core.skipped_coprime,
        skipped_chain: core.skipped_chain,
    }
}

/// What one multi-modular attempt did, for the cache's lift counters. `None`
/// when the exact engine ran directly (flag off).
struct LiftReport {
    /// The verified lift produced the basis (no exact run happened).
    success: bool,
    /// The profitability gate routed the request straight to the exact
    /// engine without attempting any prime image.
    bypassed: bool,
    /// Votes/verifications that failed before the outcome was settled.
    retries: usize,
    /// Mod-p prime images that fed the final CRT combine.
    primes_used: usize,
}

/// Numerator size (in bits) at or above which an integer coefficient marks
/// an ideal as lift-profitable: coefficients this wide are already past the
/// single-word fast path and grow further under elimination.
const LIFT_NUMERATOR_BITS: usize = 32;

/// Whether the multi-modular lift is worth attempting on these generators.
///
/// Exact-path cost is driven by *rational coefficient growth* during
/// elimination, and the input-visible trigger is a fractional or wide
/// coefficient in some generator (the katsura-3 lex ideals the lift wins
/// 11–16× on carry a `1/3`). Small all-integer ideals — the mapper's
/// typical side-relation systems — reduce in microseconds over ℚ, where the
/// lift's fixed cost (prime images + CRT + verification) measured 1.8–3.1×
/// the exact run on the three `groebner_engine` ideals (2-thread x86-64,
/// single-threaded runs). A pure function of the
/// generators, so cached bases stay scheduling-independent; the basis is
/// byte-identical on either path (the lift is ℚ-verified before it is
/// trusted), so the gate can never change a result — only a wall clock.
fn lift_profitable(generators: &[Poly]) -> bool {
    generators.iter().any(|g| {
        g.iter()
            .any(|(_, c)| !c.is_integer() || c.numer().bits() >= LIFT_NUMERATOR_BITS)
    })
}

/// Routes one core computation: the multi-modular engine when
/// `options.multimodular` is set (falling back to [`buchberger_core`] if the
/// lift cannot be certified), the exact engine otherwise. Either way the
/// returned basis is byte-identical — the lift is verified over ℚ before it
/// is trusted, and on any doubt the exact path decides.
fn compute_core(
    generators: &[Poly],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> (CoreBasis, Option<LiftReport>) {
    if !options.multimodular {
        return (buchberger_core(generators, order, options), None);
    }
    if !lift_profitable(generators) {
        let report = LiftReport {
            success: false,
            bypassed: true,
            retries: 0,
            primes_used: 0,
        };
        return (buchberger_core(generators, order, options), Some(report));
    }
    let outcome = crate::multimodular::multimodular_basis(generators, order, options);
    let report = LiftReport {
        success: outcome.basis.is_some(),
        bypassed: false,
        retries: outcome.retries,
        primes_used: outcome.primes_used,
    };
    let core = match outcome.basis {
        Some(lifted) => CoreBasis {
            polys: lifted.polys,
            complete: true,
            reductions: lifted.reductions,
            skipped_coprime: lifted.skipped_coprime,
            skipped_chain: lifted.skipped_chain,
        },
        None => buchberger_core(generators, order, options),
    };
    (core, Some(report))
}

/// The ring-local canonical form of a basis request: the spanning [`Ring`]
/// plus the generators and order rewritten into its local coordinates. Two
/// requests with the same localized form are equal up to a variable renaming
/// (or up to order entries outside the ideal's ring), so their bases are the
/// same core computation under two renamings.
fn ring_localized<G: Borrow<Poly>>(
    generators: &[G],
    order: &MonomialOrder,
) -> (Ring, Vec<Poly>, MonomialOrder) {
    let ring = Ring::spanning(generators.iter().map(Borrow::borrow));
    let lorder = order.localized(&ring);
    let lgens = if ring.is_identity() {
        generators.iter().map(|g| g.borrow().clone()).collect()
    } else {
        generators
            .iter()
            .map(|g| ring.localize_poly(g.borrow()))
            .collect()
    };
    (ring, lgens, lorder)
}

/// Wraps a core result (in `ring`'s local coordinates) into a lazily
/// globalizing [`GroebnerBasis`] under the caller's order.
fn basis_from_core(
    core: CoreBasis,
    ring: Ring,
    order: &MonomialOrder,
    nf_counters: Option<NfCounters>,
) -> GroebnerBasis {
    GroebnerBasis {
        ring,
        local_polys: core.polys,
        global: OnceLock::new(),
        local_prepared: OnceLock::new(),
        nf_memo: NfMemo {
            table: Mutex::default(),
            counters: nf_counters,
        },
        order: order.clone(),
        complete: core.complete,
        reductions: core.reductions,
        skipped_coprime: core.skipped_coprime,
        skipped_chain: core.skipped_chain,
    }
}

/// Computes a Gröbner basis of the ideal generated by `generators` under
/// `order` using Buchberger's algorithm with the heap pair queue and the
/// configured criteria, followed by auto-reduction to the unique reduced
/// basis (up to scaling; all elements are returned monic).
///
/// The computation runs in **ring-local coordinates**: a [`Ring`] spanning
/// the generators is built once, generators and order are rewritten into its
/// dense `0..n` indices, and every monomial operation inside the engine then
/// costs `O(n)` — the ideal's variable count — independent of how many
/// symbols the process-wide interner holds. The result is globalized at exit
/// and is byte-identical to the global-coordinate path (differential-tested
/// against the exact engine on global coordinates); when the ring already
/// coincides with the interner prefix (the mapper's intern-early profile)
/// the conversions are skipped entirely.
pub fn buchberger(
    generators: &[Poly],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> GroebnerBasis {
    let (ring, lgens, lorder) = ring_localized(generators, order);
    let (core, _lift) = compute_core(&lgens, &lorder, options);
    basis_from_core(core, ring, order, None)
}

/// Computes a Gröbner basis with default options.
pub fn groebner_basis(generators: &[Poly], order: &MonomialOrder) -> GroebnerBasis {
    buchberger(generators, order, &GroebnerOptions::default())
}

/// Sizing of a [`SharedGroebnerCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Bounded capacity in memoized bases. Past it, the oldest *inserted*
    /// entry is evicted (deterministic insertion-order eviction).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 4096 }
    }
}

/// The basis table's counters: a readout of the registry metrics
/// `cache.{hits,misses,evictions,len}`. Per-batch windows come from
/// [`MetricsSnapshot::delta_since`](symmap_trace::MetricsSnapshot::delta_since).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that computed a fresh entry.
    pub misses: usize,
    /// Entries evicted by the capacity bound.
    pub evictions: usize,
    /// Entries currently memoized.
    pub len: usize,
}

impl CacheStats {
    /// The `cache.*` totals in `snapshot` (`len` is the gauge's level; the
    /// rest are counters).
    pub fn from_snapshot(snapshot: &symmap_trace::MetricsSnapshot) -> Self {
        CacheStats {
            hits: snapshot.counter("cache.hits") as usize,
            misses: snapshot.counter("cache.misses") as usize,
            evictions: snapshot.counter("cache.evictions") as usize,
            len: snapshot.gauge("cache.len") as usize,
        }
    }
}

/// Point-in-time counters of the multi-modular lift
/// ([`SharedGroebnerCache::lift_stats`]). All zero when no request carried
/// [`GroebnerOptions::multimodular`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiftStats {
    /// Basis computations settled entirely by the verified lift: the mod-p
    /// images CRT-combined, reconstructed and verified over ℚ, so the exact
    /// engine never ran.
    pub lift_success: usize,
    /// Reconstruction/verification rounds that failed and forced another
    /// prime before the outcome was settled (a run that eventually succeeds
    /// still counts its earlier failed rounds here).
    pub lift_retry: usize,
    /// Basis computations the lift could not certify, answered by the exact
    /// fallback instead. The result is still correct — just not faster.
    pub lift_fallback: usize,
    /// Requests the profitability gate routed straight to the exact engine
    /// (small all-integer ideals) without attempting a prime image.
    pub lift_bypass: usize,
    /// Mod-p prime images that fed the final CRT combine, summed over
    /// successful lifts (1 means single-prime coefficients all round).
    pub crt_primes_used: usize,
}

/// One memoized basis, with the request it answers.
#[derive(Debug)]
struct CacheEntry {
    order: MonomialOrder,
    options: GroebnerOptions,
    generators: Vec<Poly>,
    basis: Arc<GroebnerBasis>,
}

impl CacheEntry {
    fn answers<G: Borrow<Poly>>(
        &self,
        generators: &[G],
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> bool {
        self.order == *order
            && self.options == *options
            && self.generators.len() == generators.len()
            && self
                .generators
                .iter()
                .zip(generators)
                .all(|(own, g)| own == g.borrow())
    }
}

// Determinism audit (rule D1, symmap-lint): the basis table keeps its
// entries in a HashMap, which is safe ONLY because no code path ever
// iterates it — every access is a point lookup (`get`/`entry`) keyed by a
// key id. Eviction order comes from the FIFO `queue: VecDeque<…>` (front =
// victim), never from map iteration; aggregate stats are registry totals.
// The same holds for `FifoMemo` (the normal-form memo and the guidance
// layer). Anyone adding a render/debug path that walks `entries` must sort
// the keys first or switch the table to a BTreeMap.
/// The cache's basis table.
#[derive(Debug, Default)]
struct BasisTable {
    /// [`global_key_id`] → the entries whose request hashes to it, compared
    /// by equality. The id is computed once per request (it is also the
    /// trace marker), so a lookup hashes nothing again and a hit allocates
    /// and clones nothing.
    entries: HashMap<u64, Vec<CacheEntry>, BuildHasherDefault<WordHasher>>,
    /// Key ids and bases in insertion order; the front is the eviction
    /// victim, found in its bucket by pointer. Inserts and removals are 1:1
    /// with the queue, so `queue.len()` *is* the table length.
    queue: VecDeque<(u64, Arc<GroebnerBasis>)>,
}

impl BasisTable {
    fn lookup<G: Borrow<Poly>>(
        &self,
        key_id: u64,
        generators: &[G],
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> Option<&Arc<GroebnerBasis>> {
        let bucket = self.entries.get(&key_id)?;
        bucket
            .iter()
            .find(|e| e.answers(generators, order, options))
            .map(|e| &e.basis)
    }

    /// Removes the oldest inserted entry, if any.
    fn evict_oldest(&mut self) {
        let Some((key_id, basis)) = self.queue.pop_front() else {
            return;
        };
        if let Entry::Occupied(mut bucket) = self.entries.entry(key_id) {
            bucket.get_mut().retain(|e| !Arc::ptr_eq(&e.basis, &basis));
            if bucket.get().is_empty() {
                bucket.remove();
            }
        }
    }
}

/// A thread-safe, capacity-bounded memoization layer over [`buchberger`],
/// keyed by `(generators, order, options)`.
///
/// The mapper's branch-and-bound search and the optimization pipeline price
/// many candidate element subsets, and distinct targets (or repeated pipeline
/// runs) routinely share a side-relation set — recomputing the identical
/// basis dominated the mapper's hot path. Bases are shared via [`Arc`], so a
/// hit costs one pointer clone; the cache itself is `Send + Sync` and is
/// shared across the batch engine's worker threads behind one [`Arc`].
///
/// # Concurrency
///
/// Entries live in one table behind one lock. A miss computes the basis
/// *outside* the lock — other lookups proceed, and two threads racing on one
/// key both compute the same pure value (the loser adopts the winner's
/// entry, so at most one copy is retained). Counter totals under
/// concurrency are therefore timing-dependent, but cached *values* never
/// are: a basis is a pure function of its key, which is what makes the
/// batch engine's output independent of the worker count.
///
/// # Eviction
///
/// Capacity is bounded ([`CacheConfig::capacity`]). When the table
/// overflows, its oldest inserted entry is evicted first — deterministic
/// insertion-order (FIFO) eviction, so a long-lived engine's memory stays
/// bounded without any clock- or randomness-dependent policy.
#[derive(Debug)]
pub struct SharedGroebnerCache {
    table: Mutex<BasisTable>,
    /// The unified registry every counter below registers into. The batch
    /// engine snapshots this registry before/after a run and reports the
    /// delta — there is no second stats bookkeeping path.
    metrics: Arc<MetricsRegistry>,
    /// The basis table's totals (`cache.*`).
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    len: Gauge,
    lift_success: Counter,
    lift_retry: Counter,
    lift_fallback: Counter,
    lift_bypass: Counter,
    crt_primes_used: Counter,
    /// Distribution of S-polynomial reduction counts per core computation.
    reduction_sizes: Histogram,
    /// Handles every basis this cache hands out counts its normal-form memo
    /// hits and misses on.
    nf_counters: NfCounters,
    /// The guidance layer ([`SharedGroebnerCache::guidance`]): target →
    /// candidate guidance, FIFO-bounded by [`CacheConfig::capacity`].
    guidance: Mutex<FifoMemo<Arc<TargetGuidance>>>,
    guidance_hits: Counter,
    guidance_misses: Counter,
    capacity: usize,
}

impl Default for SharedGroebnerCache {
    fn default() -> Self {
        SharedGroebnerCache::new()
    }
}

/// Compile-time guard: the cache (and the `Arc`-shared bases it hands out)
/// must be `Send + Sync`, so the mapper can never silently regress to a
/// single-thread-only cache again (its first incarnation was `Rc`/`RefCell`
/// based, which made every consumer `!Send`).
#[allow(dead_code)]
fn _assert_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedGroebnerCache>();
    assert_send_sync::<Arc<GroebnerBasis>>();
    assert_send_sync::<GroebnerBasis>();
}

impl SharedGroebnerCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        SharedGroebnerCache::with_config(CacheConfig::default())
    }

    /// Creates an empty cache with an explicit capacity, clamped to at least
    /// one entry.
    pub fn with_config(config: CacheConfig) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        SharedGroebnerCache {
            table: Mutex::default(),
            hits: metrics.counter("cache.hits"),
            misses: metrics.counter("cache.misses"),
            evictions: metrics.counter("cache.evictions"),
            len: metrics.gauge("cache.len"),
            lift_success: metrics.counter("lift.success"),
            lift_retry: metrics.counter("lift.retry"),
            lift_fallback: metrics.counter("lift.fallback"),
            lift_bypass: metrics.counter("lift.bypass"),
            crt_primes_used: metrics.counter("lift.crt_primes"),
            reduction_sizes: metrics.histogram("groebner.reductions"),
            nf_counters: NfCounters {
                hits: metrics.counter("nf.hits"),
                misses: metrics.counter("nf.misses"),
            },
            guidance: Mutex::default(),
            guidance_hits: metrics.counter("guidance.hits"),
            guidance_misses: metrics.counter("guidance.misses"),
            metrics,
            capacity: config.capacity.max(1),
        }
    }

    /// The unified metrics registry this cache's counters live in. The batch
    /// engine shares it (pool counters register here too) and reports
    /// per-batch activity as one snapshot delta.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of every metric in the registry.
    pub fn metrics_snapshot(&self) -> symmap_trace::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Runs the core computation of a missed request, given in ring-local
    /// coordinates, and counts it. Called outside the table lock.
    fn compute(
        &self,
        generators: &[Poly],
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> CoreBasis {
        // Compute-channel scope, keyed by the fixed-seed hash of the
        // ring-local request: the computation below is a pure function of
        // it, so racing duplicate computations — and requests equal up to a
        // variable renaming — record byte-identical streams that collapse
        // onto one key in the collector (DESIGN.md §8). Which lookup
        // computes is scheduling-dependent — that outcome was reported to
        // the sched channel by the caller.
        // lint:allow(D6): the shared cache IS the compute-channel entry point
        let _compute_scope = symmap_trace::recorder::install_compute_scope(
            global_key_id(generators, order, options),
            &format!("groebner: {} gens", generators.len()),
        );
        let (core, lift) = compute_core(generators, order, options);
        trace_event!(
            "groebner.core",
            // "Pair selections": every queue pop is either a chain-criterion
            // skip or a reduction; coprime skips never enter the queue.
            pairs = core.reductions + core.skipped_chain,
            reductions = core.reductions,
            skipped_coprime = core.skipped_coprime,
            skipped_chain = core.skipped_chain,
            basis_len = core.polys.len(),
            complete = core.complete as usize,
        );
        self.reduction_sizes.observe(core.reductions as u64);
        if let Some(report) = lift {
            if report.bypassed {
                self.lift_bypass.inc();
            } else if report.success {
                self.lift_success.inc();
                self.crt_primes_used.add(report.primes_used as u64);
            } else {
                self.lift_fallback.inc();
            }
            if report.retries > 0 {
                self.lift_retry.add(report.retries as u64);
            }
        }
        core
    }

    /// Returns the (possibly cached) Gröbner basis of `generators` under
    /// `order` with `options`, computing and memoizing it on first use.
    ///
    /// The table is keyed by the request verbatim — a hit is one pointer
    /// clone. A miss rewrites the request into ring-local coordinates
    /// (generators and order through a spanning [`Ring`] into dense local
    /// indices), runs the core computation there and publishes the lazily
    /// globalizing basis.
    ///
    /// The generators may be borrowed (`&[&Poly]`): a request is hashed once,
    /// and the generators are cloned only when a miss stores its basis.
    pub fn basis<G: Borrow<Poly> + Hash>(
        &self,
        generators: &[G],
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> Arc<GroebnerBasis> {
        // Job-channel request marker: the sequence of basis requests a job
        // makes is a pure function of the job's inputs, so this event is
        // deterministic. The *outcome* (hit vs miss) is scheduling-dependent
        // and goes to the sched channel below.
        let key_id = global_key_id(generators, order, options);
        trace_event!("cache.request", key = key_id, gens = generators.len());
        {
            let table = self.table.lock();
            if let Some(hit) = table.lookup(key_id, generators, order, options) {
                let hit = Arc::clone(hit);
                self.hits.inc();
                trace_sched!("cache.hit");
                return hit;
            }
            self.misses.inc();
            trace_sched!("cache.miss");
        }
        let (ring, lgens, lorder) = ring_localized(generators, order);
        let core = self.compute(&lgens, &lorder, options);
        let gb = Arc::new(basis_from_core(
            core,
            ring,
            order,
            Some(self.nf_counters.clone()),
        ));
        let mut table = self.table.lock();
        let table = &mut *table;
        if let Some(existing) = table.lookup(key_id, generators, order, options) {
            // Lost a compute race on this key; adopt the winner's entry.
            return Arc::clone(existing);
        }
        table.entries.entry(key_id).or_default().push(CacheEntry {
            order: order.clone(),
            options: options.clone(),
            generators: generators.iter().map(|g| g.borrow().clone()).collect(),
            basis: Arc::clone(&gb),
        });
        table.queue.push_back((key_id, Arc::clone(&gb)));
        self.len.add(1);
        while table.queue.len() > self.capacity {
            table.evict_oldest();
            self.evictions.inc();
            self.len.add(-1);
            trace_sched!("cache.evict");
        }
        gb
    }

    /// The candidate guidance of `target` ([`TargetGuidance`]: fingerprint,
    /// variables, factors), computed on first use and memoized for every
    /// mapper sharing this cache. Guidance is a pure function of the target,
    /// so a hit returns exactly what a fresh computation would. The compute
    /// runs outside the lock; a lost race adopts the winner's record.
    /// Counted as `guidance.hits`/`guidance.misses`; the outcome goes to the
    /// sched channel only.
    pub fn guidance(&self, target: &Poly) -> Arc<TargetGuidance> {
        if let Some(hit) = self.guidance.lock().get(target) {
            self.guidance_hits.inc();
            trace_sched!("cache.guidance.hit");
            return hit;
        }
        self.guidance_misses.inc();
        trace_sched!("cache.guidance.miss");
        let computed = Arc::new(TargetGuidance::of(target));
        self.guidance
            .lock()
            .publish(target, computed, self.capacity())
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.stats().hits
    }

    /// Number of lookups that had to compute a fresh basis.
    pub fn misses(&self) -> usize {
        self.stats().misses
    }

    /// Number of entries evicted by the capacity bound.
    pub fn evictions(&self) -> usize {
        self.stats().evictions
    }

    /// Number of distinct bases currently memoized.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// Returns `true` when nothing is currently memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in bases.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The basis table's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats::from_snapshot(&self.metrics.snapshot())
    }

    /// Point-in-time counters of the multi-modular lift. Counter totals
    /// under concurrency are timing-dependent (like the cache stats), but
    /// the lifted *bases* never are — every lift is verified over ℚ and the
    /// exact engine answers whenever verification balks.
    pub fn lift_stats(&self) -> LiftStats {
        LiftStats {
            lift_success: self.lift_success.get() as usize,
            lift_retry: self.lift_retry.get() as usize,
            lift_fallback: self.lift_fallback.get() as usize,
            lift_bypass: self.lift_bypass.get() as usize,
            crt_primes_used: self.crt_primes_used.get() as usize,
        }
    }
}

/// The fixed-seed hash of a basis request, field by field: `order`,
/// `options`, then `generators`. The `DefaultHasher` here is constructed
/// with fixed keys, so ids are reproducible across runs. On the request as
/// made it is the job-channel marker (`cache.request`) and the table key; on
/// the ring-local request it is the compute-channel stream id. Borrowed
/// generators hash like owned ones (`&Poly` hashes as `Poly`), so the id of
/// a request does not depend on how its generators are held.
fn global_key_id<G: Hash>(
    generators: &[G],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> u64 {
    let mut hasher = DefaultHasher::new();
    order.hash(&mut hasher);
    options.hash(&mut hasher);
    generators.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::division::{normal_form, reduces_to_zero, s_polynomial};
    use crate::monomial::Monomial;
    use crate::var::Var;
    use proptest::prelude::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    /// The seed engine, kept verbatim as the differential-testing oracle:
    /// linear-scan pair selection (normal strategy via `min_by`), coprime
    /// criterion at pop time, leading monomials recomputed per use, and the
    /// clone-heavy auto-reduction. Returns `(reduced basis, reductions)`.
    fn seed_buchberger(generators: &[Poly], order: &MonomialOrder) -> (Vec<Poly>, usize) {
        let mut basis: Vec<Poly> = generators
            .iter()
            .filter(|g| !g.is_zero())
            .map(|g| g.monic(order))
            .collect();
        if basis.is_empty() {
            return (Vec::new(), 0);
        }
        let lcm_of = |basis: &[Poly], i: usize, j: usize| {
            basis[i]
                .leading_monomial(order)
                .unwrap()
                .lcm(&basis[j].leading_monomial(order).unwrap())
        };
        let mut pairs: Vec<(usize, usize, Monomial)> = Vec::new();
        for i in 0..basis.len() {
            for j in (i + 1)..basis.len() {
                let lcm = lcm_of(&basis, i, j);
                pairs.push((i, j, lcm));
            }
        }
        let mut reductions = 0;
        while !pairs.is_empty() {
            if reductions >= 10_000 {
                break;
            }
            let selected = pairs
                .iter()
                .enumerate()
                .min_by(|(_, (_, _, la)), (_, (_, _, lb))| order.cmp(la, lb))
                .map(|(idx, _)| idx)
                .unwrap();
            let (i, j, _) = pairs.swap_remove(selected);
            let lm_i = basis[i].leading_monomial(order).unwrap();
            let lm_j = basis[j].leading_monomial(order).unwrap();
            if lm_i.is_coprime_with(&lm_j) {
                continue;
            }
            let s = s_polynomial(&basis[i], &basis[j], order);
            let r = normal_form(&s, &basis, order);
            reductions += 1;
            if !r.is_zero() {
                let r = r.monic(order);
                let new_index = basis.len();
                basis.push(r);
                for k in 0..new_index {
                    let lcm = lcm_of(&basis, k, new_index);
                    pairs.push((k, new_index, lcm));
                }
            }
        }
        let mut keep = vec![true; basis.len()];
        for i in 0..basis.len() {
            if !keep[i] {
                continue;
            }
            let lm_i = basis[i].leading_monomial(order).unwrap();
            for j in 0..basis.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let lm_j = basis[j].leading_monomial(order).unwrap();
                if lm_j.divides(&lm_i) && (lm_i != lm_j || j < i) {
                    keep[i] = false;
                    break;
                }
            }
        }
        let basis: Vec<Poly> = basis
            .into_iter()
            .zip(keep)
            .filter_map(|(q, k)| if k { Some(q) } else { None })
            .collect();
        let mut reduced = Vec::with_capacity(basis.len());
        for i in 0..basis.len() {
            let others: Vec<Poly> = basis
                .iter()
                .enumerate()
                .filter_map(|(j, q)| if j != i { Some(q.clone()) } else { None })
                .collect();
            let r = normal_form(&basis[i], &others, order);
            if !r.is_zero() {
                reduced.push(r.monic(order));
            }
        }
        reduced.sort_by(|a, b| {
            let la = a.leading_monomial(order).unwrap();
            let lb = b.leading_monomial(order).unwrap();
            order.cmp(&lb, &la)
        });
        (reduced, reductions)
    }

    /// All eight criterion/tiebreak combinations.
    fn option_combinations() -> Vec<GroebnerOptions> {
        let mut combos = Vec::new();
        for coprime in [true, false] {
            for chain in [true, false] {
                for sugar in [true, false] {
                    combos.push(GroebnerOptions {
                        use_coprime_criterion: coprime,
                        use_chain_criterion: chain,
                        use_sugar_tiebreak: sugar,
                        ..Default::default()
                    });
                }
            }
        }
        combos
    }

    /// The mapper's 4-relation side-relation ideal from the decompose search
    /// (sum/diff/prod/square elements) — the workload that made the seed
    /// engine's naive pair ordering hang in PR 1.
    fn mapper_side_relation_ideal() -> (Vec<Poly>, MonomialOrder) {
        let gens = vec![p("x + y - s"), p("x - y - d"), p("x*y - q"), p("x^2 - sx")];
        let order = MonomialOrder::lex(&["x", "y", "s", "d", "q", "sx"]);
        (gens, order)
    }

    #[test]
    fn lift_profitability_gate_reads_only_the_coefficients() {
        // All-integer small ideals are bypassed…
        let (gens, _) = mapper_side_relation_ideal();
        assert!(!lift_profitable(&gens));
        // …a single fractional coefficient flips the verdict…
        assert!(lift_profitable(&[p("x^2 - 1/3")]));
        // …and so does a numerator past the single-word fast path.
        assert!(lift_profitable(&[p("4294967296*x - 1")]));
        assert!(!lift_profitable(&[p("2147483647*x - 1")]));
    }

    #[test]
    fn multimodular_requests_route_through_the_verified_lift() {
        // The fractional coefficient marks the ideal lift-profitable, so the
        // request genuinely reaches the multi-modular engine.
        let gens = vec![
            p("x + y - s"),
            p("x - y - d"),
            p("x*y - q"),
            p("x^2 - 1/3*sx"),
        ];
        let order = MonomialOrder::lex(&["x", "y", "s", "d", "q", "sx"]);
        let exact = GroebnerOptions {
            multimodular: false,
            ..GroebnerOptions::default()
        };
        let lifted = GroebnerOptions {
            multimodular: true,
            ..exact.clone()
        };
        let cache = SharedGroebnerCache::new();
        let via_lift = cache.basis(&gens, &order, &lifted);
        let via_exact = cache.basis(&gens, &order, &exact);
        // The verified lift is byte-identical to the exact engine, counters
        // included.
        assert_eq!(via_lift.polys(), via_exact.polys());
        assert_eq!(via_lift.reductions, via_exact.reductions);
        let stats = cache.lift_stats();
        assert_eq!((stats.lift_success, stats.lift_fallback), (1, 0));
        assert!(stats.crt_primes_used >= 1);
        // An iteration-starved run cannot produce a certifiable lift: the
        // engine falls back to (equally starved) exact Buchberger rather
        // than hand out an unverified basis.
        let before = cache.metrics_snapshot();
        let starved = GroebnerOptions {
            max_iterations: 1,
            ..lifted
        };
        let gb = cache.basis(&gens, &order, &starved);
        assert!(!gb.complete);
        let delta = cache.metrics_snapshot().delta_since(&before);
        assert_eq!(
            (
                delta.counter("lift.success"),
                delta.counter("lift.fallback")
            ),
            (0, 1)
        );
        // An all-integer ideal is routed straight to the exact engine by the
        // profitability gate: no image, no fallback — one bypass.
        let (igens, iorder) = mapper_side_relation_ideal();
        let before = cache.metrics_snapshot();
        let gb = cache.basis(&igens, &iorder, &lifted);
        assert!(gb.complete);
        let delta = cache.metrics_snapshot().delta_since(&before);
        assert_eq!(
            (
                delta.counter("lift.success"),
                delta.counter("lift.fallback"),
                delta.counter("lift.bypass"),
            ),
            (0, 0, 1)
        );
        assert_eq!(cache.lift_stats().lift_bypass, 1);
    }

    #[test]
    fn empty_and_zero_generators() {
        let order = MonomialOrder::lex(&["x"]);
        let gb = groebner_basis(&[], &order);
        assert!(gb.polys().is_empty());
        assert!(gb.complete);
        let gb = groebner_basis(&[Poly::zero()], &order);
        assert!(gb.polys().is_empty());
    }

    #[test]
    fn single_generator_is_its_own_basis() {
        let order = MonomialOrder::lex(&["x", "y"]);
        let gb = groebner_basis(&[p("2*x^2 - 2*y")], &order);
        assert_eq!(gb.polys(), vec![p("x^2 - y")]);
    }

    #[test]
    fn textbook_twisted_cubic() {
        // I = <x^2 - y, x^3 - z> under lex x > y > z.
        // Reduced GB: {x^2 - y, x*y - z, x*z - y^2, y^3 - z^2}.
        let order = MonomialOrder::lex(&["x", "y", "z"]);
        let gb = groebner_basis(&[p("x^2 - y"), p("x^3 - z")], &order);
        assert!(gb.complete);
        let expected = [p("x^2 - y"), p("x*y - z"), p("x*z - y^2"), p("y^3 - z^2")];
        assert_eq!(gb.polys().len(), expected.len());
        for e in &expected {
            assert!(
                gb.polys().contains(e),
                "expected {e} in basis {:?}",
                gb.polys().iter().map(|q| q.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn buchberger_criterion_spolys_reduce_to_zero() {
        let order = MonomialOrder::grlex(&["x", "y"]);
        let gb = groebner_basis(&[p("x^3 - 2*x*y"), p("x^2*y - 2*y^2 + x")], &order);
        assert!(gb.complete);
        for i in 0..gb.polys().len() {
            for j in (i + 1)..gb.polys().len() {
                let s = s_polynomial(&gb.polys()[i], &gb.polys()[j], &order);
                assert!(reduces_to_zero(&s, gb.polys(), &order));
            }
        }
        // The classic reduced basis for this ideal under grlex is
        // {x^2, x*y, y^2 - x/2}; x^2 is in the ideal but x itself is not.
        assert!(gb.contains(&p("x^2")));
        assert!(!gb.contains(&p("x")));
    }

    #[test]
    fn membership_is_exact_with_complete_basis() {
        let order = MonomialOrder::lex(&["x", "y"]);
        let g1 = p("x^2 + y^2 - 1");
        let g2 = p("x - y");
        let gb = groebner_basis(&[g1.clone(), g2.clone()], &order);
        assert!(gb.complete);
        // A random combination is a member.
        let member = g1.mul(&p("x*y + 3")).add(&g2.mul(&p("y^2 - x")));
        assert!(gb.contains(&member));
        assert_eq!(gb.membership(&member), Membership::In);
        // x alone is not in this ideal.
        assert!(!gb.contains(&p("x")));
        assert_eq!(gb.membership(&p("x")), Membership::NotIn);
    }

    #[test]
    fn membership_on_truncated_basis_is_three_valued() {
        let order = MonomialOrder::lex(&["x", "y", "z"]);
        let gens = [p("x^2 - y"), p("x^3 - z"), p("y^3 - z^2 + x")];
        let opts = GroebnerOptions {
            max_iterations: 1,
            ..Default::default()
        };
        let gb = buchberger(&gens, &order, &opts);
        assert!(!gb.complete);
        // A generator still reduces to zero: In is sound on a partial basis.
        assert_eq!(gb.membership(&gens[0]), Membership::In);
        assert!(gb.contains(&gens[0]));
        // A probe with a fresh variable `w` can never reduce to zero (no
        // basis leading monomial divides a `w` term), so the non-zero normal
        // form is guaranteed — and on a truncated basis it must read as
        // Unknown, never NotIn.
        let probe = p("w + x^2");
        assert!(!gb.reduce(&probe).is_zero());
        assert_eq!(gb.membership(&probe), Membership::Unknown);
        assert!(!gb.contains(&probe), "contains stays conservative");
    }

    #[test]
    fn generators_reduce_to_zero_modulo_basis() {
        let order = MonomialOrder::grevlex(&["x", "y", "z"]);
        let gens = [p("x*y - z^2"), p("y^2 - x*z"), p("x^2 - y*z")];
        let gb = groebner_basis(&gens, &order);
        for g in &gens {
            assert!(gb.contains(g));
        }
    }

    #[test]
    fn reduced_basis_is_canonical_for_the_ideal() {
        // Two different generating sets of the same ideal give the same
        // reduced basis.
        let order = MonomialOrder::lex(&["x", "y"]);
        let a = groebner_basis(&[p("x - y"), p("y^2 - 1")], &order);
        let b = groebner_basis(&[p("x - y"), p("y^2 - 1"), p("x*y^2 - x + x - y")], &order);
        assert_eq!(a.polys(), b.polys());
    }

    #[test]
    fn iteration_bound_reports_incomplete() {
        let order = MonomialOrder::lex(&["x", "y", "z"]);
        let opts = GroebnerOptions {
            max_iterations: 1,
            ..Default::default()
        };
        let gb = buchberger(
            &[p("x^2 - y"), p("x^3 - z"), p("y^3 - z^2 + x")],
            &order,
            &opts,
        );
        assert!(!gb.complete);
        assert!(gb.reductions <= 1);
    }

    #[test]
    fn truncated_run_yields_sound_partial_basis() {
        // Regression for the iteration-bound audit: a truncated basis must
        // still be usable for reduction — every element lies in the ideal,
        // so `f - reduce(f)` is always an ideal member and `reduce` is a
        // valid (if non-canonical) rewrite.
        let (gens, order) = mapper_side_relation_ideal();
        let full = groebner_basis(&gens, &order);
        assert!(full.complete);
        for cap in [0, 1, 2, 3] {
            let opts = GroebnerOptions {
                max_iterations: cap,
                ..Default::default()
            };
            let gb = buchberger(&gens, &order, &opts);
            assert!(gb.reductions <= cap);
            for q in gb.polys() {
                assert!(
                    full.contains(q),
                    "truncated basis element {q} escaped the ideal (cap {cap})"
                );
            }
            let f = p("x^3 + x*y + y^2");
            let diff = f.sub(&gb.reduce(&f));
            assert!(
                full.contains(&diff),
                "reduce must subtract an ideal member (cap {cap})"
            );
        }
    }

    #[test]
    fn exhausted_bound_with_only_skippable_pairs_left_is_still_complete() {
        // {x - 1, y - 2} needs zero reductions: the single pair is coprime.
        // Even with max_iterations = 0 the run is complete — criterion skips
        // are free and must not trip the bound.
        let order = MonomialOrder::lex(&["x", "y"]);
        let opts = GroebnerOptions {
            max_iterations: 0,
            ..Default::default()
        };
        let gb = buchberger(&[p("x - 1"), p("y - 2")], &order, &opts);
        assert!(gb.complete);
        assert_eq!(gb.reductions, 0);
        assert_eq!(gb.skipped_coprime, 1);
        assert_eq!(gb.polys(), vec![p("x - 1"), p("y - 2")]);
    }

    #[test]
    fn criteria_do_not_change_result() {
        let order = MonomialOrder::grlex(&["x", "y"]);
        let gens = [p("x^3 - 2*x*y"), p("x^2*y - 2*y^2 + x")];
        let reference = buchberger(&gens, &order, &GroebnerOptions::default());
        for opts in option_combinations() {
            let gb = buchberger(&gens, &order, &opts);
            assert_eq!(gb.polys(), reference.polys(), "options {opts:?}");
            assert!(gb.complete);
        }
        // Disabling both criteria performs at least as many reductions.
        let without = buchberger(
            &gens,
            &order,
            &GroebnerOptions {
                use_coprime_criterion: false,
                use_chain_criterion: false,
                ..Default::default()
            },
        );
        assert!(without.reductions >= reference.reductions);
    }

    #[test]
    fn chain_criterion_skips_pairs_on_the_twisted_cubic() {
        let order = MonomialOrder::lex(&["x", "y", "z"]);
        let gens = [p("x^2 - y"), p("x^3 - z")];
        let with = buchberger(&gens, &order, &GroebnerOptions::default());
        let without = buchberger(
            &gens,
            &order,
            &GroebnerOptions {
                use_chain_criterion: false,
                ..Default::default()
            },
        );
        assert_eq!(with.polys(), without.polys());
        assert!(with.skipped_chain > 0, "chain criterion never fired");
        assert!(
            with.reductions <= without.reductions,
            "chain criterion must not increase reductions ({} > {})",
            with.reductions,
            without.reductions
        );
    }

    #[test]
    fn engine_never_does_more_reductions_than_the_seed() {
        // Acceptance criterion of the engine rebuild: strictly fewer or equal
        // S-polynomial reductions than the seed engine on the twisted cubic
        // and on the mapper's side-relation ideal.
        let cubic_order = MonomialOrder::lex(&["x", "y", "z"]);
        let cubic = [p("x^2 - y"), p("x^3 - z")];
        let (seed_basis, seed_reductions) = seed_buchberger(&cubic, &cubic_order);
        let gb = groebner_basis(&cubic, &cubic_order);
        assert_eq!(gb.polys(), seed_basis);
        assert!(
            gb.reductions <= seed_reductions,
            "twisted cubic: {} > seed {}",
            gb.reductions,
            seed_reductions
        );

        let (gens, order) = mapper_side_relation_ideal();
        let (seed_basis, seed_reductions) = seed_buchberger(&gens, &order);
        let gb = groebner_basis(&gens, &order);
        assert_eq!(gb.polys(), seed_basis);
        assert!(
            gb.reductions <= seed_reductions,
            "mapper ideal: {} > seed {}",
            gb.reductions,
            seed_reductions
        );
    }

    #[test]
    fn sugar_tiebreak_preserves_the_reduced_basis() {
        let (gens, order) = mapper_side_relation_ideal();
        let plain = buchberger(&gens, &order, &GroebnerOptions::default());
        let sugared = buchberger(
            &gens,
            &order,
            &GroebnerOptions {
                use_sugar_tiebreak: true,
                ..Default::default()
            },
        );
        assert_eq!(plain.polys(), sugared.polys());
        assert!(sugared.complete);
    }

    #[test]
    fn cache_memoizes_identical_requests() {
        let cache = SharedGroebnerCache::new();
        assert!(cache.is_empty());
        let order = MonomialOrder::lex(&["x", "y"]);
        let gens = [p("x^2 + y^2 - 1"), p("x - y")];
        let opts = GroebnerOptions::default();
        let a = cache.basis(&gens, &order, &opts);
        let b = cache.basis(&gens, &order, &opts);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A different order is a different computation.
        let c = cache.basis(&gens, &MonomialOrder::grlex(&["x", "y"]), &opts);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
        // Different options are a different key, too.
        cache.basis(
            &gens,
            &order,
            &GroebnerOptions {
                use_chain_criterion: false,
                ..Default::default()
            },
        );
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 3));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn borrowed_generators_share_the_owned_key() {
        let cache = SharedGroebnerCache::new();
        let order = MonomialOrder::lex(&["x", "y", "s"]);
        let opts = GroebnerOptions::default();
        let owned = [p("x + y - s"), p("x*y - 2")];
        let borrowed: Vec<&Poly> = owned.iter().collect();
        assert_eq!(
            global_key_id(&owned, &order, &opts),
            global_key_id(&borrowed, &order, &opts)
        );
        let first = cache.basis(&owned, &order, &opts);
        let again = cache.basis(&borrowed, &order, &opts);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A different generator list under the same order is its own entry.
        cache.basis(&borrowed[..1], &order, &opts);
        assert_eq!((cache.misses(), cache.len()), (2, 2));
    }

    #[test]
    fn cache_evicts_oldest_insertion_first() {
        // Two slots: inserting a third distinct key must evict the *first*
        // inserted key (FIFO), not the least recently used one.
        let cache = SharedGroebnerCache::with_config(CacheConfig { capacity: 2 });
        assert_eq!(cache.capacity(), 2);
        let order = MonomialOrder::lex(&["x", "y"]);
        let opts = GroebnerOptions::default();
        let k1 = [p("x - 1")];
        let k2 = [p("y - 2")];
        let k3 = [p("x*y - 3")];
        cache.basis(&k1, &order, &opts);
        cache.basis(&k2, &order, &opts);
        // Touch k1 again (a hit): FIFO eviction must still pick k1.
        cache.basis(&k1, &order, &opts);
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        cache.basis(&k3, &order, &opts);
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // k2 and k3 still hit; k1 was evicted and is recomputed (a miss).
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        cache.basis(&k2, &order, &opts);
        cache.basis(&k3, &order, &opts);
        assert_eq!(cache.hits(), hits_before + 2);
        cache.basis(&k1, &order, &opts);
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn cache_capacity_stays_bounded_under_churn() {
        let cache = SharedGroebnerCache::with_config(CacheConfig { capacity: 4 });
        let order = MonomialOrder::lex(&["x"]);
        let opts = GroebnerOptions::default();
        for i in 1..40_i64 {
            let gens = [p("x").scale(&symmap_numeric::Rational::integer(i))];
            cache.basis(&gens, &order, &opts);
        }
        assert!(
            cache.len() <= cache.capacity(),
            "cache grew past its bound: {} > {}",
            cache.len(),
            cache.capacity()
        );
        assert!(cache.evictions() > 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (cache.hits(), cache.misses()));
        assert_eq!(stats.misses, 39, "39 distinct keys, all misses");
        assert_eq!(stats.len + stats.evictions, 39);
    }

    #[test]
    fn cache_is_shared_and_consistent_across_threads() {
        use std::thread;
        let cache = Arc::new(SharedGroebnerCache::new());
        let order = MonomialOrder::lex(&["x", "y", "z"]);
        let opts = GroebnerOptions::default();
        let reference = groebner_basis(&[p("x^2 - y"), p("x^3 - z")], &order);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let order = order.clone();
                let opts = opts.clone();
                thread::spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..8 {
                        out.push(cache.basis(&[p("x^2 - y"), p("x^3 - z")], &order, &opts));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for gb in handle.join().expect("cache thread panicked") {
                assert_eq!(gb.polys(), reference.polys());
            }
        }
        // 32 lookups total; every one either hit or computed.
        assert_eq!(cache.hits() + cache.misses(), 32);
        assert!(cache.misses() >= 1);
        assert!(cache.len() == 1, "racing threads must retain one entry");
    }

    #[test]
    fn ring_local_path_matches_unringed_oracle_on_late_interned_vars() {
        // Inflate the interner, then build the mapper ideal's shape over
        // fresh (high-index) names: the ring path must agree with the exact
        // engine run on global coordinates byte for byte — polys, counters,
        // flags.
        for i in 0..300 {
            Var::new(&format!("gb_oracle_filler_{i}"));
        }
        let names = ["gbo_x", "gbo_y", "gbo_s", "gbo_d", "gbo_q", "gbo_sx"];
        let v: Vec<Poly> = names.iter().map(|n| Poly::var(Var::new(n))).collect();
        let gens = vec![
            v[0].add(&v[1]).sub(&v[2]),
            v[0].sub(&v[1]).sub(&v[3]),
            v[0].mul(&v[1]).sub(&v[4]),
            v[0].mul(&v[0]).sub(&v[5]),
        ];
        let order = MonomialOrder::Lex(names.iter().map(|n| Var::new(n)).collect());
        for opts in option_combinations() {
            let ringed = buchberger(&gens, &order, &opts);
            let unringed = buchberger_core(&gens, &order, &opts);
            assert_eq!(ringed.polys(), unringed.polys, "options {opts:?}");
            assert_eq!(ringed.reductions, unringed.reductions);
            assert_eq!(ringed.skipped_coprime, unringed.skipped_coprime);
            assert_eq!(ringed.skipped_chain, unringed.skipped_chain);
            assert_eq!(ringed.complete, unringed.complete);
        }
        // The reduce path agrees too (ring built over basis + target).
        let gb = groebner_basis(&gens, &order);
        let probe = v[0].mul(&v[0]).sub(&v[1].mul(&v[1]));
        assert_eq!(
            gb.reduce(&probe),
            normal_form(&probe, gb.polys(), &gb.order)
        );
        assert_eq!(gb.membership(&gens[2]), Membership::In);
    }

    #[test]
    fn renamed_requests_get_renamed_bases() {
        let cache = SharedGroebnerCache::new();
        let opts = GroebnerOptions::default();
        // Twisted cubic over two disjoint, test-local variable name sets,
        // interned here in matching relative order, so both requests have
        // the same ring-local form (local indices follow interner order).
        let names_a = ["acia_x", "acia_y", "acia_z"];
        let (ax, ay, az) = (
            Poly::var(Var::new(names_a[0])),
            Poly::var(Var::new(names_a[1])),
            Poly::var(Var::new(names_a[2])),
        );
        let a = [ax.mul(&ax).sub(&ay), ax.mul(&ax).mul(&ax).sub(&az)];
        let order_a = MonomialOrder::Lex(names_a.iter().map(|n| Var::new(n)).collect());
        let names_b = ["acib_u", "acib_v", "acib_w"];
        let (u, v, w) = (
            Poly::var(Var::new(names_b[0])),
            Poly::var(Var::new(names_b[1])),
            Poly::var(Var::new(names_b[2])),
        );
        let b = [u.mul(&u).sub(&v), u.mul(&u).mul(&u).sub(&w)];
        let order_b = MonomialOrder::Lex(names_b.iter().map(|n| Var::new(n)).collect());

        let gb_a = cache.basis(&a, &order_a, &opts);
        let gb_b = cache.basis(&b, &order_b, &opts);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
        // The renamed basis is the renamed image of the original, and
        // membership works in each coordinate system.
        let rename: std::collections::BTreeMap<Var, Poly> = names_a
            .iter()
            .zip([&u, &v, &w])
            .map(|(n, p)| (Var::new(n), p.clone()))
            .collect();
        let renamed: Vec<Poly> = gb_a
            .polys()
            .iter()
            .map(|g| crate::subst::substitute_all(g, &rename).expect("linear rename"))
            .collect();
        assert_eq!(renamed, gb_b.polys());
        assert!(gb_a.contains(&ay.mul(&ay).mul(&ay).sub(&az.mul(&az))));
        assert!(gb_b.contains(&v.mul(&v).mul(&v).sub(&w.mul(&w))));
        // A repeat of either request is a plain hit.
        assert!(Arc::ptr_eq(&gb_b, &cache.basis(&b, &order_b, &opts)));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // An order listing an extra variable *outside* the ideal's ring is a
        // new request with the same basis.
        let order_a_padded = MonomialOrder::lex(&["acia_x", "acia_y", "acia_z", "acia_pad"]);
        let gb_pad = cache.basis(&a, &order_a_padded, &opts);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 3));
        assert_eq!(gb_pad.polys(), gb_a.polys());
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cache_deltas_come_from_the_metrics_registry() {
        // Activity windows are computed through the shared registry
        // snapshot.
        let cache = SharedGroebnerCache::new();
        let order = MonomialOrder::lex(&["x", "y"]);
        let opts = GroebnerOptions::default();
        let gens = [p("x^2 - y")];
        cache.basis(&gens, &order, &opts);
        let before = cache.metrics_snapshot();
        cache.basis(&gens, &order, &opts); // pure hit
        let delta = cache.metrics_snapshot().delta_since(&before);
        let window = CacheStats::from_snapshot(&delta);
        assert_eq!((window.hits, window.misses, window.evictions), (1, 0, 0));
        // Gauges report the current level, not a flow: len survives the delta.
        assert_eq!(window.len, cache.len());
    }

    #[test]
    fn guidance_layer_memoizes_each_target_within_the_capacity() {
        let cache = SharedGroebnerCache::with_config(CacheConfig { capacity: 4 });
        let target = p("x^2 - y^2");
        let first = cache.guidance(&target);
        assert_eq!(*first, TargetGuidance::of(&target));
        assert_eq!(first.factors.len(), 2, "x^2 - y^2 = (x - y)(x + y)");
        assert!(Arc::ptr_eq(&first, &cache.guidance(&target)));
        let counts = |c: &SharedGroebnerCache| {
            let s = c.metrics_snapshot();
            (s.counter("guidance.hits"), s.counter("guidance.misses"))
        };
        assert_eq!(counts(&cache), (1, 1));
        // Past the capacity the oldest target is evicted and recomputed.
        for k in 1..=4_i64 {
            cache.guidance(&target.add(&Poly::integer(k)));
        }
        let again = cache.guidance(&target);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*again, *first);
        assert_eq!(counts(&cache), (1, 6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The memoized [`GroebnerBasis::reduce`] equals a fresh
        /// `normal_form` for targets inside the basis ring (the ring-local
        /// path) and outside it (the `normal_form` fallback): on the first
        /// call, on a repeat call (a memo hit), on a clone of the basis, and
        /// after the FIFO bound has evicted the entry.
        #[test]
        fn prop_memoized_reduce_matches_a_fresh_normal_form(
            gens in proptest::collection::vec(
                proptest::collection::vec((0u32..3, 0u32..3, -3i64..4), 1..4),
                1..3,
            ),
            target in proptest::collection::vec((0u32..4, 0u32..4, -5i64..6), 1..6),
        ) {
            use symmap_numeric::Rational;

            let (a, b, w) = (Var::new("nfm_a"), Var::new("nfm_b"), Var::new("nfm_w"));
            let poly = |terms: &[(u32, u32, i64)]| {
                Poly::from_terms(terms.iter().map(|&(ea, eb, c)| {
                    (Monomial::from_pairs(&[(a, ea), (b, eb)]), Rational::integer(c))
                }))
            };
            let gens: Vec<Poly> = gens.iter().map(|t| poly(t)).collect();
            let cache = SharedGroebnerCache::new();
            let order = MonomialOrder::lex(&["nfm_a", "nfm_b", "nfm_w"]);
            let gb = cache.basis(&gens, &order, &GroebnerOptions::default());
            let misses = || cache.metrics_snapshot().counter("nf.misses");
            let inside = poly(&target);
            let outside = inside.add(&Poly::var(w));
            for f in [inside, outside] {
                let fresh = normal_form(&f, gb.polys(), &gb.order);
                let m0 = misses();
                prop_assert_eq!(gb.reduce(&f), fresh.clone());
                prop_assert_eq!(gb.reduce(&f), fresh.clone());
                prop_assert_eq!(misses(), m0 + 1, "the repeat call is a hit");
                prop_assert_eq!(GroebnerBasis::clone(&gb).reduce(&f), fresh.clone());
                for k in 1..=NF_MEMO_CAPACITY as i64 {
                    gb.reduce(&f.add(&Poly::integer(k)));
                }
                let m1 = misses();
                prop_assert_eq!(gb.reduce(&f), fresh);
                prop_assert_eq!(misses(), m1 + 1, "the evicted entry is recomputed");
            }
        }

        /// Differential test against the seed engine: on random small ideals
        /// (2–4 generators, ≤ 3 variables) the rebuilt engine must produce a
        /// byte-identical reduced basis under every order and every
        /// criterion/tiebreak combination — the reduced Gröbner basis is a
        /// canonical object, so any divergence is an engine bug.
        #[test]
        fn prop_reduced_basis_matches_seed_engine(
            gens in proptest::collection::vec(
                proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, -3i64..4), 1..4),
                2..5,
            ),
        ) {
            use crate::var::Var;
            use symmap_numeric::Rational;

            let polys: Vec<Poly> = gens
                .iter()
                .map(|terms| {
                    Poly::from_terms(terms.iter().map(|&(ex, ey, ez, c)| {
                        (
                            Monomial::from_pairs(&[
                                (Var::new("x"), ex),
                                (Var::new("y"), ey),
                                (Var::new("z"), ez),
                            ]),
                            Rational::integer(c),
                        )
                    }))
                })
                .collect();
            for order in [
                MonomialOrder::lex(&["x", "y", "z"]),
                MonomialOrder::grlex(&["x", "y", "z"]),
                MonomialOrder::grevlex(&["x", "y", "z"]),
            ] {
                let (seed_basis, _) = seed_buchberger(&polys, &order);
                for opts in option_combinations() {
                    let gb = buchberger(&polys, &order, &opts);
                    prop_assume!(gb.complete);
                    prop_assert_eq!(
                        &gb.polys(),
                        &seed_basis,
                        "order {:?}, options {:?}",
                        order,
                        opts
                    );
                }
            }
        }
    }
}
