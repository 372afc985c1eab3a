//! Raw polynomial-arithmetic bench: the substrate underneath the Gröbner
//! engine (monomial-keyed term storage, rational coefficients, merge-based
//! add/sub, multiplication, multi-divisor reduction).
//!
//! The `groebner_engine` bench measures the *algorithm* (pair selection,
//! criteria, memoization); this one measures the *representation* the
//! algorithm runs on, so a data-layout change shows up here first. The
//! `bigint/*` and `crt/*` entries time the integer layer under the
//! multi-modular lift: `BigInt` operations at 2, 3, 4 and 16 64-bit limbs,
//! and the CRT plus rational reconstruction of coefficients over three
//! production primes. In
//! `SYMMAP_QUICK=1` mode every workload is timed with the in-tree
//! median-of-batches sampler and appended to `BENCH.json` (see
//! [`symmap_bench::quickbench`]); without the env var the same workloads run
//! under Criterion.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use symmap_algebra::division::normal_form;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_bench::quickbench;
use symmap_numeric::{crt_combine, rational_reconstruct, BigInt, PrimeIterator};

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

/// Two dense trivariate polynomials with 56 terms each (degree-5 expansions),
/// the "wide addition" workload.
fn add_operands() -> (Poly, Poly) {
    (p("(x + y + z + 1)^5"), p("(x - y + 2*z + 1)^5"))
}

/// Two 20-term operands whose product expands 400 term pairs.
fn mul_operands() -> (Poly, Poly) {
    (p("(x + y + z + 1)^3"), p("(2*x - y + z - 1)^3"))
}

/// A degree-6 dividend over a three-element divisor set under grlex — the
/// shape of a `prepared_normal_form` call inside Buchberger.
fn reduction_workload() -> (Poly, Vec<Poly>, MonomialOrder) {
    (
        p("(x + y + z + 1)^6"),
        vec![p("x^2 - y"), p("x*y - z"), p("z^2 - x")],
        MonomialOrder::grlex(&["x", "y", "z"]),
    )
}

/// Coefficient-growth workload: repeated squaring with non-integer rationals,
/// which exercises the coefficient arithmetic more than the term bookkeeping.
fn coeff_workload() -> Poly {
    p("(x/2 + 3*y/7 - 5/3)^4")
}

/// How many operand pairs one iteration of a `bigint/*` or `crt/*`
/// workload runs through, so a batch is long enough to time.
const OPERAND_POOL: usize = 64;

/// A deterministic splitmix64 stream for the operand pools.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A positive integer of exactly `limbs` 64-bit limbs (top limb nonzero).
fn random_bigint(next: &mut impl FnMut() -> u64, limbs: usize) -> BigInt {
    let base = BigInt::from(1_u128 << 64);
    (0..limbs).fold(BigInt::zero(), |acc, i| {
        let limb = if i == 0 { next() | 1 << 63 } else { next() };
        &(&acc * &base) + &BigInt::from(limb)
    })
}

/// `OPERAND_POOL` pairs of `(a_limbs, b_limbs)`-limb operands.
fn operand_pairs(a_limbs: usize, b_limbs: usize) -> Vec<(BigInt, BigInt)> {
    let mut next = splitmix(((a_limbs as u64) << 8) | b_limbs as u64);
    (0..OPERAND_POOL)
        .map(|_| {
            (
                random_bigint(&mut next, a_limbs),
                random_bigint(&mut next, b_limbs),
            )
        })
        .collect()
}

/// The `bigint/*` workloads at `limbs` limbs: `mul` and `add` of two
/// `limbs`-limb operands, `gcd` of two with a planted one-limb common
/// factor, and `div_rem` of a `2·limbs`-limb dividend by a `limbs`-limb
/// divisor.
fn bigint_workloads(limbs: usize) -> Vec<Workload> {
    let name = |op: &str| -> &'static str { format!("bigint/{op}/{limbs}-limbs").leak() };
    let pairs = operand_pairs(limbs, limbs);
    let (mul, add) = (pairs.clone(), pairs.clone());
    let mut next = splitmix(limbs as u64);
    let factor = BigInt::from(next() | 1);
    let gcd: Vec<_> = pairs
        .iter()
        .map(|(a, b)| (a * &factor, b * &factor))
        .collect();
    let div = operand_pairs(2 * limbs, limbs);
    vec![
        (
            name("mul"),
            Box::new(move || {
                for (a, b) in &mul {
                    black_box(a * b);
                }
            }),
        ),
        (
            name("add"),
            Box::new(move || {
                for (a, b) in &add {
                    black_box(a + b);
                }
            }),
        ),
        (
            name("gcd"),
            Box::new(move || {
                for (a, b) in &gcd {
                    black_box(a.gcd(b));
                }
            }),
        ),
        (
            name("div_rem"),
            Box::new(move || {
                for (a, b) in &div {
                    black_box(a.div_rem(b));
                }
            }),
        ),
    ]
}

/// The lift's CRT and rational reconstruction: residues of
/// `OPERAND_POOL` fractions with 60-bit numerators and denominators
/// (inside the `√(M/2)` box of three 62-bit primes, like katsura-3's lex
/// basis coefficients) modulo the first three production primes, each
/// combined and reconstructed.
fn crt_workload() -> Workload {
    let primes: Vec<u64> = PrimeIterator::new().take(3).collect();
    let mut next = splitmix(3);
    let residues: Vec<Vec<(u64, u64)>> = (0..OPERAND_POOL)
        .map(|_| {
            let (num, den) = (next() >> 4, (next() >> 4) | 1);
            primes
                .iter()
                .map(|&p| {
                    let (n, d) = (num as u128 % p as u128, den as u128 % p as u128);
                    // d⁻¹ mod p by Fermat: d^(p−2).
                    let (mut inv, mut base, mut e) = (1_u128, d, p - 2);
                    while e > 0 {
                        if e & 1 == 1 {
                            inv = inv * base % p as u128;
                        }
                        base = base * base % p as u128;
                        e >>= 1;
                    }
                    ((n * inv % p as u128) as u64, p)
                })
                .collect()
        })
        .collect();
    (
        "crt/reconstruct/3-primes",
        Box::new(move || {
            for r in &residues {
                let (combined, modulus) = crt_combine(r);
                black_box(rational_reconstruct(&combined, &modulus));
            }
        }),
    )
}

/// A named benchmark closure.
type Workload = (&'static str, Box<dyn FnMut()>);

fn workloads() -> Vec<Workload> {
    let (a1, a2) = add_operands();
    let (m1, m2) = mul_operands();
    let (f, divisors, order) = reduction_workload();
    let c = coeff_workload();
    let mut all: Vec<Workload> = vec![
        (
            "poly_arith/add",
            Box::new(move || {
                black_box(a1.add(&a2));
            }),
        ),
        (
            "poly_arith/mul",
            Box::new(move || {
                black_box(m1.mul(&m2));
            }),
        ),
        (
            "poly_arith/normal_form",
            Box::new(move || {
                black_box(normal_form(&f, &divisors, &order));
            }),
        ),
        (
            "poly_arith/coeff_mul",
            Box::new(move || {
                black_box(c.mul(&c));
            }),
        ),
    ];
    for limbs in [2, 3, 4, 16] {
        all.extend(bigint_workloads(limbs));
    }
    all.push(crt_workload());
    all
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    if quick {
        let mut entries = Vec::new();
        println!("\npoly_arith — quick wall-clock (median of batches)");
        for (name, mut f) in workloads() {
            let wall_ns = quickbench::measure_ns(20, 9, &mut *f);
            println!("{name:<28} {wall_ns:>12} ns/iter");
            entries.push(quickbench::entry(name, wall_ns, None));
        }
        quickbench::append_entries(&entries);
        println!(
            "recorded {} entries to {}\n",
            entries.len(),
            quickbench::bench_json_path().display()
        );
        return;
    }
    for (name, mut f) in workloads() {
        criterion.bench_function(name, move |b| b.iter(&mut *f));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
