//! Workload inputs, generated from the workload seed, and the pinned
//! configuration of the measured program.

use std::sync::Arc;

use symmap_algebra::groebner::GroebnerOptions;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_bench::budgets;
use symmap_core::pipeline::table6_libraries;
use symmap_engine::{EngineConfig, MapJob, MapperConfig};
use symmap_libchar::{catalog, Library};
use symmap_mp3::{imdct, synthesis};
use symmap_platform::machine::Badge4;

/// Environment switches the program's defaults read (`EngineConfig`,
/// `GroebnerOptions`, the `tables` binary). They are removed before the
/// first call so every run measures the same configuration.
pub const SCRUBBED_ENV: [&str; 5] = [
    "SYMMAP_TEST_WORKERS",
    "SYMMAP_TEST_MODULAR",
    "SYMMAP_TEST_MULTIMODULAR",
    "SYMMAP_TEST_TRACE",
    "SYMMAP_QUICK",
];

/// The engine configuration every workload runs: one worker, modular
/// prefilter off, engine tracing off.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        modular_prefilter: false,
        trace: false,
        ..EngineConfig::default()
    }
}

/// Gröbner options with the multi-modular lift (and its gate) on.
pub fn groebner_options() -> GroebnerOptions {
    GroebnerOptions {
        multimodular: true,
        ..GroebnerOptions::default()
    }
}

/// The mapper configuration of the mapping workload.
pub fn mapper_config() -> MapperConfig {
    MapperConfig {
        groebner: groebner_options(),
        engine: engine_config(),
        ..MapperConfig::default()
    }
}

/// Whether the program's own defaults (which `table6_versions` and
/// `OptimizationPipeline` use) equal the pinned configuration.
pub fn defaults_are_pinned() -> bool {
    let m = MapperConfig::default();
    EngineConfig::default() == engine_config()
        && m.engine == engine_config()
        && m.groebner == groebner_options()
        && GroebnerOptions::default() == groebner_options()
}

/// The splitmix64 generator: the benchmark's only source of input variation.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct elements of `pool`, in ascending order.
    fn pick(&mut self, mut pool: Vec<usize>, k: usize) -> Vec<usize> {
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        let mut out = pool[..k].to_vec();
        out.sort_unstable();
        out
    }
}

/// IMDCT outputs of the 36-point transform; output 0 is a stage kernel.
pub const IMDCT_OUTPUTS: usize = 36;
/// Matrixing outputs of the synthesis filter; output 0 is a stage kernel.
pub const SYNTHESIS_OUTPUTS: usize = 64;
/// The synthesis matrixing row whose coefficients are all zero
/// (`cos((16 + 16)(2k + 1)π/64) = 0`): it correctly maps to `Err`, so it is
/// never drawn.
pub const ZERO_SYNTHESIS_ROW: usize = 16;
/// The seed whose draw is IMDCT outputs 1–3 and synthesis outputs 1–2,
/// i.e. exactly `symmap_bench::mp3_kernel_jobs`.
#[cfg(test)]
pub const KERNEL_JOBS_SEED: u64 = 2_254_185;

/// The extra kernel lines of a mapping batch drawn from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDraw {
    /// Three IMDCT outputs from 1..36.
    pub imdct: Vec<usize>,
    /// Two synthesis outputs from 1..64, never row 16.
    pub synthesis: Vec<usize>,
}

/// Draws the batch's 3 IMDCT and 2 synthesis outputs from `seed`.
pub fn draw_kernels(seed: u64) -> KernelDraw {
    let mut rng = SplitMix64::new(seed);
    let imdct = rng.pick((1..IMDCT_OUTPUTS).collect(), 3);
    let synthesis = rng.pick(
        (1..SYNTHESIS_OUTPUTS)
            .filter(|&r| r != ZERO_SYNTHESIS_ROW)
            .collect(),
        2,
    );
    KernelDraw { imdct, synthesis }
}

/// Every kernel a batch can contain, as `(label, target)`: the six stage
/// kernels, then every drawable IMDCT and synthesis output. Labels follow
/// `mp3_kernel_jobs` (`inv_mdctL[n]`, `SubBandSynthesis[n]`).
pub fn kernel_pool() -> Vec<(String, Poly)> {
    let mut pool = stage_kernels();
    for line in 1..IMDCT_OUTPUTS {
        pool.push((
            format!("inv_mdctL[{line}]"),
            imdct::imdct_polynomial(line, 36),
        ));
    }
    for row in (1..SYNTHESIS_OUTPUTS).filter(|&r| r != ZERO_SYNTHESIS_ROW) {
        pool.push((
            format!("SubBandSynthesis[{row}]"),
            synthesis::synthesis_polynomial(row),
        ));
    }
    pool
}

fn stage_kernels() -> Vec<(String, Poly)> {
    vec![
        (
            "III_dequantize_sample".into(),
            catalog::dequantizer_polynomial(),
        ),
        ("III_stereo".into(), catalog::stereo_polynomial()),
        ("III_antialias".into(), catalog::antialias_polynomial()),
        ("inv_mdctL".into(), imdct::imdct_polynomial(0, 36)),
        ("III_hybrid".into(), catalog::hybrid_polynomial()),
        (
            "SubBandSynthesis".into(),
            synthesis::synthesis_polynomial(0),
        ),
    ]
}

/// The 11 kernels of one batch for `draw`, as `(label, target)`.
pub fn batch_kernels(draw: &KernelDraw) -> Vec<(String, Poly)> {
    let mut kernels = stage_kernels();
    for &line in &draw.imdct {
        kernels.push((
            format!("inv_mdctL[{line}]"),
            imdct::imdct_polynomial(line, 36),
        ));
    }
    for &row in &draw.synthesis {
        kernels.push((
            format!("SubBandSynthesis[{row}]"),
            synthesis::synthesis_polynomial(row),
        ));
    }
    kernels
}

/// The metric key of batch position `i` (drawn positions are named by
/// their draw slot, so the key set is the same for every seed).
pub fn kernel_slot(i: usize) -> String {
    match i {
        0 => "III_dequantize_sample".into(),
        1 => "III_stereo".into(),
        2 => "III_antialias".into(),
        3 => "inv_mdctL".into(),
        4 => "III_hybrid".into(),
        5 => "SubBandSynthesis".into(),
        6..=8 => format!("inv_mdctL.draw{}", i - 5),
        _ => format!("SubBandSynthesis.draw{}", i - 8),
    }
}

/// The Table 6 mapping libraries in Table 6 order, then the full catalog.
pub fn libraries(badge: &Badge4) -> Vec<(String, Arc<Library>)> {
    let mut libs: Vec<(String, Arc<Library>)> = table6_libraries(badge)
        .into_iter()
        .map(|(name, lib)| (name, Arc::new(lib)))
        .collect();
    libs.push((
        "Full catalog".into(),
        Arc::new(catalog::full_catalog(badge)),
    ));
    libs
}

/// One batch of jobs per library, in library order.
pub fn batches(
    libraries: &[(String, Arc<Library>)],
    kernels: &[(String, Poly)],
    config: &MapperConfig,
) -> Vec<Vec<MapJob>> {
    libraries
        .iter()
        .map(|(_, lib)| {
            kernels
                .iter()
                .map(|(label, poly)| {
                    MapJob::new(label.clone(), poly.clone(), Arc::clone(lib), config.clone())
                })
                .collect()
        })
        .collect()
}

/// One ideal of the Gröbner-growth workload.
pub struct Ideal {
    /// Stable name, used as metric key and golden key.
    pub name: &'static str,
    /// Generators, in the run's variable names.
    pub generators: Vec<Poly>,
    /// Monomial order of the computation.
    pub order: MonomialOrder,
    /// `(run prefix, canonical prefix)` of the renamed variables.
    pub rename: Option<(String, &'static str)>,
}

impl Ideal {
    /// A basis rendered with canonical variable names, one polynomial per
    /// `;`-separated field: the form the goldens store.
    pub fn canonical_text(&self, polys: &[Poly]) -> String {
        let text = polys
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" ; ");
        match &self.rename {
            Some((run, canonical)) => text.replace(run.as_str(), canonical),
            None => text,
        }
    }
}

fn parse(s: &str) -> Poly {
    Poly::parse(s).expect("workload polynomial parses")
}

fn katsura3(name: &'static str, v: &str, constant: &str, grevlex: bool) -> Ideal {
    let generators = vec![
        parse(&format!("{v}0 + 2*{v}1 + 2*{v}2 + 2*{v}3 - {constant}")),
        parse(&format!("{v}0^2 + 2*{v}1^2 + 2*{v}2^2 + 2*{v}3^2 - {v}0")),
        parse(&format!("2*{v}0*{v}1 + 2*{v}1*{v}2 + 2*{v}2*{v}3 - {v}1")),
        parse(&format!("{v}1^2 + 2*{v}0*{v}2 + 2*{v}1*{v}3 - {v}2")),
    ];
    let names: Vec<String> = (0..4).map(|i| format!("{v}{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let order = if grevlex {
        MonomialOrder::grevlex(&names)
    } else {
        MonomialOrder::lex(&names)
    };
    Ideal {
        name,
        generators,
        order,
        rename: Some((v.to_string(), "u")),
    }
}

fn cyclic4(name: &'static str, v: &str, constant: &str) -> Ideal {
    let generators = vec![
        parse(&format!("{v}0 + {v}1 + {v}2 + {v}3")),
        parse(&format!("{v}0*{v}1 + {v}1*{v}2 + {v}2*{v}3 + {v}3*{v}0")),
        parse(&format!(
            "{v}0*{v}1*{v}2 + {v}1*{v}2*{v}3 + {v}2*{v}3*{v}0 + {v}3*{v}0*{v}1"
        )),
        parse(&format!("{v}0*{v}1*{v}2*{v}3 - {constant}")),
    ];
    let names: Vec<String> = (0..4).map(|i| format!("{v}{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    Ideal {
        name,
        generators,
        order: MonomialOrder::lex(&names),
        rename: Some((v.to_string(), "x")),
    }
}

/// The ideal set of the Gröbner-growth workload, in run order.
///
/// The arithmetic is the same for every seed: katsura-3 under lex with each
/// of the four fractional constants, katsura-3 under grevlex, cyclic-4
/// under lex and the three `budgets` ideals. The seed picks the variable
/// names of the katsura and cyclic ideals (fresh interner entries) and the
/// order the ideals run in.
pub fn ideals(seed: u64) -> Vec<Ideal> {
    let mut rng = SplitMix64::new(seed ^ 0x6772_6f65_626e_6572);
    let tag = rng.next_u64() % 1_000_000;
    let k = |i: usize| format!("k{tag}n{i}v");
    let mut set = vec![
        katsura3("katsura3_lex_1_3", &k(0), "1/3", false),
        katsura3("katsura3_lex_1_5", &k(1), "1/5", false),
        katsura3("katsura3_lex_1_7", &k(2), "1/7", false),
        katsura3("katsura3_lex_2_9", &k(3), "2/9", false),
        katsura3("katsura3_grevlex_1_3", &k(4), "1/3", true),
        cyclic4("cyclic4_lex_1_2", &format!("c{tag}v"), "1/2"),
    ];
    for b in budgets::budgeted_ideals() {
        let name = match b.name {
            "twisted-cubic" => "twisted_cubic",
            "mapper-side-relations" => "mapper_side_relations",
            _ => "circle_system",
        };
        set.push(Ideal {
            name,
            generators: b.generators,
            order: b.order,
            rename: None,
        });
    }
    rng.shuffle(&mut set);
    set
}

/// The ideal names in a fixed (metric) order.
pub const IDEAL_NAMES: [&str; 9] = [
    "katsura3_lex_1_3",
    "katsura3_lex_1_5",
    "katsura3_lex_1_7",
    "katsura3_lex_2_9",
    "katsura3_grevlex_1_3",
    "cyclic4_lex_1_2",
    "twisted_cubic",
    "mapper_side_relations",
    "circle_system",
];

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_bench::mp3_kernel_jobs;

    #[test]
    fn the_documented_seed_reproduces_mp3_kernel_jobs() {
        let draw = draw_kernels(KERNEL_JOBS_SEED);
        assert_eq!(draw.imdct, vec![1, 2, 3]);
        assert_eq!(draw.synthesis, vec![1, 2]);
        let badge = Badge4::new();
        let lib = Arc::new(catalog::full_catalog(&badge));
        let config = mapper_config();
        let expected = mp3_kernel_jobs(&lib, &config);
        let ours = batch_kernels(&draw);
        assert_eq!(ours.len(), expected.len());
        for ((label, poly), job) in ours.iter().zip(&expected) {
            assert_eq!(label, &job.label);
            assert_eq!(poly, &job.target);
        }
    }

    #[test]
    fn the_seed_draw_is_deterministic_and_skips_the_zero_row() {
        for seed in 0..2000 {
            let a = draw_kernels(seed);
            assert_eq!(a, draw_kernels(seed));
            assert_eq!(a.imdct.len(), 3);
            assert_eq!(a.synthesis.len(), 2);
            assert!(a.imdct.iter().all(|&l| (1..IMDCT_OUTPUTS).contains(&l)));
            assert!(a
                .synthesis
                .iter()
                .all(|&r| r != ZERO_SYNTHESIS_ROW && r > 0));
            assert!(a.imdct.windows(2).all(|w| w[0] < w[1]));
        }
        assert_ne!(draw_kernels(1), draw_kernels(2));
    }

    #[test]
    fn ideal_sets_differ_only_in_names_and_order() {
        let a = ideals(1);
        let b = ideals(2);
        let names = |set: &[Ideal]| {
            let mut n: Vec<&str> = set.iter().map(|i| i.name).collect();
            n.sort_unstable();
            n
        };
        assert_eq!(names(&a), names(&b));
        let mut fixed = IDEAL_NAMES.to_vec();
        fixed.sort_unstable();
        assert_eq!(names(&a), fixed);
        for ideal in &a {
            let twin = b.iter().find(|i| i.name == ideal.name).unwrap();
            assert_eq!(
                ideal.canonical_text(&ideal.generators),
                twin.canonical_text(&twin.generators)
            );
        }
    }
}
