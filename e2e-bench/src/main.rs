//! End-to-end benchmark of the symmap Table 6 evaluation.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <table6-sweep|mapping-batch|groebner-growth> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- --capture-goldens
//! ```
//!
//! A run builds its inputs from the seed (`setup_s`), times rounds for
//! about `--seconds`, checks every round against the goldens after its
//! clock stops (the first before any other round runs), and prints one
//! JSON object as the last line of standard output. `--trace 1` instead attributes time to
//! every layer and writes a Chrome trace of the benchmark's spans under
//! `e2e-bench/out/`. See `e2e-bench/README.md`.

mod calib;
mod golden;
mod inputs;
mod layers;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use golden::Tally;
use stats::{median, ms, quantile};
use trace::Tracer;
use workloads::{groebner_round, mapping_round, Inputs, Workload};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Untraced and traced rounds per traced run of the short workloads.
const OVERHEAD_ROUNDS: usize = 5;
/// Wall clock of a group of rounds between two calibration probes.
const GROUP_MS: f64 = 400.0;

/// Named metric values with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       e2e-bench --capture-goldens",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace.unwrap_or(false),
    })
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for var in inputs::SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    if !inputs::defaults_are_pinned() {
        eprintln!("the program's default configuration differs from the pinned one");
        return ExitCode::from(3);
    }
    if argv == ["--capture-goldens"] {
        return capture_goldens();
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let (tally, metrics) = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    println!(
        "# e2e fail_rate {} ratio ({} of {} operations failed)",
        tally.fail_rate(),
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// Records the measured configuration and the seed's draw with the result.
fn print_config(args: &Args, inputs: &Inputs) {
    println!(
        "# config: workload={} seed={} workers=1 lift=on prefilter=off trace=off hw_threads={} imdct_draw={:?} synthesis_draw={:?} ideal_order={:?}",
        args.workload.name(),
        args.seed,
        hw_threads(),
        inputs.draw.imdct,
        inputs.draw.synthesis,
        inputs.ideals.iter().map(|i| i.name).collect::<Vec<_>>(),
    );
}

/// Builds the inputs `SETUP_REPS` times; returns the last inputs and the
/// median normalized setup time in seconds.
fn setup(seed: u64) -> (Inputs, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (built, wall, scale) = calib::bracketed(|| Inputs::build(seed));
        inputs = Some(built);
        times.push(wall.as_secs_f64() * scale);
    }
    (inputs.expect("at least one setup"), median(&times))
}

/// The end-to-end run: setup, then rounds until about `seconds` of round
/// wall clock is timed, each checked after its clock stops. Rounds run in
/// groups of about `GROUP_MS` between two calibration probes; the first
/// round is a group of its own and must pass its check before any other
/// round runs, so a wrong program is never timed further.
fn timed_run(args: &Args) -> (Tally, Metrics) {
    let (inputs, setup_s) = setup(args.seed);
    print_config(args, &inputs);
    let w = args.workload;
    let mut tally = Tally::default();
    let (mut rounds, mut raw, mut batches) = (Vec::new(), Vec::new(), Vec::new());
    let mut group = 1;
    let mut timed_ms = 0.0;
    loop {
        let (laps, _, scale) = calib::bracketed(|| {
            (0..group)
                .map(|_| {
                    let (wall, checked, parts) = w.round(&inputs);
                    tally.add(checked);
                    (wall, parts)
                })
                .collect::<Vec<_>>()
        });
        let scale = if w.calibrated() { scale } else { 1.0 };
        for (wall, parts) in laps {
            rounds.push(ms(wall) * scale);
            raw.push(ms(wall));
            timed_ms += ms(wall);
            batches.push(parts.iter().map(|d| ms(*d) * scale).collect::<Vec<f64>>());
        }
        // Stop at the round boundary nearest to `seconds` of timed rounds.
        let last = raw[raw.len() - 1];
        let done = rounds.len() >= w.min_rounds() && timed_ms + last / 2.0 >= args.seconds * 1e3;
        if tally.failed > 0 || done {
            break;
        }
        group = ((GROUP_MS / raw[0]).round() as usize).max(1);
    }

    let (round_ms, round_p90_ms) = (median(&rounds), quantile(&rounds, 0.9));
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(-1.0);
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("round_ms", round_ms, "ms");
    m.push("round_p90_ms", round_p90_ms, "ms");
    m.push("peak_rss_mb", peak_rss_mb, "MB");

    println!(
        "# {}: {} rounds; round_ms median {round_ms:.3} p90 {round_p90_ms:.3} ({}); raw wall median {:.3} p90 {:.3}",
        w.name(),
        rounds.len(),
        if w.calibrated() { "normalized" } else { "raw wall" },
        median(&raw),
        quantile(&raw, 0.9),
    );
    match w {
        Workload::Table6Sweep => {
            println!("# e2e sweep_s {:.4} s", round_ms / 1e3);
        }
        Workload::MappingBatch => {
            let cold: Vec<f64> = batches.iter().map(|b| b[0]).collect();
            let warm: Vec<f64> = batches.iter().map(|b| median(&b[1..])).collect();
            println!("# e2e map_round_ms {round_ms:.4} ms");
            println!("# e2e map_round_p90_ms {round_p90_ms:.4} ms");
            println!("# e2e map_cold_batch_ms {:.4} ms", median(&cold));
            println!("# e2e map_warm_batch_ms {:.4} ms", median(&warm));
        }
        Workload::GroebnerGrowth => {
            println!("# e2e basis_round_ms {round_ms:.4} ms");
            println!("# e2e basis_round_p90_ms {round_p90_ms:.4} ms");
        }
    }
    println!("# e2e peak_rss_mb {peak_rss_mb:.3} MB");
    (tally, m)
}

/// Median wall clock of `n` rounds run between two probes, normalized when
/// the workload is.
fn round_median(w: Workload, n: usize, mut round: impl FnMut() -> Duration) -> f64 {
    let (walls, _, scale) = calib::bracketed(|| (0..n).map(|_| ms(round())).collect::<Vec<f64>>());
    median(&walls) * if w.calibrated() { scale } else { 1.0 }
}

/// The traced run: every layer's metrics, the tracing overhead of the
/// workload's round, and a trace file.
fn traced_run(args: &Args) -> (Tally, Metrics) {
    let inputs = Inputs::build(args.seed);
    print_config(args, &inputs);
    let mut tally = Tally::default();
    let mut off = Tracer::disabled();
    let untraced_ms = match args.workload {
        Workload::Table6Sweep => {
            let (wall, checked, _) = args.workload.round(&inputs);
            tally.add(checked);
            ms(wall)
        }
        Workload::MappingBatch => round_median(args.workload, OVERHEAD_ROUNDS, || {
            mapping_round(&inputs, &mut off).wall
        }),
        Workload::GroebnerGrowth => round_median(args.workload, OVERHEAD_ROUNDS, || {
            groebner_round(&inputs, &mut off).wall
        }),
    };

    let mut t = Tracer::new();
    let mut m = Metrics::default();
    let sweep_ms = t
        .span("layers.sweep", |t| {
            layers::sweep_layers(&inputs, t, &mut m, &mut tally)
        })
        .0;
    t.span("layers.mapping", |t| {
        layers::mapping_layers(&inputs, t, &mut m, &mut tally)
    });
    t.span("layers.groebner", |t| {
        layers::groebner_layers(&inputs, t, &mut m, &mut tally)
    });
    let traced_ms = match args.workload {
        Workload::Table6Sweep => sweep_ms,
        Workload::MappingBatch => {
            t.span("bench.overhead", |t| {
                round_median(args.workload, OVERHEAD_ROUNDS, || {
                    mapping_round(&inputs, t).wall
                })
            })
            .0
        }
        Workload::GroebnerGrowth => {
            t.span("bench.overhead", |t| {
                round_median(args.workload, OVERHEAD_ROUNDS, || {
                    groebner_round(&inputs, t).wall
                })
            })
            .0
        }
    };
    m.push("bench.trace_overhead", traced_ms / untraced_ms, "ratio");

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let json = t.to_chrome_json(&[
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("hw_threads", hw_threads().to_string()),
        (
            "config",
            "workers=1 lift=on prefilter=off trace=off".to_string(),
        ),
    ]);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("# trace: {} ({} spans)", path.display(), t.spans().len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    (tally, m)
}

/// Rewrites the goldens under `golden/` from the current program.
fn capture_goldens() -> ExitCode {
    use golden::{outcome_digest, render_sweep, version_digest};
    use symmap_algebra::groebner::{buchberger, GroebnerOptions};
    use symmap_bench::{table6_versions, FULL_STREAM_FRAMES};
    use symmap_engine::MappingEngine;

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    let inputs = Inputs::build(0);
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).expect("golden directory is writable");
    };

    eprintln!("capturing the Table 6 sweep ...");
    let versions = table6_versions(&inputs.badge, FULL_STREAM_FRAMES);
    write(
        golden::SWEEP_REPORT,
        render_sweep(&versions, FULL_STREAM_FRAMES, &inputs.badge),
    );
    let mut rows = String::new();
    for v in &versions {
        let _ = writeln!(rows, "{}\t{}", v.name, version_digest(v));
    }
    write(golden::SWEEP_VERSIONS, rows);

    eprintln!("capturing every drawable kernel against every library ...");
    let pool = inputs::kernel_pool();
    let jobs = inputs::batches(&inputs.libraries, &pool, &inputs::mapper_config());
    let mut rows = String::new();
    for ((library, _), batch) in inputs.libraries.iter().zip(&jobs) {
        let result = MappingEngine::new(inputs::engine_config()).run(batch);
        for ((label, _), outcome) in pool.iter().zip(&result.outcomes) {
            if let Err(e) = outcome {
                eprintln!("  {library} / {label}: {e:?}");
            }
            let _ = writeln!(rows, "{library}\t{label}\t{}", outcome_digest(outcome));
        }
    }
    write(golden::MAPPING, rows);

    eprintln!("capturing exact bases ...");
    let exact = GroebnerOptions {
        multimodular: false,
        ..inputs::groebner_options()
    };
    let mut rows = String::new();
    for name in inputs::IDEAL_NAMES {
        let ideal = inputs
            .ideals
            .iter()
            .find(|i| i.name == name)
            .expect("named ideal");
        let basis = buchberger(&ideal.generators, &ideal.order, &exact);
        assert!(basis.complete, "{name}: exact basis incomplete");
        let _ = writeln!(rows, "{name}\t{}", ideal.canonical_text(basis.polys()));
    }
    write(golden::GROEBNER, rows);
    eprintln!("goldens written to {}", dir.display());
    ExitCode::SUCCESS
}
