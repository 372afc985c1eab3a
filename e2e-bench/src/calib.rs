// lint:allow-file(D2): the machine-speed probe is timed with the wall clock;
// this benchmark package is the repository's end-to-end timing harness.

//! Machine-speed calibration.
//!
//! The small shared machines this benchmark runs on change speed by up to
//! 1.8× for seconds at a time as neighbours load the shared caches and
//! memory, which swamps any regression bound. The mapping and Gröbner
//! timings are therefore bracketed by a fixed probe made only of this
//! file's code, and reported as the time they would take on a machine where
//! the probe takes [`PROBE_REF_MS`]. The probe never calls the program, so a
//! change to the program moves the normalized times exactly as it moves the
//! raw ones.
//!
//! The probe mimics the program's dominant access pattern in those
//! workloads: multi-limb integer products in freshly allocated small
//! vectors drawn from a working set of a few hundred KiB (the rational
//! arithmetic of the Gröbner, mapping and library layers). The sweep is not
//! normalized: see [`crate::workloads::Workload::calibrated`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe time the normalized figures are scaled to (about the probe's
/// time on an unloaded 2.1 GHz x86-64 core).
pub const PROBE_REF_MS: f64 = 10.0;

/// Runs the probe once and returns its wall clock in milliseconds.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut s = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 27)
    };
    let mut pool: Vec<Vec<u64>> = (0..16_384).map(|_| vec![next(); 4]).collect();
    for _ in 0..60_000 {
        let i = (next() % pool.len() as u64) as usize;
        let j = (next() % pool.len() as u64) as usize;
        let (a, b) = (&pool[i], &pool[j]);
        let mut out = vec![0u64; a.len() + b.len()];
        for (x, &ax) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (y, &by) in b.iter().enumerate() {
                let t = u128::from(ax) * u128::from(by) + u128::from(out[x + y]) + carry;
                out[x + y] = t as u64;
                carry = t >> 64;
            }
            out[x + b.len()] = carry as u64;
        }
        out.truncate(2 + (next() % 10) as usize);
        pool[i] = out;
    }
    black_box(&pool);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` between two probes; returns its result, its raw wall clock and
/// the factor that scales a time measured inside the bracket to the
/// reference machine.
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, Duration, f64) {
    let before = probe_ms();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let after = probe_ms();
    (out, wall, PROBE_REF_MS / ((before + after) / 2.0))
}
