//! Pins the exact outcomes that `execute` returns.
//!
//! `execute` is a Monte-Carlo run over seeded programming noise, and
//! service bodies carry its vectors bit for bit, so any change to the
//! order of the draws, to the f32 operations on a device, or to the
//! reduction order of a kernel shows up here as a new digest.
//!
//! The grid covers chip-batch's MVM slot (32×32 weights, 8 trials, 2%
//! stuck-open, 1% stuck-closed, σ = 0.05) at several chip seeds, a 1×1
//! spec, odd column counts, a row count past the parallel kernel's
//! inline limit, σ ∈ {0, 0.05, 3} (at σ = 3 the `[g_min, g_max]` clamps
//! bite on most devices) and an all-stuck chip (`p_open + p_closed = 1`).
//! The digest is FNV-1a 64 over the little-endian bits of `ideal`,
//! `output`, `defects`, `rms_error_mean` and `rms_error_max` of every
//! outcome, in grid order.

use nanoxbar_mvm::{
    execute, execute_scalar, program, random_problem, ConductanceParams, MvmOutcome, MvmSpec,
    ProgramTargets,
};

type Execute = fn(&MvmSpec, &ProgramTargets) -> Result<MvmOutcome, String>;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn eat(digest: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

/// `(rows, cols, trials, p_open, p_closed, noise_sigma, chip_seed)`.
type Shape = (usize, usize, u32, f64, f64, f32, u64);

fn grid() -> Vec<Shape> {
    let mut shapes = Vec::new();
    // chip-batch's MVM slot.
    for seed in [1u64 << 40, (1 << 40) + 5, 0xDEAD_BEEF] {
        shapes.push((32, 32, 8, 0.02, 0.01, 0.05, seed));
    }
    for sigma in [0.0f32, 0.05, 3.0] {
        shapes.push((1, 1, 3, 0.0, 0.0, sigma, 7));
        shapes.push((5, 7, 4, 0.1, 0.05, sigma, 8));
        shapes.push((3, 33, 2, 0.02, 0.01, sigma, 9));
        shapes.push((70, 9, 2, 0.3, 0.2, sigma, 10));
    }
    // Every device stuck: the draws are consumed but never used.
    shapes.push((6, 5, 3, 0.6, 0.4, 0.05, 11));
    shapes.push((4, 3, 2, 1.0, 0.0, 3.0, 12));
    shapes
}

/// Digest and the number of specs over the whole grid.
fn digest(execute: Execute) -> (u64, usize) {
    let mut digest = FNV_OFFSET;
    let shapes = grid();
    for &(rows, cols, trials, p_open, p_closed, noise_sigma, chip_seed) in &shapes {
        let (weights, input) = random_problem(rows, cols, chip_seed ^ 0x5EED);
        let spec = MvmSpec {
            rows,
            cols,
            weights,
            input,
            chip_seed,
            p_open,
            p_closed,
            noise_sigma,
            trials,
        };
        let targets = program(&spec.weights, rows, cols, ConductanceParams::default());
        let out = execute(&spec, &targets).expect("valid spec");
        for y in out.ideal.iter().chain(&out.output) {
            eat(&mut digest, &y.to_bits().to_le_bytes());
        }
        eat(&mut digest, &(out.defects as u64).to_le_bytes());
        eat(&mut digest, &out.rms_error_mean.to_bits().to_le_bytes());
        eat(&mut digest, &out.rms_error_max.to_bits().to_le_bytes());
    }
    (digest, shapes.len())
}

#[test]
fn execute_outcomes_keep_their_bits() {
    // Pinned before the device-table kernel replaced the per-trial
    // `ConductanceMap::build`; both must give these bits.
    let pinned = ("0ae9f64e116a6bb1".to_string(), 17);
    let (d, n) = digest(execute);
    assert_eq!((format!("{d:016x}"), n), pinned, "as configured");
    for threads in [1, 2] {
        nanoxbar_par::set_threads(threads);
        let (d, n) = digest(execute);
        assert_eq!((format!("{d:016x}"), n), pinned, "threads = {threads}");
    }
}

#[test]
fn the_reference_loop_keeps_the_same_bits() {
    let (d, n) = digest(execute_scalar);
    assert_eq!(
        (format!("{d:016x}"), n),
        ("0ae9f64e116a6bb1".to_string(), 17)
    );
}
