//! E-mvm — roofline of the analog MVM kernels plus a noise sweep.
//!
//! Part 1 (always): GFLOP/s of the three bit-identical f32 kernels
//! (`mvm_scalar`, `mvm_unrolled`, `mvm_parallel`) across square sizes,
//! best-of-N timing with the rep count scaled so every cell measures a
//! comparable wall-clock window. Counting 2·rows·cols flops per product,
//! the table shows where the 4-row lane unroll beats the strictly serial
//! reference (it hides the f32 add latency the scalar loop serialises
//! on) and where the `PAR_CHUNK_ROWS` fan-out starts paying for itself.
//! The acceptance claim is checked directly: at the largest size the
//! unrolled kernel must not be slower than the scalar reference.
//!
//! Part 2 (`--sweep`): the accuracy side of the roofline — one engine
//! batch of [`Job::mvm`] jobs sweeping `noise_sigma` on a fixed
//! **defect-free** chip, reporting Monte-Carlo RMS error (mean and
//! worst trial) against the ideal product. With sigma the only error
//! source the mean must grow monotonically, and a zero-noise zero-IR
//! chip must be exact up to f32 conductance quantization (rms < 1e-4;
//! the sigma-0 table row is the pure IR-drop residual of the default
//! 1 ohm/segment wire). A final defective point
//! (`p_open` 2%) shows stuck devices dominating every noise level.
//!
//! Flags: `--reps N` (timing budget multiplier, default 1),
//! `--best N` (best-of passes, default 5), `--sweep`.

use std::time::Instant;

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_engine::{Engine, Job, MvmSpec};
use nanoxbar_mvm::{mvm_parallel, mvm_scalar, mvm_unrolled, random_problem};

/// Square sizes to sweep; the last one anchors the acceptance check.
const SIZES: [usize; 4] = [32, 64, 128, 256];

fn arg(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Best-of-`best` wall time of `reps` back-to-back products, in seconds.
/// The output vector is folded into a checksum so the optimiser cannot
/// discard the work.
fn time_kernel(
    kernel: impl Fn(&[f32], usize, usize, &[f32]) -> Vec<f32>,
    weights: &[f32],
    n: usize,
    input: &[f32],
    reps: usize,
    best: usize,
) -> f64 {
    let mut fastest = f64::INFINITY;
    let mut sink = 0.0f32;
    for _ in 0..best {
        let started = Instant::now();
        for _ in 0..reps {
            let out = kernel(weights, n, n, input);
            sink += out[0];
        }
        fastest = fastest.min(started.elapsed().as_secs_f64());
    }
    assert!(sink.is_finite(), "kernel produced a non-finite output");
    fastest
}

fn roofline(rep_scale: usize, best: usize) -> (f64, f64) {
    let mut table = Table::new(&[
        "size",
        "scalar GFLOP/s",
        "unrolled GFLOP/s",
        "parallel GFLOP/s",
        "unroll speedup",
    ]);
    let (mut scalar_last, mut unrolled_last) = (0.0, 0.0);
    for n in SIZES {
        let (weights, input) = random_problem(n, n, n as u64);
        // ~16M flops of work per measured window at every size.
        let reps = (8_000_000 / (2 * n * n)).max(1) * rep_scale;
        let flops = (2 * n * n * reps) as f64;
        let gflops = |secs: f64| flops / secs / 1e9;
        let scalar = gflops(time_kernel(mvm_scalar, &weights, n, &input, reps, best));
        let unrolled = gflops(time_kernel(mvm_unrolled, &weights, n, &input, reps, best));
        let parallel = gflops(time_kernel(mvm_parallel, &weights, n, &input, reps, best));
        table.row_owned(vec![
            format!("{n}x{n}"),
            f2(scalar),
            f2(unrolled),
            f2(parallel),
            format!("{:.2}x", unrolled / scalar),
        ]);
        scalar_last = scalar;
        unrolled_last = unrolled;
    }
    println!("{}", table.render());
    (scalar_last, unrolled_last)
}

/// One sweep spec: a fixed 64x48 chip, sigma the only moving part.
fn sweep_spec(noise_sigma: f32, p_open: f64, p_closed: f64) -> MvmSpec {
    let (rows, cols) = (64, 48);
    let (weights, input) = random_problem(rows, cols, 2017);
    MvmSpec {
        rows,
        cols,
        weights,
        input,
        chip_seed: 7,
        p_open,
        p_closed,
        noise_sigma,
        trials: 16,
    }
}

fn noise_sweep() {
    println!("noise sweep: defect-free 64x48 chip, 16 trials per point, one engine batch\n");
    let sigmas = [0.0f32, 0.01, 0.02, 0.05, 0.1, 0.2];
    let engine = Engine::new();
    // The sweep points plus one defective chip (2% open, 1% closed) at a
    // mid sigma, all fanned out as a single batch.
    let jobs: Vec<Job> = sigmas
        .iter()
        .map(|&s| Job::mvm(sweep_spec(s, 0.0, 0.0)))
        .chain(std::iter::once(Job::mvm(sweep_spec(0.05, 0.02, 0.01))))
        .collect();
    let results = engine.run_batch(&jobs);

    let mut table = Table::new(&["noise sigma", "defects", "rms mean", "rms worst trial"]);
    let mut previous = -1.0f64;
    for (sigma, result) in sigmas.iter().zip(&results) {
        let outcome = result
            .as_ref()
            .expect("sweep job runs")
            .mvm()
            .expect("mvm job carries an outcome");
        table.row_owned(vec![
            format!("{sigma:.2}"),
            outcome.defects.to_string(),
            format!("{:.5}", outcome.rms_error_mean),
            format!("{:.5}", outcome.rms_error_max),
        ]);
        assert!(
            outcome.rms_error_mean >= previous,
            "RMS error must grow with sigma ({previous} -> {} at sigma {sigma})",
            outcome.rms_error_mean
        );
        previous = outcome.rms_error_mean;
    }
    let defective = results[sigmas.len()]
        .as_ref()
        .expect("defective job runs")
        .mvm()
        .expect("mvm outcome");
    table.row_owned(vec![
        "0.05 + defects".to_string(),
        defective.defects.to_string(),
        format!("{:.5}", defective.rms_error_mean),
        format!("{:.5}", defective.rms_error_max),
    ]);
    println!("{}", table.render());
    assert!(
        defective.rms_error_mean > previous,
        "a 2%-open chip must out-err every noise-only point"
    );

    // The degenerate corner pins the model: no defects, no variation, no
    // programming noise, *and no wire resistance* -> the analog chip IS
    // the ideal product (the sigma-0 row above is the pure IR-drop
    // residual of the default 1 ohm/segment wire).
    let spec = sweep_spec(0.0, 0.0, 0.0);
    let ideal_params = nanoxbar_mvm::ConductanceParams {
        wire_resistance: 0.0,
        ..nanoxbar_mvm::ConductanceParams::default()
    };
    let targets = nanoxbar_mvm::program(&spec.weights, spec.rows, spec.cols, ideal_params);
    let outcome = nanoxbar_mvm::execute(&spec, &targets).expect("clean chip runs");
    assert!(
        outcome.rms_error_mean < 1e-4,
        "a defect-free noiseless zero-IR chip must be quantization-exact \
         (rms {} is more than the f32 conductance round-trip explains)",
        outcome.rms_error_mean
    );
    println!(
        "defect-free noiseless zero-IR chip: rms {:.2e} (f32 conductance round-trip only)",
        outcome.rms_error_mean
    );
}

fn main() {
    banner("E-mvm", "analog MVM kernel roofline and noise sweep");
    let rep_scale = arg("--reps", 1).max(1);
    let best = arg("--best", 5).max(1);
    println!(
        "sizes {SIZES:?}, best-of-{best}, rep scale {rep_scale}, pool threads {}\n",
        nanoxbar_par::threads()
    );

    let (scalar, unrolled) = roofline(rep_scale, best);
    println!(
        "largest size: unrolled {} GFLOP/s vs scalar {} GFLOP/s ({:.2}x)",
        f2(unrolled),
        f2(scalar),
        unrolled / scalar
    );
    assert!(
        unrolled >= scalar,
        "the lane-unrolled kernel must not lose to the scalar reference \
         at {}x{n} (scalar {scalar:.2} vs unrolled {unrolled:.2} GFLOP/s)",
        SIZES[SIZES.len() - 1],
        n = SIZES[SIZES.len() - 1]
    );

    if flag("--sweep") {
        println!();
        noise_sweep();
    }
}
