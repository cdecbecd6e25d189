//! Property suite for the analog MVM subsystem:
//!
//! * the 4-row lane-unrolled kernel and the row-chunked parallel kernel
//!   are **bit-identical** to the strictly scalar reference across
//!   `NANOXBAR_THREADS` ∈ {1, 2, 8} — f32 reduction order never changes;
//! * the chip-independent program step keeps every device target inside
//!   `[g_min, g_max]` and reconstructs the clipped weight exactly;
//! * `ConductanceMap::build` and `execute` are deterministic per seed,
//!   for every thread count;
//! * `execute`, which runs every trial over one per-chip device table with
//!   `noise::draw`, equals `execute_scalar`, the reference loop that builds
//!   a `ConductanceMap` per trial with `gen_normal_f32`, bit for bit.

use proptest::prelude::*;

use nanoxbar_mvm::{
    execute, execute_scalar, mvm_parallel, mvm_scalar, mvm_unrolled, program, ConductanceParams,
    MvmOutcome, MvmSpec,
};

/// Every bit of an outcome: `-0.0` and `0.0` differ here, unlike `==`.
fn outcome_bits(out: &MvmOutcome) -> Vec<u64> {
    let floats = out
        .ideal
        .iter()
        .chain(&out.output)
        .map(|y| u64::from(y.to_bits()));
    floats
        .chain([
            out.defects as u64,
            out.rms_error_mean.to_bits(),
            out.rms_error_max.to_bits(),
        ])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The unrolled and parallel kernels equal the scalar reference bit
    /// for bit, at every thread count, including lane and chunk tails.
    #[test]
    fn kernels_are_bit_identical_across_threads(
        rows in 1usize..200,
        cols in 1usize..48,
        seed in any::<u64>(),
    ) {
        let (weights, input) = nanoxbar_mvm::random_problem(rows, cols, seed);
        let scalar = mvm_scalar(&weights, rows, cols, &input);
        prop_assert_eq!(
            &scalar,
            &mvm_unrolled(&weights, rows, cols, &input),
            "unrolled diverged at {}x{}",
            rows,
            cols
        );
        for threads in [1usize, 2, 8] {
            nanoxbar_par::set_threads(threads);
            prop_assert_eq!(
                &scalar,
                &mvm_parallel(&weights, rows, cols, &input),
                "parallel diverged at {}x{} threads={}",
                rows,
                cols,
                threads
            );
        }
        nanoxbar_par::set_threads(1);
    }

    /// Program targets stay inside the physical bounds and the
    /// differential pair reconstructs the clipped weight exactly:
    /// `(g⁺ − g⁻) / (g_max − g_min) == clamp(w, -1, 1)`.
    #[test]
    fn program_step_bounds_and_reconstructs(
        rows in 1usize..12,
        cols in 1usize..12,
        seed in any::<u64>(),
    ) {
        let (weights, _) = nanoxbar_mvm::random_problem(rows, cols, seed);
        let p = ConductanceParams::default();
        let t = program(&weights, rows, cols, p);
        let span = p.g_max - p.g_min;
        for (i, &w) in weights.iter().enumerate() {
            prop_assert!((p.g_min..=p.g_max).contains(&t.g_pos[i]));
            prop_assert!((p.g_min..=p.g_max).contains(&t.g_neg[i]));
            let rebuilt = (t.g_pos[i] - t.g_neg[i]) / span;
            let target = w.clamp(-1.0, 1.0);
            prop_assert!(
                (rebuilt - target).abs() <= 1e-6,
                "weight {} rebuilt as {}",
                target,
                rebuilt
            );
        }
    }

    /// `execute` is a pure function of the spec: repeat runs and runs at
    /// other thread counts return the same outcome bit for bit.
    #[test]
    fn execute_is_deterministic_across_threads(
        rows in 1usize..80,
        cols in 1usize..24,
        chip_seed in any::<u64>(),
        density_pct in 0u64..30,
        sigma_pct in 0u64..40,
    ) {
        let (weights, input) = nanoxbar_mvm::random_problem(rows, cols, chip_seed ^ 0x5A5A);
        let spec = MvmSpec {
            rows,
            cols,
            weights,
            input,
            chip_seed,
            p_open: density_pct as f64 / 100.0 * 0.7,
            p_closed: density_pct as f64 / 100.0 * 0.3,
            noise_sigma: sigma_pct as f32 / 100.0,
            trials: 3,
        };
        let targets = program(&spec.weights, rows, cols, ConductanceParams::default());
        nanoxbar_par::set_threads(1);
        let reference = execute(&spec, &targets).unwrap();
        prop_assert_eq!(reference.ideal.len(), rows);
        prop_assert_eq!(reference.output.len(), rows);
        prop_assert!(reference.rms_error_max >= reference.rms_error_mean);
        for threads in [2usize, 8] {
            nanoxbar_par::set_threads(threads);
            prop_assert_eq!(
                &execute(&spec, &targets).unwrap(),
                &reference,
                "outcome diverged at threads={}",
                threads
            );
        }
        nanoxbar_par::set_threads(1);
    }

    /// The device-table kernel equals the per-trial `ConductanceMap`
    /// reference bit for bit, for noise large enough to make the clamps
    /// bite and defect rates up to an all-stuck chip.
    #[test]
    fn execute_equals_the_conductance_map_reference(
        rows in 1usize..48,
        cols in 1usize..40,
        chip_seed in any::<u64>(),
        p_open_pct in 0u64..=60,
        p_closed_pct in 0u64..=40,
        sigma_index in 0usize..5,
        trials in 1u32..5,
    ) {
        let (weights, input) = nanoxbar_mvm::random_problem(rows, cols, chip_seed ^ 0xA5A5);
        let spec = MvmSpec {
            rows,
            cols,
            weights,
            input,
            chip_seed,
            p_open: p_open_pct as f64 / 100.0,
            p_closed: p_closed_pct as f64 / 100.0,
            noise_sigma: [0.0, 0.05, 0.5, 2.0, 3.0][sigma_index],
            trials,
        };
        let targets = program(&spec.weights, rows, cols, ConductanceParams::default());
        let reference = execute_scalar(&spec, &targets).unwrap();
        prop_assert_eq!(
            outcome_bits(&execute(&spec, &targets).unwrap()),
            outcome_bits(&reference)
        );
    }
}
