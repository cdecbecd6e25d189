//! Criterion microbenchmarks: chip-batch's analog MVM slot.
//!
//! The `mvm-slot` group runs one slot as the service does (32×32 weights,
//! 8 trials, 2% stuck-open, 1% stuck-closed, σ = 0.05): `execute`, which
//! reads a per-chip device table and draws with `noise::draw`, against
//! `execute_scalar`, the reference loop that builds a `ConductanceMap`
//! per trial. The `noise-draws` group times the slot's 16,384 draws
//! (32×64 devices × 8 trials) alone: `rand::NormalRng::gen_normal_f32`
//! against `noise::draw`, which returns the same bits.

use criterion::{criterion_group, criterion_main, Criterion};

use nanoxbar_mvm::{
    execute, execute_scalar, noise, program, random_problem, ConductanceParams, MvmSpec,
};
use rand::{NormalRng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Draws in one chip-batch MVM slot.
const SLOT_DRAWS: usize = 32 * 64 * 8;

fn slot_spec() -> MvmSpec {
    let (weights, input) = random_problem(32, 32, 5);
    MvmSpec {
        rows: 32,
        cols: 32,
        weights,
        input,
        chip_seed: 1 << 40,
        p_open: 0.02,
        p_closed: 0.01,
        noise_sigma: 0.05,
        trials: 8,
    }
}

fn mvm_slot(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvm-slot");
    let spec = slot_spec();
    let targets = program(&spec.weights, 32, 32, ConductanceParams::default());
    let expected = execute_scalar(&spec, &targets).expect("valid spec");
    assert_eq!(execute(&spec, &targets).expect("valid spec"), expected);
    group.bench_function("execute", |b| {
        b.iter(|| execute(std::hint::black_box(&spec), &targets))
    });
    group.bench_function("execute_scalar", |b| {
        b.iter(|| execute_scalar(std::hint::black_box(&spec), &targets))
    });
    group.finish();
}

fn noise_draws(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise-draws");
    group.bench_function("gen_normal_f32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(std::hint::black_box(9));
            (0..SLOT_DRAWS).fold(0.0f32, |acc, _| acc + rng.gen_normal_f32())
        })
    });
    group.bench_function("noise::draw", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(std::hint::black_box(9));
            (0..SLOT_DRAWS).fold(0.0f32, |acc, _| acc + noise::draw(&mut rng))
        })
    });
    group.finish();
}

criterion_group!(benches, mvm_slot, noise_draws);
criterion_main!(benches);
