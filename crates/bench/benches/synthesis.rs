//! Criterion microbenchmarks: synthesis throughput per technology and
//! preprocessing method (supports E3/E4/E5 timing columns).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nanoxbar_engine::{synthesize, Engine, Job, Strategy, Technology};
use nanoxbar_lattice::synth::{dreducible, dual_based, pcircuit};
use nanoxbar_logic::suite::{majority, multiplexer, parity, random_sop};
use nanoxbar_logic::TruthTable;

fn bench_functions() -> Vec<(&'static str, TruthTable)> {
    vec![
        ("maj5", majority(5)),
        ("parity4", parity(4)),
        ("mux4", multiplexer(2)),
        ("rand6v5p", random_sop(6, 5, 0xBEEF + 2).to_truth_table()),
    ]
}

fn technology_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesize");
    for (name, f) in bench_functions() {
        for tech in Technology::ALL {
            group.bench_with_input(BenchmarkId::new(tech.name(), name), &f, |b, f| {
                b.iter(|| {
                    synthesize(std::hint::black_box(f), tech)
                        .expect("non-constant")
                        .area()
                })
            });
        }
    }
    group.finish();
}

/// Engine batch throughput: the whole bench-function grid as one
/// `run_batch` vs sequential `run` calls — the facade the batch traffic
/// uses.
fn engine_batch(c: &mut Criterion) {
    let engine = Engine::new();
    let jobs: Vec<Job> = bench_functions()
        .into_iter()
        .flat_map(|(_, f)| {
            [Strategy::Diode, Strategy::Fet, Strategy::DualLattice]
                .map(|s| Job::synthesize(f.clone()).with_strategy(s))
        })
        .collect();
    let mut group = c.benchmark_group("engine");
    group.bench_function("run-sequential", |b| {
        b.iter(|| {
            jobs.iter()
                .map(|j| engine.run(std::hint::black_box(j)).map(|r| r.area()))
                .filter_map(Result::ok)
                .sum::<usize>()
        })
    });
    group.bench_function("run_batch", |b| {
        b.iter(|| {
            engine
                .run_batch(std::hint::black_box(&jobs))
                .into_iter()
                .filter_map(|r| r.map(|ok| ok.area()).ok())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn lattice_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice-preprocessing");
    for (name, f) in bench_functions() {
        group.bench_with_input(BenchmarkId::new("dual-based", name), &f, |b, f| {
            b.iter(|| dual_based::synthesize(std::hint::black_box(f)).area())
        });
        group.bench_with_input(BenchmarkId::new("p-circuit", name), &f, |b, f| {
            b.iter(|| pcircuit::synthesize(std::hint::black_box(f)).lattice.area())
        });
        group.bench_with_input(BenchmarkId::new("d-reducible", name), &f, |b, f| {
            b.iter(|| {
                dreducible::synthesize(std::hint::black_box(f))
                    .lattice
                    .area()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = technology_synthesis, lattice_preprocessing, engine_batch
}
criterion_main!(benches);
