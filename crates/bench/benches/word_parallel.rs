//! Criterion microbenchmarks: the word-parallel evaluation engine versus
//! the scalar reference paths it replaced (PR "word-parallel evaluation
//! engine" acceptance evidence — target ≥10× on `to_truth_table` at
//! n ≥ 12 and on 16×16 BIST fault-universe coverage), plus the
//! multi-core follow-up: thread-scaling sweeps over the pool
//! (`threads/...` groups), block-code diagnosis read off the defect map
//! by the contradiction rule against its full-array simulation
//! (`diagnose` group), and the word-parallel logic front end (`parse`,
//! `isop`, `isop-dual`, `verify`, `sifting` groups).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nanoxbar_bddsynth::{sifted_order, sifted_order_scalar};
use nanoxbar_crossbar::{ArraySize, DiodeArray, FetArray};
use nanoxbar_lattice::synth::dual_based;
use nanoxbar_lattice::{eval_top_bottom, BitEvaluator};
use nanoxbar_logic::suite::random_sop;
use nanoxbar_logic::{dual_cover, isop, isop_cover, isop_scalar, parse_function, Expr, TruthTable};
use nanoxbar_par as par;
use nanoxbar_reliability::bisd::DiagnosisPlan;
use nanoxbar_reliability::bist::TestPlan;
use nanoxbar_reliability::defect::DefectMap;
use nanoxbar_reliability::fault::fault_universe;

fn lattice_to_truth_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("to-truth-table");
    for n in [10usize, 12] {
        let f = random_sop(n, n, 0xBEEF + n as u64).to_truth_table();
        let lattice = dual_based::synthesize(&f);
        let label = format!("{}x{}/n={}", lattice.rows(), lattice.cols(), n);
        group.bench_with_input(BenchmarkId::new("scalar", &label), &lattice, |b, l| {
            b.iter(|| {
                TruthTable::from_fn(l.num_vars(), |m| {
                    eval_top_bottom(std::hint::black_box(l), m)
                })
                .count_ones()
            })
        });
        group.bench_with_input(BenchmarkId::new("word", &label), &lattice, |b, l| {
            let mut eval = BitEvaluator::new();
            b.iter(|| eval.function(std::hint::black_box(l)).count_ones())
        });
    }
    group.finish();
}

fn bist_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("bist-coverage");
    for n in [8usize, 16] {
        let size = ArraySize::new(n, n);
        let plan = TestPlan::generate(size);
        let universe = fault_universe(size);
        group.bench_with_input(BenchmarkId::new("scalar", n), &universe, |b, universe| {
            b.iter(|| {
                plan.coverage_scalar(size, std::hint::black_box(universe))
                    .detected
            })
        });
        group.bench_with_input(BenchmarkId::new("word", n), &universe, |b, universe| {
            b.iter(|| plan.coverage(size, std::hint::black_box(universe)).detected)
        });
    }
    group.finish();
}

/// Thread counts to sweep: 1, 2, 4, and the host's default when larger.
fn thread_counts() -> Vec<usize> {
    let host = par::threads();
    let mut counts = vec![1usize, 2, 4];
    if host > 4 {
        counts.push(host);
    }
    counts
}

fn thread_scaling_to_truth_table(c: &mut Criterion) {
    let host = par::threads();
    let mut group = c.benchmark_group("threads/to-truth-table-n12");
    let f = random_sop(12, 12, 0xBEEF + 12).to_truth_table();
    let lattice = dual_based::synthesize(&f);
    for t in thread_counts() {
        par::set_threads(t);
        group.bench_with_input(BenchmarkId::new("word", t), &lattice, |b, l| {
            let mut eval = BitEvaluator::new();
            b.iter(|| eval.function(std::hint::black_box(l)).count_ones())
        });
    }
    par::set_threads(host);
    group.finish();
}

fn thread_scaling_coverage(c: &mut Criterion) {
    let host = par::threads();
    let mut group = c.benchmark_group("threads/bist-coverage-16x16");
    let size = ArraySize::new(16, 16);
    let plan = TestPlan::generate(size);
    let universe = fault_universe(size);
    for t in thread_counts() {
        par::set_threads(t);
        group.bench_with_input(BenchmarkId::new("word", t), &universe, |b, universe| {
            b.iter(|| plan.coverage(size, std::hint::black_box(universe)).detected)
        });
    }
    par::set_threads(host);
    group.finish();
}

/// Whole-plan diagnosis on a 16×16 fabric: the contradiction rule versus
/// the scalar per-vector reference.
fn diagnose(c: &mut Criterion) {
    let mut group = c.benchmark_group("diagnose");
    let size = ArraySize::new(16, 16);
    let plan = DiagnosisPlan::generate(size);
    let mut chip = DefectMap::healthy(size);
    chip.set(
        9,
        13,
        nanoxbar_reliability::defect::CrosspointHealth::StuckOpen,
    );
    group.bench_function("scalar", |b| {
        b.iter(|| plan.diagnose_scalar(std::hint::black_box(&chip)))
    });
    group.bench_function("rule", |b| {
        b.iter(|| plan.diagnose(std::hint::black_box(&chip)))
    });
    group.finish();
}

/// The synthesis front end at request-path sizes: expression parsing, ISOP
/// of `f` and of `f^D`, and diode/FET verification at n = 10, and BDD
/// sifting on 8 variables × 3 outputs — each per-minterm (or
/// manager-built) reference against its word kernel.
fn logic_front_end(c: &mut Criterion) {
    let cover = random_sop(10, 6, 0xF00D);
    let text = cover.to_algebraic();
    let f = cover.to_truth_table();

    let mut group = c.benchmark_group("parse/n=10");
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let (expr, names) = Expr::parse(std::hint::black_box(&text)).expect("parses");
            let n = expr.max_var().map_or(0, |v| v + 1).max(names.len());
            TruthTable::from_fn(n, |m| expr.eval(m)).count_ones()
        })
    });
    group.bench_function("word", |b| {
        b.iter(|| {
            parse_function(std::hint::black_box(&text))
                .expect("parses")
                .count_ones()
        })
    });
    group.finish();

    for (name, t) in [("isop/n=10", f.clone()), ("isop-dual/n=10", f.dual())] {
        let mut group = c.benchmark_group(name);
        group.bench_function("scalar", |b| {
            b.iter(|| isop_scalar(std::hint::black_box(&t), &t).product_count())
        });
        group.bench_function("word", |b| {
            b.iter(|| isop(std::hint::black_box(&t), &t).product_count())
        });
        group.finish();
    }

    let diode = DiodeArray::synthesize(&isop_cover(&f));
    let fet = FetArray::synthesize(&isop_cover(&f), &dual_cover(&f));
    let mut group = c.benchmark_group("verify/n=10");
    group.bench_function("diode-scalar", |b| {
        b.iter(|| diode.computes_scalar(std::hint::black_box(&f)))
    });
    group.bench_function("diode-word", |b| {
        b.iter(|| diode.computes(std::hint::black_box(&f)))
    });
    group.bench_function("fet-scalar", |b| {
        b.iter(|| fet.computes_scalar(std::hint::black_box(&f)))
    });
    group.bench_function("fet-word", |b| {
        b.iter(|| fet.computes(std::hint::black_box(&f)))
    });
    group.finish();

    let outputs: Vec<TruthTable> = (0..3u64)
        .map(|o| random_sop(8, 4 + o as usize, 0x51F7 + o).to_truth_table())
        .collect();
    let mut group = c.benchmark_group("sifting/8x3");
    group.bench_function("scalar", |b| {
        b.iter(|| sifted_order_scalar(std::hint::black_box(&outputs)).expect("non-constant"))
    });
    group.bench_function("word", |b| {
        b.iter(|| sifted_order(std::hint::black_box(&outputs)).expect("non-constant"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = lattice_to_truth_table, bist_coverage, thread_scaling_to_truth_table,
        thread_scaling_coverage, diagnose, logic_front_end
}
criterion_main!(benches);
