//! Criterion microbenchmarks: the fault-tolerance machinery (backs
//! E6/E8/E9 timing behaviour).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nanoxbar_crossbar::ArraySize;
use nanoxbar_logic::suite::random_sop;
use nanoxbar_reliability::bism::{
    application_bisd, application_bist, run_bism, Application, BismStrategy,
};
use nanoxbar_reliability::bist::TestPlan;
use nanoxbar_reliability::defect::DefectMap;
use nanoxbar_reliability::fault::fault_universe;
use nanoxbar_reliability::mapper::{MapConfig, Mapper};
use nanoxbar_reliability::unaware::extract_greedy;

fn bist_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("bist-coverage");
    for n in [8usize, 16] {
        let size = ArraySize::new(n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &size, |b, &size| {
            let plan = TestPlan::generate(size);
            let universe = fault_universe(size);
            b.iter(|| {
                let report = plan.coverage(size, std::hint::black_box(&universe));
                assert_eq!(report.coverage(), 1.0);
            })
        });
    }
    group.finish();
}

fn bism_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("bism");
    let app = Application::from_cover(&random_sop(6, 6, 42));
    let size = ArraySize::new(16, 16);
    let chip = DefectMap::random_uniform(size, 0.07, 0.03, 11);
    for (name, strategy) in [
        ("blind", BismStrategy::Blind),
        ("greedy", BismStrategy::Greedy),
        ("hybrid", BismStrategy::Hybrid { blind_retries: 5 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let stats = run_bism(&app, std::hint::black_box(&chip), strategy, 400, 3);
                assert!(stats.success);
            })
        });
    }
    group.finish();
}

fn kxk_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("kxk-extraction");
    for n in [32usize, 64, 128] {
        let chip = DefectMap::random_uniform(ArraySize::new(n, n), 0.05, 0.02, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &chip, |b, chip| {
            b.iter(|| extract_greedy(std::hint::black_box(chip)).k())
        });
    }
    group.finish();
}

/// The map slot of the service's chip-batch workload: an 8-variable,
/// 6-product cover on a 48×48 chip with 15% defects, split 70/30
/// stuck-open/stuck-closed as the service's `defect_rate` splits it. These
/// seeds take 6 rounds and 18 attempts, near chip-batch's means (5.7 and
/// 18.2).
fn chip_batch_slot() -> (Application, DefectMap) {
    let app = Application::from_cover(&random_sop(8, 6, 0));
    let chip = DefectMap::random_uniform(ArraySize::new(48, 48), 0.105, 0.045, 0);
    (app, chip)
}

fn mapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper");
    let (app, chip) = chip_batch_slot();
    // The service default (hybrid:5, 400 attempts) at speculation 4.
    let config = MapConfig::default();
    group.bench_function("chip-batch-slot", |b| {
        b.iter(|| {
            let report = Mapper::new(app.clone(), std::hint::black_box(chip.clone()), config).run();
            assert!(report.stats.success);
        })
    });
    // One fixed candidate placement, judged and diagnosed.
    let mapping: Vec<usize> = (0..app.product_count()).map(|p| p * 8).collect();
    group.bench_function("bist", |b| {
        b.iter(|| application_bist(&app, &mapping, std::hint::black_box(&chip)))
    });
    group.bench_function("bisd", |b| {
        b.iter(|| application_bisd(&app, &mapping, std::hint::black_box(&chip)).len())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bist_coverage, bism_strategies, kxk_extraction, mapper
}
criterion_main!(benches);
