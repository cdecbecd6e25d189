//! Cross-crate integration tests: the full synthesis → mapping → test
//! pipeline on realistic inputs.

use nanoxbar::core::ssm::Ssm;
use nanoxbar::crossbar::ArraySize;
use nanoxbar::engine::{ChipSpec, Engine, Error, FlowError, Job, Strategy, Technology};
use nanoxbar::logic::suite::standard_suite;
use nanoxbar::logic::{isop_cover, pla};
use nanoxbar::reliability::bism::{run_bism, Application, BismStrategy};
use nanoxbar::reliability::defect::DefectMap;

/// Every suite function realises correctly on every strategy — submitted
/// as one engine batch with verification on, so a single wrong
/// realisation anywhere surfaces as that job's typed error.
#[test]
fn whole_suite_on_all_strategies_as_one_batch() {
    let engine = Engine::new();
    let targets: Vec<_> = standard_suite()
        .into_iter()
        .filter(|f| !f.table.is_zero() && !f.table.is_ones())
        .collect();
    let jobs: Vec<Job> = targets
        .iter()
        .flat_map(|f| {
            [Strategy::Diode, Strategy::Fet, Strategy::DualLattice].map(|s| {
                Job::synthesize(f.table.clone())
                    .with_strategy(s)
                    .verified(true)
                    .labeled(f.name.clone())
            })
        })
        .collect();
    for result in engine.run_batch(&jobs) {
        let r = result.expect("every suite job verifies");
        assert!(r.verified(), "{:?} on {}", r.label, r.strategy);
    }
}

/// PLA round trip feeds the synthesis flow unchanged.
#[test]
fn pla_to_crossbar_pipeline() {
    let f = nanoxbar::logic::parse_function("x0 x1 + !x2").unwrap();
    let text = pla::write_pla(&isop_cover(&f));
    let parsed = pla::parse_pla(&text).unwrap();
    let cover = parsed.single_output().unwrap();
    assert!(cover.computes(&f));
    let r = nanoxbar::engine::synthesize(&cover.to_truth_table(), Technology::Diode).unwrap();
    assert!(r.computes(&f));
}

/// The defect-unaware flow succeeds across a population of chips, and the
/// recovered region shrinks with density — run as engine chip jobs with
/// fabric exhaustion arriving as a typed error.
#[test]
fn defect_unaware_flow_population() {
    let engine = Engine::new();
    let f = nanoxbar::logic::parse_function("x0 x1 + !x0 !x1").unwrap();
    let size = ArraySize::new(24, 24);
    let mut k_low = 0usize;
    let mut k_high = 0usize;
    for seed in 0..8u64 {
        let clean = DefectMap::random_uniform(size, 0.01, 0.01, seed);
        let dirty = DefectMap::random_uniform(size, 0.10, 0.05, seed);
        let a = engine
            .run(&Job::on_chip(f.clone(), ChipSpec::Explicit(clean)))
            .unwrap();
        let a = a.flow().expect("chip job carries a flow report");
        assert!(a.bist_passed, "clean chip seed {seed}");
        k_low += a.recovered.k();
        match engine.run(&Job::on_chip(f.clone(), ChipSpec::Explicit(dirty))) {
            Ok(result) => {
                let b = result.flow().expect("chip job carries a flow report");
                assert!(b.bist_passed, "dirty chip seed {seed}");
                k_high += b.recovered.k();
            }
            Err(Error::Flow(FlowError::InsufficientFabric { .. })) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(k_low > k_high, "recovery must degrade with density");
}

/// BISM succeeds on chips where defect-aware matching also succeeds, for
/// every strategy.
#[test]
fn bism_strategies_agree_on_feasibility() {
    let f = nanoxbar::logic::parse_function("x0 x1 x2 + !x0 !x1 + x1 !x2").unwrap();
    let app = Application::from_cover(&isop_cover(&f));
    let size = ArraySize::new(12, 12);
    for seed in 0..6u64 {
        let chip = DefectMap::random_uniform(size, 0.05, 0.02, seed + 100);
        for strategy in [
            BismStrategy::Blind,
            BismStrategy::Greedy,
            BismStrategy::Hybrid { blind_retries: 4 },
        ] {
            let stats = run_bism(&app, &chip, strategy, 1000, seed);
            assert!(stats.success, "{strategy:?} seed {seed}");
        }
    }
}

/// An SSM built on a defect-checked technology still steps correctly.
#[test]
fn ssm_runs_on_every_technology() {
    for tech in Technology::ALL {
        let mut counter = Ssm::counter(4, tech);
        for step in 1..=20u64 {
            counter.step(1);
            assert_eq!(counter.state(), step % 16, "{tech} step {step}");
        }
    }
}

/// Adders compose with the SSM counter: compute 7+9 then count to it.
#[test]
fn adder_feeds_counter() {
    use nanoxbar::core::arith::AdderDesign;
    let adder = AdderDesign::synthesize(4, Technology::Diode);
    let target = adder.add(7, 9);
    assert_eq!(target, 16);
    let mut counter = Ssm::counter(5, Technology::Diode);
    for _ in 0..target {
        counter.step(1);
    }
    assert_eq!(counter.state(), 16);
}
