//! Property suite for the batch engine: `run_batch` must be bit-identical
//! to per-job sequential `run` — same realisations, same flow reports,
//! same typed errors, in input order — and deterministic across
//! `NANOXBAR_THREADS` ∈ {1, 2, 8}, including batches that mix succeeding
//! and failing jobs (constants on two-terminal strategies, unknown
//! strategies, fabric exhaustion).

use proptest::prelude::*;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{
    ChipSpec, Engine, Error, Job, JobResult, MapConfig, Strategy as SynthStrategy,
};
use nanoxbar_logic::TruthTable;
use nanoxbar_reliability::defect::DefectMap;

/// One random job: a 1–3 variable function (constants included on
/// purpose), a strategy pick that sometimes names a nonexistent backend,
/// and sometimes a chip — occasionally one too small for the SOP.
fn arb_job() -> impl Strategy<Value = Job> {
    (any::<u64>(), 1usize..=3, 0u8..=255, 0u64..1000).prop_map(|(bits, num_vars, knobs, seed)| {
        let f = TruthTable::from_fn(num_vars, |m| (bits >> (m % 64)) & 1 == 1);
        let mut job = match (knobs / 6) % 4 {
            0 => Job::on_chip(
                f,
                ChipSpec::Random {
                    size: ArraySize::new(12, 12),
                    seed,
                },
            ),
            // Usually too small.
            1 => Job::on_chip(
                f,
                ChipSpec::Explicit(DefectMap::healthy(ArraySize::new(2, 2))),
            ),
            _ => Job::synthesize(f),
        };
        job = match knobs % 6 {
            0 => job.with_strategy(SynthStrategy::Diode),
            1 => job.with_strategy(SynthStrategy::Fet),
            2 => job.with_strategy(SynthStrategy::DualLattice),
            3 => job.with_strategy(SynthStrategy::OptimalLattice),
            4 => job.with_strategy_name("no-such-backend"),
            _ => job, // the default strategy
        };
        job.verified((knobs / 24) % 2 == 0)
            .labeled(format!("job-{bits:x}"))
    })
}

/// Result equivalence modulo `elapsed` (wall-clock time is the one field
/// determinism cannot cover).
fn same_outcome(a: &Result<JobResult, Error>, b: &Result<JobResult, Error>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.label == y.label && x.strategy == y.strategy && x.output == y.output,
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn describe(r: &Result<JobResult, Error>) -> String {
    match r {
        Ok(ok) => format!("Ok({}, {} sites)", ok.strategy, ok.area()),
        Err(e) => format!("Err({e})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_batch` ≡ sequential `run`, per job, across thread counts.
    #[test]
    fn batch_matches_sequential_across_thread_counts(
        jobs in proptest::collection::vec(arb_job(), 1..=10),
    ) {
        let engine = Engine::new();

        // The sequential reference: every job run inline, serial pool.
        nanoxbar_par::set_threads(1);
        let reference: Vec<Result<JobResult, Error>> =
            jobs.iter().map(|job| engine.run(job)).collect();

        for threads in [1usize, 2, 8] {
            nanoxbar_par::set_threads(threads);
            let batch = engine.run_batch(&jobs);
            prop_assert_eq!(batch.len(), jobs.len(), "threads={}", threads);
            for (i, (got, want)) in batch.iter().zip(&reference).enumerate() {
                prop_assert!(
                    same_outcome(got, want),
                    "threads={} job={} got={} want={}",
                    threads,
                    i,
                    describe(got),
                    describe(want)
                );
            }
        }
        nanoxbar_par::set_threads(1);
    }

    /// Labels ride through the batch in input order even when every other
    /// job fails — per-job isolation never reorders or drops results.
    #[test]
    fn mixed_failure_batches_stay_input_ordered(seeds in proptest::collection::vec(0u64..100, 2..=6)) {
        let engine = Engine::new();
        let xnor = TruthTable::from_fn(2, |m| m == 0 || m == 3);
        let jobs: Vec<Job> = seeds
            .iter()
            .enumerate()
            .flat_map(|(i, &seed)| {
                [
                    Job::on_chip(
                        xnor.clone(),
                        ChipSpec::Random {
                            size: ArraySize::new(12, 12),
                            seed,
                        },
                    )
                    .with_strategy(SynthStrategy::Diode)
                    .labeled(format!("ok-{i}")),
                    Job::synthesize(TruthTable::ones(2))
                        .with_strategy(SynthStrategy::Fet)
                        .labeled(format!("fail-{i}")),
                ]
            })
            .collect();
        for threads in [1usize, 2, 8] {
            nanoxbar_par::set_threads(threads);
            let results = engine.run_batch(&jobs);
            for (i, pair) in results.chunks(2).enumerate() {
                let ok = pair[0].as_ref().expect("even slots succeed");
                prop_assert_eq!(ok.label.as_deref(), Some(format!("ok-{i}").as_str()));
                prop_assert!(ok.flow().is_some(), "chip jobs carry flow reports");
                prop_assert_eq!(
                    pair[1].as_ref().unwrap_err(),
                    &Error::ConstantFunction { num_vars: 2 }
                );
            }
        }
        nanoxbar_par::set_threads(1);
    }
}

/// `Engine::prepare_map` exposes exactly the state the engine's own map
/// path runs on: driving an external `Mapper` from the setup — whole-run
/// or one checkpointed round at a time — reproduces `engine.run`'s map
/// report bit for bit. This is the contract the service's resumable
/// sessions are built on.
#[test]
fn prepare_map_reproduces_the_engine_map_path() {
    use nanoxbar_engine::Mapper;

    let engine = Engine::new();
    let xnor = TruthTable::from_fn(2, |m| m == 0 || m == 3);
    for seed in [3u64, 11, 42] {
        let chip = ChipSpec::Random {
            size: ArraySize::new(10, 10),
            seed,
        };
        let job = Job::map_on_chip(xnor.clone(), chip, MapConfig::default()).verified(true);
        let reference = engine.run(&job).expect("map job succeeds");
        let reference_report = reference.map().expect("map jobs carry a report");

        let setup = engine.prepare_map(&job).expect("prepare");
        assert_eq!(
            format!("{:?}", setup.realization),
            format!("{:?}", reference.realization().unwrap()),
            "prepare_map synthesises the same realization"
        );

        // Whole run in one go.
        let mut mapper = Mapper::new(setup.app.clone(), setup.chip.clone(), setup.config);
        mapper.run();
        assert_eq!(&mapper.report(), reference_report, "seed {seed}: one-shot");

        // One round at a time through snapshot/resume checkpoints.
        let mut mapper = Mapper::new(setup.app.clone(), setup.chip.clone(), setup.config);
        while !mapper.is_done() {
            let snapshot = mapper.snapshot();
            mapper = Mapper::resume(
                setup.app.clone(),
                setup.chip.clone(),
                setup.config,
                &snapshot,
            );
            mapper.run_rounds(1);
        }
        assert_eq!(
            &mapper.report(),
            reference_report,
            "seed {seed}: checkpointed"
        );
    }
}
