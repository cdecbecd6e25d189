//! Cache correctness guard: an engine with the content-addressed
//! [`ResultCache`] enabled must return results **bit-identical** to a
//! cache-disabled engine, on batches dense with duplicated jobs, across
//! `NANOXBAR_THREADS` ∈ {1, 2, 8} — and a warmed cache (second pass over
//! the same batch, all hits) must still agree.

use proptest::prelude::*;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{ChipSpec, Engine, Error, Job, JobResult, Strategy as SynthStrategy};
use nanoxbar_logic::TruthTable;

/// One random job drawn from a deliberately small space (1–2 variables,
/// 4 strategies) so batches collide constantly — the cache-hot regime.
fn arb_job() -> impl Strategy<Value = Job> {
    (any::<u8>(), 1usize..=2, 0u8..=255, 0u64..50).prop_map(|(bits, num_vars, knobs, seed)| {
        let f = TruthTable::from_fn(num_vars, |m| (bits >> (m % 8)) & 1 == 1);
        let mut job = if (knobs / 5) % 3 == 0 {
            Job::on_chip(
                f,
                ChipSpec::Random {
                    size: ArraySize::new(12, 12),
                    seed,
                },
            )
        } else {
            Job::synthesize(f)
        };
        job = match knobs % 5 {
            0 => job.with_strategy(SynthStrategy::Diode),
            1 => job.with_strategy(SynthStrategy::Fet),
            2 => job.with_strategy(SynthStrategy::DualLattice),
            3 => job.with_strategy(SynthStrategy::OptimalLattice),
            _ => job,
        };
        job.verified((knobs / 15) % 2 == 0)
    })
}

/// Batches with guaranteed duplicates: the base jobs plus a replay of a
/// prefix of them (≥ 50% duplicates once the prefix covers the base).
fn arb_batch() -> impl Strategy<Value = Vec<Job>> {
    (proptest::collection::vec(arb_job(), 1..=6), any::<u64>()).prop_map(|(base, picks)| {
        let mut jobs = base.clone();
        for i in 0..base.len() {
            jobs.push(base[(picks as usize >> i) % base.len()].clone());
        }
        jobs
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached == uncached == warmed-cache, per slot, across thread counts.
    #[test]
    fn cached_batches_match_uncached_across_thread_counts(jobs in arb_batch()) {
        // The reference: serial, no cache.
        nanoxbar_par::set_threads(1);
        let reference = Engine::new().run_batch(&jobs);

        for threads in [1usize, 2, 8] {
            nanoxbar_par::set_threads(threads);
            let cached_engine = Engine::builder().cache_capacity(64).build().unwrap();
            for pass in ["cold", "warm"] {
                let results = cached_engine.run_batch(&jobs);
                prop_assert_eq!(results.len(), reference.len());
                for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
                    prop_assert!(
                        same_outcome(got, want),
                        "threads={} pass={} slot {}: {} != {}",
                        threads, pass, i, describe(got), describe(want)
                    );
                }
            }
            // A tiny cache (forced evictions) must change nothing either.
            let tiny = Engine::builder().cache_capacity(2).build().unwrap();
            let results = tiny.run_batch(&jobs);
            for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
                prop_assert!(
                    same_outcome(got, want),
                    "tiny cache, threads={} slot {}: {} != {}",
                    threads, i, describe(got), describe(want)
                );
            }
        }
        nanoxbar_par::set_threads(1);
    }

    /// `run` (single) and `run_batch` agree under a shared warmed cache.
    #[test]
    fn single_runs_agree_with_batches_under_one_cache(jobs in arb_batch()) {
        nanoxbar_par::set_threads(2);
        let engine = Engine::builder().cache_capacity(64).build().unwrap();
        let batch = engine.run_batch(&jobs);
        for (i, job) in jobs.iter().enumerate() {
            let single = engine.run(job);
            prop_assert!(
                same_outcome(&single, &batch[i]),
                "slot {}: {} != {}",
                i, describe(&single), describe(&batch[i])
            );
        }
        nanoxbar_par::set_threads(1);
    }
}
