//! Cache correctness guard: an engine with the content-addressed
//! [`ResultCache`] enabled must return results **bit-identical** to a
//! cache-disabled engine, on batches dense with duplicated jobs, across
//! `NANOXBAR_THREADS` ∈ {1, 2, 8} — and a warmed cache (second pass over
//! the same batch, all hits) must still agree. Its counters must also
//! stay exact under the probes a response memo uses:
//! [`ResultCache::contains`] and [`ResultCache::touch_hit`].

use proptest::prelude::*;

use std::sync::Arc;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{
    CacheKey, CachedSynthesis, ChipSpec, Engine, Error, Job, JobResult, MinimizeMode, Realization,
    ResultCache, Strategy as SynthStrategy,
};
use nanoxbar_lattice::{Lattice, Site};
use nanoxbar_logic::TruthTable;

/// An engine with its own result cache of `capacity` weight units.
fn with_cache(capacity: usize) -> Engine {
    Engine::builder()
        .shared_cache(Arc::new(ResultCache::new(capacity)))
        .build()
        .unwrap()
}

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
            let cached_engine = with_cache(64);
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
            let tiny = with_cache(2);
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
        let engine = with_cache(64);
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

/// One call on a [`ResultCache`], over a key space of 24 and entry
/// weights 1–3, so shards of a few weight units evict constantly and
/// least-recent order decides which entry goes.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Get(u8),
    Insert(u8, usize),
    Contains(u8),
    TouchHit(u8),
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    (0u8..4, 0u8..24, 1usize..=3).prop_map(|(kind, key, weight)| match kind {
        0 => CacheOp::Get(key),
        1 => CacheOp::Insert(key, weight),
        2 => CacheOp::Contains(key),
        _ => CacheOp::TouchHit(key),
    })
}

fn op_key(index: u8) -> CacheKey {
    let f = TruthTable::from_fn(5, |m| m == u64::from(index));
    CacheKey::new(&f, "diode", MinimizeMode::Isop)
}

/// A value of admission weight `weight`: a 1×`weight` lattice.
fn weighted(weight: usize) -> CachedSynthesis {
    let row = vec![Site::Const(true); weight];
    CachedSynthesis::new(
        Arc::new(Realization::Lattice(
            Lattice::from_rows(5, vec![row]).expect("one non-empty row"),
        )),
        None,
    )
}

/// The resident keys, in a canonical order.
fn residents(cache: &ResultCache) -> Vec<CacheKey> {
    let mut keys: Vec<CacheKey> = cache.snapshot().into_iter().map(|(k, _)| k).collect();
    keys.sort_by(|a, b| a.words().cmp(b.words()));
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Three caches replay one interleaving: `probed` as drawn, `plain`
    /// with every `contains` left out, and `via_get` with every
    /// `touch_hit` made a `get`. Lookups count exactly once each,
    /// `contains` never moves a counter or an eviction, and `touch_hit`
    /// refreshes recency exactly as a hitting `get` does.
    #[test]
    fn contains_and_touch_hit_keep_the_accounts(
        capacity in 8usize..=40,
        ops in proptest::collection::vec(arb_cache_op(), 0..=120)
    ) {
        let probed = ResultCache::new(capacity);
        let plain = ResultCache::new(capacity);
        let via_get = ResultCache::new(capacity);
        let mut lookups = 0u64;
        for op in &ops {
            match *op {
                CacheOp::Get(k) => {
                    lookups += 1;
                    let hit = probed.get(&op_key(k)).is_some();
                    prop_assert_eq!(hit, plain.get(&op_key(k)).is_some());
                    prop_assert_eq!(hit, via_get.get(&op_key(k)).is_some());
                }
                CacheOp::Insert(k, weight) => {
                    for cache in [&probed, &plain, &via_get] {
                        cache.insert(op_key(k), weighted(weight));
                    }
                }
                CacheOp::Contains(k) => {
                    let before = probed.stats();
                    let resident = probed.contains(&op_key(k));
                    prop_assert_eq!(probed.stats(), before);
                    prop_assert_eq!(resident, residents(&probed).contains(&op_key(k)));
                }
                CacheOp::TouchHit(k) => {
                    let hit = probed.touch_hit(&op_key(k));
                    prop_assert_eq!(hit, plain.touch_hit(&op_key(k)));
                    prop_assert_eq!(hit, via_get.get(&op_key(k)).is_some());
                    lookups += u64::from(hit);
                }
            }
            prop_assert_eq!(residents(&probed), residents(&plain));
            prop_assert_eq!(residents(&probed), residents(&via_get));
        }
        let stats = probed.stats();
        prop_assert_eq!(stats.hits + stats.misses, lookups);
        prop_assert_eq!(stats, plain.stats());
        prop_assert_eq!(stats.hits, via_get.stats().hits);
        prop_assert_eq!(stats.evictions, via_get.stats().evictions);
    }
}
