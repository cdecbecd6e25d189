//! Property suite proving the fast paths equal the scalar simulations
//! they replace:
//!
//! * the word-parallel fault simulation ([`PackedSim`]): every bit of
//!   every detect word equals the scalar `detects` verdict, and the
//!   packed `TestPlan::coverage` equals `coverage_scalar` on arbitrary
//!   plans and fault universes;
//! * the contradiction rule (`CrosspointHealth::contradicts`) behind
//!   application BIST/BISD and `DiagnosisPlan::diagnose`: it equals the
//!   full-array `simulate_with_defects` references on random multi-defect
//!   chips.

use proptest::prelude::*;

use nanoxbar_crossbar::{ArraySize, Crossbar};
use nanoxbar_logic::suite::random_sop;
use nanoxbar_reliability::bisd::DiagnosisPlan;
use nanoxbar_reliability::bism::{
    application_bisd, application_bisd_scalar, application_bist, application_bist_scalar, run_bism,
    Application, BismStrategy,
};
use nanoxbar_reliability::bist::{TestConfiguration, TestPlan};
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};
use nanoxbar_reliability::fault::fault_universe;
use nanoxbar_reliability::fsim::{detects, PackedSim, PackedVectors, TestVector};

const MAX_SIDE: usize = 6;

/// A seeded random defect map with roughly `density` defective
/// crosspoints, split between stuck-open and stuck-closed.
fn defect_map_from_seed(size: ArraySize, seed: u64, density_pct: u64) -> DefectMap {
    let mut map = DefectMap::healthy(size);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..size.rows {
        for c in 0..size.cols {
            if next() % 100 < density_pct {
                let health = if next() & 1 == 1 {
                    CrosspointHealth::StuckOpen
                } else {
                    CrosspointHealth::StuckClosed
                };
                map.set(r, c, health);
            }
        }
    }
    map
}

/// A xorshift stream seeded from `seed`.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random application (a 2..=6-variable random SOP of 1..=6 products)
/// on a chip of up to 16×24, placed on distinct random rows. Every other
/// application is routed through a random set of physical columns in
/// place of the canonical `0..used_cols`.
fn placed_app_from_seed(seed: u64) -> (Application, Vec<usize>, ArraySize) {
    let mut next = xorshift(seed);
    let vars = 2 + (next() % 5) as usize;
    let products = 1 + (next() % 6) as usize;
    let mut app = Application::from_cover(&random_sop(vars, products, next()));
    let rows = (app.product_count() + (next() % 11) as usize).max(1);
    let cols = (app.used_cols() + (next() % (25 - app.used_cols() as u64)) as usize).max(1);
    if next() & 1 == 1 {
        app = app.with_columns(&shuffled(cols, &mut next));
    }
    let mapping = shuffled(rows, &mut next)[..app.product_count()].to_vec();
    (app, mapping, ArraySize::new(rows, cols))
}

/// `0..n` in a random order.
fn shuffled(n: usize, next: &mut impl FnMut() -> u64) -> Vec<usize> {
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    items
}

fn sorted(
    mut found: Vec<(usize, usize, CrosspointHealth)>,
) -> Vec<(usize, usize, CrosspointHealth)> {
    found.sort_unstable_by_key(|&(r, c, h)| (r, c, h as u8));
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit `j` of a detect word is the scalar `detects` verdict on
    /// vector `j`, for the complete fault universe.
    #[test]
    fn detect_word_bits_match_scalar(
        rows in 1usize..=MAX_SIDE,
        cols in 1usize..=MAX_SIDE,
        seed in 0u64..1u64 << 32,
    ) {
        let size = ArraySize::new(rows, cols);
        // Derive a config and vectors from the seed (keeps one strategy
        // pass per case while still covering many shapes).
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut config = Crossbar::new(size);
        for r in 0..rows {
            for c in 0..cols {
                config.set(r, c, next() % 3 != 0);
            }
        }
        let vectors: Vec<TestVector> = (0..1 + (next() as usize % 10))
            .map(|_| (0..cols).map(|_| next() & 1 == 1).collect())
            .collect();
        let packed = PackedVectors::pack(&vectors, cols);
        let sim = PackedSim::new(&config, &packed[0]);
        for fault in fault_universe(size) {
            let word = sim.detect_word(fault);
            for (j, vector) in vectors.iter().enumerate() {
                prop_assert_eq!(
                    (word >> j) & 1 == 1,
                    detects(&config, fault, vector),
                    "fault {:?} vector {} on\n{}",
                    fault, j, config
                );
            }
        }
    }

    /// Packed coverage equals scalar coverage — same counts, same
    /// undetected list — on arbitrary multi-configuration plans.
    #[test]
    fn coverage_matches_scalar(
        rows in 1usize..=MAX_SIDE,
        cols in 1usize..=MAX_SIDE,
        configs in proptest::collection::vec(
            (proptest::collection::vec(any::<bool>(), MAX_SIDE * MAX_SIDE),
             proptest::collection::vec(
                 proptest::collection::vec(any::<bool>(), MAX_SIDE),
                 1..6)),
            1..4),
    ) {
        let size = ArraySize::new(rows, cols);
        let configurations: Vec<TestConfiguration> = configs
            .into_iter()
            .enumerate()
            .map(|(i, (cells, vecs))| {
                let mut config = Crossbar::new(size);
                for r in 0..rows {
                    for c in 0..cols {
                        config.set(r, c, cells[r * MAX_SIDE + c]);
                    }
                }
                let vectors = vecs
                    .into_iter()
                    .map(|v| v[..cols].to_vec())
                    .collect();
                TestConfiguration { name: format!("random-{i}"), config, vectors }
            })
            .collect();
        let plan = TestPlan { configurations };
        let universe = fault_universe(size);
        let packed = plan.coverage(size, &universe);
        let scalar = plan.coverage_scalar(size, &universe);
        prop_assert_eq!(packed.total, scalar.total);
        prop_assert_eq!(packed.detected, scalar.detected);
        prop_assert_eq!(packed.undetected, scalar.undetected);
    }

    /// The generated standard plans stay at 100% coverage through the
    /// packed path for every fabric shape with at least two columns.
    #[test]
    fn generated_plans_full_coverage(rows in 1usize..=8, cols in 2usize..=8) {
        let size = ArraySize::new(rows, cols);
        let report = TestPlan::generate(size).coverage(size, &fault_universe(size));
        prop_assert_eq!(report.coverage(), 1.0, "escaped: {:?}", report.undetected);
    }

    /// More than 64 vectors split into chunks that together cover every
    /// vector (chunked packing is lossless).
    #[test]
    fn chunked_packing_is_lossless(cols in 1usize..=4, extra in 0usize..80) {
        let vectors: Vec<TestVector> = (0..65 + extra)
            .map(|i| (0..cols).map(|c| (i >> c) & 1 == 1).collect())
            .collect();
        let chunks = PackedVectors::pack(&vectors, cols);
        prop_assert_eq!(chunks.iter().map(PackedVectors::count).sum::<usize>(), vectors.len());
        prop_assert!(chunks[..chunks.len() - 1].iter().all(|p| p.count() == 64));
    }

    /// Application BIST/BISD agree with the scalar references — same
    /// pass/fail verdict, same diagnosed resource set — on random
    /// applications, some routed through non-canonical physical columns,
    /// placed on random distinct rows of chips up to 16×24. The rule reads
    /// the used rows' crosspoints on driven columns off the defect map;
    /// the scalar references simulate the whole array.
    #[test]
    fn bist_bisd_rule_matches_simulation(
        seed in 0u64..1u64 << 32,
        density in 0u64..40,
    ) {
        let (app, mapping, size) = placed_app_from_seed(seed);
        let defects = defect_map_from_seed(size, seed.rotate_left(17) | 1, density);
        prop_assert_eq!(
            application_bist(&app, &mapping, &defects),
            application_bist_scalar(&app, &mapping, &defects)
        );
        prop_assert_eq!(
            sorted(application_bisd(&app, &mapping, &defects)),
            sorted(application_bisd_scalar(&app, &mapping, &defects))
        );
    }

    /// Defects on resources the application does not use — rows outside
    /// the mapping, columns it does not drive — never change the BIST
    /// verdict or the BISD set.
    #[test]
    fn defects_on_unused_resources_are_invisible(
        seed in 0u64..1u64 << 32,
        density in 0u64..40,
        extra in 0u64..80,
    ) {
        let (app, mapping, size) = placed_app_from_seed(seed);
        let defects = defect_map_from_seed(size, seed.rotate_left(17) | 1, density);
        let noise = defect_map_from_seed(size, seed.rotate_left(41) | 1, extra);
        let mut noisy = defects.clone();
        for r in 0..size.rows {
            for c in 0..size.cols {
                let unused = !mapping.contains(&r) || !app.columns.contains(&c);
                if unused && noise.is_defective(r, c) {
                    noisy.set(r, c, noise.health(r, c));
                }
            }
        }
        prop_assert_eq!(
            application_bist(&app, &mapping, &noisy),
            application_bist(&app, &mapping, &defects)
        );
        prop_assert_eq!(
            sorted(application_bisd(&app, &mapping, &noisy)),
            sorted(application_bisd(&app, &mapping, &defects))
        );
    }

    /// The diagnosis rule equals the scalar per-vector reference on a
    /// healthy chip, a single defect (the scheme's soundness domain) and
    /// a random multi-defect chip, where the decoded location may be a
    /// superset indicator or `Ambiguous` but must still match.
    #[test]
    fn diagnose_matches_scalar(
        rows in 2usize..=MAX_SIDE,
        cols in 2usize..=MAX_SIDE,
        seed in 0u64..1u64 << 32,
        density in 0u64..40,
    ) {
        let size = ArraySize::new(rows, cols);
        let plan = DiagnosisPlan::generate(size);
        let mut single = DefectMap::healthy(size);
        single.set(
            (seed as usize) % rows,
            (seed as usize / rows) % cols,
            if seed & 1 == 0 { CrosspointHealth::StuckOpen } else { CrosspointHealth::StuckClosed },
        );
        let multi = defect_map_from_seed(size, seed.rotate_left(23) | 1, density);
        for chip in [DefectMap::healthy(size), single, multi] {
            prop_assert_eq!(plan.diagnose(&chip), plan.diagnose_scalar(&chip), "on {:?}", chip);
        }
    }

    /// `run_bism` reports identical stats at every pool width.
    #[test]
    fn run_bism_stats_identical_across_thread_counts(
        seed in 0u64..1u64 << 16,
        density in 0u64..25,
    ) {
        let f = nanoxbar_logic::parse_function("x0 x1 + !x0 !x1").expect("parses");
        let app = Application::from_cover(&nanoxbar_logic::isop_cover(&f));
        let size = ArraySize::new(8, 8);
        let chip = defect_map_from_seed(size, seed.wrapping_mul(0x9E37), density);
        for strategy in [
            BismStrategy::Blind,
            BismStrategy::Greedy,
            BismStrategy::Hybrid { blind_retries: 3 },
        ] {
            nanoxbar_par::set_threads(1);
            let reference = run_bism(&app, &chip, strategy, 60, seed);
            for t in [2usize, 8] {
                nanoxbar_par::set_threads(t);
                prop_assert_eq!(
                    run_bism(&app, &chip, strategy, 60, seed),
                    reference,
                    "threads={} strategy={:?}",
                    t,
                    strategy
                );
            }
            nanoxbar_par::set_threads(1);
        }
    }

    /// Parallel `TestPlan::coverage` equals the scalar reference at every
    /// pool width.
    #[test]
    fn coverage_bit_identical_across_thread_counts(
        rows in 2usize..=8,
        cols in 2usize..=8,
    ) {
        let size = ArraySize::new(rows, cols);
        let plan = TestPlan::generate(size);
        let universe = fault_universe(size);
        let reference = plan.coverage_scalar(size, &universe);
        for t in [1usize, 2, 8] {
            nanoxbar_par::set_threads(t);
            let report = plan.coverage(size, &universe);
            prop_assert_eq!(report.total, reference.total, "threads={}", t);
            prop_assert_eq!(report.detected, reference.detected, "threads={}", t);
            prop_assert_eq!(&report.undetected, &reference.undetected, "threads={}", t);
        }
        nanoxbar_par::set_threads(1);
    }
}
