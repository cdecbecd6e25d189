//! Property suite for the staged speculative `Mapper`:
//!
//! * the staged machine is **bit-identical** to the
//!   strictly serial `run_mapper_reference` (full `MapReport`: success,
//!   committed mapping, counters, rounds, sorted knowledge base) across
//!   `NANOXBAR_THREADS` ∈ {1, 2, 8} and speculation widths K ∈ {1, 4};
//! * at K = 1 the mapper's counters equal the paper-serial `run_bism`
//!   exactly (the wrapper refactor lost nothing);
//! * committed mappings are **valid** (they pass application-dependent
//!   BIST on the real chip);
//! * the merged diagnosis knowledge base is **sound** (every diagnosed
//!   resource is genuinely defective, with the right fault type).

use proptest::prelude::*;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_reliability::bism::{application_bist, run_bism, Application, BismStrategy};
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};
use nanoxbar_reliability::mapper::{run_mapper_reference, MapConfig, Mapper};

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

/// A non-constant benchmark application drawn from the seed.
fn app_from_seed(seed: u64) -> Application {
    let exprs = [
        "x0 x1 + !x0 !x1",
        "x0 x1 + !x0 !x1 + x2 !x3",
        "x0 !x1 + x1 x2 + !x0 x2",
        "x0 x1 x2 + !x0 !x1 + x1 !x2",
    ];
    let f = nanoxbar_logic::parse_function(exprs[(seed % exprs.len() as u64) as usize])
        .expect("benchmark expressions parse");
    Application::from_cover(&nanoxbar_logic::isop_cover(&f))
}

fn strategy_from(selector: u64) -> BismStrategy {
    match selector % 3 {
        0 => BismStrategy::Blind,
        1 => BismStrategy::Greedy,
        _ => BismStrategy::Hybrid { blind_retries: 3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The staged parallel mapper is bit-identical to the serial
    /// reference for every thread count and speculation width, and its
    /// K = 1 counters equal `run_bism` exactly.
    #[test]
    fn mapper_equals_serial_reference_across_threads_and_widths(
        seed in 0u64..1u64 << 16,
        density in 0u64..25,
        selector in 0u64..3,
    ) {
        let app = app_from_seed(seed);
        let size = ArraySize::new(10, 10);
        let chip = defect_map_from_seed(size, seed.wrapping_mul(0x9E37) | 1, density);
        let strategy = strategy_from(selector);
        for speculation in [1usize, 4] {
            let config = MapConfig {
                strategy,
                speculation,
                max_attempts: 60,
                seed,
            };
            let reference = run_mapper_reference(&app, &chip, &config);
            for threads in [1usize, 2, 8] {
                nanoxbar_par::set_threads(threads);
                let staged = Mapper::new(app.clone(), chip.clone(), config).run();
                prop_assert_eq!(
                    &staged,
                    &reference,
                    "threads={} K={} strategy={:?}",
                    threads,
                    speculation,
                    strategy
                );
            }
            nanoxbar_par::set_threads(1);
            if speculation == 1 {
                let stats = run_bism(&app, &chip, strategy, config.max_attempts, config.seed);
                prop_assert_eq!(reference.stats, stats, "K=1 must equal run_bism");
            }
        }
    }

    /// Checkpoint/resume determinism: interrupting a session at a random
    /// round boundary, snapshotting, and resuming in a fresh `Mapper`
    /// yields a bit-identical `MapReport` to the uninterrupted run, at
    /// every thread count and speculation width. This is the contract
    /// the service's resumable `/v1/map` sessions (and their
    /// survival across server restarts) stand on.
    #[test]
    fn resumed_sessions_equal_uninterrupted_across_threads_and_widths(
        seed in 0u64..1u64 << 16,
        density in 0u64..25,
        selector in 0u64..3,
        stop_sel in any::<u64>(),
    ) {
        let app = app_from_seed(seed);
        let size = ArraySize::new(10, 10);
        let chip = defect_map_from_seed(size, seed.wrapping_mul(0xC3A5) | 1, density);
        let strategy = strategy_from(selector);
        for speculation in [1usize, 4] {
            let config = MapConfig {
                strategy,
                speculation,
                max_attempts: 60,
                seed,
            };
            let uninterrupted = run_mapper_reference(&app, &chip, &config);
            let stop_after = stop_sel % (uninterrupted.rounds + 1);
            for threads in [1usize, 2, 8] {
                nanoxbar_par::set_threads(threads);
                let mut first = Mapper::new(app.clone(), chip.clone(), config);
                first.run_rounds(stop_after);
                let snap = first.snapshot();
                drop(first); // the original session is gone, as in a crash
                let mut resumed = Mapper::resume(app.clone(), chip.clone(), config, &snap);
                prop_assert_eq!(
                    &resumed.run(),
                    &uninterrupted,
                    "threads={} K={} strategy={:?} stopped after {}",
                    threads,
                    speculation,
                    strategy,
                    stop_after
                );
            }
            nanoxbar_par::set_threads(1);
        }
    }

    /// Success carries a placement that really works on the chip, and
    /// every diagnosed resource is genuinely defective with the right
    /// fault type (merged-diagnosis soundness).
    #[test]
    fn mappings_are_valid_and_diagnoses_sound(
        seed in 0u64..1u64 << 16,
        density in 0u64..30,
        selector in 0u64..3,
    ) {
        let app = app_from_seed(seed);
        let size = ArraySize::new(9, 9);
        let chip = defect_map_from_seed(size, seed.wrapping_mul(0xA5A5) | 1, density);
        let config = MapConfig {
            strategy: strategy_from(selector),
            speculation: 4,
            max_attempts: 80,
            seed,
        };
        let report = run_mapper_reference(&app, &chip, &config);
        match &report.mapping {
            Some(mapping) => {
                prop_assert!(report.stats.success);
                prop_assert_eq!(mapping.len(), app.product_count());
                prop_assert!(application_bist(&app, mapping, &chip));
            }
            None => prop_assert!(!report.stats.success),
        }
        for &(r, c, health) in &report.known_bad {
            prop_assert_eq!(
                chip.health(r, c),
                health,
                "diagnosed ({}, {}) as {:?}",
                r,
                c,
                health
            );
        }
    }
}
