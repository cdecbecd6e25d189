//! Pins the exact reports that `Mapper::run` returns on chip-batch-shaped
//! map slots.
//!
//! `proptest_mapper` compares `Mapper` with `run_mapper_reference` on
//! small chips; this pins the reports themselves, at the shape the
//! service's chip-batch workload maps. Service bodies carry a map report
//! field by field, so any change to a verdict, a diagnosis, the RNG
//! draws, the candidate order or the knowledge merge shows up here as a
//! new digest, even one that the reference shares.
//!
//! The grid is chip-batch's map slot: an 8-variable, 6-product function
//! (its ISOP cover) on a 48×48 chip with a 15% defect rate split 70/30
//! between stuck-open and stuck-closed, as a `"defect_rate": 0.15` chip
//! request draws it, mapped hybrid:5 at speculation 4 with 400 attempts,
//! over 32 seeds; then a few seeds each of blind, greedy and a
//! speculation width of 1. The digest is FNV-1a 64 over success, the
//! mapping, the counters, the round count and the sorted knowledge base
//! of every report, in grid order.

use nanoxbar_crossbar::ArraySize;
use nanoxbar_logic::{isop_cover, parse_function};
use nanoxbar_reliability::bism::{Application, BismStrategy};
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};
use nanoxbar_reliability::mapper::{MapConfig, MapReport, Mapper};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn eat(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

/// An 8-variable sum of 6 random products (each variable in a product
/// plain, negated or absent), drawn from `seed` by a small LCG.
fn application(seed: u64) -> Application {
    let mut state = seed;
    let mut below = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let products: Vec<String> = (0..6)
        .map(|_| {
            let factors: Vec<String> = (0..8)
                .filter_map(|v| match below(3) {
                    0 => Some(format!("x{v}")),
                    1 => Some(format!("!x{v}")),
                    _ => None,
                })
                .collect();
            if factors.is_empty() {
                "x0".to_string()
            } else {
                factors.join(" ")
            }
        })
        .collect();
    let function = parse_function(&products.join(" + ")).expect("the products parse");
    Application::from_cover(&isop_cover(&function))
}

/// `(strategy, speculation, function seed, chip seed)` of every report,
/// in digest order.
fn grid() -> Vec<(BismStrategy, usize, u64, u64)> {
    let hybrid = BismStrategy::Hybrid { blind_retries: 5 };
    let mut grid: Vec<_> = (0..32u64)
        .map(|seed| (hybrid, 4, seed, (1 << 40) + seed))
        .collect();
    for seed in 0..4u64 {
        grid.push((BismStrategy::Blind, 4, seed + 100, seed + 200));
        grid.push((BismStrategy::Greedy, 4, seed + 300, seed + 400));
        grid.push((hybrid, 1, seed + 500, seed + 600));
    }
    grid
}

fn eat_report(digest: &mut u64, report: &MapReport) {
    eat(digest, u64::from(report.stats.success));
    eat(digest, report.stats.attempts);
    eat(digest, report.stats.bist_runs);
    eat(digest, report.stats.bisd_runs);
    eat(digest, report.rounds);
    let mapping = report.mapping.as_deref().unwrap_or(&[]);
    eat(digest, mapping.len() as u64);
    for &row in mapping {
        eat(digest, row as u64);
    }
    eat(digest, report.known_bad.len() as u64);
    for &(row, col, health) in &report.known_bad {
        eat(digest, row as u64);
        eat(digest, col as u64);
        eat(
            digest,
            match health {
                CrosspointHealth::Good => 0,
                CrosspointHealth::StuckOpen => 1,
                CrosspointHealth::StuckClosed => 2,
            },
        );
    }
}

/// Digest over the whole grid, and how many of its sessions succeeded.
fn digest() -> (String, usize) {
    let rate = 0.15f64;
    let mut digest = FNV_OFFSET;
    let mut successes = 0;
    for (strategy, speculation, function_seed, chip_seed) in grid() {
        let chip =
            DefectMap::random_uniform(ArraySize::new(48, 48), rate * 0.7, rate * 0.3, chip_seed);
        let config = MapConfig {
            strategy,
            speculation,
            max_attempts: 400,
            seed: chip_seed,
        };
        let report = Mapper::new(application(function_seed), chip, config).run();
        successes += usize::from(report.stats.success);
        eat_report(&mut digest, &report);
    }
    (format!("{digest:016x}"), successes)
}

#[test]
fn chip_batch_map_reports_keep_their_bits() {
    let pinned = ("c35074be9111bcea".to_string(), 42);
    assert_eq!(digest(), pinned, "as configured");
    nanoxbar_par::set_threads(1);
    assert_eq!(digest(), pinned, "threads = 1");
}
