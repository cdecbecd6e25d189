//! E8 — Sec. IV-B: blind vs greedy vs hybrid BISM across defect densities.
//!
//! Rebuilt on the engine API: every Monte-Carlo point is one
//! `Engine::run_batch` of mapping jobs (`Job::map_on_chip`), so the chips
//! of a point fan out across the `nanoxbar-par` pool and the per-chip
//! results come back as deterministic `MapReport`s. For each defect
//! density the table reports mean configuration attempts, mean test
//! operations (BIST + BISD), and success rate; a second series uses
//! bimodal per-chip densities (the hybrid scheme's target scenario); a
//! third compares speculation widths of the greedy mapper (K = 4, 8
//! against the serial K = 1) on round counts and wall-clock in the
//! high-density regime. It compares widths, not thread counts: a mapper
//! judges its candidates inline, so only the chips of a point share the
//! pool, and a wider K buys fewer rounds.
//!
//! Flags: `--chips N` (default 100) and `--attempts N` (default 400)
//! scale the Monte-Carlo grid — CI smokes with a small grid.

use std::sync::Arc;
use std::time::Instant;

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{BismStrategy, ChipSpec, Engine, Job, MapConfig, MapReport, ResultCache};
use nanoxbar_logic::suite::random_sop;
use nanoxbar_logic::TruthTable;
use nanoxbar_reliability::bism::Application;
use nanoxbar_reliability::defect::DefectMap;

const FABRIC: usize = 16;

struct Options {
    chips: u64,
    max_attempts: u64,
}

fn parse_args() -> Options {
    let mut options = Options {
        chips: 100,
        max_attempts: 400,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().and_then(|v| v.parse().ok());
        match (flag.as_str(), value) {
            ("--chips", Some(n)) if n > 0 => options.chips = n,
            ("--attempts", Some(n)) if n > 0 => options.max_attempts = n,
            _ => {
                eprintln!("usage: exp_bism_strategies [--chips N] [--attempts N]");
                std::process::exit(2);
            }
        }
    }
    options
}

/// Runs one Monte-Carlo point as an engine batch: one mapping job per
/// chip seed. Returns the per-chip reports (input-ordered).
fn run_point<F: Fn(u64) -> DefectMap>(
    engine: &Engine,
    f: &TruthTable,
    chips: u64,
    chip_of: F,
    strategy: BismStrategy,
    speculation: usize,
    max_attempts: u64,
) -> Vec<MapReport> {
    let jobs: Vec<Job> = (0..chips)
        .map(|seed| {
            Job::map_on_chip(
                f.clone(),
                ChipSpec::Explicit(chip_of(seed)),
                MapConfig {
                    strategy,
                    speculation,
                    max_attempts,
                    seed: seed ^ 0xB15D,
                },
            )
        })
        .collect();
    engine
        .run_batch(&jobs)
        .into_iter()
        .map(|result| {
            result
                .expect("mapping jobs are well-formed")
                .map()
                .expect("map jobs carry a report")
                .clone()
        })
        .collect()
}

/// (mean attempts, mean test ops, success %) over a batch of reports.
fn summarize(reports: &[MapReport]) -> (f64, f64, f64) {
    let n = reports.len() as f64;
    let attempts: u64 = reports.iter().map(|r| r.stats.attempts).sum();
    let ops: u64 = reports
        .iter()
        .map(|r| r.stats.bist_runs + r.stats.bisd_runs)
        .sum();
    let successes = reports.iter().filter(|r| r.stats.success).count();
    (
        attempts as f64 / n,
        ops as f64 / n,
        successes as f64 / n * 100.0,
    )
}

fn main() {
    let options = parse_args();
    let (chips, max_attempts) = (options.chips, options.max_attempts);
    banner("E8 / Sec. IV-B", "BISM strategies vs defect density");

    // A 6-product SOP over 6 variables: large enough that blind mapping
    // visibly degrades once the defect density climbs. The engine
    // synthesises (and the cache dedupes) the function once per batch;
    // the per-chip work is purely the mapping.
    let f = random_sop(6, 6, 42).to_truth_table();
    let probe = Application::from_cover(&nanoxbar_logic::isop_cover(&f));
    let size = ArraySize::new(FABRIC, FABRIC);
    let engine = Engine::builder()
        .shared_cache(Arc::new(ResultCache::new(4096)))
        .build()
        .unwrap();
    println!(
        "application: {} products over {} literal columns \
         ({chips} chips/point, budget {max_attempts})\n",
        probe.product_count(),
        probe.used_cols()
    );

    println!("uniform global density (fabric {FABRIC}x{FABRIC}):\n");
    let mut table = Table::new(&[
        "density",
        "blind att",
        "blind ops",
        "blind ok%",
        "greedy att",
        "greedy ops",
        "greedy ok%",
        "hybrid att",
        "hybrid ops",
        "hybrid ok%",
    ]);
    for density in [0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20] {
        let chip_of = |seed: u64| {
            DefectMap::random_uniform(size, density * 0.7, density * 0.3, seed * 31 + 7)
        };
        let mut cells = vec![format!("{:.1}%", density * 100.0)];
        for strategy in [
            BismStrategy::Blind,
            BismStrategy::Greedy,
            BismStrategy::Hybrid { blind_retries: 5 },
        ] {
            let reports = run_point(&engine, &f, chips, chip_of, strategy, 1, max_attempts);
            let (att, ops, ok) = summarize(&reports);
            cells.extend([f2(att), f2(ops), f2(ok)]);
        }
        table.row_owned(cells);
    }
    println!("{}", table.render());

    println!("bimodal per-chip density (80% clean 0.5%, 20% dirty 15%):\n");
    let mut table = Table::new(&["strategy", "mean attempts", "mean test ops", "success %"]);
    let chip_of = |seed: u64| {
        let density = if seed.is_multiple_of(5) { 0.15 } else { 0.005 };
        DefectMap::random_uniform(size, density * 0.7, density * 0.3, seed * 131 + 13)
    };
    for (name, strategy) in [
        ("blind", BismStrategy::Blind),
        ("greedy", BismStrategy::Greedy),
        ("hybrid(5)", BismStrategy::Hybrid { blind_retries: 5 }),
    ] {
        let reports = run_point(&engine, &f, chips, chip_of, strategy, 1, max_attempts);
        let (att, ops, ok) = summarize(&reports);
        table.row_owned(vec![name.to_string(), f2(att), f2(ops), f2(ok)]);
    }
    println!("{}", table.render());

    println!(
        "speculative greedy, K-wide rounds vs serial (high density, \
         {} pool thread(s) across chips):\n",
        nanoxbar_par::threads()
    );
    let mut table = Table::new(&[
        "density",
        "K",
        "mean rounds",
        "mean attempts",
        "success %",
        "wall-clock",
    ]);
    for density in [0.10, 0.15, 0.20] {
        let chip_of = |seed: u64| {
            DefectMap::random_uniform(size, density * 0.7, density * 0.3, seed * 31 + 7)
        };
        for speculation in [1usize, 4, 8] {
            let started = Instant::now();
            let reports = run_point(
                &engine,
                &f,
                chips,
                chip_of,
                BismStrategy::Greedy,
                speculation,
                max_attempts,
            );
            let elapsed = started.elapsed();
            let rounds: u64 = reports.iter().map(|r| r.rounds).sum();
            let (att, _, ok) = summarize(&reports);
            table.row_owned(vec![
                format!("{:.1}%", density * 100.0),
                speculation.to_string(),
                f2(rounds as f64 / chips as f64),
                f2(att),
                f2(ok),
                format!("{:.1?}", elapsed),
            ]);
        }
    }
    println!("{}", table.render());

    println!(
        "paper claims (Sec. IV-B): blind is fast/effective at low densities \
         but degrades with too many retries at high densities; greedy uses \
         diagnosis to stay effective; hybrid tracks the better of the two \
         across global and local density variation. The speculative series \
         shows K-wide greedy rounds converging in fewer rounds at high \
         density with unchanged success rates."
    );
}
