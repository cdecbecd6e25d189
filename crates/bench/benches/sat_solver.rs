//! Criterion microbenchmarks: the CDCL solver substrate (backs E10's
//! SAT-optimal lattice search).
//!
//! The `optimal-lattice` group times whole optimal syntheses (encode,
//! clause intake and search for every grid size tried), the request-path
//! work of synth-cold's optimal-lattice jobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nanoxbar_lattice::synth::optimal::{try_synthesize, OptimalOptions};
use nanoxbar_logic::suite::SplitMix64;
use nanoxbar_logic::TruthTable;
use nanoxbar_sat::{Cnf, Lit, SolveResult, Solver, Var};

/// Eight tables of synth-cold's optimal-lattice class (4 variables, an
/// ISOP cover of at most 3 cubes and 6 literals), spread over the class.
const OPTIMAL_TABLES: [u64; 8] = [
    0x03FF, 0x1F0F, 0x3FF0, 0x66EE, 0xA5AF, 0xC888, 0xEE44, 0xFCB8,
];

/// Random 3-SAT at the given clause/variable ratio.
fn random_3sat(num_vars: usize, ratio: f64, seed: u64) -> Cnf {
    let mut rng = SplitMix64::new(seed);
    let mut cnf = Cnf::new();
    let vars: Vec<Var> = cnf.fresh_vars(num_vars);
    let clauses = (num_vars as f64 * ratio) as usize;
    for _ in 0..clauses {
        let mut clause = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = vars[rng.below(num_vars as u64) as usize];
            clause.push(Lit::new(v, rng.chance(0.5)));
        }
        cnf.add_clause(clause);
    }
    cnf
}

/// Pigeonhole principle PHP(n+1, n) — UNSAT, exercises clause learning.
#[allow(clippy::needless_range_loop)] // pairwise indexing is clearest here
fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let x: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| cnf.fresh_var().positive()).collect())
        .collect();
    for p in &x {
        cnf.add_clause(p.iter().copied());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause([!x[p1][h], !x[p2][h]]);
            }
        }
    }
    cnf
}

fn solver_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat");
    for n in [30usize, 60] {
        let cnf = random_3sat(n, 3.5, 0x5A7 + n as u64);
        group.bench_with_input(BenchmarkId::new("random-3sat", n), &cnf, |b, cnf| {
            b.iter(|| Solver::from_cnf(std::hint::black_box(cnf)).solve().is_sat())
        });
    }
    for holes in [5usize, 7] {
        let cnf = pigeonhole(holes);
        group.bench_with_input(BenchmarkId::new("pigeonhole", holes), &cnf, |b, cnf| {
            b.iter(|| {
                assert!(!Solver::from_cnf(std::hint::black_box(cnf)).solve().is_sat());
            })
        });
    }
    // Long enough (over 4,490 conflicts) that the variable activities
    // rescale, and the learnt database passes 4,000 clauses and is reduced.
    let cnf = pigeonhole(9);
    group.bench_with_input(BenchmarkId::new("pigeonhole-budget", 9), &cnf, |b, cnf| {
        b.iter(|| {
            let mut solver = Solver::from_cnf(std::hint::black_box(cnf));
            assert_eq!(solver.solve_limited(&[], 6_000), SolveResult::Unknown);
        })
    });
    group.finish();
}

fn optimal_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal-lattice");
    let options = OptimalOptions {
        max_conflicts_per_call: Some(1_000_000),
        ..Default::default()
    };
    for table in OPTIMAL_TABLES {
        let f = TruthTable::from_words(4, vec![table]);
        let id = BenchmarkId::new("try_synthesize", format!("{table:#06x}"));
        group.bench_with_input(id, &f, |b, f| {
            b.iter(|| {
                try_synthesize(std::hint::black_box(f), &options)
                    .expect("the budget is generous")
                    .sat_calls
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = solver_benches, optimal_benches
}
criterion_main!(benches);
