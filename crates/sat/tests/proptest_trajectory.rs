//! Trajectory oracle: the library solver must make every decision the
//! reference solver in `reference/` makes.
//!
//! Both solvers run the same sequence of calls. After each call the answer
//! (`SolveResult`, model included) and every `SolverStats` field must be
//! identical. Equal conflict, decision and propagation counts after every
//! call, on formulas where the search branches thousands of times, leave no
//! room for the two trajectories to differ; the models and learnt-clause
//! counts pin the rest.
//!
//! The library solver also loads formulas in ways the reference cannot:
//! after a [`Solver::reset`], and by [`Solver::new_vars`] interleaved with
//! clauses. Each is compared with a fresh reference solver loaded with the
//! same formula by `from_cnf`.

mod reference;

use proptest::prelude::*;

use nanoxbar_sat::{Cnf, Lit, SolveResult, Solver, Var};

/// SplitMix64, to draw a whole formula from one generated seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn lit(&mut self, num_vars: usize) -> Lit {
        Lit::new(Var::new(self.below(num_vars)), self.next() & 1 == 1)
    }
}

/// Random 3-SAT over `num_vars` variables at clause ratio 4.26, where
/// satisfiable and unsatisfiable instances are about equally likely and
/// the search is hardest.
fn random_3sat(num_vars: usize, rng: &mut Rng) -> Cnf {
    let mut cnf = Cnf::new();
    cnf.fresh_vars(num_vars);
    for _ in 0..(num_vars as f64 * 4.26).round() as usize {
        cnf.add_clause((0..3).map(|_| rng.lit(num_vars)));
    }
    cnf
}

/// A random CNF over `n` vars, shaped as in `proptest_sat.rs`.
fn arb_cnf(n: usize) -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(
        proptest::collection::vec((0..n, any::<bool>()), 1..5),
        0..18,
    )
    .prop_map(move |clauses| {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = cnf.fresh_vars(n);
        for clause in clauses {
            cnf.add_clause(clause.into_iter().map(|(v, s)| Lit::new(vars[v], s)));
        }
        cnf
    })
}

/// PHP(holes + 1, holes): unsatisfiable and hard for resolution.
fn pigeonhole(holes: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let p: Vec<Vec<Lit>> = (0..=holes)
        .map(|_| cnf.fresh_vars(holes).iter().map(|v| v.positive()).collect())
        .collect();
    for row in &p {
        cnf.add_clause(row.iter().copied());
    }
    for (i, row_i) in p.iter().enumerate() {
        for row_j in &p[i + 1..] {
            for (&a, &b) in row_i.iter().zip(row_j) {
                cnf.add_clause([!a, !b]);
            }
        }
    }
    cnf
}

/// One call on a solver.
#[derive(Clone, Debug)]
enum Call {
    Solve,
    Assume(Vec<Lit>),
    Limited(Vec<Lit>, u64),
    Add(Vec<Lit>),
}

/// The library solver and the reference, loaded with the same formula.
struct Pair {
    new: Solver,
    old: reference::Solver,
}

impl Pair {
    fn from_cnf(cnf: &Cnf) -> Self {
        Pair {
            new: Solver::from_cnf(cnf),
            old: reference::Solver::from_cnf(cnf),
        }
    }

    /// `solver`, reset and reloaded with `cnf` variable block first, beside
    /// a fresh reference.
    fn reloaded(mut solver: Solver, cnf: &Cnf) -> Self {
        solver.reset();
        solver.new_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause.iter().copied());
        }
        Pair {
            new: solver,
            old: reference::Solver::from_cnf(cnf),
        }
    }

    /// Makes `call` on both; errs unless the answers and stats agree.
    fn run(&mut self, call: &Call) -> Result<Option<SolveResult>, String> {
        let (new, old) = match call {
            Call::Solve => (Some(self.new.solve()), Some(self.old.solve())),
            Call::Assume(a) => (
                Some(self.new.solve_with_assumptions(a)),
                Some(self.old.solve_with_assumptions(a)),
            ),
            Call::Limited(a, budget) => (
                Some(self.new.solve_limited(a, *budget)),
                Some(self.old.solve_limited(a, *budget)),
            ),
            Call::Add(clause) => {
                let (new, old) = (
                    self.new.add_clause(clause.iter().copied()),
                    self.old.add_clause(clause.iter().copied()),
                );
                if new != old {
                    return Err(format!("{call:?}: add_clause {new} vs reference {old}"));
                }
                (None, None)
            }
        };
        if new != old {
            return Err(format!("{call:?}: {new:?} vs reference {old:?}"));
        }
        let (new_stats, old_stats) = (self.new.stats(), self.old.stats());
        if new_stats != old_stats {
            return Err(format!(
                "{call:?}: {new_stats:?} vs reference {old_stats:?}"
            ));
        }
        Ok(new)
    }

    fn run_all(&mut self, calls: &[Call]) -> Result<(), String> {
        for call in calls {
            self.run(call)?;
        }
        Ok(())
    }
}

/// Up to `max` random assumption literals.
fn assumptions(num_vars: usize, max: usize, rng: &mut Rng) -> Vec<Lit> {
    (0..rng.below(max + 1)).map(|_| rng.lit(num_vars)).collect()
}

/// Loads a random formula into a library solver in blocks: `new_vars` for a
/// few variables, then clauses over the variables so far, units among
/// them, so level-0 propagation runs between allocations. Returns the
/// solver beside the same formula as a `Cnf`.
fn interleaved(rng: &mut Rng) -> (Solver, Cnf) {
    let mut solver = Solver::new();
    let mut cnf = Cnf::new();
    for _ in 0..1 + rng.below(8) {
        let fresh = 1 + rng.below(12);
        let first = solver.new_vars(fresh);
        assert_eq!(first.index(), cnf.num_vars());
        cnf.fresh_vars(fresh);
        for _ in 0..rng.below(4 * fresh + 1) {
            let width = if rng.below(8) == 0 {
                1
            } else {
                2 + rng.below(3)
            };
            let clause: Vec<Lit> = (0..width).map(|_| rng.lit(cnf.num_vars())).collect();
            solver.add_clause(clause.iter().copied());
            cnf.add_clause(clause);
        }
    }
    (solver, cnf)
}

/// A random 3-SAT case for `solver`, reset and reloaded, against a fresh
/// reference: two solves, or budgeted calls under assumptions. Hands the
/// solver back for the next case.
fn reused_case(solver: Solver, seed: u64) -> Result<Solver, String> {
    let mut rng = Rng(seed);
    let num_vars = 20 + rng.below(81);
    let cnf = random_3sat(num_vars, &mut rng);
    let mut pair = Pair::reloaded(solver, &cnf);
    if rng.below(2) == 0 {
        pair.run_all(&[Call::Solve, Call::Solve])?;
    } else {
        for _ in 0..4 {
            let call = Call::Limited(assumptions(num_vars, 3, &mut rng), rng.below(80) as u64);
            pair.run(&call)?;
        }
    }
    Ok(pair.new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_3sat_trajectories_match(num_vars in 20usize..81, seed: u64) {
        let cnf = random_3sat(num_vars, &mut Rng(seed));
        Pair::from_cnf(&cnf).run_all(&[Call::Solve, Call::Solve])?;
    }

    #[test]
    fn small_formula_trajectories_match(cnf in arb_cnf(8)) {
        Pair::from_cnf(&cnf).run_all(&[Call::Solve])?;
    }

    #[test]
    fn assumption_trajectories_match(num_vars in 20usize..61, seed: u64) {
        let mut rng = Rng(seed);
        let cnf = random_3sat(num_vars, &mut rng);
        let mut pair = Pair::from_cnf(&cnf);
        for _ in 0..4 {
            pair.run(&Call::Assume(assumptions(num_vars, 6, &mut rng)))?;
        }
        pair.run(&Call::Solve)?;
    }

    #[test]
    fn budgeted_trajectories_match(num_vars in 40usize..81, seed: u64, budget in 0u64..60) {
        let mut rng = Rng(seed);
        let cnf = random_3sat(num_vars, &mut rng);
        let mut pair = Pair::from_cnf(&cnf);
        // Resume from the kept learnt clauses until a verdict, as optimal
        // synthesis would with a retry.
        for _ in 0..20 {
            let a = assumptions(num_vars, 2, &mut rng);
            if pair.run(&Call::Limited(a, budget))? != Some(SolveResult::Unknown) {
                break;
            }
        }
    }

    #[test]
    fn interleaved_intake_trajectories_match(seed: u64) {
        let mut rng = Rng(seed);
        let (new, cnf) = interleaved(&mut rng);
        let mut pair = Pair { new, old: reference::Solver::from_cnf(&cnf) };
        let vars = cnf.num_vars();
        pair.run_all(&[Call::Solve, Call::Assume(assumptions(vars, 3, &mut rng)), Call::Solve])?;
    }

    #[test]
    fn reused_solver_trajectories_match(seeds in proptest::collection::vec(any::<u64>(), 1..4)) {
        let mut solver = Solver::new();
        for seed in seeds {
            solver = reused_case(solver, seed)?;
        }
    }

    #[test]
    fn incremental_trajectories_match(num_vars in 20usize..61, seed: u64) {
        let mut rng = Rng(seed);
        // Start under-constrained, then tighten between solves.
        let mut cnf = Cnf::new();
        cnf.fresh_vars(num_vars);
        for _ in 0..num_vars * 3 {
            cnf.add_clause((0..3).map(|_| rng.lit(num_vars)));
        }
        let mut pair = Pair::from_cnf(&cnf);
        for _ in 0..12 {
            let call = match rng.below(6) {
                0 => Call::Solve,
                1 => Call::Assume(assumptions(num_vars, 4, &mut rng)),
                2 => Call::Limited(assumptions(num_vars, 2, &mut rng), rng.below(40) as u64),
                _ => Call::Add((0..1 + rng.below(3)).map(|_| rng.lit(num_vars)).collect()),
            };
            pair.run(&call)?;
        }
    }
}

/// A budgeted run long enough that the variable activities rescale (after
/// about 4,490 conflicts) and the learnt database passes 4,000 clauses, so
/// `reduce_learnts` runs. After the rescale, pre-rescale decision-heap
/// entries steer the search until they drain; a heap that did not count
/// its duplicate entries would diverge here.
#[test]
fn pigeonhole_run_crosses_rescale_and_reduction() {
    let mut pair = Pair::from_cnf(&pigeonhole(9));
    let result = pair
        .run(&Call::Limited(Vec::new(), 6_000))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(result, Some(SolveResult::Unknown));
    let stats = pair.new.stats();
    assert!(stats.conflicts > 4_500, "{stats:?}");
    // Every analysed conflict learns at most one clause; far fewer remain,
    // so the reduction ran.
    assert!(
        (stats.learnt_clauses as u64) + 1_000 < stats.conflicts,
        "{stats:?}"
    );
    // And the solver stays in step when a later call resumes the search.
    pair.run(&Call::Limited(Vec::new(), 500))
        .unwrap_or_else(|e| panic!("{e}"));
}

/// A solver reset after the PHP(10, 9) run above (rescaled activities,
/// reduced learnts, stale heap entries) searches a new formula exactly as a
/// fresh one would.
#[test]
fn reset_after_rescale_and_reduction_matches_a_fresh_solver() {
    let mut pair = Pair::from_cnf(&pigeonhole(9));
    pair.run(&Call::Limited(Vec::new(), 6_000))
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(pair.new.stats().conflicts > 4_500);
    // Hard enough (about 4,000 conflicts) that a `var_inc` kept from the
    // first run would move this one's activity rescale.
    let mut rng = Rng(0x05EE_D0F2_E5E7);
    let cnf = random_3sat(180, &mut rng);
    let mut reloaded = Pair::reloaded(pair.new, &cnf);
    reloaded
        .run_all(&[Call::Solve, Call::Solve])
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(reloaded.new.stats().conflicts > 3_000);
}

/// About a thousand random 3-SAT cases on one reused solver, each against a
/// fresh reference. Release CI runs it with `--include-ignored`.
#[test]
#[ignore = "release only: cargo test --release -p nanoxbar-sat --test proptest_trajectory -- --include-ignored"]
fn thousand_reused_cases_match() {
    let mut solver = Solver::new();
    let mut seeds = Rng(0x7A1E_C70B);
    for case in 0..1_000 {
        let seed = seeds.next();
        solver = reused_case(solver, seed)
            .unwrap_or_else(|e| panic!("case {case}, seed {seed:#x}: {e}"));
    }
}
