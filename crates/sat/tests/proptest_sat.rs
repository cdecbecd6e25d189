//! Property-based tests for the CDCL solver.

use proptest::prelude::*;

use nanoxbar_sat::{encode, Cnf, Lit, SolveResult, Solver, Var};

/// A random CNF over `n` vars: clause list of (var, polarity) literals.
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

fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    (0..(1u64 << n)).any(|m| {
        let bits: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
        cnf.eval(&bits)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The solver's verdict always matches brute force, and SAT models
    /// always satisfy the formula.
    #[test]
    fn verdicts_match_brute_force(cnf in arb_cnf(7)) {
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(cnf.eval(&model), "returned model must satisfy the CNF");
                prop_assert!(brute_force_sat(&cnf));
            }
            SolveResult::Unsat => prop_assert!(!brute_force_sat(&cnf)),
            SolveResult::Unknown => prop_assert!(false, "unbudgeted solve cannot give up"),
        }
    }

    /// Assumptions behave like temporary unit clauses.
    #[test]
    fn assumptions_equal_unit_clauses(cnf in arb_cnf(6), bits in proptest::collection::vec(any::<Option<bool>>(), 6)) {
        let assumptions: Vec<Lit> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|positive| Lit::new(Var::new(i), positive)))
            .collect();

        let mut incremental = Solver::from_cnf(&cnf);
        let with_assumptions = incremental.solve_with_assumptions(&assumptions).is_sat();

        let mut strengthened = cnf.clone();
        for &a in &assumptions {
            strengthened.add_clause([a]);
        }
        let baseline = Solver::from_cnf(&strengthened).solve().is_sat();
        prop_assert_eq!(with_assumptions, baseline);

        // The solver is reusable afterwards and agrees with plain solving.
        prop_assert_eq!(incremental.solve().is_sat(), brute_force_sat(&cnf));
    }

    /// Dimacs round trip preserves satisfiability and models.
    #[test]
    fn dimacs_roundtrip(cnf in arb_cnf(6)) {
        let back = Cnf::from_dimacs(&cnf.to_dimacs()).unwrap();
        prop_assert_eq!(back.num_clauses(), cnf.num_clauses());
        prop_assert_eq!(back.num_vars(), cnf.num_vars());
        let a = Solver::from_cnf(&cnf).solve().is_sat();
        let b = Solver::from_cnf(&back).solve().is_sat();
        prop_assert_eq!(a, b);
    }

    /// The sequential-counter at-most-k encoding admits exactly the
    /// assignments with <= k true literals.
    #[test]
    fn at_most_k_is_exact(k in 0usize..6, m in 0u64..64) {
        let n = 6;
        let mut cnf = Cnf::new();
        let vars = cnf.fresh_vars(n);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        encode::at_most_k(&mut cnf, &lits, k);
        let assumptions: Vec<Lit> = (0..n)
            .map(|i| Lit::new(vars[i], (m >> i) & 1 == 1))
            .collect();
        let mut solver = Solver::from_cnf(&cnf);
        let sat = solver.solve_with_assumptions(&assumptions).is_sat();
        prop_assert_eq!(sat, m.count_ones() as usize <= k);
    }
}
