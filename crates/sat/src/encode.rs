//! CNF encoding helpers: cardinality constraints.
//!
//! The optimal-lattice SAT encoding (paper ref \[9\], reproduced in
//! `nanoxbar-lattice`) needs exactly-one site selectors; they and the
//! sequential-counter cardinality bounds live here so every encoding in
//! the workspace shares one tested implementation.
//!
//! Each helper writes into a [`ClauseSink`]: a [`Cnf`] to keep or print
//! the formula, or a [`Solver`] to load it with no intermediate copy. Both
//! receive the same clauses in the same order.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// Where an encoding puts its variables and clauses.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn fresh_var(&mut self) -> Var;

    /// Adds a clause.
    fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I);
}

impl ClauseSink for Cnf {
    fn fresh_var(&mut self) -> Var {
        Cnf::fresh_var(self)
    }

    fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        Cnf::add_clause(self, lits);
    }
}

/// [`Solver::add_clause`]'s verdict is dropped: a solver whose clauses
/// conflict at the top level still answers [`crate::SolveResult::Unsat`].
impl ClauseSink for Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }

    fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        Solver::add_clause(self, lits);
    }
}

/// At least one of `lits` is true.
pub fn at_least_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    sink.add_clause(lits.iter().copied());
}

/// At most one of `lits` is true (pairwise encoding — fine for the small
/// selector groups used by the lattice encoder).
pub fn at_most_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    for (i, &a) in lits.iter().enumerate() {
        for &b in &lits[i + 1..] {
            sink.add_clause([!a, !b]);
        }
    }
}

/// Exactly one of `lits` is true.
pub fn exactly_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    at_least_one(sink, lits);
    at_most_one(sink, lits);
}

/// At most `k` of `lits` are true, via the sequential-counter encoding
/// (Sinz 2005). Introduces `O(n·k)` auxiliary variables.
pub fn at_most_k<S: ClauseSink>(sink: &mut S, lits: &[Lit], k: usize) {
    let n = lits.len();
    if n <= k {
        return;
    }
    if k == 0 {
        for &l in lits {
            sink.add_clause([!l]);
        }
        return;
    }
    // s[i][j] = "at least j+1 of the first i+1 literals are true"
    let mut s = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<Lit> = (0..k).map(|_| sink.fresh_var().positive()).collect();
        s.push(row);
    }
    sink.add_clause([!lits[0], s[0][0]]);
    for &sj in &s[0][1..k] {
        sink.add_clause([!sj]);
    }
    for i in 1..n {
        sink.add_clause([!lits[i], s[i][0]]);
        sink.add_clause([!s[i - 1][0], s[i][0]]);
        for j in 1..k {
            sink.add_clause([!lits[i], !s[i - 1][j - 1], s[i][j]]);
            sink.add_clause([!s[i - 1][j], s[i][j]]);
        }
        sink.add_clause([!lits[i], !s[i - 1][k - 1]]);
    }
}

/// Exactly `k` of `lits` are true.
pub fn exactly_k<S: ClauseSink>(sink: &mut S, lits: &[Lit], k: usize) {
    at_most_k(sink, lits, k);
    // At least k: at most (n - k) of the negations.
    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    at_most_k(sink, &negated, lits.len().saturating_sub(k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    fn count_models<F: Fn(&[bool]) -> bool>(cnf: &Cnf, relevant: usize, pred: F) -> (usize, usize) {
        // Enumerate assignments of the first `relevant` vars; auxiliary vars
        // are existentially quantified by SAT calls with assumptions.
        let mut sat_count = 0;
        let mut pred_count = 0;
        for m in 0..(1u64 << relevant) {
            let bits: Vec<bool> = (0..relevant).map(|i| (m >> i) & 1 == 1).collect();
            let mut s = Solver::from_cnf(cnf);
            let assumptions: Vec<Lit> = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| Lit::new(crate::lit::Var::new(i), b))
                .collect();
            if s.solve_with_assumptions(&assumptions).is_sat() {
                sat_count += 1;
            }
            if pred(&bits) {
                pred_count += 1;
            }
        }
        (sat_count, pred_count)
    }

    #[test]
    fn exactly_one_counts() {
        let mut cnf = Cnf::new();
        let vars = cnf.fresh_vars(4);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        exactly_one(&mut cnf, &lits);
        let (sat, expect) = count_models(&cnf, 4, |bits| bits.iter().filter(|&&b| b).count() == 1);
        assert_eq!(sat, expect);
        assert_eq!(sat, 4);
    }

    #[test]
    fn at_most_k_counts() {
        for k in 0..=4 {
            let mut cnf = Cnf::new();
            let vars = cnf.fresh_vars(5);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            at_most_k(&mut cnf, &lits, k);
            let (sat, expect) =
                count_models(&cnf, 5, |bits| bits.iter().filter(|&&b| b).count() <= k);
            assert_eq!(sat, expect, "k={k}");
        }
    }

    #[test]
    fn a_solver_sink_gets_the_formula_a_cnf_does() {
        let mut cnf = Cnf::new();
        let mut direct = Solver::new();
        let lits: Vec<Lit> = cnf.fresh_vars(6).iter().map(|v| v.positive()).collect();
        direct.new_vars(6);
        exactly_k(&mut cnf, &lits, 2);
        exactly_k(&mut direct, &lits, 2);
        at_least_one(&mut cnf, &lits[..3]);
        at_least_one(&mut direct, &lits[..3]);
        assert_eq!(direct.num_vars(), cnf.num_vars());
        let mut loaded = Solver::from_cnf(&cnf);
        assert_eq!(direct.solve(), loaded.solve());
        assert_eq!(direct.stats(), loaded.stats());
    }

    #[test]
    fn exactly_k_counts() {
        for k in 0..=3 {
            let mut cnf = Cnf::new();
            let vars = cnf.fresh_vars(4);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            exactly_k(&mut cnf, &lits, k);
            let (sat, expect) =
                count_models(&cnf, 4, |bits| bits.iter().filter(|&&b| b).count() == k);
            assert_eq!(sat, expect, "k={k}");
        }
    }
}
