//! CNF formula container and DIMACS I/O.

use std::fmt;

use crate::lit::{Lit, Var};

/// A CNF formula: a conjunction of clauses over `num_vars` variables.
///
/// ```
/// use nanoxbar_sat::{Cnf, Lit, Var};
/// let mut cnf = Cnf::new();
/// let a = cnf.fresh_var().positive();
/// let b = cnf.fresh_var().positive();
/// cnf.add_clause([a, b]);
/// cnf.add_clause([!a]);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula with no variables.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn fresh_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.fresh_var()).collect()
    }

    /// Ensures the variable space covers `var`.
    pub fn register_var(&mut self, var: Var) {
        self.num_vars = self.num_vars.max(var.index() + 1);
    }

    /// Adds a clause; registers any new variables it mentions.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            self.register_var(l.var());
        }
        self.clauses.push(clause);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Evaluates the formula under a complete assignment (indexed by
    /// variable).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the variable count.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }

    /// Serialises to DIMACS `cnf` format.
    pub fn to_dimacs(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses DIMACS `cnf` text. Comments are skipped. The problem line
    /// `p cnf V C` is optional; the formula has the larger of `V` and the
    /// highest variable a clause mentions, so variables no clause uses
    /// survive a [`Cnf::to_dimacs`] round trip.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token, malformed
    /// problem line, or variable past 2³¹ (the most a [`Lit`] can hold).
    pub fn from_dimacs(text: &str) -> Result<Self, String> {
        let mut cnf = Cnf::new();
        let mut current: Vec<Lit> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('p') {
                let vars = match line.split_whitespace().collect::<Vec<_>>()[..] {
                    ["p", "cnf", vars, clauses] if clauses.parse::<u64>().is_ok() => {
                        vars.parse::<u64>().ok()
                    }
                    _ => None,
                }
                .filter(|&v| v <= Lit::MAX_DIMACS_VAR)
                .ok_or_else(|| format!("bad dimacs problem line {line:?}"))?;
                cnf.num_vars = cnf.num_vars.max(vars as usize);
                continue;
            }
            for tok in line.split_whitespace() {
                let value: i64 = tok
                    .parse()
                    .map_err(|_| format!("bad dimacs token {tok:?}"))?;
                if value.unsigned_abs() > Lit::MAX_DIMACS_VAR {
                    return Err(format!("dimacs literal {tok} is out of range"));
                }
                if value == 0 {
                    cnf.add_clause(std::mem::take(&mut current));
                } else {
                    current.push(Lit::from_dimacs(value));
                }
            }
        }
        if !current.is_empty() {
            cnf.add_clause(current);
        }
        Ok(cnf)
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cnf({} vars, {} clauses)",
            self.num_vars,
            self.clauses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_counts() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.negative()]);
        assert!(cnf.eval(&[true, false]));
        assert!(!cnf.eval(&[false, false]));
        assert_eq!(cnf.num_vars(), 2);
    }

    #[test]
    fn dimacs_roundtrip() {
        let mut cnf = Cnf::new();
        let v: Vec<Var> = cnf.fresh_vars(3);
        cnf.add_clause([v[0].positive(), v[2].negative()]);
        cnf.add_clause([v[1].negative()]);
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(back.num_vars(), 3);
        assert_eq!(back.num_clauses(), 2);
        for m in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(cnf.eval(&a), back.eval(&a));
        }
    }

    #[test]
    fn from_dimacs_rejects_garbage() {
        assert!(Cnf::from_dimacs("1 x 0").is_err());
        assert!(Cnf::from_dimacs("p cnf x 1\n1 0").is_err());
        assert!(Cnf::from_dimacs("p dnf 1 1\n1 0").is_err());
    }

    #[test]
    fn problem_line_keeps_unused_variables() {
        let cnf = Cnf::from_dimacs("p cnf 5 1\n1 -2 0").unwrap();
        assert_eq!(cnf.num_vars(), 5);
        assert_eq!(Cnf::from_dimacs(&cnf.to_dimacs()).unwrap().num_vars(), 5);
        // A clause past the declared count still widens the formula.
        assert_eq!(Cnf::from_dimacs("p cnf 1 1\n3 0").unwrap().num_vars(), 3);
    }

    #[test]
    fn out_of_range_literals_are_errors_not_aliases() {
        // These used to parse as variables 0 and 1.
        for text in ["2147483649 0", "4294967298 0", "-2147483649 0"] {
            let err = Cnf::from_dimacs(text).unwrap_err();
            assert!(err.contains("out of range"), "{text}: {err}");
        }
        let top = Cnf::from_dimacs("-2147483648 0").unwrap();
        assert_eq!(top.num_vars(), 1 << 31);
    }

    #[test]
    fn empty_clause_is_parsed() {
        let cnf = Cnf::from_dimacs("p cnf 1 1\n0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert!(cnf.clauses()[0].is_empty());
    }
}
