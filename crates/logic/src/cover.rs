//! Sum-of-products covers.
//!
//! A [`Cover`] is a disjunction of [`Cube`]s — the only Boolean-function form
//! directly implementable on nano-crossbar arrays (the paper, Sec. III-A,
//! notes that factored or BDD forms "cannot be used since these forms require
//! manipulation/wiring of switches that is not applicable for nanoarrays").

use std::fmt;

use crate::cube::Cube;
use crate::error::LogicError;
use crate::truth_table::TruthTable;

/// A sum-of-products (SOP) form: an OR of product terms.
///
/// # Examples
///
/// ```
/// use nanoxbar_logic::{Cover, Cube};
///
/// // f = x0 x1 + !x0 !x1  (the paper's running example)
/// let f = Cover::from_cubes(2, vec![
///     Cube::universe(2).with_positive(0).with_positive(1),
///     Cube::universe(2).with_negative(0).with_negative(1),
/// ]).unwrap();
/// assert_eq!(f.product_count(), 2);
/// assert_eq!(f.literal_count(), 4);
/// assert!(f.eval(0b00) && f.eval(0b11) && !f.eval(0b01));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant false).
    pub fn zero(num_vars: usize) -> Self {
        Cover {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// The tautology cover (a single universe cube).
    pub fn one(num_vars: usize) -> Self {
        Cover {
            num_vars,
            cubes: vec![Cube::universe(num_vars)],
        }
    }

    /// Builds a cover from explicit cubes.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::CubeArityMismatch`] if any cube has a different
    /// arity than `num_vars`.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Result<Self, LogicError> {
        for c in &cubes {
            if c.num_vars() != num_vars {
                return Err(LogicError::CubeArityMismatch {
                    expected: num_vars,
                    found: c.num_vars(),
                });
            }
        }
        Ok(Cover { num_vars, cubes })
    }

    /// The canonical minterm cover of a truth table (one cube per ON minterm).
    pub fn from_truth_table_minterms(tt: &TruthTable) -> Self {
        let cubes = tt
            .minterms()
            .map(|m| Cube::from_minterm(tt.num_vars(), m))
            .collect();
        Cover {
            num_vars: tt.num_vars(),
            cubes,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The product terms.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of products — the column count of a diode array row / lattice
    /// dimension in the paper's size formulas.
    pub fn product_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literal *instances* across all products.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Number of *distinct* literals used (a variable counted once per
    /// polarity) — the row/column count in the paper's Fig. 3 formulas.
    pub fn distinct_literal_count(&self) -> usize {
        let mut pos = 0u64;
        let mut neg = 0u64;
        for c in &self.cubes {
            pos |= c.pos_mask();
            neg |= c.neg_mask();
        }
        (pos.count_ones() + neg.count_ones()) as usize
    }

    /// True if the cover has no products.
    pub fn is_zero_cover(&self) -> bool {
        self.cubes.is_empty()
    }

    /// True if some product is the universe cube (constant true).
    pub fn has_universe_cube(&self) -> bool {
        self.cubes.iter().any(Cube::is_universe)
    }

    /// Adds a product term.
    ///
    /// # Panics
    ///
    /// Panics if the cube arity differs from the cover's.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube arity mismatch");
        self.cubes.push(cube);
    }

    /// Evaluates the SOP on minterm `m`.
    pub fn eval(&self, m: u64) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm(m))
    }

    /// The truth table of the cover: each cube ORed in word by word.
    pub fn to_truth_table(&self) -> TruthTable {
        let mut tt = TruthTable::zeros(self.num_vars);
        for c in &self.cubes {
            c.or_into(&mut tt);
        }
        tt
    }

    /// True if the cover computes the same function as `tt`.
    pub fn computes(&self, tt: &TruthTable) -> bool {
        self.num_vars == tt.num_vars() && &self.to_truth_table() == tt
    }

    /// Removes duplicate products and products covered by another single
    /// product (single-cube containment).
    pub fn remove_contained_cubes(&mut self) {
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        for c in cubes {
            if kept.iter().any(|k| k.covers(&c)) {
                continue;
            }
            kept.retain(|k| !c.covers(k));
            kept.push(c);
        }
        self.cubes = kept;
    }

    /// Removes products that are redundant with respect to the whole cover
    /// (the function is unchanged without them). Quadratic in cover size,
    /// exponential in arity — intended for the paper's problem scale.
    pub fn make_irredundant(&mut self) {
        let target = self.to_truth_table();
        let mut i = 0;
        while i < self.cubes.len() {
            let candidate = self.cubes.remove(i);
            if self.to_truth_table() == target {
                // Redundant: leave it removed, indices shift down.
            } else {
                self.cubes.insert(i, candidate);
                i += 1;
            }
        }
    }

    /// Disjunction of two covers over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn or(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars, "cover arity mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().copied());
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Conjunction of two covers (distributes products; may square the size).
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn and(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars, "cover arity mismatch");
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(i) = a.intersection(b) {
                    cubes.push(i);
                }
            }
        }
        let mut out = Cover {
            num_vars: self.num_vars,
            cubes,
        };
        out.remove_contained_cubes();
        out
    }

    /// ANDs a single literal onto every product (used when re-composing
    /// P-circuit cofactors, paper Sec. III-B-1).
    ///
    /// Products that already contain the opposite literal are dropped.
    pub fn and_literal(&self, lit: crate::cube::Literal) -> Cover {
        let mut cubes = Vec::with_capacity(self.cubes.len());
        for c in &self.cubes {
            let bit = 1u64 << lit.var();
            let conflicting = if lit.is_positive() {
                c.neg_mask() & bit != 0
            } else {
                c.pos_mask() & bit != 0
            };
            if conflicting {
                continue;
            }
            let cube = if lit.is_positive() {
                if c.pos_mask() & bit != 0 {
                    *c
                } else {
                    c.with_positive(lit.var())
                }
            } else if c.neg_mask() & bit != 0 {
                *c
            } else {
                c.with_negative(lit.var())
            };
            cubes.push(cube);
        }
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Embeds the cover into a space with an extra variable inserted at
    /// position `var`.
    pub fn insert_var(&self, var: usize) -> Cover {
        let cubes = self.cubes.iter().map(|c| c.insert_var(var)).collect();
        Cover {
            num_vars: self.num_vars + 1,
            cubes,
        }
    }

    /// A compact algebraic rendering, e.g. `x0 x1 + !x0 !x1`.
    pub fn to_algebraic(&self) -> String {
        if self.cubes.is_empty() {
            return "0".to_string();
        }
        self.cubes
            .iter()
            .map(|c| {
                if c.is_universe() {
                    "1".to_string()
                } else {
                    c.literals()
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            })
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cover({} vars: {})", self.num_vars, self.to_algebraic())
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_algebraic())
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have inconsistent arities or the iterator is
    /// empty (an empty cover needs an explicit arity — use [`Cover::zero`]).
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let num_vars = cubes
            .first()
            .expect("cannot infer arity from an empty iterator; use Cover::zero")
            .num_vars();
        Cover::from_cubes(num_vars, cubes).expect("inconsistent cube arities")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xnor2() -> Cover {
        Cover::from_cubes(
            2,
            vec![
                Cube::universe(2).with_positive(0).with_positive(1),
                Cube::universe(2).with_negative(0).with_negative(1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_counts() {
        // f = x1x2 + !x1!x2 has 2 products and 4 (distinct) literals.
        let f = xnor2();
        assert_eq!(f.product_count(), 2);
        assert_eq!(f.literal_count(), 4);
        assert_eq!(f.distinct_literal_count(), 4);
    }

    #[test]
    fn eval_matches_truth_table() {
        let f = xnor2();
        let tt = f.to_truth_table();
        for m in 0..4 {
            assert_eq!(f.eval(m), tt.value(m));
        }
        assert!(f.computes(&TruthTable::from_fn(2, |m| m == 0 || m == 3)));
    }

    #[test]
    fn arity_mismatch_is_error() {
        let err = Cover::from_cubes(3, vec![Cube::universe(2)]).unwrap_err();
        assert!(matches!(
            err,
            LogicError::CubeArityMismatch {
                expected: 3,
                found: 2
            }
        ));
    }

    #[test]
    fn minterm_cover_roundtrip() {
        let tt = TruthTable::from_fn(4, |m| m % 3 == 1);
        let cover = Cover::from_truth_table_minterms(&tt);
        assert!(cover.computes(&tt));
        assert_eq!(cover.product_count() as u64, tt.count_ones());
    }

    #[test]
    fn contained_cube_removal() {
        let mut f = Cover::from_cubes(
            3,
            vec![
                Cube::universe(3).with_positive(0),
                Cube::universe(3).with_positive(0).with_positive(1), // contained
                Cube::universe(3).with_positive(0),                  // duplicate
            ],
        )
        .unwrap();
        let tt = f.to_truth_table();
        f.remove_contained_cubes();
        assert_eq!(f.product_count(), 1);
        assert!(f.computes(&tt));
    }

    #[test]
    fn irredundant_removes_consensus_cube() {
        // x0 x1 + !x0 x2 + x1 x2 : the consensus term x1 x2 is redundant.
        let mut f = Cover::from_cubes(
            3,
            vec![
                Cube::universe(3).with_positive(0).with_positive(1),
                Cube::universe(3).with_negative(0).with_positive(2),
                Cube::universe(3).with_positive(1).with_positive(2),
            ],
        )
        .unwrap();
        let tt = f.to_truth_table();
        f.make_irredundant();
        assert_eq!(f.product_count(), 2);
        assert!(f.computes(&tt));
    }

    #[test]
    fn or_and_compose() {
        let a = Cover::from_cubes(2, vec![Cube::universe(2).with_positive(0)]).unwrap();
        let b = Cover::from_cubes(2, vec![Cube::universe(2).with_positive(1)]).unwrap();
        let or = a.or(&b);
        let and = a.and(&b);
        assert_eq!(or.to_truth_table(), TruthTable::from_fn(2, |m| m != 0));
        assert_eq!(and.to_truth_table(), TruthTable::from_fn(2, |m| m == 3));
    }

    #[test]
    fn and_literal_drops_conflicts() {
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::universe(2).with_positive(0),
                Cube::universe(2).with_negative(0),
            ],
        )
        .unwrap();
        let g = f.and_literal(crate::cube::Literal::positive(0));
        assert_eq!(g.product_count(), 1);
        assert_eq!(g.to_truth_table(), TruthTable::from_fn(2, |m| m & 1 == 1));
    }

    #[test]
    fn algebraic_rendering() {
        assert_eq!(xnor2().to_algebraic(), "x0 x1 + !x0 !x1");
        assert_eq!(Cover::zero(2).to_algebraic(), "0");
        assert_eq!(Cover::one(2).to_algebraic(), "1");
    }
}
