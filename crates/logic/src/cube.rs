//! Product terms (cubes) in positional notation.
//!
//! A [`Cube`] is a conjunction of literals over up to 64 variables, stored as
//! two bit masks: `pos` (variables required to be 1) and `neg` (variables
//! required to be 0). A variable present in neither mask is unconstrained
//! ("don't care" position).

use std::fmt;

use crate::error::LogicError;
use crate::truth_table::{tail_mask, variable_word, TruthTable};

/// A single literal: a variable with a polarity.
///
/// ```
/// use nanoxbar_logic::Literal;
/// let lit = Literal::negative(3);
/// assert_eq!(lit.var(), 3);
/// assert!(!lit.is_positive());
/// assert_eq!(lit.to_string(), "!x3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Literal {
    var: u32,
    positive: bool,
}

impl Literal {
    /// The positive literal `x_var`.
    pub fn positive(var: usize) -> Self {
        Literal {
            var: var as u32,
            positive: true,
        }
    }

    /// The negative literal `!x_var`.
    pub fn negative(var: usize) -> Self {
        Literal {
            var: var as u32,
            positive: false,
        }
    }

    /// Creates a literal with an explicit polarity.
    pub fn new(var: usize, positive: bool) -> Self {
        Literal {
            var: var as u32,
            positive,
        }
    }

    /// The variable index.
    pub fn var(&self) -> usize {
        self.var as usize
    }

    /// True for `x`, false for `!x`.
    pub fn is_positive(&self) -> bool {
        self.positive
    }

    /// The same variable with opposite polarity.
    pub fn complement(&self) -> Self {
        Literal {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Evaluates the literal under minterm `m` (bit `i` of `m` = variable `i`).
    pub fn eval(&self, m: u64) -> bool {
        ((m >> self.var) & 1 == 1) == self.positive
    }

    /// The literal on the 64 minterms of word `word`: bit `i` is
    /// [`Literal::eval`] at minterm `64*word + i` (see [`variable_word`]).
    #[inline]
    pub fn word(&self, word: usize) -> u64 {
        let x = variable_word(self.var(), word);
        if self.positive {
            x
        } else {
            !x
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var)
        } else {
            write!(f, "!x{}", self.var)
        }
    }
}

/// A product term (conjunction of literals) over `num_vars <= 64` variables.
///
/// # Examples
///
/// ```
/// use nanoxbar_logic::Cube;
///
/// // x0 AND !x2 over three variables
/// let c = Cube::universe(3).with_positive(0).with_negative(2);
/// assert!(c.contains_minterm(0b001));
/// assert!(!c.contains_minterm(0b101));
/// assert_eq!(c.literal_count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    num_vars: usize,
    pos: u64,
    neg: u64,
}

impl Cube {
    /// The full cube (no literals; covers every minterm).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64`.
    pub fn universe(num_vars: usize) -> Self {
        assert!(num_vars <= 64, "cube supports at most 64 variables");
        Cube {
            num_vars,
            pos: 0,
            neg: 0,
        }
    }

    /// Builds a cube from positive/negative literal masks.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ContradictoryCube`] if a variable appears in
    /// both masks, and [`LogicError::VarOutOfRange`] if a mask references a
    /// variable `>= num_vars`.
    pub fn from_masks(num_vars: usize, pos: u64, neg: u64) -> Result<Self, LogicError> {
        assert!(num_vars <= 64, "cube supports at most 64 variables");
        let var_mask = if num_vars == 64 {
            u64::MAX
        } else {
            (1u64 << num_vars) - 1
        };
        if (pos | neg) & !var_mask != 0 {
            return Err(LogicError::VarOutOfRange {
                var: 63 - ((pos | neg) & !var_mask).leading_zeros() as usize,
                num_vars,
            });
        }
        if pos & neg != 0 {
            return Err(LogicError::ContradictoryCube {
                var: (pos & neg).trailing_zeros() as usize,
            });
        }
        Ok(Cube { num_vars, pos, neg })
    }

    /// Builds a cube from a list of literals.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Cube::from_masks`].
    pub fn from_literals(num_vars: usize, lits: &[Literal]) -> Result<Self, LogicError> {
        let mut pos = 0u64;
        let mut neg = 0u64;
        for l in lits {
            if l.var() >= num_vars {
                return Err(LogicError::VarOutOfRange {
                    var: l.var(),
                    num_vars,
                });
            }
            if l.is_positive() {
                pos |= 1 << l.var();
            } else {
                neg |= 1 << l.var();
            }
        }
        Self::from_masks(num_vars, pos, neg)
    }

    /// The cube covering exactly minterm `m`.
    pub fn from_minterm(num_vars: usize, m: u64) -> Self {
        let var_mask = if num_vars == 64 {
            u64::MAX
        } else {
            (1u64 << num_vars) - 1
        };
        Cube {
            num_vars,
            pos: m & var_mask,
            neg: !m & var_mask,
        }
    }

    /// Returns this cube with the positive literal `x_var` added.
    ///
    /// # Panics
    ///
    /// Panics if the variable is out of range or already negated.
    pub fn with_positive(self, var: usize) -> Self {
        assert!(var < self.num_vars, "variable {var} out of range");
        assert!(
            self.neg & (1 << var) == 0,
            "variable {var} already negative"
        );
        Cube {
            pos: self.pos | (1 << var),
            ..self
        }
    }

    /// Returns this cube with the negative literal `!x_var` added.
    ///
    /// # Panics
    ///
    /// Panics if the variable is out of range or already positive.
    pub fn with_negative(self, var: usize) -> Self {
        assert!(var < self.num_vars, "variable {var} out of range");
        assert!(
            self.pos & (1 << var) == 0,
            "variable {var} already positive"
        );
        Cube {
            neg: self.neg | (1 << var),
            ..self
        }
    }

    /// Number of variables in the cube's space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Mask of variables constrained to 1.
    pub fn pos_mask(&self) -> u64 {
        self.pos
    }

    /// Mask of variables constrained to 0.
    pub fn neg_mask(&self) -> u64 {
        self.neg
    }

    /// Number of literals in the product.
    pub fn literal_count(&self) -> usize {
        (self.pos | self.neg).count_ones() as usize
    }

    /// True if the cube has no literals (covers everything).
    pub fn is_universe(&self) -> bool {
        self.pos == 0 && self.neg == 0
    }

    /// The literals of this cube in ascending variable order.
    pub fn literals(&self) -> Vec<Literal> {
        let mut out = Vec::with_capacity(self.literal_count());
        for v in 0..self.num_vars {
            if (self.pos >> v) & 1 == 1 {
                out.push(Literal::positive(v));
            } else if (self.neg >> v) & 1 == 1 {
                out.push(Literal::negative(v));
            }
        }
        out
    }

    /// True if minterm `m` satisfies the product.
    pub fn contains_minterm(&self, m: u64) -> bool {
        (self.pos & !m) == 0 && (self.neg & m) == 0
    }

    /// True if `other`'s minterm set is a subset of this cube's.
    pub fn covers(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        (self.pos & !other.pos) == 0 && (self.neg & !other.neg) == 0
    }

    /// True if the two cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        (self.pos & other.neg) == 0 && (self.neg & other.pos) == 0
    }

    /// The intersection product, or `None` if the cubes are disjoint.
    pub fn intersection(&self, other: &Cube) -> Option<Cube> {
        if self.intersects(other) {
            Some(Cube {
                num_vars: self.num_vars,
                pos: self.pos | other.pos,
                neg: self.neg | other.neg,
            })
        } else {
            None
        }
    }

    /// Literals shared by both cubes (same variable, same polarity).
    ///
    /// In the Altun–Riedel lattice construction this is the candidate set
    /// for the grid site at the intersection of a column product of `f` and
    /// a row product of `f^D` (paper, Fig. 5).
    pub fn shared_literals(&self, other: &Cube) -> Vec<Literal> {
        let mut out = Vec::new();
        let both_pos = self.pos & other.pos;
        let both_neg = self.neg & other.neg;
        for v in 0..self.num_vars {
            if (both_pos >> v) & 1 == 1 {
                out.push(Literal::positive(v));
            } else if (both_neg >> v) & 1 == 1 {
                out.push(Literal::negative(v));
            }
        }
        out
    }

    /// Removes the literal on `var` (if any), enlarging the cube.
    pub fn without_var(&self, var: usize) -> Cube {
        assert!(var < self.num_vars, "variable {var} out of range");
        Cube {
            num_vars: self.num_vars,
            pos: self.pos & !(1 << var),
            neg: self.neg & !(1 << var),
        }
    }

    /// The smallest cube covering both inputs (supercube).
    pub fn supercube(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.num_vars, other.num_vars);
        Cube {
            num_vars: self.num_vars,
            pos: self.pos & other.pos,
            neg: self.neg & other.neg,
        }
    }

    /// The characteristic truth table of the cube.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds [`crate::MAX_VARS`].
    pub fn to_truth_table(&self) -> TruthTable {
        let mut tt = TruthTable::zeros(self.num_vars);
        self.or_into(&mut tt);
        tt
    }

    /// ORs the cube's characteristic function into `tt`, one word at a
    /// time: literals on `x0..x5` fix the same in-word mask for every
    /// word, literals on `x6+` select which words receive it.
    pub(crate) fn or_into(&self, tt: &mut TruthTable) {
        debug_assert_eq!(self.num_vars, tt.num_vars());
        let mut mask = tail_mask(self.num_vars);
        for v in 0..self.num_vars.min(6) {
            let x = variable_word(v, 0);
            if (self.pos >> v) & 1 == 1 {
                mask &= x;
            } else if (self.neg >> v) & 1 == 1 {
                mask &= !x;
            }
        }
        let (pos_hi, neg_hi) = (self.pos >> 6, self.neg >> 6);
        for (w, word) in tt.words_mut().iter_mut().enumerate() {
            let w = w as u64;
            if w & pos_hi == pos_hi && w & neg_hi == 0 {
                *word |= mask;
            }
        }
    }

    /// Restricts the cube to a space without `var` (variables above shift
    /// down). Returns `None` if the cube constrains `var` inconsistently with
    /// `value`.
    pub fn restrict(&self, var: usize, value: bool) -> Option<Cube> {
        assert!(var < self.num_vars, "variable {var} out of range");
        let bit = 1u64 << var;
        if (value && self.neg & bit != 0) || (!value && self.pos & bit != 0) {
            return None;
        }
        let low = bit - 1;
        let shrink = |m: u64| (m & low) | ((m >> 1) & !low);
        Some(Cube {
            num_vars: self.num_vars - 1,
            pos: shrink(self.pos & !bit),
            neg: shrink(self.neg & !bit),
        })
    }

    /// Embeds the cube into a space with one extra variable inserted at
    /// position `var` (unconstrained).
    pub fn insert_var(&self, var: usize) -> Cube {
        assert!(var <= self.num_vars, "insertion point {var} out of range");
        assert!(self.num_vars < 64, "cube supports at most 64 variables");
        let low = (1u64 << var) - 1;
        let grow = |m: u64| (m & low) | ((m & !low) << 1);
        Cube {
            num_vars: self.num_vars + 1,
            pos: grow(self.pos),
            neg: grow(self.neg),
        }
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube(")?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for Cube {
    /// Espresso-style positional notation, variable 0 leftmost: `1` for a
    /// positive literal, `0` for a negative one, `-` for unconstrained.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.num_vars {
            let c = if (self.pos >> v) & 1 == 1 {
                '1'
            } else if (self.neg >> v) & 1 == 1 {
                '0'
            } else {
                '-'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_membership() {
        let c = Cube::universe(4).with_positive(0).with_negative(3);
        assert!(c.contains_minterm(0b0001));
        assert!(c.contains_minterm(0b0111));
        assert!(!c.contains_minterm(0b1001)); // x3 must be 0
        assert!(!c.contains_minterm(0b0000)); // x0 must be 1
        assert_eq!(c.to_truth_table().count_ones(), 4);
    }

    #[test]
    fn from_masks_rejects_contradiction_and_range() {
        assert!(matches!(
            Cube::from_masks(3, 0b001, 0b001),
            Err(LogicError::ContradictoryCube { var: 0 })
        ));
        assert!(matches!(
            Cube::from_masks(3, 0b1000, 0),
            Err(LogicError::VarOutOfRange {
                var: 3,
                num_vars: 3
            })
        ));
    }

    #[test]
    fn covers_and_intersects() {
        let big = Cube::universe(4).with_positive(1);
        let small = Cube::universe(4).with_positive(1).with_negative(2);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.intersects(&small));

        let disjoint = Cube::universe(4).with_negative(1);
        assert!(!big.intersects(&disjoint));
        assert!(big.intersection(&disjoint).is_none());

        let i = big.intersection(&small).unwrap();
        assert_eq!(i, small);
    }

    #[test]
    fn shared_literals_same_polarity_only() {
        let a = Cube::universe(4)
            .with_positive(0)
            .with_negative(1)
            .with_positive(2);
        let b = Cube::universe(4).with_positive(0).with_positive(1);
        let shared = a.shared_literals(&b);
        assert_eq!(shared, vec![Literal::positive(0)]);
    }

    #[test]
    fn supercube_is_smallest_cover() {
        let a = Cube::from_minterm(3, 0b101);
        let b = Cube::from_minterm(3, 0b001);
        let s = a.supercube(&b);
        assert!(s.covers(&a) && s.covers(&b));
        assert_eq!(s.literal_count(), 2); // x0=1, x1=0, x2 free
    }

    #[test]
    fn restrict_and_insert_roundtrip() {
        let c = Cube::universe(4).with_positive(0).with_negative(2);
        // Restrict on an unconstrained variable keeps both literals.
        let r = c.restrict(1, true).unwrap();
        assert_eq!(r.num_vars(), 3);
        assert_eq!(r.literal_count(), 2);
        // x2 was at index 2; after removing var 1 it sits at index 1.
        assert!(r.contains_minterm(0b001));
        assert!(!r.contains_minterm(0b011));
        // Conflicting restriction yields None.
        assert!(c.restrict(0, false).is_none());
        // insert_var undoes restrict on the same index.
        assert_eq!(r.insert_var(1), c);
    }

    #[test]
    fn truth_table_agrees_with_membership() {
        let c = Cube::universe(5).with_positive(1).with_negative(4);
        let tt = c.to_truth_table();
        for m in 0..32 {
            assert_eq!(tt.value(m), c.contains_minterm(m));
        }
        assert_eq!(tt.count_ones(), 1 << (5 - c.literal_count()));
    }

    #[test]
    fn display_positional_notation() {
        let c = Cube::universe(4).with_positive(0).with_negative(2);
        assert_eq!(c.to_string(), "1-0-");
        assert_eq!(Cube::universe(3).to_string(), "---");
    }

    #[test]
    fn literals_listing() {
        let c = Cube::universe(3).with_negative(0).with_positive(2);
        assert_eq!(
            c.literals(),
            vec![Literal::negative(0), Literal::positive(2)]
        );
    }
}
