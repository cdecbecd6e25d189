//! Variables and literals.

use std::fmt;

/// A propositional variable, indexed from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from its index.
    pub fn new(index: usize) -> Self {
        Var(index as u32)
    }

    /// The variable's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `2*var + sign`.
///
/// ```
/// use nanoxbar_sat::{Lit, Var};
/// let x = Var::new(3);
/// let l = x.positive();
/// assert_eq!(l.var(), x);
/// assert_eq!((!l).is_positive(), false);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal from a variable and a polarity.
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | u32::from(positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is the positive phase.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index in `0..2*num_vars` (used for watch lists).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::code`].
    pub const fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// DIMACS-style integer: `var+1` with sign.
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().index() + 1) as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Largest DIMACS variable number a literal can hold: a literal code is
    /// `2*var + sign` in a `u32`, so variable indices stop at 2³¹ − 1.
    pub(crate) const MAX_DIMACS_VAR: u64 = 1 << 31;

    /// Parses a DIMACS-style non-zero integer.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0` or `|value| > 2³¹`, the largest variable a
    /// literal can hold, rather than aliasing a smaller variable.
    pub fn from_dimacs(value: i64) -> Self {
        assert!(value != 0, "dimacs literal cannot be zero");
        assert!(
            value.unsigned_abs() <= Self::MAX_DIMACS_VAR,
            "dimacs literal {value} is beyond the largest variable {}",
            Self::MAX_DIMACS_VAR
        );
        let var = Var((value.unsigned_abs() - 1) as u32);
        Lit::new(var, value > 0)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_positive() {
            write!(f, "!")?;
        }
        write!(f, "{}", self.var())
    }
}

/// Truth value in a partial assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not yet assigned.
    Undef,
}

impl LBool {
    /// Converts from a `bool`.
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Negation; `Undef` stays `Undef`.
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrip() {
        for i in 0..10 {
            let v = Var::new(i);
            let p = v.positive();
            let n = v.negative();
            assert_eq!(p.var(), v);
            assert_eq!(n.var(), v);
            assert!(p.is_positive());
            assert!(!n.is_positive());
            assert_eq!(!p, n);
            assert_eq!(!!p, p);
            assert_eq!(Lit::from_code(p.code()), p);
        }
    }

    #[test]
    fn dimacs_conversion() {
        let l = Lit::from_dimacs(-5);
        assert_eq!(l.var().index(), 4);
        assert!(!l.is_positive());
        assert_eq!(l.to_dimacs(), -5);
        assert_eq!(Lit::from_dimacs(3).to_dimacs(), 3);
        let top = Lit::MAX_DIMACS_VAR as i64;
        assert_eq!(Lit::from_dimacs(top).to_dimacs(), top);
        assert_eq!(Lit::from_dimacs(-top).to_dimacs(), -top);
    }

    #[test]
    #[should_panic(expected = "beyond the largest variable")]
    fn dimacs_literal_past_the_range_panics() {
        // 2^31 + 1 used to truncate to variable 0.
        Lit::from_dimacs(2_147_483_649);
    }

    #[test]
    fn lbool_negate() {
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Var::new(2).positive().to_string(), "v2");
        assert_eq!(Var::new(2).negative().to_string(), "!v2");
    }
}
