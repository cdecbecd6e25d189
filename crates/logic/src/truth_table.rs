//! Bit-packed truth tables for Boolean functions of up to [`MAX_VARS`] variables.
//!
//! A [`TruthTable`] stores one bit per input assignment (minterm), packed into
//! `u64` words. Minterm `m` encodes the assignment where input `i` equals bit
//! `i` of `m` (LSB = variable 0). All synthesis and verification code in the
//! workspace bottoms out in this representation, so it is deliberately simple
//! and exhaustively tested.

use std::fmt;

use crate::error::LogicError;

/// Maximum number of input variables supported by [`TruthTable`].
///
/// 24 variables ⇒ 2 MiB per table, which keeps exhaustive verification
/// practical while covering every function used by the paper's experiments.
pub const MAX_VARS: usize = 24;

/// A complete truth table over `num_vars` inputs.
///
/// # Examples
///
/// ```
/// use nanoxbar_logic::TruthTable;
///
/// // Majority-of-three: true when at least two inputs are true.
/// let maj = TruthTable::from_fn(3, |m| (m.count_ones() >= 2) as u64 & 1 == 1);
/// assert!(maj.value(0b011));
/// assert!(!maj.value(0b001));
/// assert_eq!(maj.count_ones(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

/// Number of `u64` words needed for `num_vars` inputs.
///
/// This is the unit of the workspace's word-parallel engines: word `w`
/// holds minterms `64*w .. 64*w + 63`, minterm `m` living at bit `m & 63`
/// of word `m >> 6`.
pub fn word_len(num_vars: usize) -> usize {
    if num_vars >= 6 {
        1 << (num_vars - 6)
    } else {
        1
    }
}

/// Mask selecting the valid bits of the final word for tables with < 6
/// vars (all-ones for 6+ vars, where every word is fully populated).
pub fn tail_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

/// Bit patterns of the variables `x0..x5` within one 64-minterm word:
/// `LOW_VAR_WORDS[v]` has bit `m` set exactly when bit `v` of `m` is set.
const LOW_VAR_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The 64-minterm slice of variable `var`'s truth table at word index
/// `word`: bit `i` is set exactly when variable `var` is true under
/// minterm `64*word + i`.
///
/// Variables 0–5 toggle *within* a word (fixed bit patterns); variables 6+
/// select whole words, so the slice is all-ones or all-zeros depending on
/// bit `var - 6` of `word`. This is the primitive the word-parallel
/// lattice and fault-simulation engines build their per-site masks from:
/// `TruthTable::variable(n, v).words()[w] == variable_word(v, w)` (up to
/// the tail mask for `n < 6`).
pub fn variable_word(var: usize, word: usize) -> u64 {
    if var < 6 {
        LOW_VAR_WORDS[var]
    } else if (word >> (var - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

impl TruthTable {
    /// Creates the constant-false function of `num_vars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_VARS, "too many variables: {num_vars}");
        TruthTable {
            num_vars,
            words: vec![0; word_len(num_vars)],
        }
    }

    /// Creates the constant-true function of `num_vars` inputs.
    pub fn ones(num_vars: usize) -> Self {
        let mut tt = Self::zeros(num_vars);
        for w in &mut tt.words {
            *w = u64::MAX;
        }
        *tt.words.last_mut().expect("at least one word") &= tail_mask(num_vars);
        tt
    }

    /// Builds a table by evaluating `f` on every minterm.
    pub fn from_fn<F: FnMut(u64) -> bool>(num_vars: usize, mut f: F) -> Self {
        let mut tt = Self::zeros(num_vars);
        for m in 0..(1u64 << num_vars) {
            if f(m) {
                tt.set(m, true);
            }
        }
        tt
    }

    /// Builds a table that is true exactly on the given minterms.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::MintermOutOfRange`] if any minterm does not fit
    /// in `num_vars` bits.
    pub fn from_minterms(num_vars: usize, minterms: &[u64]) -> Result<Self, LogicError> {
        let mut tt = Self::zeros(num_vars);
        for &m in minterms {
            if m >= (1u64 << num_vars) {
                return Err(LogicError::MintermOutOfRange {
                    minterm: m,
                    num_vars,
                });
            }
            tt.set(m, true);
        }
        Ok(tt)
    }

    /// The single-variable function `x_var`, assembled from
    /// [`variable_word`] slices.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn variable(num_vars: usize, var: usize) -> Self {
        assert!(
            var < num_vars,
            "variable {var} out of range for {num_vars} inputs"
        );
        let words = (0..word_len(num_vars))
            .map(|w| variable_word(var, w))
            .collect();
        Self::from_words(num_vars, words)
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The packed 64-minterm words, LSB-first: bit `m & 63` of word
    /// `m >> 6` is the function's value on minterm `m`. Bits beyond
    /// `2^num_vars` (only possible in the single word of a `< 6`-var
    /// table) are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words for in-crate word kernels,
    /// which must keep the bits beyond `2^num_vars` clear.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Builds a table directly from packed words (the inverse of
    /// [`TruthTable::words`]). Bits beyond `2^num_vars` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS` or `words.len() != word_len(num_vars)`.
    pub fn from_words(num_vars: usize, mut words: Vec<u64>) -> Self {
        assert!(num_vars <= MAX_VARS, "too many variables: {num_vars}");
        assert_eq!(
            words.len(),
            word_len(num_vars),
            "word count mismatch for {num_vars} vars"
        );
        *words.last_mut().expect("at least one word") &= tail_mask(num_vars);
        TruthTable { num_vars, words }
    }

    /// Number of minterms (`2^num_vars`).
    pub fn num_minterms(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// Value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn value(&self, m: u64) -> bool {
        assert!(m < self.num_minterms(), "minterm {m} out of range");
        (self.words[(m >> 6) as usize] >> (m & 63)) & 1 == 1
    }

    /// Sets the value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn set(&mut self, m: u64, value: bool) {
        assert!(m < self.num_minterms(), "minterm {m} out of range");
        let w = &mut self.words[(m >> 6) as usize];
        if value {
            *w |= 1u64 << (m & 63);
        } else {
            *w &= !(1u64 << (m & 63));
        }
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// True if the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if the function is constant true (a tautology).
    pub fn is_ones(&self) -> bool {
        let n = self.words.len();
        self.words[..n - 1].iter().all(|&w| w == u64::MAX)
            && self.words[n - 1] == tail_mask(self.num_vars)
    }

    /// Iterator over the minterms on which the function is true.
    pub fn minterms(&self) -> Minterms<'_> {
        Minterms { tt: self, next: 0 }
    }

    /// Logical NOT.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        *out.words.last_mut().expect("at least one word") &= tail_mask(self.num_vars);
        out
    }

    fn binop(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.num_vars, other.num_vars,
            "truth table arity mismatch: {} vs {}",
            self.num_vars, other.num_vars
        );
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut out = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        *out.words.last_mut().expect("at least one word") &= tail_mask(self.num_vars);
        out
    }

    /// Logical AND.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different arities (also for the other
    /// binary operations below).
    pub fn and(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a & b)
    }

    /// Logical OR.
    pub fn or(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a | b)
    }

    /// Logical XOR.
    pub fn xor(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a ^ b)
    }

    /// `self AND NOT other` (set difference of ON-sets).
    pub fn and_not(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a & !b)
    }

    /// True if the ON-set of `self` is contained in the ON-set of `other`.
    pub fn implies(&self, other: &Self) -> bool {
        self.and_not(other).is_zero()
    }

    /// The Boolean dual `f^D(x) = ¬f(¬x)`.
    ///
    /// The dual exchanges AND/OR in any expression for `f`; it is the
    /// function whose products index the rows of a four-terminal lattice in
    /// the Altun–Riedel construction (paper, Fig. 5).
    ///
    /// Computed directly on the packed words: `m ↦ m ^ all` reverses the
    /// minterm order, so the dual is the complement of the bit-reversed
    /// table — `O(words)` instead of a per-minterm scan.
    ///
    /// ```
    /// use nanoxbar_logic::TruthTable;
    /// let f = TruthTable::from_fn(2, |m| m == 0b11); // x0 AND x1
    /// let d = f.dual();                              // x0 OR x1
    /// assert_eq!(d.count_ones(), 3);
    /// assert_eq!(d.dual(), f); // dual is an involution
    /// ```
    pub fn dual(&self) -> Self {
        let n = self.num_vars;
        let words = if n >= 6 {
            // 2^n is a multiple of 64: reverse the word order and the bits
            // within each word, then complement.
            self.words
                .iter()
                .rev()
                .map(|&w| !w.reverse_bits())
                .collect()
        } else {
            // Single word, low 2^n bits valid: reverse within 64 bits,
            // shift the table back down, complement (tail masked below).
            let width = 1u32 << n;
            vec![!(self.words[0].reverse_bits() >> (64 - width))]
        };
        Self::from_words(n, words)
    }

    /// Cofactor with variable `var` fixed to `value`; the result still has
    /// the same arity (the fixed variable becomes irrelevant).
    ///
    /// Computed on the packed words: variables `x0..x5` duplicate one
    /// in-word half over the other with a shift and mask, variables `x6+`
    /// copy whole words between block halves.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.num_vars, "variable {var} out of range");
        let mut words = self.words.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let hi_mask = LOW_VAR_WORDS[var];
            for w in &mut words {
                if value {
                    let hi = *w & hi_mask;
                    *w = hi | (hi >> shift);
                } else {
                    let lo = *w & !hi_mask;
                    *w = lo | (lo << shift);
                }
            }
        } else {
            let stride = 1usize << (var - 6);
            for block in words.chunks_mut(2 * stride) {
                let (lo, hi) = block.split_at_mut(stride);
                if value {
                    lo.copy_from_slice(hi);
                } else {
                    hi.copy_from_slice(lo);
                }
            }
        }
        Self::from_words(self.num_vars, words)
    }

    /// True if the function does not depend on variable `var`.
    pub fn is_independent_of(&self, var: usize) -> bool {
        self.cofactor(var, false) == self.cofactor(var, true)
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars)
            .filter(|&v| !self.is_independent_of(v))
            .collect()
    }

    /// Existential quantification over `var`: `f|var=0 OR f|var=1`.
    pub fn exists(&self, var: usize) -> Self {
        self.cofactor(var, false).or(&self.cofactor(var, true))
    }

    /// Universal quantification over `var`: `f|var=0 AND f|var=1`.
    pub fn forall(&self, var: usize) -> Self {
        self.cofactor(var, false).and(&self.cofactor(var, true))
    }

    /// Removes variable `var` from the encoding, producing a table of arity
    /// `num_vars - 1`. Variables above `var` shift down by one.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::DependentVariable`] if the function depends on
    /// `var`.
    pub fn drop_var(&self, var: usize) -> Result<Self, LogicError> {
        if !self.is_independent_of(var) {
            return Err(LogicError::DependentVariable { var });
        }
        // Rotate `var` to the top with adjacent swaps (the variables above
        // it shift down one place), then keep the half where it is 0.
        let top = self.num_vars - 1;
        let mut t = self.clone();
        for v in var..top {
            t = t.swap_vars(v, v + 1);
        }
        t.words.truncate(word_len(top));
        Ok(Self::from_words(top, t.words))
    }

    /// Adds `extra` fresh (irrelevant) variables above the current ones:
    /// the table is repeated, first inside the word, then word by word.
    pub fn extend_vars(&self, extra: usize) -> Self {
        let num_vars = self.num_vars + extra;
        assert!(num_vars <= MAX_VARS, "too many variables");
        let mut words = self.words.clone();
        for k in self.num_vars..num_vars.min(6) {
            words[0] |= words[0] << (1u32 << k);
        }
        let len = word_len(num_vars);
        while words.len() < len {
            words.extend_from_within(..);
        }
        Self::from_words(num_vars, words)
    }

    /// Exchanges the roles of variables `a` and `b` (a transposition of the
    /// variable order), computed with word-level delta swaps:
    ///
    /// * both variables in-word (`< 6`) — one masked delta swap per word;
    /// * one in-word, one word-selecting — a shifted exchange between the
    ///   two words of every `b`-block pair;
    /// * both word-selecting (`≥ 6`) — whole-word swaps.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is `>= num_vars`.
    pub fn swap_vars(&self, a: usize, b: usize) -> Self {
        assert!(
            a < self.num_vars && b < self.num_vars,
            "swap ({a},{b}) out of range for {} vars",
            self.num_vars
        );
        let (a, b) = (a.min(b), a.max(b));
        if a == b {
            return self.clone();
        }
        let mut words = self.words.clone();
        if b < 6 {
            // In-word: positions with x_a=1, x_b=0 trade with the position
            // `d` higher (x_a=0, x_b=1).
            let d = (1u32 << b) - (1u32 << a);
            let sel = LOW_VAR_WORDS[a] & !LOW_VAR_WORDS[b];
            for w in &mut words {
                let x = (*w ^ (*w >> d)) & sel;
                *w ^= x ^ (x << d);
            }
        } else if a < 6 {
            // Across word pairs selected by bit b-6, shifted by 2^a: the
            // x_a=1 half of the low word trades with the x_a=0 half of the
            // high word.
            let shift = 1u32 << a;
            let a_mask = LOW_VAR_WORDS[a];
            let stride = 1usize << (b - 6);
            for block in words.chunks_mut(2 * stride) {
                let (lo_half, hi_half) = block.split_at_mut(stride);
                for (lo, hi) in lo_half.iter_mut().zip(hi_half) {
                    let new_lo = (*lo & !a_mask) | ((*hi & !a_mask) << shift);
                    let new_hi = (*hi & a_mask) | ((*lo & a_mask) >> shift);
                    *lo = new_lo;
                    *hi = new_hi;
                }
            }
        } else {
            // Whole-word swaps between indices differing in bits a-6/b-6.
            let (sa, sb) = (1usize << (a - 6), 1usize << (b - 6));
            for i in 0..words.len() {
                if i & sa != 0 && i & sb == 0 {
                    words.swap(i, i + sb - sa);
                }
            }
        }
        Self::from_words(self.num_vars, words)
    }

    /// Applies a variable permutation: output variable `i` takes the role of
    /// input variable `perm[i]`.
    ///
    /// Decomposed into at most `num_vars - 1` word-level
    /// [`TruthTable::swap_vars`] transpositions instead of a per-minterm
    /// rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    pub fn permute_vars(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.num_vars, "permutation arity mismatch");
        let mut seen = vec![false; self.num_vars];
        for &p in perm {
            assert!(p < self.num_vars && !seen[p], "not a permutation");
            seen[p] = true;
        }
        // Selection "sort" by transpositions: after step i, position i
        // holds original variable perm[i].
        let mut out = self.clone();
        let mut current: Vec<usize> = (0..self.num_vars).collect();
        for (i, &target) in perm.iter().enumerate() {
            let j = current
                .iter()
                .position(|&v| v == target)
                .expect("perm verified above");
            if j != i {
                out = out.swap_vars(i, j);
                current.swap(i, j);
            }
        }
        out
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars; ", self.num_vars)?;
        if self.num_vars <= 6 {
            for m in (0..self.num_minterms()).rev() {
                write!(f, "{}", self.value(m) as u8)?;
            }
        } else {
            write!(f, "{} ON minterms", self.count_ones())?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over ON-set minterms, produced by [`TruthTable::minterms`].
#[derive(Debug)]
pub struct Minterms<'a> {
    tt: &'a TruthTable,
    next: u64,
}

impl Iterator for Minterms<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.next < self.tt.num_minterms() {
            let m = self.next;
            self.next += 1;
            if self.tt.value(m) {
                return Some(m);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        for n in 0..8 {
            let z = TruthTable::zeros(n);
            let o = TruthTable::ones(n);
            assert!(z.is_zero());
            assert!(o.is_ones());
            assert_eq!(z.count_ones(), 0);
            assert_eq!(o.count_ones(), 1 << n);
            assert_eq!(z.not(), o);
        }
    }

    #[test]
    fn variable_tables() {
        let x1 = TruthTable::variable(3, 1);
        for m in 0..8 {
            assert_eq!(x1.value(m), (m >> 1) & 1 == 1);
        }
        assert_eq!(x1.count_ones(), 4);
    }

    #[test]
    fn from_minterms_checks_range() {
        assert!(TruthTable::from_minterms(2, &[0, 3]).is_ok());
        let err = TruthTable::from_minterms(2, &[4]).unwrap_err();
        assert!(matches!(
            err,
            LogicError::MintermOutOfRange {
                minterm: 4,
                num_vars: 2
            }
        ));
    }

    #[test]
    fn boolean_algebra_laws() {
        let a = TruthTable::from_fn(4, |m| m % 3 == 0);
        let b = TruthTable::from_fn(4, |m| m % 5 == 0);
        // De Morgan
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
        // XOR definition
        assert_eq!(a.xor(&b), a.and_not(&b).or(&b.and_not(&a)));
        // Implication via difference
        assert!(a.and(&b).implies(&a));
        assert!(a.implies(&a.or(&b)));
    }

    #[test]
    fn dual_involution_and_demorgan() {
        // dual(f AND g) = dual(f) OR dual(g)
        let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let g = TruthTable::from_fn(3, |m| m & 1 == 1);
        assert_eq!(f.dual().dual(), f);
        assert_eq!(f.and(&g).dual(), f.dual().or(&g.dual()));
        assert_eq!(f.or(&g).dual(), f.dual().and(&g.dual()));
    }

    #[test]
    fn dual_of_paper_example() {
        // f = x1 x2 + !x1 !x2 (XNOR, paper Sec. III-A) => dual = XOR.
        let f = TruthTable::from_fn(2, |m| m == 0b11 || m == 0b00);
        let d = f.dual();
        assert_eq!(d, TruthTable::from_fn(2, |m| m == 0b01 || m == 0b10));
    }

    #[test]
    fn cofactors_and_shannon_expansion() {
        let f = TruthTable::from_fn(4, |m| (m * 7) % 16 > 7);
        for v in 0..4 {
            let f0 = f.cofactor(v, false);
            let f1 = f.cofactor(v, true);
            let x = TruthTable::variable(4, v);
            let shannon = x.and(&f1).or(&x.not().and(&f0));
            assert_eq!(shannon, f);
        }
    }

    #[test]
    fn support_and_drop_var() {
        // Function depends only on variables 0 and 2.
        let f = TruthTable::from_fn(3, |m| (m & 1 == 1) && (m >> 2) & 1 == 1);
        assert_eq!(f.support(), vec![0, 2]);
        assert!(f.is_independent_of(1));
        let g = f.drop_var(1).unwrap();
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g, TruthTable::from_fn(2, |m| m == 0b11));
        assert!(f.drop_var(0).is_err());
    }

    #[test]
    fn quantification() {
        let f = TruthTable::from_fn(3, |m| m == 0b101 || m == 0b001);
        // exists x2: true whenever some value of x2 makes f true
        let e = f.exists(2);
        assert!(e.value(0b001) && e.value(0b101));
        let a = f.forall(2);
        assert!(a.value(0b001));
        assert!(!a.value(0b011));
    }

    #[test]
    fn extend_and_permute() {
        let f = TruthTable::from_fn(2, |m| m == 0b01); // x0 AND !x1
        let g = f.extend_vars(1);
        assert_eq!(g.num_vars(), 3);
        assert!(g.value(0b101) && g.value(0b001));
        let swapped = f.permute_vars(&[1, 0]);
        assert_eq!(swapped, TruthTable::from_fn(2, |m| m == 0b10));
    }

    #[test]
    fn minterm_iterator_roundtrip() {
        let f = TruthTable::from_fn(5, |m| m % 7 == 0);
        let ms: Vec<u64> = f.minterms().collect();
        let back = TruthTable::from_minterms(5, &ms).unwrap();
        assert_eq!(back, f);
        assert_eq!(ms.len() as u64, f.count_ones());
    }

    #[test]
    fn words_roundtrip_and_layout() {
        for n in [0usize, 2, 5, 6, 7, 9] {
            let f = TruthTable::from_fn(n, |m| m.wrapping_mul(0x9E3779B9) & 4 != 0);
            assert_eq!(f.words().len(), word_len(n));
            let back = TruthTable::from_words(n, f.words().to_vec());
            assert_eq!(back, f);
            // Bit m&63 of word m>>6 is the value on minterm m.
            for m in 0..f.num_minterms() {
                let bit = (f.words()[(m >> 6) as usize] >> (m & 63)) & 1 == 1;
                assert_eq!(bit, f.value(m));
            }
        }
    }

    #[test]
    fn from_words_masks_tail() {
        let t = TruthTable::from_words(2, vec![u64::MAX]);
        assert_eq!(t, TruthTable::ones(2));
        assert_eq!(t.count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_checks_length() {
        let _ = TruthTable::from_words(7, vec![0; 1]);
    }

    #[test]
    fn variable_word_matches_variable_tables() {
        for n in [3usize, 6, 8, 9] {
            for v in 0..n {
                let table = reference::variable(n, v);
                assert_eq!(TruthTable::variable(n, v), table, "n={n} v={v}");
                for (w, &word) in table.words().iter().enumerate() {
                    assert_eq!(
                        word,
                        variable_word(v, w) & tail_mask(n),
                        "n={n} v={v} w={w}"
                    );
                }
            }
        }
    }

    /// The pre-word-parallel reference implementations (per-minterm
    /// `from_fn` scans) the word-level versions are proved against.
    mod reference {
        use super::*;

        pub fn dual(t: &TruthTable) -> TruthTable {
            let all = t.num_minterms() - 1;
            TruthTable::from_fn(t.num_vars(), |m| !t.value(m ^ all))
        }

        pub fn cofactor(t: &TruthTable, var: usize, value: bool) -> TruthTable {
            let bit = 1u64 << var;
            TruthTable::from_fn(t.num_vars(), |m| {
                let m = if value { m | bit } else { m & !bit };
                t.value(m)
            })
        }

        pub fn variable(num_vars: usize, var: usize) -> TruthTable {
            TruthTable::from_fn(num_vars, |m| (m >> var) & 1 == 1)
        }

        pub fn drop_var(t: &TruthTable, var: usize) -> TruthTable {
            let low_mask = (1u64 << var) - 1;
            TruthTable::from_fn(t.num_vars() - 1, |m| {
                t.value((m & low_mask) | ((m & !low_mask) << 1))
            })
        }

        pub fn extend_vars(t: &TruthTable, extra: usize) -> TruthTable {
            let mask = t.num_minterms() - 1;
            TruthTable::from_fn(t.num_vars() + extra, |m| t.value(m & mask))
        }

        pub fn permute_vars(t: &TruthTable, perm: &[usize]) -> TruthTable {
            TruthTable::from_fn(t.num_vars(), |m| {
                let mut orig = 0u64;
                for (i, &p) in perm.iter().enumerate() {
                    if (m >> i) & 1 == 1 {
                        orig |= 1 << p;
                    }
                }
                t.value(orig)
            })
        }
    }

    /// Structured-random tables crossing the one-word boundary.
    fn sample_tables(n: usize) -> Vec<TruthTable> {
        let mut state = 0x5EED_0000u64 + n as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..8)
            .map(|_| {
                let mut t = TruthTable::zeros(n);
                for w in 0..word_len(n) {
                    let r = next();
                    t.words[w] = r;
                }
                *t.words.last_mut().unwrap() &= tail_mask(n);
                t
            })
            .collect()
    }

    #[test]
    fn word_dual_matches_reference() {
        for n in [0usize, 1, 3, 5, 6, 7, 9] {
            for t in sample_tables(n) {
                assert_eq!(t.dual(), reference::dual(&t), "n={n} {t:?}");
            }
        }
    }

    #[test]
    fn word_cofactor_matches_reference() {
        for n in [1usize, 3, 5, 6, 7, 9] {
            for t in sample_tables(n) {
                for var in 0..n {
                    for value in [false, true] {
                        assert_eq!(
                            t.cofactor(var, value),
                            reference::cofactor(&t, var, value),
                            "n={n} var={var} value={value}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_swap_and_permute_match_reference() {
        for n in [2usize, 5, 6, 7, 9] {
            for t in sample_tables(n) {
                // Every transposition, as both swap_vars and permute_vars.
                for a in 0..n {
                    for b in 0..n {
                        let mut perm: Vec<usize> = (0..n).collect();
                        perm.swap(a, b);
                        let expect = reference::permute_vars(&t, &perm);
                        assert_eq!(t.swap_vars(a, b), expect, "n={n} swap({a},{b})");
                        assert_eq!(t.permute_vars(&perm), expect, "n={n} perm swap({a},{b})");
                    }
                }
                // A full rotation exercises the decomposition.
                let rotation: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
                assert_eq!(
                    t.permute_vars(&rotation),
                    reference::permute_vars(&t, &rotation),
                    "n={n} rotation"
                );
            }
        }
    }

    #[test]
    fn word_extend_and_drop_match_reference() {
        for n in [0usize, 1, 3, 5, 6, 7, 9] {
            for t in sample_tables(n) {
                for extra in [0usize, 1, 2, 4, 7] {
                    let wide = t.extend_vars(extra);
                    assert_eq!(wide, reference::extend_vars(&t, extra), "n={n} +{extra}");
                    // Every added variable is irrelevant and drops back out.
                    for var in n..n + extra {
                        assert_eq!(
                            wide.drop_var(var).unwrap(),
                            reference::drop_var(&wide, var),
                            "n={n} +{extra} drop x{var}"
                        );
                    }
                }
                // Dropping an irrelevant variable from the middle.
                for var in 0..n {
                    let free = t.cofactor(var, false);
                    assert_eq!(
                        free.drop_var(var).unwrap(),
                        reference::drop_var(&free, var),
                        "n={n} drop x{var}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_arity_tables() {
        let t = TruthTable::ones(0);
        assert!(t.value(0));
        assert_eq!(t.num_minterms(), 1);
        // dual(1) = ¬1 = 0
        assert!(t.dual().is_zero());
    }
}
