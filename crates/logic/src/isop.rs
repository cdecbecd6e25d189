//! Irredundant sum-of-products generation (Minato–Morreale ISOP).
//!
//! [`isop`] computes a prime, irredundant SOP cover of any function between
//! a lower bound `L` and an upper bound `U` (for a completely specified
//! function use `L = U = f`). This is the cover used for both the
//! two-terminal size formulas of the paper's Fig. 3 and the Altun–Riedel
//! lattice construction of Fig. 5, where `f` *and its dual* must both be in
//! irredundant SOP form.
//!
//! The recursion always splits on the highest variable the interval
//! depends on, so both cofactors fit in the lower half of the table and
//! never mention that variable again: every level halves the table. A
//! sub-problem over at most six variables is one `u64`, replicated across
//! the word so that a cofactor is a mask and a shift; a wider one is a
//! slice of words whose two halves are the cofactors. Each call returns
//! the function of the cubes it emitted alongside them, which is all the
//! parent needs to form the remainder, so no sub-cover is re-evaluated
//! minterm by minterm. [`isop_scalar`] keeps the full-width per-minterm
//! formulation as the reference the word kernel is tested against.

use crate::cover::Cover;
use crate::cube::Cube;

use crate::truth_table::{variable_word, TruthTable};

/// Computes an irredundant SOP cover `C` with `L ⊆ C ⊆ U`.
///
/// The recursion is the classic Minato–Morreale procedure on cofactors: the
/// chosen branch variable splits the interval, the parts that *must* carry a
/// literal are synthesised first, and the remainder is covered without the
/// branch variable.
///
/// # Panics
///
/// Panics if `L` and `U` have different arities or `L ⊄ U`.
///
/// # Examples
///
/// ```
/// use nanoxbar_logic::{isop, parse_function};
///
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let cover = isop(&f, &f);
/// assert_eq!(cover.product_count(), 2);
/// assert!(cover.computes(&f));
/// # Ok::<(), nanoxbar_logic::LogicError>(())
/// ```
pub fn isop(lower: &TruthTable, upper: &TruthTable) -> Cover {
    check_interval(lower, upper);
    let num_vars = lower.num_vars();
    let mut cubes = Vec::new();
    if num_vars <= 6 {
        let spread = |t: &TruthTable| {
            let mut w = t.words()[0];
            for k in num_vars..6 {
                w |= w << (1u32 << k);
            }
            w
        };
        isop_word(spread(lower), spread(upper), num_vars, &mut cubes);
    } else {
        isop_words(lower.words(), upper.words(), num_vars, &mut cubes);
    }
    Cover::from_cubes(num_vars, cubes).expect("cubes constructed with cover arity")
}

/// Computes the ISOP cover of a completely specified function.
///
/// ```
/// use nanoxbar_logic::{isop_cover, parse_function};
/// let parity = parse_function("x0 ^ x1 ^ x2")?;
/// assert_eq!(isop_cover(&parity).product_count(), 4);
/// # Ok::<(), nanoxbar_logic::LogicError>(())
/// ```
pub fn isop_cover(f: &TruthTable) -> Cover {
    isop(f, f)
}

fn check_interval(lower: &TruthTable, upper: &TruthTable) {
    assert_eq!(
        lower.num_vars(),
        upper.num_vars(),
        "interval arity mismatch"
    );
    assert!(
        lower.implies(upper),
        "invalid interval: L not contained in U"
    );
}

/// Adds the branch literal to the cubes a sub-call emitted.
fn attach(cubes: &mut [Cube], var: usize, positive: bool) {
    for c in cubes {
        *c = if positive {
            c.with_positive(var)
        } else {
            c.with_negative(var)
        };
    }
}

/// The six-variable kernel. `lower`/`upper` are functions of `x0..x5`
/// that do not depend on the variables the caller already branched on;
/// emits the cover's cubes into `out` and returns their function.
fn isop_word(lower: u64, upper: u64, num_vars: usize, out: &mut Vec<Cube>) -> u64 {
    if lower == 0 {
        return 0;
    }
    if upper == u64::MAX {
        out.push(Cube::universe(num_vars));
        return u64::MAX;
    }
    // x_v = 1 positions shifted onto their x_v = 0 partners.
    let depends = |w: u64, v: usize| ((w >> (1u32 << v)) ^ w) & !variable_word(v, 0) != 0;
    let var = (0..6)
        .rev()
        .find(|&v| depends(upper, v) || depends(lower, v))
        .expect("non-constant interval must have a support variable");
    let x = variable_word(var, 0);
    let shift = 1u32 << var;
    let cof0 = |w: u64| (w & !x) | ((w & !x) << shift);
    let cof1 = |w: u64| (w & x) | ((w & x) >> shift);
    let (l0, l1, u0, u1) = (cof0(lower), cof1(lower), cof0(upper), cof1(upper));

    let start = out.len();
    let f0 = isop_word(l0 & !u1, u0, num_vars, out);
    let mid = out.len();
    let f1 = isop_word(l1 & !u0, u1, num_vars, out);
    let end = out.len();
    attach(&mut out[start..mid], var, false);
    attach(&mut out[mid..end], var, true);
    let rest = isop_word((l0 & !f0) | (l1 & !f1), u0 & u1, num_vars, out);
    (f0 & !x) | (f1 & x) | rest
}

/// The multi-word kernel: `lower`/`upper` are tables of equal length
/// (a power of two, at least one word). Returns the cover's function over
/// the same words.
fn isop_words(lower: &[u64], upper: &[u64], num_vars: usize, out: &mut Vec<Cube>) -> Vec<u64> {
    let len = lower.len();
    if lower.iter().all(|&w| w == 0) {
        return vec![0; len];
    }
    if upper.iter().all(|&w| w == u64::MAX) {
        out.push(Cube::universe(num_vars));
        return vec![u64::MAX; len];
    }
    // Drop the word-selecting variables the interval ignores: equal halves.
    let mut n = len;
    while n > 1 && lower[..n / 2] == lower[n / 2..n] && upper[..n / 2] == upper[n / 2..n] {
        n /= 2;
    }
    let mut f = if n == 1 {
        vec![isop_word(lower[0], upper[0], num_vars, out)]
    } else {
        let half = n / 2;
        let var = 6 + half.trailing_zeros() as usize;
        let (l0, l1) = lower[..n].split_at(half);
        let (u0, u1) = upper[..n].split_at(half);
        let and_not =
            |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(&a, &b)| a & !b).collect() };

        let start = out.len();
        let f0 = isop_words(&and_not(l0, u1), u0, num_vars, out);
        let mid = out.len();
        let f1 = isop_words(&and_not(l1, u0), u1, num_vars, out);
        let end = out.len();
        attach(&mut out[start..mid], var, false);
        attach(&mut out[mid..end], var, true);
        let rest_lower: Vec<u64> = (0..half)
            .map(|i| (l0[i] & !f0[i]) | (l1[i] & !f1[i]))
            .collect();
        let rest_upper: Vec<u64> = u0.iter().zip(u1).map(|(&a, &b)| a & b).collect();
        let rest = isop_words(&rest_lower, &rest_upper, num_vars, out);
        let low = f0.iter().zip(&rest).map(|(&a, &r)| a | r);
        let high = f1.iter().zip(&rest).map(|(&a, &r)| a | r);
        low.chain(high).collect()
    };
    while f.len() < len {
        f.extend_from_within(..);
    }
    f
}

/// Per-minterm reference for [`isop`]: the same recursion on full-width
/// tables, rebuilding each sub-cover's function from its cubes one
/// minterm at a time. Returns the same cubes in the same order; kept as
/// the oracle the word kernel is tested against.
///
/// # Panics
///
/// As for [`isop`].
pub fn isop_scalar(lower: &TruthTable, upper: &TruthTable) -> Cover {
    check_interval(lower, upper);
    let num_vars = lower.num_vars();
    let cubes = isop_rec_scalar(lower, upper, num_vars);
    Cover::from_cubes(num_vars, cubes).expect("cubes constructed with cover arity")
}

/// Recursive worker of [`isop_scalar`]: returns cubes covering at least
/// `lower` and at most `upper`. The returned cubes constrain only
/// variables in the interval's support, so coverage checks at the caller
/// are exact.
fn isop_rec_scalar(lower: &TruthTable, upper: &TruthTable, num_vars: usize) -> Vec<Cube> {
    if lower.is_zero() {
        return Vec::new();
    }
    if upper.is_ones() {
        return vec![Cube::universe(num_vars)];
    }
    // Branch on the highest variable that still matters for the interval.
    let var = (0..num_vars)
        .rev()
        .find(|&v| !upper.is_independent_of(v) || !lower.is_independent_of(v))
        .expect("non-constant interval must have a support variable");

    let l0 = lower.cofactor(var, false);
    let l1 = lower.cofactor(var, true);
    let u0 = upper.cofactor(var, false);
    let u1 = upper.cofactor(var, true);

    // Minterms that can only be covered with the literal !x (resp. x).
    let need0 = l0.and_not(&u1);
    let need1 = l1.and_not(&u0);

    let c0 = isop_rec_scalar(&need0, &u0, num_vars);
    let c1 = isop_rec_scalar(&need1, &u1, num_vars);

    // What the sub-covers achieve *before* the branch literal is attached
    // (their cubes never constrain `var` or outer variables).
    let tt_of = |cubes: &[Cube]| {
        TruthTable::from_fn(num_vars, |m| cubes.iter().any(|c| c.contains_minterm(m)))
    };
    let covered0 = tt_of(&c0);
    let covered1 = tt_of(&c1);

    let rest_lower = l0.and_not(&covered0).or(&l1.and_not(&covered1));
    let rest_upper = u0.and(&u1);
    let rest = isop_rec_scalar(&rest_lower, &rest_upper, num_vars);

    let mut out = Vec::with_capacity(c0.len() + c1.len() + rest.len());
    out.extend(c0.into_iter().map(|c| c.with_negative(var)));
    out.extend(c1.into_iter().map(|c| c.with_positive(var)));
    out.extend(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth_table::TruthTable;

    /// Checks the three defining ISOP properties: covers the interval, every
    /// cube is an implicant of `upper`, and no cube is redundant.
    fn check_isop(lower: &TruthTable, upper: &TruthTable) -> Cover {
        let cover = isop(lower, upper);
        let tt = cover.to_truth_table();
        assert!(lower.implies(&tt), "cover misses required minterms");
        assert!(tt.implies(upper), "cover exceeds upper bound");
        for (i, c) in cover.cubes().iter().enumerate() {
            assert!(
                c.to_truth_table().implies(upper),
                "cube {i} ({c}) is not an implicant"
            );
            // Irredundancy: dropping any cube must lose a required minterm.
            let rest = TruthTable::from_fn(lower.num_vars(), |m| {
                cover
                    .cubes()
                    .iter()
                    .enumerate()
                    .any(|(j, cj)| j != i && cj.contains_minterm(m))
            });
            assert!(
                !lower.implies(&rest),
                "cube {i} ({c}) is redundant in {cover}"
            );
        }
        assert_eq!(cover, isop_scalar(lower, upper), "word kernel drifted");
        cover
    }

    #[test]
    fn constants() {
        let z = TruthTable::zeros(3);
        let o = TruthTable::ones(3);
        assert_eq!(isop_cover(&z).product_count(), 0);
        let one = isop_cover(&o);
        assert_eq!(one.product_count(), 1);
        assert!(one.has_universe_cube());
        for n in [0usize, 6, 8] {
            assert_eq!(isop_cover(&TruthTable::ones(n)), Cover::one(n));
            assert_eq!(isop_cover(&TruthTable::zeros(n)), Cover::zero(n));
        }
    }

    #[test]
    fn single_cube_functions_yield_one_product() {
        let f = crate::expr::parse_function("x0 !x2").unwrap();
        let cover = check_isop(&f, &f);
        assert_eq!(cover.product_count(), 1);
        assert_eq!(cover.cubes()[0].literal_count(), 2);
    }

    #[test]
    fn xnor_yields_two_products() {
        let f = crate::expr::parse_function("x0 x1 + !x0 !x1").unwrap();
        let cover = check_isop(&f, &f);
        assert_eq!(cover.product_count(), 2);
    }

    #[test]
    fn parity_yields_exponential_cover() {
        // Parity has no prime implicants larger than minterms: 2^(n-1) products.
        for n in 2..=8 {
            let f = TruthTable::from_fn(n, |m| m.count_ones() % 2 == 1);
            let cover = check_isop(&f, &f);
            assert_eq!(cover.product_count(), 1 << (n - 1));
        }
    }

    #[test]
    fn covers_are_exact_for_specified_functions() {
        // Deterministic pseudo-random sweep across the one-word boundary.
        let mut state = 0x243F6A8885A308D3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for n in 1..=9 {
            for _ in 0..if n <= 6 { 40 } else { 6 } {
                let words = (0..crate::word_len(n)).map(|_| next()).collect();
                let f = TruthTable::from_words(n, words);
                let cover = check_isop(&f, &f);
                assert!(cover.computes(&f));
            }
        }
    }

    #[test]
    fn interval_with_dont_cares_shrinks_cover() {
        // ON = {3}, DC = {1, 2}: a single-literal cube suffices.
        let lower = TruthTable::from_minterms(2, &[3]).unwrap();
        let upper = TruthTable::from_minterms(2, &[1, 2, 3]).unwrap();
        let cover = check_isop(&lower, &upper);
        assert_eq!(cover.product_count(), 1);
        assert!(cover.cubes()[0].literal_count() <= 1);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn invalid_interval_panics() {
        let lower = TruthTable::ones(2);
        let upper = TruthTable::zeros(2);
        let _ = isop(&lower, &upper);
    }

    #[test]
    fn isop_cubes_are_primes() {
        // Every cube of an ISOP of a completely specified function must be a
        // prime implicant: expanding any literal leaves the ON-set.
        let f = crate::expr::parse_function("x0 x1 + x1 x2 + !x0 !x2").unwrap();
        let cover = check_isop(&f, &f);
        for c in cover.cubes() {
            for lit in c.literals() {
                let bigger = c.without_var(lit.var());
                assert!(
                    !bigger.to_truth_table().implies(&f),
                    "cube {c} is not prime (can drop {lit})"
                );
            }
        }
    }
}
