//! Dual-based lattice synthesis (Altun–Riedel; paper Fig. 5).
//!
//! Given irredundant SOP covers of `f` (products `P_1..P_C`) and of its dual
//! `f^D` (products `Q_1..Q_R`), build the R×C lattice whose site `(i, j)`
//! carries a literal shared by `P_j` and `Q_i`. The shared-literal lemma
//! (see [`nanoxbar_logic::check_shared_literal_lemma`]) guarantees such a
//! literal exists for every pair; the resulting lattice computes `f`
//! top→bottom and `f^D` left→right. Size is `P(f^D) × P(f)` — correct but,
//! as the paper stresses, *not necessarily optimal*.

use nanoxbar_logic::{dual_cover, isop_cover, Cover, TruthTable};

use crate::lattice::{Lattice, Site};
use crate::synth::SynthError;

/// Synthesises a lattice for `f` from explicit covers of `f` and `f^D`,
/// validating the covers.
///
/// # Errors
///
/// [`SynthError::ArityMismatch`] if the covers' arities differ,
/// [`SynthError::ConstantCover`] if either cover is constant (use
/// [`try_synthesize`] which handles constants), and
/// [`SynthError::NoSharedLiteral`] if some product pair shares no literal —
/// which means the covers are not a function/dual pair.
pub fn try_from_covers(f_cover: &Cover, d_cover: &Cover) -> Result<Lattice, SynthError> {
    if f_cover.num_vars() != d_cover.num_vars() {
        return Err(SynthError::ArityMismatch {
            f_vars: f_cover.num_vars(),
            dual_vars: d_cover.num_vars(),
        });
    }
    if f_cover.is_zero_cover()
        || f_cover.has_universe_cube()
        || d_cover.is_zero_cover()
        || d_cover.has_universe_cube()
    {
        return Err(SynthError::ConstantCover);
    }
    let num_vars = f_cover.num_vars();
    let grid = match nanoxbar_logic::shared_literal_grid(f_cover, d_cover) {
        Some(grid) => grid,
        None => {
            let (col, row) = nanoxbar_logic::check_shared_literal_lemma(f_cover, d_cover)
                .expect_err("grid construction failed, so the lemma must fail too");
            return Err(SynthError::NoSharedLiteral { row, col });
        }
    };
    let rows: Vec<Vec<Site>> = grid
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|cube| {
                    let lit = cube.literals()[0];
                    Site::Literal(lit)
                })
                .collect()
        })
        .collect();
    Ok(Lattice::from_rows(num_vars, rows).expect("grid is rectangular by construction"))
}

/// Fallible form of [`synthesize`]: ISOP covers of `f` and `f^D` feed
/// [`try_from_covers`]; constants yield 1×1 lattices.
///
/// # Errors
///
/// Never fails for covers produced by ISOP on a function/dual pair; the
/// `Result` exists so request-path callers need no panic boundary.
pub fn try_synthesize(f: &TruthTable) -> Result<Lattice, SynthError> {
    if f.is_zero() {
        return Ok(Lattice::constant(f.num_vars(), false));
    }
    if f.is_ones() {
        return Ok(Lattice::constant(f.num_vars(), true));
    }
    let f_cover = isop_cover(f);
    let d_cover = dual_cover(f);
    try_from_covers(&f_cover, &d_cover)
}

/// Synthesises a lattice for an arbitrary function: ISOP covers of `f` and
/// `f^D` feed [`try_from_covers`]; constants yield 1×1 lattices.
///
/// # Examples
///
/// ```
/// use nanoxbar_lattice::synth::dual_based::synthesize;
/// use nanoxbar_logic::parse_function;
///
/// // Paper Sec. III-B: f = x1x2 + x1'x2' gets a 2x2 lattice.
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let lattice = synthesize(&f);
/// assert_eq!((lattice.rows(), lattice.cols()), (2, 2));
/// assert!(lattice.computes(&f));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(f: &TruthTable) -> Lattice {
    try_synthesize(f).unwrap_or_else(|e| panic!("dual-based synthesis: {e}"))
}

/// The Fig. 5 size formula: `products(f^D) × products(f)` on ISOP covers.
pub fn size_formula(f: &TruthTable) -> (usize, usize) {
    if f.is_zero() || f.is_ones() {
        return (1, 1);
    }
    (dual_cover(f).product_count(), isop_cover(f).product_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::computes_dual_left_right;
    use nanoxbar_logic::parse_function;

    #[test]
    fn paper_xnor_is_2x2() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let l = synthesize(&f);
        assert_eq!((l.rows(), l.cols()), (2, 2));
        assert!(l.computes(&f));
        assert!(computes_dual_left_right(&l));
    }

    #[test]
    fn and_gate_is_column() {
        // f = x0 x1: P(f)=1, dual = x0 + x1 has P=2 → 2x1 lattice.
        let f = parse_function("x0 x1").unwrap();
        let l = synthesize(&f);
        assert_eq!((l.rows(), l.cols()), (2, 1));
        assert!(l.computes(&f));
    }

    #[test]
    fn or_gate_is_row() {
        let f = parse_function("x0 + x1").unwrap();
        let l = synthesize(&f);
        assert_eq!((l.rows(), l.cols()), (1, 2));
        assert!(l.computes(&f));
    }

    #[test]
    fn constants_are_1x1() {
        for n in 0..3 {
            assert_eq!(synthesize(&TruthTable::zeros(n)).area(), 1);
            assert_eq!(synthesize(&TruthTable::ones(n)).area(), 1);
        }
    }

    #[test]
    fn size_matches_formula() {
        for expr in [
            "x0 x1 + !x0 !x1",
            "x0 + x1 x2",
            "x0 ^ x1 ^ x2",
            "x0 x1 + x1 x2 + x0 x2",
        ] {
            let f = parse_function(expr).unwrap();
            let l = synthesize(&f);
            let (r, c) = size_formula(&f);
            assert_eq!((l.rows(), l.cols()), (r, c), "{expr}");
            assert!(l.computes(&f), "{expr}");
        }
    }

    #[test]
    fn random_functions_synthesise_correctly() {
        let mut state = 0xD1CEB00Cu64;
        for n in 2..=6 {
            for _ in 0..25 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let bits = state;
                let f = TruthTable::from_fn(n, |m| (bits >> (m % 64)) & 1 == 1);
                let l = synthesize(&f);
                assert!(l.computes(&f), "n={n}\n{l}");
                assert!(computes_dual_left_right(&l), "duality n={n}");
            }
        }
    }

    #[test]
    fn try_from_covers_reports_typed_errors() {
        use crate::synth::SynthError;
        use nanoxbar_logic::isop_cover;

        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let g3 = parse_function("x0 x1 x2").unwrap();
        assert_eq!(
            try_from_covers(&isop_cover(&f), &isop_cover(&g3)),
            Err(SynthError::ArityMismatch {
                f_vars: 2,
                dual_vars: 3
            })
        );
        assert_eq!(
            try_from_covers(&isop_cover(&TruthTable::zeros(2)), &isop_cover(&f)),
            Err(SynthError::ConstantCover)
        );
        // x0x1 and its own cover (not the dual): the pair (x0x1, x0x1) shares
        // literals, but covers of f and f (not f^D) can still violate the
        // lemma — e.g. x0 against !x0.
        let p = parse_function("x0").unwrap();
        let q = parse_function("!x0").unwrap();
        assert_eq!(
            try_from_covers(&isop_cover(&p), &isop_cover(&q)),
            Err(SynthError::NoSharedLiteral { row: 0, col: 0 })
        );
    }

    #[test]
    fn fig4_function_dual_based_size() {
        // The paper's Fig. 4 function admits a handcrafted 3x2 lattice; the
        // generic dual-based construction is valid but larger — exactly the
        // "not necessarily optimal" remark of Sec. III-B.
        let f = parse_function("x0x1x2 + x0x1x4x5 + x1x2x3x4 + x3x4x5").unwrap();
        let l = synthesize(&f);
        assert!(l.computes(&f));
        assert!(l.area() > 6);
    }
}
