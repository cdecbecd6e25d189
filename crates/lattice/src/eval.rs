//! Lattice evaluation: percolation across the grid.
//!
//! * Top→bottom with 4-neighbour adjacency over ON sites — the function the
//!   lattice computes (paper Fig. 4).
//! * Left→right with 8-neighbour (king-move) adjacency over OFF sites — the
//!   planar-dual blocking paths. Evaluated on the *same* literals this
//!   yields exactly the Boolean dual `f^D`, the duality the Altun–Riedel
//!   construction (Fig. 5) is built on.
//!
//! The per-minterm functions here ([`eval_top_bottom`],
//! [`eval_left_right_king`], [`eval_dual`]) are the scalar BFS reference
//! implementations. Whole-table evaluation ([`lattice_function`],
//! [`lattice_dual_function`], [`Lattice::to_truth_table`],
//! [`Lattice::computes`]) runs on the word-parallel engine in
//! [`crate::biteval`], which processes 64 minterms per grid sweep.

use nanoxbar_logic::TruthTable;

use crate::biteval::BitEvaluator;
use crate::lattice::Lattice;

/// Evaluates the lattice top→bottom on minterm `m` (the computed function).
pub fn eval_top_bottom(lattice: &Lattice, m: u64) -> bool {
    let (rows, cols) = (lattice.rows(), lattice.cols());
    let on = |r: usize, c: usize| lattice.site(r, c).is_on(m);
    // BFS from every ON top-row site.
    let mut visited = vec![false; rows * cols];
    let mut queue: Vec<(usize, usize)> = (0..cols)
        .filter(|&c| on(0, c))
        .map(|c| (0usize, c))
        .collect();
    for &(r, c) in &queue {
        visited[r * cols + c] = true;
    }
    while let Some((r, c)) = queue.pop() {
        if r == rows - 1 {
            return true;
        }
        let mut push = |nr: usize, nc: usize, queue: &mut Vec<(usize, usize)>| {
            if !visited[nr * cols + nc] && on(nr, nc) {
                visited[nr * cols + nc] = true;
                queue.push((nr, nc));
            }
        };
        if r > 0 {
            push(r - 1, c, &mut queue);
        }
        if r + 1 < rows {
            push(r + 1, c, &mut queue);
        }
        if c > 0 {
            push(r, c - 1, &mut queue);
        }
        if c + 1 < cols {
            push(r, c + 1, &mut queue);
        }
    }
    false
}

/// Evaluates the lattice left→right on minterm `m` with 8-neighbour
/// adjacency over ON sites.
///
/// By planar duality, a lattice has **no** 4-connected top→bottom path of
/// ON sites exactly when it has an 8-connected left→right path of OFF
/// sites; [`eval_dual`] packages that into an evaluation of `f^D`.
pub fn eval_left_right_king(lattice: &Lattice, m: u64) -> bool {
    lr_king(lattice, |r, c| lattice.site(r, c).is_on(m))
}

/// Evaluates the Boolean dual `f^D` of the lattice's function on minterm
/// `m`, directly on the grid: `f^D(m) = ¬f(m̄)`, and by planar duality
/// `¬f(m̄)` holds exactly when an 8-connected left→right path of sites
/// that are OFF under `m̄` exists. (For a literal site "OFF under `m̄`"
/// equals "ON under `m`"; a constant site must be complemented.)
pub fn eval_dual(lattice: &Lattice, m: u64) -> bool {
    let mask = (1u64 << lattice.num_vars()) - 1;
    lr_king(lattice, |r, c| !lattice.site(r, c).is_on(m ^ mask))
}

/// Left→right 8-connected (king move) percolation over sites selected by
/// `on`. Generic over the site predicate so each caller's closure
/// inlines; the previous `&dyn Fn` signature forced an indirect call per
/// visited site.
fn lr_king<F: Fn(usize, usize) -> bool>(lattice: &Lattice, on: F) -> bool {
    let (rows, cols) = (lattice.rows(), lattice.cols());
    let mut visited = vec![false; rows * cols];
    let mut queue: Vec<(usize, usize)> = (0..rows)
        .filter(|&r| on(r, 0))
        .map(|r| (r, 0usize))
        .collect();
    for &(r, c) in &queue {
        visited[r * cols + c] = true;
    }
    while let Some((r, c)) = queue.pop() {
        if c == cols - 1 {
            return true;
        }
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                if nr < 0 || nc < 0 || nr >= rows as i64 || nc >= cols as i64 {
                    continue;
                }
                let (nr, nc) = (nr as usize, nc as usize);
                if !visited[nr * cols + nc] && on(nr, nc) {
                    visited[nr * cols + nc] = true;
                    queue.push((nr, nc));
                }
            }
        }
    }
    false
}

/// The function computed by the lattice (top→bottom percolation),
/// evaluated 64 minterms at a time by the word-parallel engine
/// ([`crate::BitEvaluator`]).
pub fn lattice_function(lattice: &Lattice) -> TruthTable {
    BitEvaluator::new().function(lattice)
}

/// The dual function of the lattice, evaluated via left→right king-move
/// percolation — equals `lattice_function(..).dual()` by planar duality.
/// Word-parallel, like [`lattice_function`].
pub fn lattice_dual_function(lattice: &Lattice) -> TruthTable {
    BitEvaluator::new().dual_function(lattice)
}

impl Lattice {
    /// True if the lattice computes exactly `f` (exhaustive check,
    /// word-parallel with early exit on the first mismatching 64-minterm
    /// word).
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn computes(&self, f: &TruthTable) -> bool {
        BitEvaluator::new().computes(self, f)
    }

    /// The truth table of the computed function (word-parallel).
    pub fn to_truth_table(&self) -> TruthTable {
        lattice_function(self)
    }
}

/// Checks the Altun–Riedel duality on a concrete lattice: the left→right
/// 8-connected function must equal the dual of the top→bottom function.
pub fn computes_dual_left_right(lattice: &Lattice) -> bool {
    lattice_dual_function(lattice) == lattice_function(lattice).dual()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Site;
    use nanoxbar_logic::{parse_function, Literal};

    fn lit(v: usize) -> Site {
        Site::Literal(Literal::positive(v))
    }

    fn nlit(v: usize) -> Site {
        Site::Literal(Literal::negative(v))
    }

    #[test]
    fn single_column_is_product() {
        let l = Lattice::from_rows(3, vec![vec![lit(0)], vec![lit(1)], vec![lit(2)]]).unwrap();
        let f = parse_function("x0 x1 x2").unwrap();
        assert!(l.computes(&f));
    }

    #[test]
    fn single_row_is_sum() {
        let l = Lattice::from_rows(3, vec![vec![lit(0), lit(1), lit(2)]]).unwrap();
        let f = parse_function("x0 + x1 + x2").unwrap();
        assert!(l.computes(&f));
    }

    #[test]
    fn paper_fig4_lattice() {
        // Fig. 4 renumbered to x0..x5: columns (x0,x1,x2) and (x3,x4,x5).
        let l = Lattice::from_rows(
            6,
            vec![
                vec![lit(0), lit(3)],
                vec![lit(1), lit(4)],
                vec![lit(2), lit(5)],
            ],
        )
        .unwrap();
        let f = parse_function("x0x1x2 + x0x1x4x5 + x1x2x3x4 + x3x4x5").unwrap();
        assert!(l.computes(&f));
        assert!(computes_dual_left_right(&l));
    }

    #[test]
    fn xnor_2x2_lattice() {
        // Paper Sec. III-B: f = x0x1 + !x0!x1 fits a 2x2 lattice.
        // Columns are products of f; shared literals with dual products.
        let l = Lattice::from_rows(2, vec![vec![lit(0), nlit(1)], vec![lit(1), nlit(0)]]).unwrap();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        assert!(l.computes(&f));
        assert!(computes_dual_left_right(&l));
    }

    #[test]
    fn constants_and_literals() {
        assert!(Lattice::constant(2, true).computes(&TruthTable::ones(2)));
        assert!(Lattice::constant(2, false).computes(&TruthTable::zeros(2)));
        let l = Lattice::from_rows(2, vec![vec![nlit(1)]]).unwrap();
        assert!(l.computes(&parse_function("!x1").unwrap()));
    }

    #[test]
    fn padding_preserves_function() {
        let l = Lattice::from_rows(3, vec![vec![lit(0), nlit(1)], vec![lit(2), lit(1)]]).unwrap();
        let f = l.to_truth_table();
        assert_eq!(l.pad_to_rows(4).to_truth_table(), f);
        assert_eq!(l.pad_to_cols(5).to_truth_table(), f);
        assert_eq!(l.pad_to_rows(5).pad_to_cols(4).to_truth_table(), f);
    }

    #[test]
    fn duality_holds_on_random_lattices() {
        // The planar-duality theorem must hold for *every* lattice, not just
        // synthesised ones.
        let mut state = 0x1BADB002u64;
        for _ in 0..40 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let rows = 1 + (state % 4) as usize;
            let cols = 1 + ((state >> 8) % 4) as usize;
            let n = 4;
            let mut grid = Vec::new();
            let mut s = state;
            for _ in 0..rows {
                let mut row = Vec::new();
                for _ in 0..cols {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let site = match s % 10 {
                        0 => Site::Const(false),
                        1 => Site::Const(true),
                        _ => Site::Literal(Literal::new(
                            ((s >> 16) % n as u64) as usize,
                            s & (1 << 32) != 0,
                        )),
                    };
                    row.push(site);
                }
                grid.push(row);
            }
            let l = Lattice::from_rows(n, grid).unwrap();
            assert!(
                computes_dual_left_right(&l),
                "duality failed for lattice\n{l}"
            );
        }
    }

    #[test]
    fn blocked_lattice_computes_zero() {
        let l = Lattice::from_rows(
            2,
            vec![vec![lit(0)], vec![Site::Const(false)], vec![lit(1)]],
        )
        .unwrap();
        assert!(l.to_truth_table().is_zero());
    }
}
