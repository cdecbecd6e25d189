//! FET-based crossbar arrays (paper Fig. 3, right).
//!
//! A complementary (CMOS-like) crossbar: **rows** carry input literals,
//! **columns** are series device chains. The columns fall in two groups:
//!
//! * one n-type column per product of `f` — the column conducts when every
//!   programmed literal evaluates **true**, and pulls the output to 1;
//! * one p-type column per product of `f^D` — the column conducts when every
//!   programmed literal evaluates **false**, and pulls the output to 0.
//!
//! Because `f^D(x̄) = ¬f(x)`, exactly one group conducts for every input:
//! the array is a static complementary gate computing `f`. Size is
//! `L × (P(f) + P(f^D))` (Fig. 3) with `L` the distinct literals involved.

use nanoxbar_logic::{tail_mask, word_len, Cover, Literal, TruthTable};

use crate::diode::distinct_literals;
use crate::topology::{ArraySize, Crossbar};

/// Conduction state of an evaluated FET array output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DriveState {
    /// Pulled high by an n-column of `f` (output 1).
    High,
    /// Pulled low by a p-column of `f^D` (output 0).
    Low,
    /// Neither network conducts — a floating output (only possible when the
    /// array is faulty or mis-programmed).
    Floating,
    /// Both networks conduct — drive contention (only possible when the
    /// array is faulty or mis-programmed).
    Contention,
}

/// A complementary FET crossbar realising `f` from covers of `f` and `f^D`.
///
/// # Examples
///
/// ```
/// use nanoxbar_crossbar::FetArray;
/// use nanoxbar_logic::{dual_cover, isop_cover, parse_function};
///
/// // Paper Sec. III-A: f = x1x2 + x1'x2' needs a 4x4 FET array.
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let array = FetArray::synthesize(&isop_cover(&f), &dual_cover(&f));
/// assert_eq!(array.size().rows, 4);
/// assert_eq!(array.size().cols, 4);
/// assert!(array.computes(&f));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FetArray {
    grid: Crossbar,
    row_literals: Vec<Literal>,
    /// Column count of the n-type (pull-up / `f`) group; the remaining
    /// columns are the p-type (`f^D`) group.
    n_columns: usize,
    num_vars: usize,
}

impl FetArray {
    /// Builds the array from an SOP cover of `f` and one of its dual.
    ///
    /// Rows are the distinct literals of both covers combined; column `j <
    /// P(f)` realises product `j` of `f`, column `P(f) + i` realises product
    /// `i` of `f^D`.
    ///
    /// # Panics
    ///
    /// Panics if either cover is constant (no array needed) or arities
    /// differ.
    pub fn synthesize(f_cover: &Cover, dual_cover: &Cover) -> Self {
        assert_eq!(f_cover.num_vars(), dual_cover.num_vars(), "arity mismatch");
        assert!(
            !f_cover.is_zero_cover() && !f_cover.has_universe_cube(),
            "constant functions need no FET array"
        );
        assert!(
            !dual_cover.is_zero_cover() && !dual_cover.has_universe_cube(),
            "dual of a non-constant function is non-constant"
        );
        // Row set: union of distinct literals of both covers.
        let mut row_literals = distinct_literals(f_cover);
        for lit in distinct_literals(dual_cover) {
            if !row_literals.contains(&lit) {
                row_literals.push(lit);
            }
        }
        row_literals.sort_by_key(|l| (l.var(), l.is_positive()));

        let n_columns = f_cover.product_count();
        let cols = n_columns + dual_cover.product_count();
        let mut grid = Crossbar::new(ArraySize::new(row_literals.len(), cols));
        let mut place = |cube: &nanoxbar_logic::Cube, col: usize| {
            for lit in cube.literals() {
                let r = row_literals
                    .iter()
                    .position(|&l| l == lit)
                    .expect("row set contains every cover literal");
                grid.set(r, col, true);
            }
        };
        for (j, cube) in f_cover.cubes().iter().enumerate() {
            place(cube, j);
        }
        for (i, cube) in dual_cover.cubes().iter().enumerate() {
            place(cube, n_columns + i);
        }
        FetArray {
            grid,
            row_literals,
            n_columns,
            num_vars: f_cover.num_vars(),
        }
    }

    /// Reassembles an array from its stored parts — the decode half of a
    /// persisted cache entry. Checks the structural invariants cheaply
    /// and returns a message on mismatch rather than panicking:
    /// persisted bytes are data, not code.
    pub fn from_parts(
        grid: Crossbar,
        row_literals: Vec<Literal>,
        n_columns: usize,
        num_vars: usize,
    ) -> Result<Self, String> {
        if grid.size().rows != row_literals.len() {
            return Err(format!(
                "FET grid has {} rows for {} literals",
                grid.size().rows,
                row_literals.len()
            ));
        }
        if n_columns == 0 || n_columns >= grid.size().cols {
            return Err(format!(
                "FET n-column split {n_columns} outside 1..{}",
                grid.size().cols
            ));
        }
        if let Some(lit) = row_literals.iter().find(|l| l.var() >= num_vars) {
            return Err(format!(
                "FET row literal on x{} exceeds arity {num_vars}",
                lit.var()
            ));
        }
        Ok(FetArray {
            grid,
            row_literals,
            n_columns,
            num_vars,
        })
    }

    /// Array dimensions (`L × (P + P^D)`).
    pub fn size(&self) -> ArraySize {
        self.grid.size()
    }

    /// The underlying programmable grid.
    pub fn grid(&self) -> &Crossbar {
        &self.grid
    }

    /// Mutable grid access for fault injection.
    pub fn grid_mut(&mut self) -> &mut Crossbar {
        &mut self.grid
    }

    /// The literal carried by each row.
    pub fn row_literals(&self) -> &[Literal] {
        &self.row_literals
    }

    /// Number of n-type (`f`-product) columns.
    pub fn n_columns(&self) -> usize {
        self.n_columns
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// True if column `col` conducts under minterm `m` (n-columns need all
    /// programmed literals true; p-columns need all false).
    pub fn column_conducts(&self, col: usize, m: u64) -> bool {
        let n_type = col < self.n_columns;
        self.row_literals
            .iter()
            .enumerate()
            .all(|(r, lit)| !self.grid.is_programmed(r, col) || (lit.eval(m) == n_type))
    }

    /// Full electrical outcome at the output node.
    pub fn drive_state(&self, m: u64) -> DriveState {
        let high = (0..self.n_columns).any(|c| self.column_conducts(c, m));
        let low = (self.n_columns..self.size().cols).any(|c| self.column_conducts(c, m));
        match (high, low) {
            (true, false) => DriveState::High,
            (false, true) => DriveState::Low,
            (false, false) => DriveState::Floating,
            (true, true) => DriveState::Contention,
        }
    }

    /// Logic-level evaluation; floating/contention read as 0 (a fault-free
    /// array never produces them — see [`FetArray::is_complementary`]).
    pub fn eval(&self, m: u64) -> bool {
        self.drive_state(m) == DriveState::High
    }

    /// The pull-up and pull-down networks on every 64-minterm word, as
    /// `(high, low)` pairs read from the programmed grid: a column is the
    /// AND of its programmed rows' literal words (complemented for the
    /// p-type group), and each network is the OR of its columns. Bits
    /// beyond `2^num_vars` are cleared.
    fn drive_words(&self) -> Vec<(u64, u64)> {
        let size = self.grid.size();
        let columns: Vec<Vec<Literal>> = (0..size.cols)
            .map(|c| {
                self.row_literals
                    .iter()
                    .enumerate()
                    .filter(|&(r, _)| self.grid.is_programmed(r, c))
                    .map(|(_, &lit)| lit)
                    .collect()
            })
            .collect();
        let (n_cols, p_cols) = columns.split_at(self.n_columns);
        let network = |cols: &[Vec<Literal>], w: usize, n_type: bool| {
            cols.iter().fold(0, |any, col| {
                any | col.iter().fold(u64::MAX, |all, lit| {
                    let on = lit.word(w);
                    all & if n_type { on } else { !on }
                })
            })
        };
        let tail = tail_mask(self.num_vars);
        (0..word_len(self.num_vars))
            .map(|w| {
                (
                    network(n_cols, w, true) & tail,
                    network(p_cols, w, false) & tail,
                )
            })
            .collect()
    }

    /// Checks the complementary-drive invariant over all inputs: every
    /// minterm yields exactly one conducting network (word-parallel).
    pub fn is_complementary(&self) -> bool {
        let tail = tail_mask(self.num_vars);
        self.drive_words()
            .into_iter()
            .all(|(high, low)| high ^ low == tail)
    }

    /// Exhaustively checks the array against a target function, 64
    /// minterms at a time: the output reads 1 exactly where the pull-up
    /// network conducts and the pull-down does not (`high & !low`, the
    /// word form of [`FetArray::eval`]).
    pub fn computes(&self, f: &TruthTable) -> bool {
        f.num_vars() == self.num_vars
            && self
                .drive_words()
                .into_iter()
                .zip(f.words())
                .all(|((high, low), &want)| high & !low == want)
    }

    /// Per-minterm reference for [`FetArray::computes`]: one
    /// [`FetArray::eval`] per input assignment.
    pub fn computes_scalar(&self, f: &TruthTable) -> bool {
        f.num_vars() == self.num_vars && (0..f.num_minterms()).all(|m| self.eval(m) == f.value(m))
    }
}

/// The paper's Fig. 3 size formula for FET arrays: `L × (P + P^D)`,
/// evaluated on actual covers (with `L` the union of distinct literals).
pub fn fet_size_formula(f_cover: &Cover, dual_cover: &Cover) -> ArraySize {
    let mut lits = distinct_literals(f_cover);
    for lit in distinct_literals(dual_cover) {
        if !lits.contains(&lit) {
            lits.push(lit);
        }
    }
    ArraySize::new(
        lits.len(),
        f_cover.product_count() + dual_cover.product_count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_logic::{dual_cover, isop_cover, parse_function};

    fn array_for(expr: &str) -> (FetArray, TruthTable) {
        let f = parse_function(expr).unwrap();
        (FetArray::synthesize(&isop_cover(&f), &dual_cover(&f)), f)
    }

    #[test]
    fn paper_example_is_4x4() {
        let (array, f) = array_for("x0 x1 + !x0 !x1");
        assert_eq!(array.size(), ArraySize::new(4, 4));
        assert!(array.computes(&f));
        assert!(array.is_complementary());
    }

    #[test]
    fn and_gate() {
        // f = x0 x1: one n-column, dual = x0 + x1 gives two p-columns.
        let (array, f) = array_for("x0 x1");
        assert_eq!(array.size(), ArraySize::new(2, 3));
        assert!(array.computes(&f));
        assert!(array.is_complementary());
    }

    #[test]
    fn random_functions_complementary_and_exact() {
        let mut state = 0x7E57AB1Eu64;
        for n in 2..=6 {
            for _ in 0..20 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let bits = state;
                let f = TruthTable::from_fn(n, |m| (bits >> (m % 64)) & 1 == 1);
                if f.is_zero() || f.is_ones() {
                    continue;
                }
                let fc = isop_cover(&f);
                let dc = dual_cover(&f);
                let array = FetArray::synthesize(&fc, &dc);
                assert!(array.computes(&f), "n={n}");
                assert!(array.is_complementary(), "n={n}");
                assert_eq!(array.size(), fet_size_formula(&fc, &dc));
            }
        }
    }

    #[test]
    fn stuck_open_in_pullup_causes_floating() {
        let (mut array, _) = array_for("x0 x1");
        // Break the single n-column chain: programmed point in column 0.
        let (r, _) = array
            .grid()
            .programmed_points()
            .find(|&(_, c)| c == 0)
            .unwrap();
        // A stuck-open device in series means the chain can never conduct;
        // model by *adding* an always-blocking programmed literal is not
        // expressible on the grid, but removing the device creates a
        // different fault (chain shortens). Here we verify the drive-state
        // telemetry reacts to grid edits at all.
        array.grid_mut().set(r, 0, false);
        // Now the n-column conducts whenever the remaining literal is true,
        // so some input must produce contention (both networks drive).
        let any_contention = (0..4).any(|m| array.drive_state(m) == DriveState::Contention);
        assert!(any_contention);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let f = parse_function("x0 x1").unwrap();
        let g = parse_function("x0 x1 x2").unwrap();
        let _ = FetArray::synthesize(&isop_cover(&f), &dual_cover(&g));
    }
}
