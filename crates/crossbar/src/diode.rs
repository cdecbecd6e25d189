//! Diode-based crossbar arrays (paper Fig. 3, left).
//!
//! Diode–resistor logic on a crossbar: each **row** (horizontal nanowire)
//! implements one product of the SOP as a wired-AND over the **literal
//! columns** it is programmed against; one extra **output column** wired-ORs
//! the rows. Size is therefore `P × (L + 1)` for `P` products over `L`
//! distinct literals — always optimal for the given SOP (Sec. III-A).

use nanoxbar_logic::{word_len, Cover, Literal, TruthTable};

use crate::topology::{ArraySize, Crossbar};

/// A diode crossbar realising one SOP cover.
///
/// # Examples
///
/// ```
/// use nanoxbar_crossbar::DiodeArray;
/// use nanoxbar_logic::{isop_cover, parse_function};
///
/// // Paper Sec. III-A: f = x1x2 + x1'x2' needs a 2x5 diode array.
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let array = DiodeArray::synthesize(&isop_cover(&f));
/// assert_eq!(array.size().rows, 2);
/// assert_eq!(array.size().cols, 5);
/// assert!(array.computes(&f));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiodeArray {
    grid: Crossbar,
    /// Literal carried by each input column (the last column is the output).
    column_literals: Vec<Literal>,
    num_vars: usize,
}

impl DiodeArray {
    /// Builds the array for an SOP cover. Row `i` realises product `i`;
    /// columns are the distinct literals of the cover (in ascending
    /// `(variable, polarity)` order) plus the trailing output column.
    ///
    /// # Panics
    ///
    /// Panics if the cover is a constant (no products, or a universe cube):
    /// constants need no array.
    pub fn synthesize(cover: &Cover) -> Self {
        assert!(
            !cover.is_zero_cover() && !cover.has_universe_cube(),
            "constant functions need no diode array"
        );
        let column_literals = distinct_literals(cover);
        let rows = cover.product_count();
        let cols = column_literals.len() + 1;
        let mut grid = Crossbar::new(ArraySize::new(rows, cols));
        for (r, cube) in cover.cubes().iter().enumerate() {
            for lit in cube.literals() {
                let c = column_literals
                    .iter()
                    .position(|&l| l == lit)
                    .expect("every cube literal is a distinct literal of the cover");
                grid.set(r, c, true);
            }
            // Output column diode: this row participates in the wired-OR.
            grid.set(r, cols - 1, true);
        }
        DiodeArray {
            grid,
            column_literals,
            num_vars: cover.num_vars(),
        }
    }

    /// Reassembles an array from its stored parts — the decode half of a
    /// persisted cache entry. Validates the structural invariants
    /// `synthesize` guarantees (column count, output column wiring is
    /// *not* re-derived — the grid is taken as-is) and returns a
    /// message on mismatch rather than panicking: persisted bytes are
    /// data, not code.
    pub fn from_parts(
        grid: Crossbar,
        column_literals: Vec<Literal>,
        num_vars: usize,
    ) -> Result<Self, String> {
        if grid.size().cols != column_literals.len() + 1 {
            return Err(format!(
                "diode grid has {} columns for {} literals (want literals + 1)",
                grid.size().cols,
                column_literals.len()
            ));
        }
        if let Some(lit) = column_literals.iter().find(|l| l.var() >= num_vars) {
            return Err(format!(
                "diode column literal on x{} exceeds arity {num_vars}",
                lit.var()
            ));
        }
        Ok(DiodeArray {
            grid,
            column_literals,
            num_vars,
        })
    }

    /// Array dimensions (`P × (L+1)`).
    pub fn size(&self) -> ArraySize {
        self.grid.size()
    }

    /// The underlying programmable grid.
    pub fn grid(&self) -> &Crossbar {
        &self.grid
    }

    /// Mutable access to the grid — used by the fault-injection machinery
    /// in `nanoxbar-reliability`.
    pub fn grid_mut(&mut self) -> &mut Crossbar {
        &mut self.grid
    }

    /// The literal assigned to each input column.
    pub fn column_literals(&self) -> &[Literal] {
        &self.column_literals
    }

    /// Number of input variables of the realised function.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Index of the output column.
    pub fn output_column(&self) -> usize {
        self.grid.size().cols - 1
    }

    /// Evaluates the array on minterm `m`: each row wired-ANDs its
    /// programmed literal columns; the output column wired-ORs the rows that
    /// are programmed into it.
    pub fn eval(&self, m: u64) -> bool {
        let out_col = self.output_column();
        (0..self.grid.size().rows)
            .any(|r| self.grid.is_programmed(r, out_col) && self.row_conducts(r, m))
    }

    /// True if row `r`'s wired-AND of programmed literals is satisfied.
    pub fn row_conducts(&self, r: usize, m: u64) -> bool {
        self.column_literals
            .iter()
            .enumerate()
            .all(|(c, lit)| !self.grid.is_programmed(r, c) || lit.eval(m))
    }

    /// Exhaustively checks the array against a target function, reading
    /// the programmed grid 64 minterms at a time
    /// ([`DiodeArray::to_truth_table`]).
    pub fn computes(&self, f: &TruthTable) -> bool {
        f.num_vars() == self.num_vars && self.to_truth_table() == *f
    }

    /// Per-minterm reference for [`DiodeArray::computes`]: one
    /// [`DiodeArray::eval`] per input assignment.
    pub fn computes_scalar(&self, f: &TruthTable) -> bool {
        f.num_vars() == self.num_vars && (0..f.num_minterms()).all(|m| self.eval(m) == f.value(m))
    }

    /// The function the array actually computes, evaluated word-parallel
    /// from the grid: each row wired into the output column is the AND of
    /// its programmed columns' literal words, and the output is the OR of
    /// those rows.
    pub fn to_truth_table(&self) -> TruthTable {
        let out_col = self.output_column();
        let rows: Vec<Vec<Literal>> = (0..self.grid.size().rows)
            .filter(|&r| self.grid.is_programmed(r, out_col))
            .map(|r| {
                self.column_literals
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| self.grid.is_programmed(r, c))
                    .map(|(_, &lit)| lit)
                    .collect()
            })
            .collect();
        let words = (0..word_len(self.num_vars))
            .map(|w| {
                rows.iter().fold(0, |out, row| {
                    out | row.iter().fold(u64::MAX, |and, lit| and & lit.word(w))
                })
            })
            .collect();
        TruthTable::from_words(self.num_vars, words)
    }
}

/// The distinct literals of a cover in ascending `(variable, polarity)`
/// order — the input-column set of a diode array.
pub fn distinct_literals(cover: &Cover) -> Vec<Literal> {
    let mut out = Vec::new();
    for v in 0..cover.num_vars() {
        for positive in [false, true] {
            let lit = Literal::new(v, positive);
            let used = cover.cubes().iter().any(|c| {
                let mask = 1u64 << v;
                if positive {
                    c.pos_mask() & mask != 0
                } else {
                    c.neg_mask() & mask != 0
                }
            });
            if used {
                out.push(lit);
            }
        }
    }
    out
}

/// The paper's Fig. 3 size formula for diode arrays: `P × (L + 1)`.
pub fn diode_size_formula(cover: &Cover) -> ArraySize {
    ArraySize::new(cover.product_count(), cover.distinct_literal_count() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_logic::{isop_cover, parse_function};

    fn array_for(expr: &str) -> (DiodeArray, TruthTable) {
        let f = parse_function(expr).unwrap();
        (DiodeArray::synthesize(&isop_cover(&f)), f)
    }

    #[test]
    fn paper_example_is_2x5() {
        let (array, f) = array_for("x0 x1 + !x0 !x1");
        assert_eq!(array.size(), ArraySize::new(2, 5));
        assert!(array.computes(&f));
        assert_eq!(array.size(), diode_size_formula(&isop_cover(&f)));
    }

    #[test]
    fn random_functions_realised_exactly() {
        let mut state = 0x5DEECE66Du64;
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
                let cover = isop_cover(&f);
                let array = DiodeArray::synthesize(&cover);
                assert!(array.computes(&f), "n={n} f={f:?}");
                assert_eq!(array.size(), diode_size_formula(&cover));
            }
        }
    }

    #[test]
    fn every_row_feeds_the_output_column() {
        let (array, _) = array_for("x0 x1 + x2");
        let out = array.output_column();
        for r in 0..array.size().rows {
            assert!(array.grid().is_programmed(r, out));
        }
    }

    #[test]
    fn single_product_array() {
        let (array, f) = array_for("x0 !x1 x2");
        assert_eq!(array.size(), ArraySize::new(1, 4));
        assert!(array.computes(&f));
    }

    #[test]
    #[should_panic(expected = "constant functions")]
    fn constant_panics() {
        let _ = DiodeArray::synthesize(&Cover::zero(2));
    }

    #[test]
    fn stuck_open_fault_changes_function() {
        // Sanity check for the fault machinery downstream: clearing a
        // programmed literal crosspoint must change the computed function
        // (the row's product loses a literal and covers more minterms).
        let (mut array, f) = array_for("x0 x1 + !x0 !x1");
        let (r, c) = array
            .grid()
            .programmed_points()
            .find(|&(_, c)| c != array.output_column())
            .unwrap();
        array.grid_mut().set(r, c, false);
        assert!(!array.computes(&f));
    }
}
