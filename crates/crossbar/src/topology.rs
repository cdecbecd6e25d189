//! The programmable crossbar grid shared by every two-terminal array model.

use std::fmt;

/// Dimensions of a crossbar array (rows × columns).
///
/// ```
/// use nanoxbar_crossbar::ArraySize;
/// let s = ArraySize::new(2, 5);
/// assert_eq!(s.area(), 10);
/// assert_eq!(s.to_string(), "2x5");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ArraySize {
    /// Number of horizontal lines.
    pub rows: usize,
    /// Number of vertical lines.
    pub cols: usize,
}

impl ArraySize {
    /// Creates a size.
    pub fn new(rows: usize, cols: usize) -> Self {
        ArraySize { rows, cols }
    }

    /// Number of crosspoints.
    pub fn area(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for ArraySize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// A bare programmable crossbar: a grid of crosspoints, each either
/// programmed (a device is formed at the junction) or left open.
///
/// The diode/FET models and the reliability engine (BIST, BISM, the
/// defect-unaware flow) all build on this grid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Crossbar {
    size: ArraySize,
    programmed: Vec<bool>,
}

impl Crossbar {
    /// An unprogrammed crossbar of the given size.
    pub fn new(size: ArraySize) -> Self {
        Crossbar {
            size,
            programmed: vec![false; size.area()],
        }
    }

    /// The array dimensions.
    pub fn size(&self) -> ArraySize {
        self.size
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        assert!(row < self.size.rows, "row {row} out of range");
        assert!(col < self.size.cols, "col {col} out of range");
        row * self.size.cols + col
    }

    /// Whether the crosspoint at `(row, col)` is programmed.
    ///
    /// # Panics
    ///
    /// Panics if out of range (also for [`Crossbar::set`]).
    pub fn is_programmed(&self, row: usize, col: usize) -> bool {
        self.programmed[self.idx(row, col)]
    }

    /// Programs or clears the crosspoint at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, programmed: bool) {
        let i = self.idx(row, col);
        self.programmed[i] = programmed;
    }

    /// Clears the whole array (reconfiguration).
    pub fn clear(&mut self) {
        self.programmed.fill(false);
    }

    /// Iterator over programmed crosspoints as `(row, col)`.
    pub fn programmed_points(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.size.cols;
        self.programmed
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(i, _)| (i / cols, i % cols))
    }
}

impl fmt::Display for Crossbar {
    /// Renders the grid with `X` for programmed and `.` for open points.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.size.rows {
            for c in 0..self.size.cols {
                write!(f, "{}", if self.is_programmed(r, c) { 'X' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_and_query() {
        let mut xb = Crossbar::new(ArraySize::new(3, 4));
        assert_eq!(xb.programmed_points().count(), 0);
        xb.set(1, 2, true);
        xb.set(2, 3, true);
        assert!(xb.is_programmed(1, 2));
        assert!(!xb.is_programmed(0, 0));
        assert_eq!(xb.programmed_points().count(), 2);
        let pts: Vec<_> = xb.programmed_points().collect();
        assert_eq!(pts, vec![(1, 2), (2, 3)]);
        xb.clear();
        assert_eq!(xb.programmed_points().count(), 0);
    }

    #[test]
    #[should_panic(expected = "row 5 out of range")]
    fn out_of_range_row_panics() {
        let xb = Crossbar::new(ArraySize::new(2, 2));
        let _ = xb.is_programmed(5, 0);
    }

    #[test]
    fn display_grid() {
        let mut xb = Crossbar::new(ArraySize::new(2, 2));
        xb.set(0, 1, true);
        assert_eq!(xb.to_string(), ".X\n..\n");
    }
}
