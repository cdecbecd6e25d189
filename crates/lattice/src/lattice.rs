//! The four-terminal switch lattice model (paper Fig. 1 and Fig. 4).
//!
//! A lattice is an R×C grid of four-terminal switches. Each switch is
//! controlled by a literal (or tied to a constant): when its control
//! evaluates to 1 the four terminals are mutually connected, otherwise
//! disconnected. The lattice computes 1 exactly when a path of ON switches
//! connects the top plate to the bottom plate (4-neighbour adjacency).

use std::fmt;

use nanoxbar_logic::Literal;

/// The control assigned to one lattice site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Site {
    /// Controlled by a literal.
    Literal(Literal),
    /// Tied permanently ON (`true`) or OFF (`false`) — used by the
    /// composition rules (paper Sec. III-B-1: padding columns of 0s and
    /// rows of 1s).
    Const(bool),
}

impl Site {
    /// The site's switch state under minterm `m`.
    pub fn is_on(&self, m: u64) -> bool {
        match self {
            Site::Literal(l) => l.eval(m),
            Site::Const(b) => *b,
        }
    }

    /// The site with its literal complemented (constants unchanged).
    pub fn complement(&self) -> Site {
        match self {
            Site::Literal(l) => Site::Literal(l.complement()),
            Site::Const(b) => Site::Const(*b),
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Literal(l) => write!(f, "{l}"),
            Site::Const(b) => write!(f, "{}", u8::from(*b)),
        }
    }
}

/// A four-terminal switching lattice.
///
/// # Examples
///
/// The paper's Fig. 4 lattice (renumbered to variables `x0..x5`):
///
/// ```
/// use nanoxbar_lattice::{Lattice, Site};
/// use nanoxbar_logic::{parse_function, Literal};
///
/// let lattice = Lattice::from_rows(6, vec![
///     vec![Site::Literal(Literal::positive(0)), Site::Literal(Literal::positive(3))],
///     vec![Site::Literal(Literal::positive(1)), Site::Literal(Literal::positive(4))],
///     vec![Site::Literal(Literal::positive(2)), Site::Literal(Literal::positive(5))],
/// ])?;
/// let f = parse_function("x0x1x2 + x0x1x4x5 + x1x2x3x4 + x3x4x5")?;
/// assert!(lattice.computes(&f));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lattice {
    rows: usize,
    cols: usize,
    num_vars: usize,
    sites: Vec<Site>,
}

impl Lattice {
    /// Builds a lattice from row-major site rows.
    ///
    /// # Errors
    ///
    /// Returns an error message if the grid is empty or ragged, or if a
    /// literal references a variable `>= num_vars`.
    pub fn from_rows(num_vars: usize, rows: Vec<Vec<Site>>) -> Result<Self, String> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err("lattice must have at least one row and one column".into());
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err("ragged lattice rows".into());
        }
        let sites: Vec<Site> = rows.into_iter().flatten().collect();
        for s in &sites {
            if let Site::Literal(l) = s {
                if l.var() >= num_vars {
                    return Err(format!("site literal {l} out of range for {num_vars} vars"));
                }
            }
        }
        Ok(Lattice {
            rows: sites.len() / cols,
            cols,
            num_vars,
            sites,
        })
    }

    /// A 1×1 lattice computing a constant.
    pub fn constant(num_vars: usize, value: bool) -> Self {
        Lattice {
            rows: 1,
            cols: 1,
            num_vars,
            sites: vec![Site::Const(value)],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of sites (the paper's area metric).
    pub fn area(&self) -> usize {
        self.rows * self.cols
    }

    /// Arity of the computed function.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The site at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range (also for [`Lattice::set_site`]).
    pub fn site(&self, row: usize, col: usize) -> Site {
        assert!(
            row < self.rows && col < self.cols,
            "site ({row},{col}) out of range"
        );
        self.sites[row * self.cols + col]
    }

    /// Replaces the site at `(row, col)`.
    pub fn set_site(&mut self, row: usize, col: usize, site: Site) {
        assert!(
            row < self.rows && col < self.cols,
            "site ({row},{col}) out of range"
        );
        if let Site::Literal(l) = site {
            assert!(l.var() < self.num_vars, "literal out of range");
        }
        self.sites[row * self.cols + col] = site;
    }

    /// Appends a copy of the bottom row. The computed function is unchanged
    /// (the duplicate row is ON exactly when the row above it is), which
    /// makes this the height-equalisation step for OR-composition.
    pub fn pad_to_rows(&self, rows: usize) -> Self {
        assert!(rows >= self.rows, "cannot remove rows by padding");
        let mut out = self.clone();
        while out.rows < rows {
            let last: Vec<Site> = out.sites[(out.rows - 1) * out.cols..].to_vec();
            out.sites.extend(last);
            out.rows += 1;
        }
        out
    }

    /// Appends a copy of the rightmost column; function unchanged —
    /// width-equalisation for AND-composition.
    pub fn pad_to_cols(&self, cols: usize) -> Self {
        assert!(cols >= self.cols, "cannot remove columns by padding");
        let mut out = self.clone();
        while out.cols < cols {
            let mut sites = Vec::with_capacity(out.rows * (out.cols + 1));
            for r in 0..out.rows {
                let row = &out.sites[r * out.cols..(r + 1) * out.cols];
                sites.extend_from_slice(row);
                sites.push(row[out.cols - 1]);
            }
            out.sites = sites;
            out.cols += 1;
        }
        out
    }
}

impl fmt::Display for Lattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| (r, c)))
            .map(|(r, c)| self.site(r, c).to_string().len())
            .max()
            .unwrap_or(1);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>width$}", self.site(r, c).to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize) -> Site {
        Site::Literal(Literal::positive(v))
    }

    #[test]
    fn construction_and_accessors() {
        let l = Lattice::from_rows(
            3,
            vec![vec![lit(0), lit(1)], vec![lit(2), Site::Const(true)]],
        )
        .unwrap();
        assert_eq!((l.rows(), l.cols(), l.area()), (2, 2, 4));
        assert_eq!(l.site(1, 1), Site::Const(true));
    }

    #[test]
    fn rejects_ragged_and_out_of_range() {
        assert!(Lattice::from_rows(2, vec![vec![lit(0)], vec![lit(1), lit(0)]]).is_err());
        assert!(Lattice::from_rows(1, vec![vec![lit(5)]]).is_err());
        assert!(Lattice::from_rows(1, vec![]).is_err());
    }

    #[test]
    fn site_states() {
        assert!(Site::Const(true).is_on(0));
        assert!(!Site::Const(false).is_on(u64::MAX));
        let s = Site::Literal(Literal::negative(1));
        assert!(s.is_on(0b01));
        assert!(!s.is_on(0b10));
        assert_eq!(s.complement(), Site::Literal(Literal::positive(1)));
    }

    #[test]
    fn padding_preserves_shape_invariants() {
        let l = Lattice::from_rows(2, vec![vec![lit(0), lit(1)]]).unwrap();
        let taller = l.pad_to_rows(3);
        assert_eq!(taller.rows(), 3);
        assert_eq!(taller.site(2, 0), lit(0));
        let wider = l.pad_to_cols(4);
        assert_eq!(wider.cols(), 4);
        assert_eq!(wider.site(0, 3), lit(1));
    }

    #[test]
    fn display_renders_grid() {
        let l = Lattice::from_rows(2, vec![vec![lit(0), Site::Const(false)]]).unwrap();
        let s = l.to_string();
        assert!(s.contains("x0"));
        assert!(s.contains('0'));
    }
}
