//! Cross-technology size comparison (the Sec. III headline claim:
//! "four-terminal switch based implementations offer favorably better
//! crossbar sizes").

use nanoxbar_engine::Technology;
use nanoxbar_logic::suite::BenchFunction;
use nanoxbar_logic::TruthTable;

use crate::tech::synth;

/// Per-function comparison row.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Function name.
    pub name: String,
    /// Input count.
    pub num_vars: usize,
    /// Diode array dimensions and area.
    pub diode: (usize, usize, usize),
    /// FET array dimensions and area.
    pub fet: (usize, usize, usize),
    /// Lattice dimensions and area.
    pub lattice: (usize, usize, usize),
}

impl ComparisonRow {
    /// Area ratio diode / lattice.
    pub fn diode_over_lattice(&self) -> f64 {
        self.diode.2 as f64 / self.lattice.2 as f64
    }

    /// Area ratio FET / lattice.
    pub fn fet_over_lattice(&self) -> f64 {
        self.fet.2 as f64 / self.lattice.2 as f64
    }
}

/// Compares all three technologies on one function.
///
/// # Panics
///
/// Panics if `f` is constant.
pub fn compare_function(name: &str, f: &TruthTable) -> ComparisonRow {
    let mut dims = Vec::with_capacity(3);
    for tech in Technology::ALL {
        let r = synth(f, tech);
        let s = r.size();
        dims.push((s.rows, s.cols, s.area()));
    }
    ComparisonRow {
        name: name.to_string(),
        num_vars: f.num_vars(),
        diode: dims[0],
        fet: dims[1],
        lattice: dims[2],
    }
}

/// Summary over a suite: geometric-mean area ratios vs the lattice.
#[derive(Clone, Copy, Debug)]
pub struct ComparisonSummary {
    /// Number of functions compared.
    pub functions: usize,
    /// Geometric mean of diode/lattice area.
    pub geomean_diode_over_lattice: f64,
    /// Geometric mean of FET/lattice area.
    pub geomean_fet_over_lattice: f64,
    /// Fraction of functions where the lattice is strictly smallest.
    pub lattice_wins: f64,
}

/// Runs the comparison across a benchmark suite.
///
/// ```
/// use nanoxbar_core::compare::compare_suite;
/// use nanoxbar_logic::suite::standard_suite;
///
/// let (rows, summary) = compare_suite(&standard_suite());
/// assert_eq!(rows.len(), summary.functions);
/// // The paper's claim: four-terminal lattices win on average.
/// assert!(summary.geomean_diode_over_lattice > 1.0);
/// ```
pub fn compare_suite(suite: &[BenchFunction]) -> (Vec<ComparisonRow>, ComparisonSummary) {
    let rows: Vec<ComparisonRow> = suite
        .iter()
        .filter(|f| !f.table.is_zero() && !f.table.is_ones())
        .map(|f| compare_function(&f.name, &f.table))
        .collect();
    let n = rows.len() as f64;
    let geo = |sel: &dyn Fn(&ComparisonRow) -> f64| {
        (rows.iter().map(|r| sel(r).ln()).sum::<f64>() / n).exp()
    };
    let wins = rows
        .iter()
        .filter(|r| r.lattice.2 < r.diode.2 && r.lattice.2 < r.fet.2)
        .count() as f64
        / n;
    let summary = ComparisonSummary {
        functions: rows.len(),
        geomean_diode_over_lattice: geo(&|r| r.diode_over_lattice()),
        geomean_fet_over_lattice: geo(&|r| r.fet_over_lattice()),
        lattice_wins: wins,
    };
    (rows, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_logic::parse_function;
    use nanoxbar_logic::suite::standard_suite;

    #[test]
    fn paper_example_row() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let row = compare_function("xnor2", &f);
        assert_eq!(row.diode, (2, 5, 10));
        assert_eq!(row.fet, (4, 4, 16));
        assert_eq!(row.lattice, (2, 2, 4));
        assert!(row.diode_over_lattice() > 2.0);
    }

    #[test]
    fn suite_comparison_favours_lattices() {
        let (rows, summary) = compare_suite(&standard_suite());
        assert!(rows.len() >= 20);
        // The Sec. III claim, quantified.
        assert!(summary.geomean_diode_over_lattice > 1.0, "{summary:?}");
        assert!(summary.geomean_fet_over_lattice > 1.0, "{summary:?}");
        assert!(summary.lattice_wins > 0.5, "{summary:?}");
    }
}
