//! E3 — Fig. 5 + the Sec. III headline claim: "four-terminal switch based
//! implementations offer favorably better crossbar sizes".
//!
//! Synthesises every suite function on all three technologies and reports
//! per-function dimensions/areas plus geometric-mean area ratios against
//! the four-terminal lattice. The worked example (2×5 / 4×4 / 2×2) leads.
//!
//! Then runs the workspace extension shootout: BDD sneak-path crossbars
//! vs dual-based lattices vs SAT-optimal lattices, single-output first
//! and then multi-output families where the shared ROBDD amortises
//! common subgraphs across outputs.

use nanoxbar::report::Table;
use nanoxbar_bddsynth::{compile, compile_multi};
use nanoxbar_bench::{banner, f2};
use nanoxbar_engine::{synthesize, Technology};
use nanoxbar_lattice::synth::optimal::{try_synthesize, OptimalOptions};
use nanoxbar_logic::suite::{
    majority, multiplexer, parity, seven_segment, standard_suite, BenchFunction,
};
use nanoxbar_logic::TruthTable;

/// Conflict budget per SAT call in the optimal column; exhausted budgets
/// render as "-" instead of stalling the smoke run.
const SAT_CONFLICT_BUDGET: u64 = 50_000;

/// One suite function's `(rows, cols, area)` on each technology.
struct ComparisonRow {
    name: String,
    num_vars: usize,
    diode: (usize, usize, usize),
    fet: (usize, usize, usize),
    lattice: (usize, usize, usize),
}

impl ComparisonRow {
    /// Synthesises the non-constant `f` on all three technologies.
    fn new(f: &BenchFunction) -> Self {
        let dims = Technology::ALL.map(|tech| {
            let s = synthesize(&f.table, tech)
                .unwrap_or_else(|e| panic!("{tech} synthesis of {}: {e}", f.name))
                .size();
            (s.rows, s.cols, s.area())
        });
        ComparisonRow {
            name: f.name.clone(),
            num_vars: f.table.num_vars(),
            diode: dims[0],
            fet: dims[1],
            lattice: dims[2],
        }
    }

    fn diode_over_lattice(&self) -> f64 {
        self.diode.2 as f64 / self.lattice.2 as f64
    }

    fn fet_over_lattice(&self) -> f64 {
        self.fet.2 as f64 / self.lattice.2 as f64
    }
}

/// Geometric mean of `ratio` over `rows`.
fn geomean(rows: &[ComparisonRow], ratio: fn(&ComparisonRow) -> f64) -> f64 {
    (rows.iter().map(|r| ratio(r).ln()).sum::<f64>() / rows.len() as f64).exp()
}

fn lattice_area(f: &TruthTable) -> usize {
    synthesize(f, Technology::FourTerminal)
        .unwrap_or_else(|e| panic!("dual-lattice synthesis: {e}"))
        .size()
        .area()
}

/// BDD vs dual-lattice vs SAT-optimal on single-output functions.
fn shootout_single() {
    let cases: Vec<(&str, TruthTable)> = vec![
        (
            "xnor2",
            nanoxbar_logic::parse_function("x0 x1 + !x0 !x1").expect("static"),
        ),
        ("maj3", majority(3)),
        ("parity3", parity(3)),
        ("mux2", multiplexer(1)),
        (
            "chain3",
            nanoxbar_logic::parse_function("x0 x1 + x1 x2").expect("static"),
        ),
        ("parity4", parity(4)),
        ("maj5", majority(5)),
    ];

    let mut table = Table::new(&[
        "function", "vars", "bdd", "depth", "dual-lat", "sat-opt", "bdd/dual",
    ]);
    let mut populated = 0usize;
    for (name, f) in &cases {
        let xbar = compile(f).unwrap_or_else(|e| panic!("bdd compile {name}: {e}"));
        assert!(
            xbar.computes_all(std::slice::from_ref(f)),
            "bdd realization for {name} failed replay"
        );
        let bdd_area = xbar.area();
        let dual = lattice_area(f);
        let options = OptimalOptions {
            max_conflicts_per_call: Some(SAT_CONFLICT_BUDGET),
            ..OptimalOptions::default()
        };
        let optimal = match try_synthesize(f, &options) {
            Ok(r) => {
                assert!(r.lattice.computes(f), "sat-optimal lattice for {name}");
                r.lattice.area().to_string()
            }
            Err(_) => "-".into(),
        };
        populated += 1;
        table.row_owned(vec![
            name.to_string(),
            f.num_vars().to_string(),
            format!("{}x{} ({})", xbar.rows(), xbar.cols(), bdd_area),
            xbar.depth().to_string(),
            dual.to_string(),
            optimal,
            f2(bdd_area as f64 / dual as f64),
        ]);
    }
    println!("{}", table.render());
    assert!(
        populated == cases.len(),
        "bdd column must be fully populated"
    );
    println!("bdd rows populated and replay-verified: {populated}/{populated}");
}

/// Shared-BDD multi-output families vs per-output dual-lattice sums.
fn shootout_multi() {
    let adder: Vec<TruthTable> = vec![
        nanoxbar_logic::parse_function("x0 ^ x1 ^ x2").expect("static"),
        majority(3),
    ];
    let families: Vec<(&str, Vec<TruthTable>)> = vec![
        ("adder3 (sum,carry)", adder),
        ("seven-segment", seven_segment()),
    ];

    let mut table = Table::new(&[
        "family",
        "outputs",
        "bdd shared",
        "depth",
        "dual-lat sum",
        "shared/sum",
    ]);
    let mut bdd_wins = 0usize;
    for (name, outputs) in &families {
        let xbar = compile_multi(outputs).unwrap_or_else(|e| panic!("bdd compile {name}: {e}"));
        assert!(
            xbar.computes_all(outputs),
            "shared bdd realization for {name} failed replay"
        );
        let shared = xbar.area();
        let sum: usize = outputs.iter().map(lattice_area).sum();
        if shared < sum {
            bdd_wins += 1;
        }
        table.row_owned(vec![
            name.to_string(),
            outputs.len().to_string(),
            format!("{}x{} ({})", xbar.rows(), xbar.cols(), shared),
            xbar.depth().to_string(),
            sum.to_string(),
            f2(shared as f64 / sum as f64),
        ]);
    }
    println!("{}", table.render());
    assert!(
        bdd_wins >= 1,
        "shared BDD must beat per-output dual-lattice on at least one family"
    );
    println!(
        "shared BDD beats per-output dual-lattice sums on {}/{} families",
        bdd_wins,
        families.len()
    );
}

fn main() {
    banner(
        "E3 / Fig. 5 + Sec. III claim",
        "technology size comparison (diode vs FET vs four-terminal)",
    );

    let rows: Vec<ComparisonRow> = standard_suite()
        .iter()
        .filter(|f| !f.table.is_zero() && !f.table.is_ones())
        .map(ComparisonRow::new)
        .collect();
    let geomean_diode = geomean(&rows, ComparisonRow::diode_over_lattice);
    let geomean_fet = geomean(&rows, ComparisonRow::fet_over_lattice);
    let lattice_wins = rows
        .iter()
        .filter(|r| r.lattice.2 < r.diode.2 && r.lattice.2 < r.fet.2)
        .count();

    let mut table = Table::new(&[
        "function",
        "vars",
        "diode",
        "fet",
        "lattice",
        "diode/lat",
        "fet/lat",
    ]);
    for r in &rows {
        table.row_owned(vec![
            r.name.clone(),
            r.num_vars.to_string(),
            format!("{}x{} ({})", r.diode.0, r.diode.1, r.diode.2),
            format!("{}x{} ({})", r.fet.0, r.fet.1, r.fet.2),
            format!("{}x{} ({})", r.lattice.0, r.lattice.1, r.lattice.2),
            f2(r.diode_over_lattice()),
            f2(r.fet_over_lattice()),
        ]);
    }
    println!("{}", table.render());

    println!("functions compared:              {}", rows.len());
    println!("geomean area diode / lattice:    {}", f2(geomean_diode));
    println!("geomean area fet   / lattice:    {}", f2(geomean_fet));
    println!(
        "lattice strictly smallest on:    {}% of functions",
        f2(lattice_wins as f64 / rows.len() as f64 * 100.0)
    );
    println!(
        "\npaper claim (Sec. III): four-terminal lattices are favorably \
         smaller -> {}",
        if geomean_diode > 1.0 && geomean_fet > 1.0 {
            "REPRODUCED (both geomeans > 1)"
        } else {
            "NOT reproduced"
        }
    );

    banner(
        "extension / BDD sneak-path shootout",
        "BDD crossbar vs dual-based lattice vs SAT-optimal lattice",
    );
    shootout_single();

    banner(
        "extension / multi-output sharing",
        "one shared sneak-path crossbar vs per-output dual-lattices",
    );
    shootout_multi();
}
