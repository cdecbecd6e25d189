//! E6 — Sec. IV-A: BIST with 100 % exhaustive fault coverage and a minimal
//! configuration/vector budget.
//!
//! For fabric sizes 4×4 … 32×32: generate the single-term test plan,
//! exhaustively fault-simulate the whole logic-level fault universe
//! (stuck-open, stuck-closed, bridging, line opens, functional), and
//! report coverage plus the configuration/vector counts against the naive
//! per-crosspoint plan.

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_crossbar::ArraySize;
use nanoxbar_reliability::bist::TestPlan;
use nanoxbar_reliability::fault::fault_universe;

fn main() {
    banner(
        "E6 / Sec. IV-A",
        "BIST: exhaustive coverage with minimal test sets",
    );

    let mut table = Table::new(&[
        "fabric",
        "faults",
        "configs",
        "vectors",
        "coverage",
        "naive-configs",
        "naive-vectors",
    ]);
    let mut all_full = true;

    for n in [4usize, 6, 8, 12, 16, 24, 32] {
        let size = ArraySize::new(n, n);
        let plan = TestPlan::generate(size);
        let universe = fault_universe(size);
        let report = plan.coverage(size, &universe);
        let naive = TestPlan::naive(size);
        all_full &= report.coverage() == 1.0;
        table.row_owned(vec![
            size.to_string(),
            universe.len().to_string(),
            plan.config_count().to_string(),
            plan.vector_count().to_string(),
            format!("{}%", f2(report.coverage() * 100.0)),
            naive.config_count().to_string(),
            naive.vector_count().to_string(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "paper claim (Sec. IV-A): 100% exhaustive coverage of all \
         logic-level faults with minimal test sets -> {}",
        if all_full {
            "REPRODUCED (100% everywhere; 3 configs vs N^2 naive)"
        } else {
            "NOT reproduced"
        }
    );
}
