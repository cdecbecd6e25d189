//! E1 — Fig. 3: size formulas for diode and FET based implementations.
//!
//! For every suite function, construct both two-terminal arrays, check that
//! the built dimensions equal the Fig. 3 formulas (`P × (L+1)` for diode,
//! `L × (P + P^D)` for FET), and verify the arrays compute the target.
//! The paper's worked example `f = x1x2 + x1'x2'` (2×5 and 4×4) leads the
//! table.

use nanoxbar::report::Table;
use nanoxbar_bench::banner;
use nanoxbar_crossbar::{diode_size_formula, fet_size_formula, DiodeArray, FetArray};
use nanoxbar_logic::suite::standard_suite;
use nanoxbar_logic::{dual_cover, isop_cover};

fn main() {
    banner(
        "E1 / Fig. 3",
        "two-terminal array size formulas (diode, FET)",
    );

    let mut table = Table::new(&[
        "function", "vars", "P(f)", "P(fD)", "L", "diode", "fet", "verified",
    ]);
    let mut all_ok = true;

    for f in standard_suite() {
        if f.table.is_zero() || f.table.is_ones() {
            continue;
        }
        let cover = isop_cover(&f.table);
        let dual = dual_cover(&f.table);
        let diode = DiodeArray::synthesize(&cover);
        let fet = FetArray::synthesize(&cover, &dual);

        let formula_ok = diode.size() == diode_size_formula(&cover)
            && fet.size() == fet_size_formula(&cover, &dual);
        let functional_ok = diode.computes(&f.table) && fet.computes(&f.table);
        all_ok &= formula_ok && functional_ok;

        table.row_owned(vec![
            f.name.clone(),
            f.num_vars.to_string(),
            cover.product_count().to_string(),
            dual.product_count().to_string(),
            cover.distinct_literal_count().to_string(),
            diode.size().to_string(),
            fet.size().to_string(),
            if formula_ok && functional_ok {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{}", table.render());

    println!(
        "paper worked example: f = x1x2 + x1'x2' -> diode 2x5, fet 4x4 \
         (first row above, `paper_xnor2`)"
    );
    println!(
        "formulas match constructed arrays and all arrays verified: {}",
        if all_ok { "YES" } else { "NO" }
    );
}
