//! E5 — Sec. III-B-2: D-reducible (affine-space) preprocessing.
//!
//! For families of D-reducible functions (ON-sets supported on affine
//! spaces of codimension 1–3), compare the direct dual-based lattice with
//! the decomposition `f = χ_A · f_A` (characteristic lattice AND-composed
//! with the projection's lattice).

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_lattice::affine::AffineSpace;
use nanoxbar_lattice::synth::dreducible;
use nanoxbar_logic::suite::d_reducible_function;

fn main() {
    banner(
        "E5 / Sec. III-B-2",
        "D-reducible preprocessing vs direct synthesis",
    );

    let mut table = Table::new(&[
        "function",
        "vars",
        "codim",
        "|on|",
        "direct",
        "decomposed",
        "ratio",
    ]);
    let mut total = 0usize;
    let mut wins = 0usize;
    let mut log_ratio_sum = 0.0f64;

    for n in [5usize, 6, 7] {
        for codim in 1..=3usize {
            for seed in 0..4u64 {
                let f = d_reducible_function(n, codim, seed).expect("codim < n");
                if f.is_zero() || f.is_ones() {
                    continue;
                }
                let hull = AffineSpace::hull_of(&f).expect("non-empty ON-set");
                let r = dreducible::synthesize(&f);
                assert!(r.lattice.computes(&f));
                let ratio = r.lattice.area() as f64 / r.direct_area as f64;
                total += 1;
                log_ratio_sum += ratio.ln();
                if r.lattice.area() < r.direct_area {
                    wins += 1;
                }
                table.row_owned(vec![
                    format!("dred{n}c{codim}s{seed}"),
                    n.to_string(),
                    hull.codimension().to_string(),
                    f.count_ones().to_string(),
                    r.direct_area.to_string(),
                    r.lattice.area().to_string(),
                    f2(ratio),
                ]);
            }
        }
    }
    println!("{}", table.render());

    let geomean = (log_ratio_sum / total as f64).exp();
    println!("functions: {total}");
    println!(
        "decomposition strictly smaller on: {wins} ({}%)",
        f2(wins as f64 / total as f64 * 100.0)
    );
    println!("geomean decomposed/direct area: {}", f2(geomean));
    println!(
        "\npaper claim (Sec. III-B-2): exploiting D-reducibility can shrink \
         lattices -> {}",
        if wins > 0 && geomean <= 1.0 {
            "REPRODUCED (never worse, often smaller)"
        } else if wins > 0 {
            "PARTIALLY reproduced (wins exist)"
        } else {
            "NOT reproduced"
        }
    );
}
