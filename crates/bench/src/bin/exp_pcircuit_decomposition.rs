//! E4 — Sec. III-B-1: P-circuit decomposition preprocessing.
//!
//! Lattice area with and without the P-circuit decomposition (best split
//! variable/polarity, blocks minimised with the interval don't-cares). The
//! paper reports the approach "confirmed by a set of experimental results"
//! on the methods of refs \[2\] and \[9\]; here the baseline is our dual-based
//! synthesis.

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_lattice::synth::pcircuit;
use nanoxbar_logic::suite::{random_sop, standard_suite, BenchFunction};

fn main() {
    banner(
        "E4 / Sec. III-B-1",
        "P-circuit decomposition vs direct synthesis",
    );

    // Suite functions (small enough for exact interval minimisation) plus
    // decomposition-friendly random SOPs.
    let mut functions: Vec<BenchFunction> = standard_suite()
        .into_iter()
        .filter(|f| f.num_vars <= 8)
        .collect();
    for (i, &(n, p)) in [(6usize, 6usize), (7, 7), (8, 8), (8, 10)]
        .iter()
        .enumerate()
    {
        let cover = random_sop(n, p, 0x9C + i as u64);
        functions.push(BenchFunction {
            name: format!("sopx{n}v{p}p"),
            num_vars: n,
            table: cover.to_truth_table(),
        });
    }

    let mut table = Table::new(&["function", "vars", "direct", "p-circuit", "split", "ratio"]);
    let mut wins = 0usize;
    let mut total = 0usize;
    let mut log_ratio_sum = 0.0f64;

    for f in &functions {
        if f.table.is_zero() || f.table.is_ones() {
            continue;
        }
        let result = pcircuit::synthesize(&f.table);
        assert!(result.lattice.computes(&f.table), "{}", f.name);
        let direct = result.direct_area;
        let decomposed = result.lattice.area();
        let ratio = decomposed as f64 / direct as f64;
        log_ratio_sum += ratio.ln();
        total += 1;
        if decomposed < direct {
            wins += 1;
        }
        table.row_owned(vec![
            f.name.clone(),
            f.num_vars.to_string(),
            direct.to_string(),
            decomposed.to_string(),
            format!(
                "x{}={}",
                result.split_var,
                if result.polarity { 1 } else { 0 }
            ),
            f2(ratio),
        ]);
    }
    println!("{}", table.render());

    let geomean = (log_ratio_sum / total as f64).exp();
    println!("functions: {total}");
    println!(
        "p-circuit strictly smaller on: {wins} ({}%)",
        f2(wins as f64 / total as f64 * 100.0)
    );
    println!("geomean decomposed/direct area: {}", f2(geomean));
    println!(
        "\npaper claim (Sec. III-B-1): decomposition can reduce lattice area \
         -> {}",
        if wins > 0 {
            "REPRODUCED (strict wins observed)"
        } else {
            "NOT reproduced"
        }
    );
}
