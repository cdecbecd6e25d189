//! # nanoxbar-bench
//!
//! Experiment harness regenerating every figure and evaluation claim of
//! *"Computing with Nano-Crossbar Arrays"* (DATE 2017). Each `exp_*`
//! binary prints the tables of one experiment and asserts the claim it
//! reproduces:
//!
//! | id    | binary                       | reproduces                                   |
//! |-------|------------------------------|----------------------------------------------|
//! | E1    | `exp_fig3_two_terminal`      | Fig. 3: diode and FET array size formulas     |
//! | E2    | `exp_fig4_lattice_example`   | Fig. 4: the worked four-terminal lattice      |
//! | E3    | `exp_table_size_comparison`  | Fig. 5 and the Sec. III size comparison       |
//! | E4    | `exp_pcircuit_decomposition` | Sec. III-B-1: P-circuit decomposition         |
//! | E5    | `exp_dreducible`             | Sec. III-B-2: D-reducible preprocessing       |
//! | E6    | `exp_bist_coverage`          | Sec. IV-A: BIST coverage and budget           |
//! | E7    | `exp_bisd_logarithmic`       | Sec. IV-A: logarithmic BISD configurations    |
//! | E8    | `exp_bism_strategies`        | Sec. IV-B: blind, greedy and hybrid BISM      |
//! | E9    | `exp_defect_unaware_flow`    | Sec. IV-C, Fig. 6: the defect-unaware flow    |
//! | E10   | `exp_optimal_gap`            | Sec. III-B: Fig. 5 sizes are not optimal      |
//! | E11   | `exp_ssm_nanocomputer`       | Sec. V: adders, latches and an SSM            |
//! | E12   | `exp_transient_tmr`          | Sec. IV (extension): transients vs TMR        |
//! | E13   | `exp_variation_delay`        | Sec. IV (extension): variation as delay       |
//! | E14   | `exp_ablation`               | minimiser, compaction and PLA-sharing choices |
//! | E-mvm | `exp_mvm_roofline`           | analog MVM kernels and noise (extension)      |
//!
//! `tests/experiments_pinned.rs` compares every table cell except timings
//! with the goldens in `tests/golden/`. The `benches/` directory holds
//! Criterion microbenchmarks of the underlying algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints an experiment banner (id + description), so every binary's
/// output is self-identifying in logs.
pub fn banner(id: &str, title: &str) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!("==========================================================");
}

/// Formats a float with two decimals for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_formats() {
        assert_eq!(f2(1.0), "1.00");
        assert_eq!(f2(2.345), "2.35");
    }
}
