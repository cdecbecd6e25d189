//! E14 (ablation) — ablations of three design choices of this workspace:
//!
//! 1. **Minimiser choice**: raw ISOP vs exact Quine–McCluskey vs the
//!    Espresso-style heuristic — product/literal counts and the resulting
//!    diode-array area across the suite.
//! 2. **Lattice compaction**: Fig. 5 dual-based area vs the cheap local
//!    compaction pass vs the SAT optimum (where affordable) — how much of
//!    the optimality gap does local search close?
//! 3. **PLA sharing**: multi-output arrays vs one array per output on the
//!    multi-output workloads (adder slices).

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_crossbar::MultiOutputDiodeArray;
use nanoxbar_lattice::synth::{compact, dual_based, optimal};
use nanoxbar_logic::minimize::{espresso, quine_mccluskey, EspressoOptions, MinimizeObjective};
use nanoxbar_logic::suite::{adder_carry, adder_sum_bit, standard_suite};
use nanoxbar_logic::{isop_cover, TruthTable};

fn main() {
    banner(
        "E14 / ablations",
        "minimiser choice, lattice compaction, PLA sharing",
    );

    // ---- 1. minimiser ablation -----------------------------------------
    println!("1) minimiser ablation (products / literals per cover):\n");
    let mut table = Table::new(&[
        "function",
        "isop P/L",
        "qm P/L",
        "espresso P/L",
        "diode area isop/qm/esp",
    ]);
    for f in standard_suite().into_iter().filter(|f| f.num_vars <= 8) {
        if f.table.is_zero() || f.table.is_ones() {
            continue;
        }
        let dc = TruthTable::zeros(f.num_vars);
        let isop = isop_cover(&f.table);
        let qm = quine_mccluskey(&f.table, &dc, MinimizeObjective::default());
        let esp = espresso(&f.table, &dc, &EspressoOptions::default());
        assert!(qm.computes(&f.table) && esp.computes(&f.table));
        let area = |c: &nanoxbar_logic::Cover| c.product_count() * (c.distinct_literal_count() + 1);
        table.row_owned(vec![
            f.name.clone(),
            format!("{}/{}", isop.product_count(), isop.literal_count()),
            format!("{}/{}", qm.product_count(), qm.literal_count()),
            format!("{}/{}", esp.product_count(), esp.literal_count()),
            format!("{}/{}/{}", area(&isop), area(&qm), area(&esp)),
        ]);
    }
    println!("{}", table.render());

    // ---- 2. lattice compaction ------------------------------------------
    println!("2) lattice compaction vs SAT optimum (n <= 3 shown with optimum):\n");
    let mut table = Table::new(&["function", "dual-based", "compacted", "optimal"]);
    let mut closed = 0usize;
    let mut gaps = 0usize;
    for f in standard_suite().into_iter().filter(|f| f.num_vars <= 4) {
        if f.table.is_zero() || f.table.is_ones() {
            continue;
        }
        let base = dual_based::synthesize(&f.table);
        let compacted = compact::compact(&base);
        assert!(compacted.computes(&f.table));
        let optimal_cell = if f.num_vars <= 3 {
            let r = optimal::synthesize(&f.table, &optimal::OptimalOptions::default());
            if r.lattice.area() < base.area() {
                gaps += 1;
                if compacted.area() == r.lattice.area() {
                    closed += 1;
                }
            }
            r.lattice.area().to_string()
        } else {
            "-".to_string()
        };
        table.row_owned(vec![
            f.name.clone(),
            base.area().to_string(),
            compacted.area().to_string(),
            optimal_cell,
        ]);
    }
    println!("{}", table.render());
    println!("gap cases where compaction alone reached the optimum: {closed}/{gaps}\n");

    // ---- 3. PLA sharing ---------------------------------------------------
    println!(
        "3) multi-output PLA strategies (area = crosspoints):\n\
         separate = one diode array per output (per-output ISOP)\n\
         naive    = per-output ISOP covers thrown onto one shared array\n\
         multi    = greedy shared-product minimisation (minimize_multi_output)\n"
    );
    let mut table = Table::new(&[
        "workload",
        "outputs",
        "separate",
        "naive shared",
        "multi shared",
        "multi vs separate",
    ]);
    let mut record = |name: String, targets: &[TruthTable]| {
        let isops: Vec<nanoxbar_logic::Cover> = targets.iter().map(isop_cover).collect();
        let separate = MultiOutputDiodeArray::separate_area(&isops);
        let naive = MultiOutputDiodeArray::synthesize(&isops);
        let multi = nanoxbar_logic::minimize::minimize_multi_output(targets);
        let shared = MultiOutputDiodeArray::synthesize(&multi.outputs);
        for (o, f) in targets.iter().enumerate() {
            assert!(
                naive.computes(o, f) && shared.computes(o, f),
                "{name} output {o}"
            );
        }
        table.row_owned(vec![
            name,
            targets.len().to_string(),
            separate.to_string(),
            naive.area().to_string(),
            shared.area().to_string(),
            format!(
                "{}%",
                f2((1.0 - shared.area() as f64 / separate as f64) * 100.0)
            ),
        ]);
    };
    // Adder slices: sum bits and carries share few products — sharing must
    // earn its keep through the multi-output minimiser.
    for bits in [2usize, 3] {
        let mut targets = Vec::new();
        for b in 0..bits {
            targets.push(adder_sum_bit(bits, b));
        }
        targets.push(adder_carry(bits));
        record(format!("adder{bits}"), &targets);
    }
    // The classic PLA workload: BCD to seven-segment decoder.
    record("seg7".into(), &nanoxbar_logic::suite::seven_segment());
    println!("{}", table.render());
    println!(
        "sharing verdict: naive sharing can lose (union literal columns, \
         disjoint products); with shared-product minimisation the PLA wins \
         where outputs genuinely overlap (seg7)."
    );
}
