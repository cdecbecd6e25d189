//! E10 — Sec. III-B: "the sizes derived from the formula in Fig. 5 ... are
//! not necessarily optimal".
//!
//! Quantifies that remark: for every non-trivial 3-variable function class
//! in the suite plus seeded random functions, compare the dual-based area
//! (`P(f^D) × P(f)`) with the SAT-computed minimum area (the Gange et al.
//! approach, ref \[9\], on our own CDCL solver).

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_lattice::synth::optimal::{synthesize, OptimalOptions};
use nanoxbar_logic::suite::SplitMix64;
use nanoxbar_logic::TruthTable;

fn main() {
    banner(
        "E10 / Sec. III-B remark",
        "dual-based vs SAT-optimal lattice area",
    );

    let mut table = Table::new(&[
        "function",
        "vars",
        "dual-based",
        "optimal",
        "gap",
        "sat-calls",
    ]);

    let mut cases: Vec<(String, TruthTable)> = vec![
        (
            "xnor2".into(),
            nanoxbar_logic::parse_function("x0 x1 + !x0 !x1").expect("static"),
        ),
        ("maj3".into(), nanoxbar_logic::suite::majority(3)),
        ("parity3".into(), nanoxbar_logic::suite::parity(3)),
        ("mux2".into(), nanoxbar_logic::suite::multiplexer(1)),
        (
            "chain3".into(),
            nanoxbar_logic::parse_function("x0 x1 + x1 x2").expect("static"),
        ),
    ];
    let mut rng = SplitMix64::new(0x0B7A1);
    let mut added = 0;
    while added < 8 {
        let bits = rng.next();
        let f = TruthTable::from_fn(3, |m| (bits >> m) & 1 == 1);
        if f.is_zero() || f.is_ones() {
            continue;
        }
        cases.push((format!("rand3_{added}"), f));
        added += 1;
    }

    let mut gap_count = 0usize;
    let mut area_dual = 0usize;
    let mut area_opt = 0usize;
    for (name, f) in &cases {
        let r = synthesize(f, &OptimalOptions::default());
        assert!(r.lattice.computes(f), "{name}");
        let opt = r.lattice.area();
        let dual = r.dual_based_area;
        if opt < dual {
            gap_count += 1;
        }
        area_dual += dual;
        area_opt += opt;
        table.row_owned(vec![
            name.clone(),
            f.num_vars().to_string(),
            dual.to_string(),
            opt.to_string(),
            if opt < dual {
                format!("-{}", dual - opt)
            } else {
                "0".into()
            },
            r.sat_calls.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("functions with a strict gap: {gap_count} / {}", cases.len());
    println!(
        "total area: dual-based {area_dual} vs optimal {area_opt} \
         ({}% saved)",
        f2((1.0 - area_opt as f64 / area_dual as f64) * 100.0)
    );
    println!(
        "\npaper remark (Sec. III-B): the Fig. 5 construction is not \
         necessarily optimal -> {}",
        if gap_count > 0 {
            "REPRODUCED (SAT search finds strictly smaller lattices)"
        } else {
            "NOT reproduced"
        }
    );
}
