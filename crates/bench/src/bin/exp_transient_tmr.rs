//! E12 (extension) — Sec. IV lifetime reliability: transient upsets vs
//! modular redundancy.
//!
//! The paper's programme separates *fault tolerance* ("errors during
//! normal operation") from fabrication-defect tolerance; its companion
//! study is ref \[15\]. Here: Monte-Carlo output error rates of a diode
//! realisation under per-evaluation transient upsets, simplex vs 3-way vs
//! 5-way modular redundancy, across upset rates — the
//! reliability-vs-area trade the reprogrammable fabric pays for.

use nanoxbar::report::Table;
use nanoxbar_bench::{banner, f2};
use nanoxbar_crossbar::DiodeArray;
use nanoxbar_logic::{isop_cover, parse_function};
use nanoxbar_reliability::transient::{RedundantArray, TransientModel};

const TRIALS: u64 = 40_000;

fn main() {
    banner(
        "E12 / Sec. IV (ref [15])",
        "transient upsets vs modular redundancy",
    );

    let f = parse_function("x0 x1 + !x0 !x1 + x1 x2").expect("static");
    let array = DiodeArray::synthesize(&isop_cover(&f));
    let simplex = RedundantArray::new(array.clone(), 1);
    let tmr = RedundantArray::new(array.clone(), 3);
    let fiveway = RedundantArray::new(array, 5);

    println!(
        "realisation: {} diode array; areas: simplex {}, 3-way {}, 5-way {}\n",
        simplex.area(),
        simplex.area(),
        tmr.area(),
        fiveway.area()
    );

    let mut table = Table::new(&[
        "upset rate",
        "simplex err%",
        "3-way err%",
        "5-way err%",
        "3-way gain",
        "5-way gain",
    ]);
    for p in [0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let model = TransientModel::symmetric(p);
        let (raw, _) = simplex.error_rates(&model, TRIALS, 11);
        let (_, v3) = tmr.error_rates(&model, TRIALS, 11);
        let (_, v5) = fiveway.error_rates(&model, TRIALS, 11);
        let gain = |v: f64| {
            if v > 0.0 {
                format!("{:.1}x", raw / v)
            } else {
                ">inf".to_string()
            }
        };
        table.row_owned(vec![
            format!("{:.1}%", p * 100.0),
            f2(raw * 100.0),
            f2(v3 * 100.0),
            f2(v5 * 100.0),
            gain(v3),
            gain(v5),
        ]);
    }
    println!("{}", table.render());

    println!(
        "shape check: voted error ~ 3e^2 for small e (quadratic suppression), \
         degrading toward parity as e -> 0.5. The abundance of programmable \
         resources (Sec. I) is what makes the 3x/5x area affordable."
    );
}
