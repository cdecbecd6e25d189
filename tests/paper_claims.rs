//! Integration tests pinning every concrete number and worked example the
//! paper states, end to end through the public API.

use nanoxbar::crossbar::ArraySize;
use nanoxbar::engine::{synthesize, Technology};
use nanoxbar::lattice::synth::{dual_based, optimal};
use nanoxbar::lattice::{computes_dual_left_right, Lattice, Site};
use nanoxbar::logic::suite::standard_suite;
use nanoxbar::logic::{dual_cover, isop_cover, parse_function, Literal};
use nanoxbar::reliability::bisd::DiagnosisPlan;
use nanoxbar::reliability::bist::TestPlan;
use nanoxbar::reliability::fault::fault_universe;

/// Sec. III-A worked example: f = x1x2 + x1'x2' has 4 literals and 2
/// products; f^D has 2 products; diode 2x5, FET 4x4.
#[test]
fn section_iii_a_worked_example() {
    let f = parse_function("x0 x1 + !x0 !x1").unwrap();
    let cover = isop_cover(&f);
    let dual = dual_cover(&f);
    assert_eq!(cover.product_count(), 2);
    assert_eq!(cover.distinct_literal_count(), 4);
    assert_eq!(dual.product_count(), 2);

    let diode = synthesize(&f, Technology::Diode).unwrap();
    let fet = synthesize(&f, Technology::Fet).unwrap();
    assert_eq!(diode.size(), ArraySize::new(2, 5));
    assert_eq!(fet.size(), ArraySize::new(4, 4));
    assert!(diode.computes(&f));
    assert!(fet.computes(&f));
}

/// Sec. III-B worked example: the same f fits a 2x2 four-terminal lattice.
#[test]
fn section_iii_b_worked_example() {
    let f = parse_function("x0 x1 + !x0 !x1").unwrap();
    let lattice = synthesize(&f, Technology::FourTerminal).unwrap();
    assert_eq!(lattice.size(), ArraySize::new(2, 2));
    assert!(lattice.computes(&f));
}

/// Sec. III headline: "four-terminal switch based implementations offer
/// favorably better crossbar sizes", over the non-constant functions of the
/// benchmark suite.
#[test]
fn section_iii_size_comparison() {
    let (mut functions, mut wins) = (0usize, 0usize);
    let (mut ln_diode, mut ln_fet) = (0.0f64, 0.0f64);
    for f in standard_suite() {
        if f.table.is_zero() || f.table.is_ones() {
            continue;
        }
        let [diode, fet, lattice] =
            Technology::ALL.map(|tech| synthesize(&f.table, tech).unwrap().area() as f64);
        functions += 1;
        ln_diode += (diode / lattice).ln();
        ln_fet += (fet / lattice).ln();
        wins += usize::from(lattice < diode && lattice < fet);
    }
    assert!(functions >= 20);
    let geomean = |ln_sum: f64| (ln_sum / functions as f64).exp();
    assert!(
        geomean(ln_diode) > 1.0,
        "diode / lattice {}",
        geomean(ln_diode)
    );
    assert!(geomean(ln_fet) > 1.0, "FET / lattice {}", geomean(ln_fet));
    assert!(
        2 * wins > functions,
        "lattice strictly smallest on {wins} of {functions}"
    );
}

/// Fig. 4: the printed lattice computes the stated function.
#[test]
fn figure_4_lattice() {
    let lit = |v: usize| Site::Literal(Literal::positive(v));
    let lattice = Lattice::from_rows(
        6,
        vec![
            vec![lit(0), lit(3)],
            vec![lit(1), lit(4)],
            vec![lit(2), lit(5)],
        ],
    )
    .unwrap();
    let f = parse_function("x0x1x2 + x0x1x4x5 + x1x2x3x4 + x3x4x5").unwrap();
    assert!(lattice.computes(&f));
    assert!(computes_dual_left_right(&lattice));
    // And the generic Fig. 5 construction is valid but larger — the
    // "not necessarily optimal" remark.
    let generic = dual_based::synthesize(&f);
    assert!(generic.computes(&f));
    assert!(generic.area() > lattice.area());
}

/// Fig. 5: lattice dimensions are P(f^D) x P(f) for ISOP covers.
#[test]
fn figure_5_size_formula() {
    for expr in ["x0 x1 + !x0 !x1", "x0 + x1 x2", "x0 x1 + x1 x2 + x0 x2"] {
        let f = parse_function(expr).unwrap();
        let lattice = dual_based::synthesize(&f);
        assert_eq!(lattice.cols(), isop_cover(&f).product_count(), "{expr}");
        assert_eq!(lattice.rows(), dual_cover(&f).product_count(), "{expr}");
        assert!(lattice.computes(&f), "{expr}");
    }
}

/// Sec. IV-A: 100% coverage of all logic-level faults on an 8x8 fabric
/// with a constant number of configurations.
#[test]
fn section_iv_a_bist_claim() {
    let size = ArraySize::new(8, 8);
    let plan = TestPlan::generate(size);
    let report = plan.coverage(size, &fault_universe(size));
    assert_eq!(report.coverage(), 1.0);
    assert_eq!(plan.config_count(), 3);
    assert!(plan.config_count() < TestPlan::naive(size).config_count());
}

/// Sec. IV-A: diagnosis configurations logarithmic in the resource count.
#[test]
fn section_iv_a_bisd_claim() {
    for (n, expect_bits) in [(8usize, 7usize), (16, 9), (32, 11)] {
        let plan = DiagnosisPlan::generate(ArraySize::new(n, n));
        assert_eq!(plan.config_count(), expect_bits + 1, "{n}x{n}");
    }
}

/// Sec. III-B remark quantified: SAT-optimal synthesis strictly beats the
/// dual-based construction on majority-of-three.
#[test]
fn optimality_gap_exists() {
    let f = nanoxbar::logic::suite::majority(3);
    let r = optimal::synthesize(&f, &optimal::OptimalOptions::default());
    assert!(r.lattice.computes(&f));
    assert!(r.lattice.area() < r.dual_based_area);
}
