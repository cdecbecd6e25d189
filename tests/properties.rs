//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;

use nanoxbar::crossbar::ArraySize;
use nanoxbar::engine::{synthesize, Technology};
use nanoxbar::lattice::synth::{dual_based, pcircuit};
use nanoxbar::lattice::{computes_dual_left_right, lattice_function};
use nanoxbar::logic::minimize::{minimize_function, quine_mccluskey, MinimizeObjective};
use nanoxbar::logic::{dual_cover, isop_cover, TruthTable};
use nanoxbar::reliability::bisd::{Diagnosis, DiagnosisPlan};
use nanoxbar::reliability::bist::TestPlan;
use nanoxbar::reliability::defect::{CrosspointHealth, DefectMap};
use nanoxbar::reliability::fault::fault_universe;
use nanoxbar::reliability::unaware::extract_greedy;
use nanoxbar::sat::{Cnf, Lit, Solver};

/// An arbitrary function of `n` variables encoded by its ON-set bits.
fn arb_function(n: usize) -> impl Strategy<Value = TruthTable> {
    let minterms = 1usize << n;
    proptest::collection::vec(any::<bool>(), minterms)
        .prop_map(move |bits| TruthTable::from_fn(n, |m| bits[m as usize]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// dual(dual(f)) == f and De Morgan across covers.
    #[test]
    fn dual_is_involution(f in arb_function(5)) {
        prop_assert_eq!(f.dual().dual(), f);
    }

    /// ISOP covers compute exactly the function.
    #[test]
    fn isop_is_exact(f in arb_function(5)) {
        prop_assert!(isop_cover(&f).computes(&f));
    }

    /// The dual cover computes the dual.
    #[test]
    fn dual_cover_is_exact(f in arb_function(5)) {
        prop_assert!(dual_cover(&f).computes(&f.dual()));
    }

    /// Exact minimisation never uses more products than ISOP and remains
    /// functionally identical.
    #[test]
    fn qm_is_sound_and_no_worse(f in arb_function(4)) {
        let qm = quine_mccluskey(&f, &TruthTable::zeros(4), MinimizeObjective::default());
        prop_assert!(qm.computes(&f));
        prop_assert!(qm.product_count() <= isop_cover(&f).product_count());
    }

    /// The dispatcher minimiser is sound.
    #[test]
    fn minimizer_is_sound(f in arb_function(6)) {
        prop_assert!(minimize_function(&f).computes(&f));
    }

    /// Every technology realises every (non-constant) function exactly.
    #[test]
    fn realizations_equivalent(f in arb_function(4)) {
        prop_assume!(!f.is_zero() && !f.is_ones());
        for tech in Technology::ALL {
            prop_assert!(synthesize(&f, tech).unwrap().computes(&f));
        }
    }

    /// Synthesised lattices satisfy the planar duality (left-right
    /// king-move function equals the Boolean dual).
    #[test]
    fn lattice_duality(f in arb_function(4)) {
        let lattice = dual_based::synthesize(&f);
        prop_assert_eq!(lattice_function(&lattice), f);
        prop_assert!(computes_dual_left_right(&lattice));
    }

    /// P-circuit decomposition preserves the function for every split.
    #[test]
    fn pcircuit_preserves_function(f in arb_function(4), var in 0usize..4, pol: bool) {
        let lattice = pcircuit::synthesize_with_split(&f, var, pol);
        prop_assert!(lattice.computes(&f));
    }

    /// The SAT solver agrees with brute force on small random CNFs.
    #[test]
    fn sat_matches_brute_force(
        clauses in proptest::collection::vec(
            proptest::collection::vec((0usize..5, any::<bool>()), 1..4),
            1..12,
        )
    ) {
        let mut cnf = Cnf::new();
        let vars = cnf.fresh_vars(5);
        for clause in &clauses {
            cnf.add_clause(clause.iter().map(|&(v, s)| Lit::new(vars[v], s)));
        }
        let brute = (0..32u64).any(|m| {
            let bits: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            cnf.eval(&bits)
        });
        let mut solver = Solver::from_cnf(&cnf);
        prop_assert_eq!(solver.solve().is_sat(), brute);
    }

    /// BIST detects every fault of the universe on random fabric shapes
    /// (columns >= 2 so no undetectable bridge class exists).
    #[test]
    fn bist_full_coverage(rows in 2usize..7, cols in 2usize..7) {
        let size = ArraySize::new(rows, cols);
        let plan = TestPlan::generate(size);
        let report = plan.coverage(size, &fault_universe(size));
        prop_assert_eq!(report.coverage(), 1.0);
    }

    /// BISD uniquely decodes any single planted point fault.
    #[test]
    fn bisd_unique_decode(row in 0usize..6, col in 0usize..6, open: bool) {
        let size = ArraySize::new(6, 6);
        let plan = DiagnosisPlan::generate(size);
        let health = if open { CrosspointHealth::StuckOpen } else { CrosspointHealth::StuckClosed };
        let mut chip = DefectMap::healthy(size);
        chip.set(row, col, health);
        prop_assert_eq!(plan.diagnose(&chip), Diagnosis::Faulty { row, col, health });
    }

    /// Greedy k x k extraction always returns a defect-free region.
    #[test]
    fn extraction_is_defect_free(seed in 0u64..500, density in 0.0f64..0.3) {
        let size = ArraySize::new(12, 12);
        let chip = DefectMap::random_uniform(size, density / 2.0, density / 2.0, seed);
        let rec = extract_greedy(&chip);
        prop_assert!(rec.is_defect_free(&chip));
        // And it retains everything on healthy chips.
        if chip.defect_count() == 0 {
            prop_assert_eq!(rec.k(), 12);
        }
    }

    /// OR/AND lattice composition laws.
    #[test]
    fn composition_laws(f in arb_function(3), g in arb_function(3)) {
        use nanoxbar::lattice::synth::compose::{and_compose, or_compose};
        let lf = dual_based::synthesize(&f);
        let lg = dual_based::synthesize(&g);
        prop_assert!(or_compose(&lf, &lg).computes(&f.or(&g)));
        prop_assert!(and_compose(&lf, &lg).computes(&f.and(&g)));
    }
}
