//! Property suite proving the word-parallel diode/FET verify bit-identical
//! to the per-minterm electrical evaluation, on correctly programmed arrays
//! and on arrays with one crosspoint flipped (the negative cases), across
//! the 64-minterm word boundary.

use proptest::prelude::*;

use nanoxbar_crossbar::{Crossbar, DiodeArray, DriveState, FetArray};
use nanoxbar_logic::{dual_cover, isop_cover, word_len, TruthTable};

/// A random non-constant function of 1..=8 variables.
fn arb_function() -> impl Strategy<Value = TruthTable> {
    (1usize..=8, proptest::collection::vec(any::<u64>(), 4)).prop_map(|(n, words)| {
        let mut t = TruthTable::from_words(n, words[..word_len(n)].to_vec());
        if t.is_zero() || t.is_ones() {
            // Pin one minterm each way so the function needs an array.
            t.set(0, true);
            t.set(t.num_minterms() - 1, false);
        }
        t
    })
}

/// Flips the crosspoint `at` (modulo the array area).
fn flip(grid: &mut Crossbar, at: u64) {
    let size = grid.size();
    let i = (at % size.area() as u64) as usize;
    let (r, c) = (i / size.cols, i % size.cols);
    grid.set(r, c, !grid.is_programmed(r, c));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Diode verify: the word path agrees with per-minterm evaluation on
    /// the synthesised array and on a one-crosspoint mutant, and the word
    /// truth table equals the per-minterm one.
    #[test]
    fn diode_word_verify_matches_scalar(f in arb_function(), at: u64) {
        let mut array = DiodeArray::synthesize(&isop_cover(&f));
        prop_assert!(array.computes(&f));
        prop_assert!(array.computes_scalar(&f));
        flip(array.grid_mut(), at);
        let scalar = TruthTable::from_fn(f.num_vars(), |m| array.eval(m));
        prop_assert_eq!(array.to_truth_table(), scalar.clone());
        prop_assert_eq!(array.computes(&f), array.computes_scalar(&f));
        prop_assert_eq!(array.computes(&f), scalar == f);
        prop_assert!(array.computes(&scalar));
    }

    /// FET verify and the complementary-drive check: the word path agrees
    /// with per-minterm drive states, on the synthesised array and on a
    /// one-crosspoint mutant.
    #[test]
    fn fet_word_verify_matches_scalar(f in arb_function(), at: u64) {
        let mut array = FetArray::synthesize(&isop_cover(&f), &dual_cover(&f));
        prop_assert!(array.computes(&f));
        prop_assert!(array.computes_scalar(&f));
        prop_assert!(array.is_complementary());
        flip(array.grid_mut(), at);
        let scalar = TruthTable::from_fn(f.num_vars(), |m| array.eval(m));
        prop_assert_eq!(array.computes(&f), array.computes_scalar(&f));
        prop_assert_eq!(array.computes(&f), scalar == f);
        prop_assert!(array.computes(&scalar));
        let complementary = (0..f.num_minterms())
            .all(|m| matches!(array.drive_state(m), DriveState::High | DriveState::Low));
        prop_assert_eq!(array.is_complementary(), complementary);
    }

    /// Arity mismatches never verify, on either path.
    #[test]
    fn arity_mismatch_never_verifies(f in arb_function()) {
        let wider = f.extend_vars(1);
        let diode = DiodeArray::synthesize(&isop_cover(&f));
        let fet = FetArray::synthesize(&isop_cover(&f), &dual_cover(&f));
        prop_assert!(!diode.computes(&wider) && !diode.computes_scalar(&wider));
        prop_assert!(!fet.computes(&wider) && !fet.computes_scalar(&wider));
    }
}
