//! Rust API guideline conformance checks (C-SEND-SYNC, C-GOOD-ERR,
//! C-DEBUG): the public types of every crate stay thread-safe and
//! debuggable, and error types behave like errors.

use nanoxbar::crossbar::{ArraySize, Crossbar, DiodeArray, FetArray, MultiOutputDiodeArray};
use nanoxbar::lattice::Lattice;
use nanoxbar::logic::{Cover, Cube, Expr, Literal, LogicError, TruthTable};
use nanoxbar::reliability::defect::DefectMap;
use nanoxbar::sat::{Cnf, Lit, Solver, Var};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_debug<T: std::fmt::Debug>() {}

#[test]
fn public_types_are_send_and_sync() {
    assert_send_sync::<TruthTable>();
    assert_send_sync::<Cube>();
    assert_send_sync::<Cover>();
    assert_send_sync::<Literal>();
    assert_send_sync::<Expr>();
    assert_send_sync::<Cnf>();
    assert_send_sync::<Solver>();
    assert_send_sync::<Lit>();
    assert_send_sync::<Var>();
    assert_send_sync::<Crossbar>();
    assert_send_sync::<ArraySize>();
    assert_send_sync::<DiodeArray>();
    assert_send_sync::<FetArray>();
    assert_send_sync::<MultiOutputDiodeArray>();
    assert_send_sync::<Lattice>();
    assert_send_sync::<DefectMap>();
    assert_send_sync::<nanoxbar::engine::Realization>();
    assert_send_sync::<nanoxbar::ssm::Ssm>();
}

#[test]
fn public_types_implement_debug() {
    assert_debug::<TruthTable>();
    assert_debug::<Cube>();
    assert_debug::<Cover>();
    assert_debug::<Solver>();
    assert_debug::<Lattice>();
    assert_debug::<DefectMap>();
    assert_debug::<nanoxbar::engine::Technology>();
    assert_debug::<nanoxbar::reliability::bism::BismStats>();
    assert_debug::<nanoxbar::reliability::unaware::RecoveredCrossbar>();
}

#[test]
fn error_types_are_well_behaved() {
    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<LogicError>();
    assert_error::<nanoxbar::engine::flow::FlowError>();
    // Display is lowercase without trailing punctuation (C-GOOD-ERR).
    let e = LogicError::ContradictoryCube { var: 2 };
    let msg = e.to_string();
    assert!(msg.chars().next().expect("non-empty").is_lowercase());
    assert!(!msg.ends_with('.'));
}

#[test]
fn debug_representations_are_never_empty() {
    let tt = TruthTable::zeros(2);
    assert!(!format!("{tt:?}").is_empty());
    let lattice = Lattice::constant(2, true);
    assert!(!format!("{lattice:?}").is_empty());
}

#[test]
fn parallel_synthesis_across_threads() {
    // A realistic Send/Sync exercise: synthesise the suite concurrently.
    let handles: Vec<_> = nanoxbar::logic::suite::standard_suite()
        .into_iter()
        .filter(|f| !f.table.is_zero() && !f.table.is_ones())
        .take(8)
        .map(|f| {
            std::thread::spawn(move || {
                let lattice = nanoxbar::engine::synthesize(
                    &f.table,
                    nanoxbar::engine::Technology::FourTerminal,
                )
                .expect("non-constant");
                assert!(lattice.computes(&f.table), "{}", f.name);
                lattice.area()
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("thread must not panic") > 0);
    }
}
