//! # nanoxbar-sat
//!
//! A from-scratch CDCL SAT solver, built as a substrate for the `nanoxbar`
//! reproduction of *"Computing with Nano-Crossbar Arrays"* (DATE 2017).
//! The optimal four-terminal lattice synthesis the paper cites (Gange,
//! Søndergaard, Stuckey — ref \[9\]) is SAT-based; since the workspace builds
//! every dependency itself, this crate provides the solver: two-watched
//! literals, first-UIP learning, VSIDS + phase saving, Luby restarts,
//! learnt-clause reduction, and incremental assumptions.
//!
//! Clauses live in one flat literal arena and the VSIDS order is a counted
//! heap, so intake and search allocate nothing per clause. Those data
//! structures are chosen to keep the solver's search trajectory fixed:
//! every decision, conflict, learnt clause and returned model is the one
//! the straightforward solver in `tests/reference/` produces, and
//! `tests/proptest_trajectory.rs` checks it. Optimal lattice synthesis
//! returns the first model found, so its lattices depend on that.
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_sat::{Cnf, Solver, SolveResult};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.fresh_var().positive();
//! let b = cnf.fresh_var().positive();
//! cnf.add_clause([a, b]);
//! cnf.add_clause([!a, b]);
//! let mut solver = Solver::from_cnf(&cnf);
//! assert!(solver.solve().is_sat());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
pub mod encode;
mod lit;
mod solver;

pub use cnf::Cnf;
pub use lit::{LBool, Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
