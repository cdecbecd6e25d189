//! # nanoxbar-logic
//!
//! Boolean-function substrate for the `nanoxbar` workspace — a reproduction
//! of *"Computing with Nano-Crossbar Arrays: Logic Synthesis and Fault
//! Tolerance"* (Altun, Ciriani, Tahoori — DATE 2017).
//!
//! Nano-crossbar synthesis works exclusively on **sum-of-products** forms
//! (paper, Sec. III-A), so this crate provides everything needed to get a
//! function into a good SOP and to reason about it:
//!
//! * [`TruthTable`] — bit-packed complete truth tables (the verification
//!   ground truth for every construction in the workspace);
//! * [`Cube`], [`Literal`], [`Cover`] — product terms and SOP covers;
//! * [`Expr`] / [`parse_function`] — an expression parser accepting the
//!   paper's notation (`x1x2 + x1'x2'`);
//! * [`isop`] / [`isop_cover`] — Minato–Morreale irredundant SOP generation;
//! * [`dual_cover`] — irredundant covers of the Boolean dual `f^D`, plus the
//!   shared-literal lemma used by lattice synthesis;
//! * [`minimize`] — exact (Quine–McCluskey) and heuristic (Espresso-style)
//!   two-level minimisation;
//! * [`pla`] — Berkeley PLA format I/O;
//! * [`bdd`] — a small ROBDD package used for internal manipulation;
//! * [`suite`] — the built-in benchmark functions driving the experiments.
//!
//! ## Word-parallel kernels
//!
//! The synthesis request path never walks a function one minterm at a
//! time: it works on [`TruthTable`]'s packed words, 64 minterms per
//! operation, with [`variable_word`] as the leaf slice.
//!
//! * [`parse_function`] / [`Expr::to_truth_table`] walk the expression
//!   tree once per word.
//! * [`isop`] is the table-halving Minato–Morreale recursion: one `u64`
//!   (masks and shifts) at six variables or fewer, word halves above, and
//!   every sub-cover returned together with its function.
//! * [`TruthTable::variable`], [`TruthTable::extend_vars`],
//!   [`TruthTable::drop_var`], `dual`, `cofactor`, `swap_vars` and
//!   `permute_vars` are word operations.
//! * [`Cube::to_truth_table`] and [`Cover::to_truth_table`] OR each cube
//!   in as one in-word mask over the words its `x6+` literals select.
//! * [`bdd::BddManager::to_truth_table`] evaluates every node as a word
//!   multiplexer of its children.
//!
//! The per-minterm forms stay as the oracles `tests/proptest_logic.rs`
//! checks the kernels against: [`isop_scalar`], [`Expr::eval`],
//! [`Cube::contains_minterm`], [`Cover::eval`] and
//! [`bdd::BddManager::eval`]. Downstream crates follow the same rule:
//! `nanoxbar-crossbar` keeps `computes_scalar` next to its word-parallel
//! diode/FET `computes`, and `nanoxbar-bddsynth` keeps
//! `sifted_order_scalar` next to `sifted_order`.
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_logic::{parse_function, isop_cover, dual_cover};
//!
//! // The paper's running example (Sec. III-A).
//! let f = parse_function("x0 x1 + !x0 !x1")?;
//! let sop = isop_cover(&f);
//! let dual = dual_cover(&f);
//! // Fig. 3: diode array is P x (L+1) = 2 x 5; FET is L x (P + PD) = 4 x 4.
//! assert_eq!(sop.product_count(), 2);
//! assert_eq!(sop.distinct_literal_count(), 4);
//! assert_eq!(dual.product_count(), 2);
//! # Ok::<(), nanoxbar_logic::LogicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd;
mod cover;
mod cube;
mod dual;
mod error;
mod expr;
mod isop;
pub mod minimize;
pub mod pla;
pub mod suite;
mod truth_table;

pub use cover::Cover;
pub use cube::{Cube, Literal};
pub use dual::{check_shared_literal_lemma, dual_cover, shared_literal_grid};
pub use error::LogicError;
pub use expr::{parse_function, Expr};
pub use isop::{isop, isop_cover, isop_scalar};
pub use truth_table::{tail_mask, variable_word, word_len, Minterms, TruthTable, MAX_VARS};
