//! Lattice synthesis algorithms.
//!
//! * [`dual_based`] — the Fig. 5 construction (`P(f^D) × P(f)`, always
//!   correct, not necessarily optimal);
//! * [`compose`] — OR/AND composition with 0-columns and 1-rows
//!   (Sec. III-B-1, ref \[3\]);
//! * [`pcircuit`] — P-circuit decomposition preprocessing (Sec. III-B-1);
//! * [`dreducible`] — affine-space (D-reducible) preprocessing
//!   (Sec. III-B-2);
//! * [`optimal`] — SAT-based minimum-area synthesis (ref \[9\]), used to
//!   measure the optimality gap of the constructions above;
//! * [`compact`] — a verification-backed local post-optimisation pass
//!   (row/column elimination, constant downgrading).

pub mod compact;
pub mod compose;
pub mod dreducible;
pub mod dual_based;
pub mod optimal;
pub mod pcircuit;

/// Errors from the fallible synthesis entry points
/// ([`dual_based::try_synthesize`], [`optimal::try_synthesize`]).
///
/// The panicking `synthesize` wrappers remain for interactive use;
/// request-path callers (the `nanoxbar-engine` job runner) use the `try_`
/// variants and surface these as typed errors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthError {
    /// The function cover and the dual cover disagree on arity.
    ArityMismatch {
        /// Arity of the function cover.
        f_vars: usize,
        /// Arity of the dual cover.
        dual_vars: usize,
    },
    /// A constant cover reached a construction that needs real products.
    ConstantCover,
    /// Products `row` (of the dual) and `col` (of the function) share no
    /// literal — the covers are not a function/dual pair.
    NoSharedLiteral {
        /// Dual-cover product index (lattice row).
        row: usize,
        /// Function-cover product index (lattice column).
        col: usize,
    },
    /// The SAT conflict budget ran out during optimal synthesis.
    SatBudgetExceeded {
        /// SAT calls issued before giving up.
        sat_calls: usize,
    },
    /// The wall-clock deadline passed during optimal synthesis.
    DeadlineExceeded {
        /// SAT calls issued before the deadline hit.
        sat_calls: usize,
    },
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::ArityMismatch { f_vars, dual_vars } => {
                write!(f, "cover has {f_vars} variables, dual cover {dual_vars}")
            }
            SynthError::ConstantCover => {
                write!(f, "constant cover: use the truth-table entry point")
            }
            SynthError::NoSharedLiteral { row, col } => write!(
                f,
                "dual product {row} and function product {col} share no literal"
            ),
            SynthError::SatBudgetExceeded { sat_calls } => {
                write!(f, "sat conflict budget exhausted after {sat_calls} calls")
            }
            SynthError::DeadlineExceeded { sat_calls } => {
                write!(f, "deadline exceeded after {sat_calls} sat calls")
            }
        }
    }
}

impl std::error::Error for SynthError {}
