//! The unified error hierarchy for the request path.
//!
//! Every failure an [`crate::Engine`] job can hit — parse errors, constant
//! functions on two-terminal technologies, SAT budget exhaustion, fabric
//! exhaustion in the defect-unaware flow, per-job limits, and panics
//! captured by batch isolation — is one [`Error`] variant, so batch callers
//! match on a single type instead of crate-local errors and panics.

use std::time::Duration;

use nanoxbar_lattice::synth::SynthError;
use nanoxbar_logic::LogicError;

use crate::flow::FlowError;

/// Any failure of an engine job.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A Boolean-function construction or parse failure.
    Logic(LogicError),
    /// The defect-unaware flow failed (fabric exhaustion, constants).
    Flow(FlowError),
    /// Lattice synthesis failed (bad covers, SAT budget, deadline).
    Synth(SynthError),
    /// The target is constant and the chosen backend needs products.
    ConstantFunction {
        /// Arity of the constant target.
        num_vars: usize,
    },
    /// No registered backend carries the requested name.
    UnknownStrategy {
        /// The name that failed to resolve.
        name: String,
    },
    /// An analog MVM job carries an invalid spec (bad dimensions,
    /// non-finite values, defect probabilities summing past 1, …).
    /// Raised *before* the chip draw, so a bad spec is a typed error —
    /// never a tripped `assert!` on a worker thread.
    MvmSpec {
        /// What is wrong with it.
        message: String,
    },
    /// A multi-output job ([`crate::Job::synthesize_multi`]) carries an
    /// invalid output set (empty, mixed arities) or asks for something
    /// only single-output jobs support (chip flows, BISM mapping, a
    /// non-BDD strategy).
    MultiSpec {
        /// What is wrong with it.
        message: String,
    },
    /// A BISM mapping job carries an invalid [`crate::MapConfig`].
    MapConfig {
        /// What is wrong with it.
        message: String,
    },
    /// A BISM mapping job targets a chip too small for the application.
    MapFabric {
        /// Rows × literal columns the application needs.
        needed: (usize, usize),
        /// Rows × columns the chip has.
        fabric: (usize, usize),
    },
    /// The realisation exceeded the engine's area limit.
    AreaLimit {
        /// Crosspoints of the realisation.
        area: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The job ran past its time limit ([`crate::Limits::time`]).
    TimeLimit {
        /// The configured ceiling.
        limit: Duration,
    },
    /// The synthesised realisation failed exhaustive verification against
    /// its target — a backend bug surfaced as data, not a panic.
    Verification {
        /// Name of the backend that produced the bad realisation.
        strategy: String,
    },
    /// A panic escaped the job and was captured by batch isolation.
    Panicked {
        /// The panic payload, rendered to a string.
        message: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Logic(e) => write!(f, "logic error: {e}"),
            Error::Flow(e) => write!(f, "flow error: {e}"),
            Error::Synth(e) => write!(f, "synthesis error: {e}"),
            Error::ConstantFunction { num_vars } => {
                write!(f, "constant {num_vars}-variable function needs no crossbar")
            }
            Error::UnknownStrategy { name } => write!(f, "unknown synthesis strategy {name:?}"),
            Error::MvmSpec { message } => write!(f, "bad mvm spec: {message}"),
            Error::MultiSpec { message } => write!(f, "bad multi-output job: {message}"),
            Error::MapConfig { message } => write!(f, "bad map configuration: {message}"),
            Error::MapFabric { needed, fabric } => write!(
                f,
                "application needs {}x{} but the chip is {}x{}",
                needed.0, needed.1, fabric.0, fabric.1
            ),
            Error::AreaLimit { area, limit } => {
                write!(f, "realisation area {area} exceeds the limit {limit}")
            }
            Error::TimeLimit { limit } => {
                write!(f, "job exceeded the time limit of {limit:?}")
            }
            Error::Verification { strategy } => {
                write!(f, "strategy {strategy:?} produced a wrong realisation")
            }
            Error::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Logic(e) => Some(e),
            Error::Flow(e) => Some(e),
            Error::Synth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogicError> for Error {
    fn from(e: LogicError) -> Self {
        Error::Logic(e)
    }
}

impl From<FlowError> for Error {
    fn from(e: FlowError) -> Self {
        Error::Flow(e)
    }
}

impl From<SynthError> for Error {
    fn from(e: SynthError) -> Self {
        Error::Synth(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<Error> = vec![
            LogicError::VarOutOfRange {
                var: 7,
                num_vars: 3,
            }
            .into(),
            FlowError::ConstantFunction.into(),
            SynthError::SatBudgetExceeded { sat_calls: 4 }.into(),
            Error::ConstantFunction { num_vars: 2 },
            Error::UnknownStrategy {
                name: "quantum".into(),
            },
            Error::MvmSpec {
                message: "trials must be in 1..=4096, got 0".into(),
            },
            Error::MultiSpec {
                message: "multi-output jobs need at least one output".into(),
            },
            Error::MapConfig {
                message: "speculation width must be >= 1".into(),
            },
            Error::MapFabric {
                needed: (3, 6),
                fabric: (4, 4),
            },
            Error::AreaLimit { area: 30, limit: 9 },
            Error::TimeLimit {
                limit: Duration::from_millis(5),
            },
            Error::Verification {
                strategy: "diode".into(),
            },
            Error::Panicked {
                message: "boom".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync_and_sourced() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<Error>();
        let e: Error = FlowError::ConstantFunction.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
