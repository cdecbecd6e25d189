//! # nanoxbar-engine
//!
//! The batch-first public API of the `nanoxbar` workspace: the paper's
//! Sec. III–IV pipeline (minimise → pick technology → synthesise → map
//! onto a defective fabric → BIST) behind one facade designed for
//! many-instance workloads.
//!
//! * [`SynthesisBackend`] — one trait for the four synthesis strategies
//!   (diode, FET, dual-based lattice, SAT-optimal lattice), registered as
//!   trait objects in a [`BackendRegistry`];
//! * [`Engine`] / [`EngineBuilder`] — the backend registry, the default
//!   minimise mode, and the optional result cache with its fill hook;
//! * [`Job`] / [`JobResult`] — typed requests and outcomes. A job is one
//!   kind of work (a logic function, a multi-output set, or an analog
//!   MVM) and its [`JobOutput`] mirrors that kind.
//!   [`Engine::run_batch`] fans jobs out across the `nanoxbar-par`
//!   work-stealing pool with deterministic, input-ordered results and
//!   per-job error isolation. A logic job built on a chip additionally
//!   runs one fault-tolerance path, reported as a [`ChipOutcome`]: the
//!   defect-unaware flow ([`Job::on_chip`]) or speculative
//!   built-in self-mapping ([`Job::map_on_chip`], a [`MapReport`]). A job
//!   picks its own strategy ([`Job::with_strategy`], the dual-based
//!   lattice by default) and time/area/SAT [`Limits`] ([`Job::limited`]),
//!   and may override the engine's minimise mode ([`Job::minimized`]), so
//!   one engine serves ISOP and exact requests side by side;
//! * [`Error`] — a single error hierarchy wrapping flow, logic, and
//!   synthesis failures (SAT budgets, fabric exhaustion), replacing
//!   library panics on the request path;
//! * [`ResultCache`] — an opt-in content-addressed LRU memo of
//!   `(function, strategy, minimise mode) → realization`
//!   ([`EngineBuilder::shared_cache`]); batches additionally dedupe
//!   identical jobs so each distinct function synthesises once. A
//!   [`CacheFillHook`] may supply misses from elsewhere (a peer replica)
//!   before local synthesis; [`Engine::run_without_fill`] runs a job with
//!   the hook skipped, which is how a replica answers a peer's fill
//!   without ever chaining one of its own.
//! * [`Job::mvm`] — analog in-memory-compute jobs: an [`MvmSpec`] programs
//!   a differential-pair conductance crossbar and Monte-Carlo executes
//!   matrix-vector products on it, reported as a deterministic
//!   [`MvmOutcome`] ([`JobOutput::Mvm`]). The chip-independent program
//!   step dedupes and memoises like synthesis; the chip-specific
//!   execution runs per job.
//! * [`Job::synthesize_multi`] — multi-output synthesis: every output of
//!   one request compiles onto a *single* shared-ROBDD sneak-path
//!   crossbar ([`Strategy::Bdd`], `nanoxbar-bddsynth`), so common
//!   subgraphs are realised once; deduped and cached on the whole output
//!   set, verified output-by-output.
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_engine::{Engine, Job, Strategy};
//!
//! let engine = Engine::new();
//! let jobs: Vec<Job> = Strategy::ALL
//!     .into_iter()
//!     .map(|s| Ok(Job::parse("x0 x1 + !x0 !x1")?.with_strategy(s).verified(true)))
//!     .collect::<Result<_, nanoxbar_engine::Error>>()?;
//! for result in engine.run_batch(&jobs) {
//!     let result = result?;
//!     println!("{:>15}: {} crosspoints", result.strategy, result.area());
//! }
//! # Ok::<(), nanoxbar_engine::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
mod engine;
mod error;
pub mod flow;
mod job;
mod tech;

pub use backend::{
    BackendRegistry, BddBackend, DiodeBackend, DualLatticeBackend, FetBackend, MinimizeMode,
    OptimalLatticeBackend, Strategy, SynthesisBackend, SynthesisContext,
};
pub use cache::{CacheKey, CacheStats, CachedSynthesis, InsertListener, ResultCache};
pub use engine::{CacheFillHook, Engine, EngineBuilder, Limits, MapSetup};
pub use error::Error;
pub use flow::{FlowError, FlowReport};
pub use job::{ChipOutcome, ChipSpec, Job, JobOutput, JobResult};
pub use tech::{Fingerprinted, Realization, Technology};

// The fault-tolerance vocabulary of mapping jobs ([`Job::map_on_chip`]),
// re-exported so engine consumers need no direct reliability dependency.
pub use nanoxbar_reliability::bism::{BismStats, BismStrategy};
pub use nanoxbar_reliability::mapper::{MapConfig, MapReport, Mapper, MapperSnapshot};

// The analog MVM vocabulary of [`Job::mvm`] jobs, re-exported for the
// same reason.
pub use nanoxbar_mvm::{ConductanceParams, MvmOutcome, MvmSpec};

// The multi-output BDD vocabulary of [`Job::synthesize_multi`] jobs,
// re-exported so consumers can inspect a [`Realization::Bdd`] without a
// direct bddsynth dependency.
pub use nanoxbar_bddsynth::{BddSynthError, SneakPathCrossbar};

use std::sync::OnceLock;

use nanoxbar_logic::TruthTable;

/// The process-wide default engine behind [`synthesize`].
fn default_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::new)
}

/// One-shot synthesis of `f` on a technology's default strategy through
/// the shared default engine — the non-batch convenience path.
///
/// # Errors
///
/// [`Error::ConstantFunction`] for constants on the two-terminal
/// technologies (the lattice path realises them as 1×1 constant sites).
///
/// # Examples
///
/// ```
/// use nanoxbar_engine::{synthesize, Technology};
/// use nanoxbar_logic::parse_function;
///
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// // Paper Sec. III: 2x5 diode, 4x4 FET, 2x2 lattice.
/// assert_eq!(synthesize(&f, Technology::Diode)?.size().to_string(), "2x5");
/// assert_eq!(synthesize(&f, Technology::Fet)?.size().to_string(), "4x4");
/// assert_eq!(synthesize(&f, Technology::FourTerminal)?.size().to_string(), "2x2");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(f: &TruthTable, tech: Technology) -> Result<Realization, Error> {
    default_engine()
        .run(&Job::synthesize(f.clone()).with_strategy(Strategy::from(tech)))
        .map(|result| match result.output {
            JobOutput::Logic { realization, .. } => {
                std::sync::Arc::unwrap_or_clone(realization.into_realization())
            }
            JobOutput::Mvm(_) => unreachable!("a synthesis job yields a realization"),
        })
}
