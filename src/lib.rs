//! # nanoxbar
//!
//! Umbrella crate for the `nanoxbar` workspace — a full reproduction of
//! *"Computing with Nano-Crossbar Arrays: Logic Synthesis and Fault
//! Tolerance"* (Altun, Ciriani, Tahoori — DATE 2017). It re-exports every
//! subsystem crate so applications can depend on a single name:
//!
//! * [`engine`] — **the public entry point**: the batch-first [`Engine`]
//!   facade with trait-based synthesis backends, typed [`Job`]s (a logic
//!   function, optionally on a defective chip; a multi-output set; or an
//!   analog MVM) with results of the same shape, unified errors, and
//!   pool-parallel [`run_batch`](engine::Engine::run_batch);
//! * [`logic`] — Boolean substrate (truth tables, SOP covers, ISOP,
//!   minimisation, duals, PLA, BDD, benchmark suite);
//! * [`sat`] — from-scratch CDCL SAT solver (now with budgeted solving);
//! * [`crossbar`] — two-terminal diode/FET array models (Fig. 3);
//! * [`lattice`] — four-terminal switching lattices and their synthesis
//!   stack (Figs. 4–5, Sec. III-B);
//! * [`reliability`] — defects, fault simulation, BIST/BISD/BISM, and the
//!   defect-unaware flow (Sec. IV, Fig. 6);
//! * [`core`] — the Sec. V nanocomputer elements (adders, registers, SSM);
//! * [`bddsynth`] — the multi-output BDD → sneak-path crossbar compiler
//!   behind `strategy: "bdd"` ([`engine::Job::synthesize_multi`]);
//! * [`mvm`] — the analog in-memory-compute subsystem: differential-pair
//!   conductance programming and Monte-Carlo matrix-vector execution on
//!   defective, variation-afflicted crossbars ([`engine::Job::mvm`]);
//! * [`par`] — the vendored work-stealing thread pool behind every
//!   multi-core engine (`NANOXBAR_THREADS` controls the worker count);
//! * [`service`] — the std-only HTTP synthesis service (`nanoxbar serve`):
//!   `/v1/synthesize`, `/v1/batch`, `/v1/mvm`, `/healthz`, Prometheus `/metrics`,
//!   backed by the engine's content-addressed result cache.
//!
//! [`Engine`]: engine::Engine
//! [`Job`]: engine::Job
//!
//! ## Quickstart: one batch, every strategy
//!
//! ```
//! use nanoxbar::engine::{Engine, Job, Strategy};
//!
//! let engine = Engine::builder().build()?;
//! let jobs: Vec<Job> = Strategy::ALL
//!     .into_iter()
//!     .map(|s| Ok(Job::parse("x0 x1 + !x0 !x1")?.with_strategy(s).verified(true)))
//!     .collect::<Result<_, nanoxbar::engine::Error>>()?;
//!
//! // Fans out on the work-stealing pool; results stay input-ordered and a
//! // failing job would surface as its own Err without aborting the rest.
//! let results = engine.run_batch(&jobs);
//! let areas: Vec<usize> = results
//!     .into_iter()
//!     .map(|r| Ok(r?.area()))
//!     .collect::<Result<_, nanoxbar::engine::Error>>()?;
//! assert_eq!(areas, [10, 16, 4, 4, 8]); // diode, fet, dual-lattice, optimal, bdd
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nanoxbar_bddsynth as bddsynth;
pub use nanoxbar_core as core;
pub use nanoxbar_crossbar as crossbar;
pub use nanoxbar_engine as engine;
pub use nanoxbar_lattice as lattice;
pub use nanoxbar_logic as logic;
pub use nanoxbar_mvm as mvm;
pub use nanoxbar_par as par;
pub use nanoxbar_reliability as reliability;
pub use nanoxbar_sat as sat;
pub use nanoxbar_service as service;
