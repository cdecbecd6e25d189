//! # nanoxbar-core
//!
//! The top of the `nanoxbar` stack — a reproduction of *"Computing with
//! Nano-Crossbar Arrays: Logic Synthesis and Fault Tolerance"* (Altun,
//! Ciriani, Tahoori — DATE 2017). This crate ties the substrates together
//! into the paper's flows:
//!
//! * [`compare`] — the Sec. III size comparison across a benchmark suite;
//! * [`arith`], [`memory`], [`ssm`] — the announced future-work items
//!   (Sec. V): crossbar adders, latches/registers, and a synchronous state
//!   machine built from them;
//! * [`report`] — text tables for the experiment binaries.
//!
//! Synthesis itself, [`Technology`] and [`Realization`], and the
//! defect-unaware flow of Fig. 6(b) ([`Job::on_chip`]) live in
//! `nanoxbar-engine`, behind the batch [`Engine`] facade.
//!
//! [`Engine`]: nanoxbar_engine::Engine
//! [`Job::on_chip`]: nanoxbar_engine::Job::on_chip
//! [`Technology`]: nanoxbar_engine::Technology
//! [`Realization`]: nanoxbar_engine::Realization
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_engine::{Engine, Job, Strategy, Technology};
//! use nanoxbar_logic::parse_function;
//!
//! // The paper's worked example, on all three technologies.
//! let engine = Engine::new();
//! let f = parse_function("x0 x1 + !x0 !x1")?;
//! for tech in Technology::ALL {
//!     let job = Job::synthesize(f.clone()).with_strategy(Strategy::from(tech));
//!     let result = engine.run(&job)?;
//!     let realization = result.realization().expect("synthesis jobs carry one");
//!     assert!(realization.computes(&f));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod compare;
pub mod memory;
pub mod report;
pub mod ssm;
mod tech;
