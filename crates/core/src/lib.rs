//! # nanoxbar-core
//!
//! The top of the `nanoxbar` stack — a reproduction of *"Computing with
//! Nano-Crossbar Arrays: Logic Synthesis and Fault Tolerance"* (Altun,
//! Ciriani, Tahoori — DATE 2017). This crate ties the substrates together
//! into the paper's flows:
//!
//! * [`Technology`] / [`Realization`] — re-exported from
//!   `nanoxbar-engine`, where synthesis lives behind the batch
//!   [`Engine`](nanoxbar_engine::Engine) facade;
//! * [`compare`] — the Sec. III size comparison across a benchmark suite;
//! * [`flow`] — re-exports of the defect-unaware design flow of Fig. 6(b)
//!   (run it through `Engine::run` on a job built with [`Job::on_chip`]);
//! * [`arith`], [`memory`], [`ssm`] — the announced future-work items
//!   (Sec. V): crossbar adders, latches/registers, and a synchronous state
//!   machine built from them;
//! * [`report`] — text tables for the experiment binaries.
//!
//! [`Job::on_chip`]: nanoxbar_engine::Job::on_chip
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_core::Technology;
//! use nanoxbar_engine::{Engine, Job, Strategy};
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
pub mod flow;
pub mod memory;
pub mod report;
pub mod ssm;
mod tech;

pub use tech::{Realization, Technology};
