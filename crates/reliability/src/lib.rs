//! # nanoxbar-reliability
//!
//! Built-in variation, defect, and fault tolerance for nano-crossbar
//! arrays — the Sec. IV work package of *"Computing with Nano-Crossbar
//! Arrays"* (DATE 2017):
//!
//! * [`defect`] — the stochastic fabrication-defect model (the simulated
//!   substitute for physical chips);
//! * [`fault`] / [`fsim`] — the logic-level fault universe (stuck-at,
//!   bridging, open, functional) and the fault simulator;
//! * [`bist`] — minimal single-term test plans with 100 % coverage,
//!   proved by exhaustive fault injection;
//! * [`bisd`] — block-code self-diagnosis with a logarithmic number of
//!   configurations;
//! * [`bism`] — blind / greedy / hybrid built-in self-mapping;
//! * [`mapper`] — the staged, resumable BISM state machine with
//!   speculative greedy search (the engine's mapping backend);
//! * [`unaware`] — the defect-unaware flow of Fig. 6(b): one-time `k×k`
//!   defect-free sub-crossbar extraction with `O(N)` map storage;
//! * [`matching`] — Hopcroft–Karp matching (the defect-aware baseline);
//! * [`transient`] — runtime transient upsets and modular-redundancy
//!   voting (lifetime reliability);
//! * [`variation`] — parametric variation as delay spread / guard-band
//!   analysis (predictability and performance).
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_crossbar::ArraySize;
//! use nanoxbar_reliability::bist::TestPlan;
//! use nanoxbar_reliability::fault::fault_universe;
//!
//! let size = ArraySize::new(8, 8);
//! let plan = TestPlan::generate(size);
//! let report = plan.coverage(size, &fault_universe(size));
//! assert_eq!(report.coverage(), 1.0); // the paper's 100% claim
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisd;
pub mod bism;
pub mod bist;
pub mod defect;
pub mod fault;
pub mod fsim;
pub mod mapper;
pub mod matching;
pub mod transient;
pub mod unaware;
pub mod variation;
