//! # nanoxbar-crossbar
//!
//! Two-terminal switch crossbar models for the `nanoxbar` reproduction of
//! *"Computing with Nano-Crossbar Arrays"* (DATE 2017), Sec. III-A.
//!
//! Each crosspoint of a nano-crossbar behaves as a two-terminal switch —
//! a diode or a FET depending on the technology — and Boolean functions are
//! implemented in sum-of-products form directly on the grid:
//!
//! * [`DiodeArray`] — diode–resistor logic, size `P × (L+1)` (Fig. 3 left);
//! * [`FetArray`] — complementary n/p column networks, size
//!   `L × (P + P^D)` (Fig. 3 right);
//! * [`Crossbar`] — the bare programmable grid both build on (also reused
//!   by the reliability engine);
//! * [`MultiOutputDiodeArray`] — multi-output PLA arrays with shared
//!   product rows;
//! * [`two_terminal_sizes`] — the Fig. 3 size formulas.
//!
//! Verification reads the programmed grid 64 minterms at a time: a diode
//! row or FET column is the AND of its programmed literals' words, and the
//! FET output is `high & !low`. It is an electrical check of the grid, not
//! a re-evaluation of the cover it was built from. `computes_scalar` keeps
//! the per-minterm evaluation as the reference `tests/proptest_crossbar.rs`
//! holds the word path to.
//!
//! ## Quickstart
//!
//! ```
//! use nanoxbar_crossbar::{DiodeArray, FetArray};
//! use nanoxbar_logic::{dual_cover, isop_cover, parse_function};
//!
//! let f = parse_function("x0 x1 + !x0 !x1")?;
//! let diode = DiodeArray::synthesize(&isop_cover(&f));
//! let fet = FetArray::synthesize(&isop_cover(&f), &dual_cover(&f));
//! assert!(diode.computes(&f) && fet.computes(&f));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diode;
mod fet;
mod multi;
mod size;
mod topology;

pub use diode::{diode_size_formula, distinct_literals, DiodeArray};
pub use fet::{fet_size_formula, DriveState, FetArray};
pub use multi::MultiOutputDiodeArray;
pub use size::{two_terminal_sizes, TwoTerminalSizes};
pub use topology::{ArraySize, Crossbar};
