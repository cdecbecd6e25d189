//! Built-in self-test generation (paper Sec. IV-A).
//!
//! The paper's BIST programs *single-term functions* in test mode so that
//! every sensitised fault propagates to an observable output, achieving
//! 100 % coverage of the logic-level fault universe with a minimal set of
//! configurations and vectors. This module generates that plan for an N×M
//! fabric:
//!
//! * **all-programmed** configuration — sensitises stuck-opens, row/column
//!   opens and functional faults;
//! * **all-empty** configuration — sensitises stuck-closeds;
//! * **single-term rotations** — each row programs exactly one crosspoint
//!   (`col = (row + k) mod M`), giving adjacent rows and columns distinct
//!   single-term products, which sensitises bridging faults. `⌈M/N⌉`
//!   rotations suffice to use every column.
//!
//! Every configuration is exercised with the all-ones vector plus `M`
//! walking-zero vectors. Coverage is verified — not assumed — by exhaustive
//! fault simulation over [`crate::fault::fault_universe`].

use nanoxbar_crossbar::{ArraySize, Crossbar};
use nanoxbar_par as par;

use crate::fault::FabricFault;
use crate::fsim::{detects_with_golden, golden_rows, PackedSim, PackedVectors, TestVector};

/// One test configuration plus its stimulus set.
#[derive(Clone, Debug)]
pub struct TestConfiguration {
    /// Human-readable tag for reports.
    pub name: String,
    /// The crossbar programming used in test mode.
    pub config: Crossbar,
    /// Vectors applied in order.
    pub vectors: Vec<TestVector>,
}

/// A complete BIST plan.
#[derive(Clone, Debug)]
pub struct TestPlan {
    /// The configurations applied in order.
    pub configurations: Vec<TestConfiguration>,
}

/// Coverage results from exhaustive fault simulation.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// Faults in the universe.
    pub total: usize,
    /// Faults detected by at least one (configuration, vector) pair.
    pub detected: usize,
    /// The faults that escaped (empty at 100 % coverage).
    pub undetected: Vec<FabricFault>,
}

impl CoverageReport {
    /// Detected fraction (1.0 = the paper's claimed 100 %).
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// The all-ones + walking-zero stimulus set for `cols` columns.
fn standard_vectors(cols: usize) -> Vec<TestVector> {
    let mut vectors = vec![vec![true; cols]];
    for c in 0..cols {
        let mut v = vec![true; cols];
        v[c] = false;
        vectors.push(v);
    }
    vectors
}

impl TestPlan {
    /// Generates the minimal plan for an N×M fabric.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanoxbar_crossbar::ArraySize;
    /// use nanoxbar_reliability::bist::TestPlan;
    /// use nanoxbar_reliability::fault::fault_universe;
    ///
    /// let size = ArraySize::new(8, 8);
    /// let plan = TestPlan::generate(size);
    /// let report = plan.coverage(size, &fault_universe(size));
    /// assert_eq!(report.coverage(), 1.0);
    /// ```
    pub fn generate(size: ArraySize) -> Self {
        let (rows, cols) = (size.rows, size.cols);
        let vectors = standard_vectors(cols);
        let mut configurations = Vec::new();

        let mut all_on = Crossbar::new(size);
        for r in 0..rows {
            for c in 0..cols {
                all_on.set(r, c, true);
            }
        }
        configurations.push(TestConfiguration {
            name: "all-programmed".into(),
            config: all_on,
            vectors: vectors.clone(),
        });

        configurations.push(TestConfiguration {
            name: "all-empty".into(),
            config: Crossbar::new(size),
            vectors: vectors.clone(),
        });

        // Single-term rotations: enough shifts so every column is used by
        // some row (needed to sensitise every column bridge).
        let rotations = if cols > 1 { cols.div_ceil(rows) } else { 0 };
        for k in 0..rotations {
            let mut config = Crossbar::new(size);
            for r in 0..rows {
                config.set(r, (r + k * rows) % cols, true);
            }
            configurations.push(TestConfiguration {
                name: format!("single-term-rot{k}"),
                config,
                vectors: vectors.clone(),
            });
        }
        TestPlan { configurations }
    }

    /// The naive per-crosspoint plan (one configuration per crosspoint) —
    /// the baseline the paper's minimal plan is compared against.
    pub fn naive(size: ArraySize) -> Self {
        let vectors = standard_vectors(size.cols);
        let configurations = (0..size.rows)
            .flat_map(|r| (0..size.cols).map(move |c| (r, c)))
            .map(|(r, c)| {
                let mut config = Crossbar::new(size);
                config.set(r, c, true);
                TestConfiguration {
                    name: format!("naive-{r}-{c}"),
                    config,
                    vectors: vectors.clone(),
                }
            })
            .collect();
        TestPlan { configurations }
    }

    /// Number of configurations.
    pub fn config_count(&self) -> usize {
        self.configurations.len()
    }

    /// Total number of applied vectors across configurations.
    pub fn vector_count(&self) -> usize {
        self.configurations.iter().map(|c| c.vectors.len()).sum()
    }

    /// True if some (configuration, vector) detects the fault. The golden
    /// response of each (configuration, vector) pair is simulated once,
    /// not once per comparison.
    pub fn detects_fault(&self, fault: FabricFault) -> bool {
        self.configurations.iter().any(|tc| {
            tc.vectors
                .iter()
                .any(|v| detects_with_golden(&tc.config, fault, v, &golden_rows(&tc.config, v)))
        })
    }

    /// Exhaustive fault simulation over a fault universe, on the
    /// word-parallel path: per configuration the test vectors are packed
    /// into column bitsets and the golden row words computed once
    /// ([`PackedSim`]); each fault is then judged against all vectors at
    /// once, moving to the next configuration only if undetected so far.
    /// The universe is split into chunks judged concurrently on the
    /// [`nanoxbar_par`] pool — each fault's verdict is independent, so
    /// the report is bit-identical to [`TestPlan::coverage_scalar`] at
    /// every `NANOXBAR_THREADS` setting.
    pub fn coverage(&self, size: ArraySize, universe: &[FabricFault]) -> CoverageReport {
        let _ = size;
        // Pack every configuration's vectors and build all simulators up
        // front (one golden pass each), so the parallel fault sweep only
        // reads shared state.
        let packed: Vec<(&Crossbar, Vec<PackedVectors>)> = self
            .configurations
            .iter()
            .map(|tc| {
                let cols = tc.config.size().cols;
                (&tc.config, PackedVectors::pack(&tc.vectors, cols))
            })
            .collect();
        let sims: Vec<PackedSim> = packed
            .iter()
            .flat_map(|(config, chunks)| chunks.iter().map(|chunk| PackedSim::new(config, chunk)))
            .collect();
        let mut detected = vec![false; universe.len()];
        let chunk = par::chunk_len(universe.len(), 32);
        par::par_chunks_mut(&mut detected, chunk, |ci, seen| {
            let base = ci * chunk;
            for (k, slot) in seen.iter_mut().enumerate() {
                let fault = universe[base + k];
                *slot = sims.iter().any(|sim| sim.detect_word(fault) != 0);
            }
        });
        let undetected: Vec<FabricFault> = universe
            .iter()
            .zip(&detected)
            .filter(|&(_, &seen)| !seen)
            .map(|(&fault, _)| fault)
            .collect();
        CoverageReport {
            total: universe.len(),
            detected: universe.len() - undetected.len(),
            undetected,
        }
    }

    /// Scalar reference implementation of [`TestPlan::coverage`]: one
    /// full array re-simulation per (fault, configuration, vector).
    /// Kept as the ground truth the word-parallel path is verified
    /// against (and benchmarked against in `benches/word_parallel.rs`).
    pub fn coverage_scalar(&self, size: ArraySize, universe: &[FabricFault]) -> CoverageReport {
        let _ = size;
        let mut undetected = Vec::new();
        for &fault in universe {
            if !self.detects_fault(fault) {
                undetected.push(fault);
            }
        }
        CoverageReport {
            total: universe.len(),
            detected: universe.len() - undetected.len(),
            undetected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_universe;

    #[test]
    fn full_coverage_on_square_fabrics() {
        for n in [2usize, 3, 4, 6, 8] {
            let size = ArraySize::new(n, n);
            let report = TestPlan::generate(size).coverage(size, &fault_universe(size));
            assert_eq!(
                report.coverage(),
                1.0,
                "{n}x{n}: escaped {:?}",
                report.undetected
            );
        }
    }

    #[test]
    fn full_coverage_on_rectangular_fabrics() {
        // M == 1 fabrics are exercised separately: their row bridges are
        // functionally undetectable (identical single-column products).
        for (r, c) in [(2usize, 6usize), (6, 2), (3, 5), (5, 3), (1, 4)] {
            let size = ArraySize::new(r, c);
            let report = TestPlan::generate(size).coverage(size, &fault_universe(size));
            assert_eq!(
                report.coverage(),
                1.0,
                "{r}x{c}: escaped {:?}",
                report.undetected
            );
        }
    }

    #[test]
    fn config_count_is_constant_for_square_fabrics() {
        // The minimality claim: configurations don't grow with N (square
        // case), unlike the naive per-crosspoint plan.
        for n in [4usize, 8, 16] {
            let plan = TestPlan::generate(ArraySize::new(n, n));
            assert_eq!(plan.config_count(), 3, "n={n}");
            let naive = TestPlan::naive(ArraySize::new(n, n));
            assert_eq!(naive.config_count(), n * n);
        }
    }

    #[test]
    fn vector_budget_is_linear_in_columns() {
        let plan = TestPlan::generate(ArraySize::new(8, 8));
        assert_eq!(plan.vector_count(), 3 * 9);
    }

    #[test]
    fn single_column_fabric_covers_stuck_faults() {
        // M = 1: bridges between columns don't exist; row bridges are
        // functionally undetectable (identical products), which the
        // universe excludes only when R == 1. Check the stuck faults.
        let size = ArraySize::new(3, 1);
        let plan = TestPlan::generate(size);
        for fault in fault_universe(size) {
            match fault {
                FabricFault::BridgeRows { .. } => { /* undetectable when M == 1 */ }
                _ => assert!(plan.detects_fault(fault), "{fault:?} escaped"),
            }
        }
    }

    #[test]
    fn rotations_give_adjacent_rows_distinct_terms() {
        let plan = TestPlan::generate(ArraySize::new(5, 7));
        let rot = plan
            .configurations
            .iter()
            .find(|c| c.name.starts_with("single-term"))
            .unwrap();
        for r in 0..4 {
            let term_of = |row: usize| (0..7).find(|&c| rot.config.is_programmed(row, c)).unwrap();
            assert_ne!(term_of(r), term_of(r + 1));
        }
    }
}
