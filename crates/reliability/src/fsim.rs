//! Fault simulation for configured crossbars.
//!
//! The single source of truth for test-mode semantics: rows are wired-AND
//! products over driven literal columns, every row is observable, and a
//! [`FabricFault`] perturbs the electrical behaviour as documented on each
//! variant. BIST coverage (Sec. IV-A) is *proved* against this simulator by
//! exhaustive fault injection.
//!
//! # Word-parallel batch path
//!
//! Exhaustive coverage sweeps ask the same question for every
//! (fault, vector) pair, so the module also provides a bit-sliced engine:
//! [`PackedVectors`] packs up to 64 test vectors into one `u64` per
//! column (bit `j` of `lines[c]` = vector `j`'s value on column `c`), and
//! [`PackedSim`] computes the fault-free ("golden") row responses **once
//! per configuration** as row words in the same layout. A fault is then
//! judged against all packed vectors at once by [`PackedSim::detect_word`],
//! which recomputes only the rows the fault can touch — one or two rows
//! for crosspoint and bridge/open faults — instead of re-simulating the
//! whole array twice per (fault, vector) pair the way the scalar
//! [`detects`] does. The scalar path remains the reference; the property
//! suite in `tests/packed_equivalence.rs` proves both agree.
//!
//! # Defect maps
//!
//! [`simulate_with_defects`] runs a whole chip's fabrication defects at
//! once, one vector at a time. It is the reference for the application
//! BIST/BISD and diagnosis verdicts, which read the defect map directly
//! through [`CrosspointHealth::contradicts`]: under a walking zero, a row
//! differs from its healthy response exactly where a stuck device
//! contradicts the programming.

use nanoxbar_crossbar::Crossbar;

use crate::defect::{CrosspointHealth, DefectMap};
use crate::fault::FabricFault;

/// A test stimulus: the logic value driven on each column.
pub type TestVector = Vec<bool>;

/// Simulates the fault-free row responses of a configuration under a
/// vector.
///
/// # Panics
///
/// Panics if the vector length differs from the column count.
pub fn golden_rows(config: &Crossbar, vector: &TestVector) -> Vec<bool> {
    simulate_rows(config, None, vector)
}

/// Simulates row responses with an optional injected fault.
///
/// # Panics
///
/// Panics if the vector length differs from the column count.
pub fn simulate_rows(
    config: &Crossbar,
    fault: Option<FabricFault>,
    vector: &TestVector,
) -> Vec<bool> {
    let size = config.size();
    assert_eq!(vector.len(), size.cols, "vector arity mismatch");

    // Effective column line values (column bridges and breaks first). The
    // fault-free path — half of every scalar `detects` call — borrows the
    // vector directly instead of cloning it.
    let mut owned: TestVector;
    let line: &[bool] = match fault {
        Some(FabricFault::BridgeCols { col }) => {
            owned = vector.clone();
            let merged = owned[col] && owned[col + 1];
            owned[col] = merged;
            owned[col + 1] = merged;
            &owned
        }
        Some(FabricFault::ColOpen { col }) => {
            // Floating column: devices on it never pull the row down.
            owned = vector.clone();
            owned[col] = true;
            &owned
        }
        _ => vector,
    };

    // Per-row wired-AND with crosspoint-level faults.
    let device_present = |r: usize, c: usize| -> bool {
        let programmed = config.is_programmed(r, c);
        match fault {
            Some(FabricFault::StuckOpen { row, col }) if (row, col) == (r, c) => false,
            Some(FabricFault::StuckClosed { row, col }) if (row, col) == (r, c) => true,
            _ => programmed,
        }
    };
    let device_value = |r: usize, c: usize| -> bool {
        match fault {
            Some(FabricFault::Functional { row, col }) if (row, col) == (r, c) => !line[c],
            _ => line[c],
        }
    };
    let row_product =
        |r: usize| -> bool { (0..size.cols).all(|c| !device_present(r, c) || device_value(r, c)) };

    let mut rows: Vec<bool> = (0..size.rows).map(row_product).collect();

    match fault {
        Some(FabricFault::BridgeRows { row }) => {
            let merged = rows[row] && rows[row + 1];
            rows[row] = merged;
            rows[row + 1] = merged;
        }
        Some(FabricFault::RowOpen { row }) => {
            // Broken observation wire floats high.
            rows[row] = true;
        }
        _ => {}
    }
    rows
}

/// True if `fault` is detected by (`config`, `vector`): some observable row
/// differs from the fault-free response.
///
/// Convenience wrapper that re-simulates the golden response; sweeps that
/// fix the configuration and vector should precompute it once and call
/// [`detects_with_golden`] (or use the word-parallel [`PackedSim`]).
pub fn detects(config: &Crossbar, fault: FabricFault, vector: &TestVector) -> bool {
    detects_with_golden(config, fault, vector, &golden_rows(config, vector))
}

/// [`detects`] with the fault-free response supplied by the caller, so
/// coverage loops simulate each (configuration, vector) golden exactly
/// once instead of once per fault.
///
/// # Panics
///
/// Panics if the vector length differs from the column count (`golden` is
/// trusted; a wrong-length golden merely compares unequal).
pub fn detects_with_golden(
    config: &Crossbar,
    fault: FabricFault,
    vector: &TestVector,
    golden: &[bool],
) -> bool {
    simulate_rows(config, Some(fault), vector) != golden
}

/// Up to 64 test vectors packed column-wise: bit `j` of `lines[c]` is
/// vector `j`'s value on column `c` — the stimulus-side half of the
/// word-parallel fault-simulation path.
#[derive(Clone, Debug)]
pub struct PackedVectors {
    /// Number of packed vectors (1..=64).
    count: usize,
    /// One word per column.
    lines: Vec<u64>,
}

impl PackedVectors {
    /// Packs `vectors` into 64-vector chunks.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `cols`.
    pub fn pack(vectors: &[TestVector], cols: usize) -> Vec<PackedVectors> {
        vectors
            .chunks(64)
            .map(|chunk| {
                let mut lines = vec![0u64; cols];
                for (j, vector) in chunk.iter().enumerate() {
                    assert_eq!(vector.len(), cols, "vector arity mismatch");
                    for (c, &value) in vector.iter().enumerate() {
                        if value {
                            lines[c] |= 1u64 << j;
                        }
                    }
                }
                PackedVectors {
                    count: chunk.len(),
                    lines,
                }
            })
            .collect()
    }

    /// Number of packed vectors.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mask with one bit per packed vector.
    pub fn vector_mask(&self) -> u64 {
        if self.count == 64 {
            u64::MAX
        } else {
            (1u64 << self.count) - 1
        }
    }
}

/// Word-parallel fault simulator: one configuration, up to 64 vectors,
/// golden row responses computed once.
///
/// Row `r`'s golden word has bit `j` set when the wired-AND product of
/// row `r` reads 1 under packed vector `j`. [`PackedSim::detect_word`]
/// answers "which vectors detect this fault" in a handful of word
/// operations by recomputing only the rows the fault can perturb.
///
/// # Examples
///
/// ```
/// use nanoxbar_crossbar::{ArraySize, Crossbar};
/// use nanoxbar_reliability::fault::FabricFault;
/// use nanoxbar_reliability::fsim::{PackedSim, PackedVectors};
///
/// let mut config = Crossbar::new(ArraySize::new(2, 3));
/// config.set(0, 0, true);
/// config.set(1, 2, true);
/// let vectors = vec![vec![true, true, true], vec![false, true, true]];
/// let packed = PackedVectors::pack(&vectors, 3);
/// let sim = PackedSim::new(&config, &packed[0]);
/// // The second vector (bit 1) drives column 0 low and sees the fault.
/// let detecting = sim.detect_word(FabricFault::StuckOpen { row: 0, col: 0 });
/// assert_eq!(detecting, 0b10);
/// ```
#[derive(Clone, Debug)]
pub struct PackedSim<'a> {
    config: &'a Crossbar,
    lines: &'a [u64],
    vmask: u64,
    golden: Vec<u64>,
}

impl<'a> PackedSim<'a> {
    /// Builds the simulator and computes the golden row words (one
    /// wired-AND pass over the array).
    pub fn new(config: &'a Crossbar, vectors: &'a PackedVectors) -> Self {
        let size = config.size();
        assert_eq!(vectors.lines.len(), size.cols, "vector arity mismatch");
        let vmask = vectors.vector_mask();
        let golden = (0..size.rows)
            .map(|r| {
                (0..size.cols)
                    .filter(|&c| config.is_programmed(r, c))
                    .fold(vmask, |acc, c| acc & vectors.lines[c])
            })
            .collect();
        PackedSim {
            config,
            lines: &vectors.lines,
            vmask,
            golden,
        }
    }

    /// The golden (fault-free) response words, one per row.
    pub fn golden(&self) -> &[u64] {
        &self.golden
    }

    /// Recomputes row `r`'s word with column `skip` forced high (i.e.
    /// excluded from the wired-AND).
    fn row_word_excluding(&self, r: usize, skip: usize) -> u64 {
        (0..self.config.size().cols)
            .filter(|&c| c != skip && self.config.is_programmed(r, c))
            .fold(self.vmask, |acc, c| acc & self.lines[c])
    }

    /// Recomputes row `r`'s word with columns `col` and `col + 1` both
    /// reading `merged`.
    fn row_word_bridged(&self, r: usize, col: usize, merged: u64) -> u64 {
        (0..self.config.size().cols)
            .filter(|&c| self.config.is_programmed(r, c))
            .fold(self.vmask, |acc, c| {
                acc & if c == col || c == col + 1 {
                    merged
                } else {
                    self.lines[c]
                }
            })
    }

    /// The set of packed vectors (as a bitmask) under which some
    /// observable row differs from golden with `fault` injected —
    /// non-zero exactly when the scalar [`detects`] holds for some packed
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if the fault's coordinates are out of range for the
    /// configuration.
    pub fn detect_word(&self, fault: FabricFault) -> u64 {
        let size = self.config.size();
        match fault {
            FabricFault::StuckOpen { row, col } => {
                if self.config.is_programmed(row, col) {
                    self.row_word_excluding(row, col) ^ self.golden[row]
                } else {
                    0
                }
            }
            FabricFault::StuckClosed { row, col } => {
                if self.config.is_programmed(row, col) {
                    0
                } else {
                    // The parasitic device ANDs one more line into the row.
                    self.golden[row] & !self.lines[col]
                }
            }
            FabricFault::Functional { row, col } => {
                if self.config.is_programmed(row, col) {
                    (self.row_word_excluding(row, col) & !self.lines[col]) ^ self.golden[row]
                } else {
                    0
                }
            }
            FabricFault::BridgeRows { row } => {
                assert!(row + 1 < size.rows, "row bridge out of range");
                // Both rows read the AND of their products: a difference
                // shows exactly where the two golden words disagree.
                self.golden[row] ^ self.golden[row + 1]
            }
            FabricFault::RowOpen { row } => {
                // The broken wire floats high on every vector.
                !self.golden[row] & self.vmask
            }
            FabricFault::BridgeCols { col } => {
                assert!(col + 1 < size.cols, "column bridge out of range");
                let merged = self.lines[col] & self.lines[col + 1];
                (0..size.rows)
                    .filter(|&r| {
                        self.config.is_programmed(r, col) || self.config.is_programmed(r, col + 1)
                    })
                    .fold(0, |acc, r| {
                        acc | (self.row_word_bridged(r, col, merged) ^ self.golden[r])
                    })
            }
            FabricFault::ColOpen { col } => {
                assert!(col < size.cols, "column open out of range");
                (0..size.rows)
                    .filter(|&r| self.config.is_programmed(r, col))
                    .fold(0, |acc, r| {
                        acc | (self.row_word_excluding(r, col) ^ self.golden[r])
                    })
            }
        }
    }
}

/// Simulates row responses on a chip with fabrication defects (multi-fault:
/// every crosspoint defect in the map is active simultaneously).
///
/// The reference behind the application BIST/BISD and diagnosis
/// verdicts, which apply [`CrosspointHealth::contradicts`] to the defect
/// map instead of simulating (module docs).
///
/// # Panics
///
/// Panics if the defect map, configuration, and vector disagree on size.
pub fn simulate_with_defects(
    config: &Crossbar,
    defects: &DefectMap,
    vector: &TestVector,
) -> Vec<bool> {
    let size = config.size();
    assert_eq!(defects.size(), size, "defect map size mismatch");
    assert_eq!(vector.len(), size.cols, "vector arity mismatch");
    (0..size.rows)
        .map(|r| {
            (0..size.cols).all(|c| {
                let present = match defects.health(r, c) {
                    CrosspointHealth::Good => config.is_programmed(r, c),
                    CrosspointHealth::StuckOpen => false,
                    CrosspointHealth::StuckClosed => true,
                };
                !present || vector[c]
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_crossbar::ArraySize;

    /// 2x3 fabric: row 0 programs columns {0,1}; row 1 programs {2}.
    fn sample_config() -> Crossbar {
        let mut xb = Crossbar::new(ArraySize::new(2, 3));
        xb.set(0, 0, true);
        xb.set(0, 1, true);
        xb.set(1, 2, true);
        xb
    }

    #[test]
    fn golden_semantics_wired_and() {
        let xb = sample_config();
        assert_eq!(
            golden_rows(&xb, &vec![true, true, false]),
            vec![true, false]
        );
        assert_eq!(
            golden_rows(&xb, &vec![true, false, true]),
            vec![false, true]
        );
        // Empty row (no devices) would read 1; row 1 only depends on col 2.
    }

    #[test]
    fn stuck_open_detected_by_zero_on_its_column() {
        let xb = sample_config();
        let fault = FabricFault::StuckOpen { row: 0, col: 1 };
        // x1=0 should force row 0 low; the missing device leaves it high.
        assert!(detects(&xb, fault, &vec![true, false, true]));
        // All-ones cannot see it.
        assert!(!detects(&xb, fault, &vec![true, true, true]));
    }

    #[test]
    fn stuck_closed_detected_by_zero_on_foreign_column() {
        let xb = sample_config();
        let fault = FabricFault::StuckClosed { row: 1, col: 0 };
        // Row 1 should ignore column 0; the stuck device ANDs it in.
        assert!(detects(&xb, fault, &vec![false, true, true]));
        assert!(!detects(&xb, fault, &vec![true, true, true]));
    }

    #[test]
    fn bridge_rows_merges_products() {
        let xb = sample_config();
        let fault = FabricFault::BridgeRows { row: 0 };
        // x = (1,1,0): row0 golden 1, row1 golden 0; merged = 0 on both.
        let faulty = simulate_rows(&xb, Some(fault), &vec![true, true, false]);
        assert_eq!(faulty, vec![false, false]);
        assert!(detects(&xb, fault, &vec![true, true, false]));
    }

    #[test]
    fn bridge_cols_ands_line_values() {
        let xb = sample_config();
        let fault = FabricFault::BridgeCols { col: 1 };
        // x = (1,1,0): bridged cols 1,2 both read 0 -> row 0 sees x1=0.
        assert!(detects(&xb, fault, &vec![true, true, false]));
    }

    #[test]
    fn row_open_reads_high() {
        let xb = sample_config();
        let fault = FabricFault::RowOpen { row: 0 };
        // x0 = 0 forces row 0 low; break floats it high.
        assert!(detects(&xb, fault, &vec![false, true, true]));
    }

    #[test]
    fn col_open_equivalent_to_missing_devices() {
        let xb = sample_config();
        let fault = FabricFault::ColOpen { col: 2 };
        assert!(detects(&xb, fault, &vec![true, true, false]));
        assert!(!detects(&xb, fault, &vec![true, true, true]));
    }

    #[test]
    fn functional_inversion_detected_at_ones() {
        let xb = sample_config();
        let fault = FabricFault::Functional { row: 0, col: 0 };
        assert!(detects(&xb, fault, &vec![true, true, true]));
    }

    #[test]
    #[should_panic(expected = "vector arity mismatch")]
    fn wrong_vector_length_panics() {
        let xb = sample_config();
        let _ = golden_rows(&xb, &vec![true; 5]);
    }

    #[test]
    fn detects_with_golden_matches_detects() {
        let xb = sample_config();
        let vector = vec![true, false, true];
        let golden = golden_rows(&xb, &vector);
        for fault in crate::fault::fault_universe(xb.size()) {
            assert_eq!(
                detects_with_golden(&xb, fault, &vector, &golden),
                detects(&xb, fault, &vector),
                "{fault:?}"
            );
        }
    }

    #[test]
    fn packed_vectors_layout_and_chunking() {
        let vectors: Vec<TestVector> = (0..70).map(|i| vec![i % 2 == 0, i % 3 == 0]).collect();
        let chunks = PackedVectors::pack(&vectors, 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].count(), 64);
        assert_eq!(chunks[1].count(), 6);
        assert_eq!(chunks[1].vector_mask(), 0b11_1111);
        for (w, chunk) in chunks.iter().enumerate() {
            for j in 0..chunk.count() {
                for (c, line) in chunk.lines.iter().enumerate() {
                    assert_eq!(
                        (line >> j) & 1 == 1,
                        vectors[w * 64 + j][c],
                        "chunk {w} vector {j} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn detect_word_matches_scalar_detects_exhaustively() {
        // Random configurations, all standard-shaped vectors, the whole
        // fault universe: every bit of every detect word must equal the
        // scalar verdict.
        let mut state = 0x0BAD_F00Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (rows, cols) in [(1usize, 1usize), (2, 3), (4, 4), (5, 2), (3, 7)] {
            let size = ArraySize::new(rows, cols);
            for _ in 0..6 {
                let mut config = Crossbar::new(size);
                for r in 0..rows {
                    for c in 0..cols {
                        if next() % 3 != 0 {
                            config.set(r, c, true);
                        }
                    }
                }
                let vectors: Vec<TestVector> = (0..cols + 5)
                    .map(|_| (0..cols).map(|_| next() & 1 == 1).collect())
                    .collect();
                let packed = PackedVectors::pack(&vectors, cols);
                assert_eq!(packed.len(), 1);
                let sim = PackedSim::new(&config, &packed[0]);
                for fault in crate::fault::fault_universe(size) {
                    let word = sim.detect_word(fault);
                    for (j, vector) in vectors.iter().enumerate() {
                        assert_eq!(
                            (word >> j) & 1 == 1,
                            detects(&config, fault, vector),
                            "fault {fault:?} vector {vector:?} on\n{config}"
                        );
                    }
                }
            }
        }
    }
}
