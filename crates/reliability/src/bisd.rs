//! Built-in self-diagnosis (paper Sec. IV-A).
//!
//! Diagnosis pinpoints *which* crosspoint is faulty, with a number of
//! configurations **logarithmic** in the number of resources: every
//! crosspoint gets a distinct binary codeword, diagnosis configuration `j`
//! programs exactly the crosspoints whose bit `j` is set, and a final
//! *type* configuration (all-programmed) separates stuck-open from
//! stuck-closed. With walking-zero stimuli, the pass/fail outcomes satisfy
//!
//! * stuck-open at `p`  → configuration `j` fails iff bit `j` of `code(p)` is 1,
//! * stuck-closed at `p` → configuration `j` fails iff bit `j` of `code(p)` is 0,
//! * type configuration → fails iff the fault is a stuck-open.
//!
//! so the syndrome *is* the faulty resource's codeword (possibly
//! complemented), exactly the block-code scheme the paper describes.
//!
//! Every column carries a walking zero, so a configuration fails iff some
//! crosspoint of the chip contradicts it
//! ([`CrosspointHealth::contradicts`]); [`DiagnosisPlan::diagnose`] reads
//! that off the defect map. [`DiagnosisPlan::diagnose_scalar`] simulates
//! every stimulus on every configuration instead and is the reference the
//! rule is checked against.

use nanoxbar_crossbar::{ArraySize, Crossbar};

use crate::defect::{CrosspointHealth, DefectMap};
use crate::fsim::{golden_rows, simulate_with_defects, TestVector};

/// A diagnosis plan for one fabric size.
#[derive(Clone, Debug)]
pub struct DiagnosisPlan {
    size: ArraySize,
    /// Code configurations (one per codeword bit).
    code_configs: Vec<Crossbar>,
    /// The all-programmed type configuration.
    type_config: Crossbar,
    /// All-ones plus a walking zero on every column, as
    /// [`DiagnosisPlan::diagnose_scalar`] applies them.
    vectors: Vec<TestVector>,
}

/// Diagnosis outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Diagnosis {
    /// No configuration failed: the fabric looks healthy.
    Healthy,
    /// The decoded faulty crosspoint and its fault type.
    Faulty {
        /// Row of the diagnosed crosspoint.
        row: usize,
        /// Column of the diagnosed crosspoint.
        col: usize,
        /// Decoded fault type.
        health: CrosspointHealth,
    },
    /// Configurations failed, but the syndrome decodes to a code past
    /// the fabric's last crosspoint: several faults are present and no
    /// single one can be named.
    Ambiguous,
}

impl DiagnosisPlan {
    /// Builds the plan: `⌈log₂(R·C + 1)⌉` code configurations plus one type
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanoxbar_crossbar::ArraySize;
    /// use nanoxbar_reliability::bisd::DiagnosisPlan;
    ///
    /// let plan = DiagnosisPlan::generate(ArraySize::new(8, 8));
    /// // 64 resources need 7 code configurations + 1 type configuration.
    /// assert_eq!(plan.config_count(), 8);
    /// ```
    pub fn generate(size: ArraySize) -> Self {
        let resources = size.area();
        let width = usize::BITS as usize - (resources).leading_zeros() as usize;
        // width = ceil(log2(resources + 1)): codes 0..resources fit and the
        // all-ones word stays unused, keeping "healthy" unambiguous.
        let mut code_configs = Vec::with_capacity(width);
        for j in 0..width {
            let mut config = Crossbar::new(size);
            for r in 0..size.rows {
                for c in 0..size.cols {
                    let code = r * size.cols + c;
                    if (code >> j) & 1 == 1 {
                        config.set(r, c, true);
                    }
                }
            }
            code_configs.push(config);
        }
        let mut type_config = Crossbar::new(size);
        for r in 0..size.rows {
            for c in 0..size.cols {
                type_config.set(r, c, true);
            }
        }
        let mut vectors = vec![vec![true; size.cols]];
        for c in 0..size.cols {
            let mut v = vec![true; size.cols];
            v[c] = false;
            vectors.push(v);
        }
        DiagnosisPlan {
            size,
            code_configs,
            type_config,
            vectors,
        }
    }

    /// Total configurations (the paper's logarithmic count).
    pub fn config_count(&self) -> usize {
        self.code_configs.len() + 1
    }

    /// Fabric size the plan targets.
    pub fn size(&self) -> ArraySize {
        self.size
    }

    /// Runs the plan against a chip and decodes the syndrome. A
    /// configuration fails iff some crosspoint contradicts it (module
    /// docs), so the chip is judged from its defect map alone; the result
    /// equals [`DiagnosisPlan::diagnose_scalar`]'s.
    ///
    /// Sound under the single-fault assumption the paper's scheme is built
    /// on; with multiple defects the decoded location is the bitwise OR of
    /// the open-fault codes (a superset indicator), or
    /// [`Diagnosis::Ambiguous`] when that names no crosspoint, so callers
    /// needing multi-fault handling should iterate (diagnose → repair →
    /// re-run).
    ///
    /// # Panics
    ///
    /// Panics if the defect map's size differs from the plan's.
    pub fn diagnose(&self, defects: &DefectMap) -> Diagnosis {
        self.run(defects, |config| {
            defects
                .defects()
                .any(|(r, c, health)| health.contradicts(config.is_programmed(r, c)))
        })
    }

    /// Scalar reference for [`DiagnosisPlan::diagnose`]: a configuration
    /// fails when a full-array simulation of the chip differs from the
    /// fault-free one under some stimulus.
    ///
    /// # Panics
    ///
    /// Panics if the defect map's size differs from the plan's.
    pub fn diagnose_scalar(&self, defects: &DefectMap) -> Diagnosis {
        self.run(defects, |config| {
            self.vectors
                .iter()
                .any(|v| simulate_with_defects(config, defects, v) != golden_rows(config, v))
        })
    }

    /// Judges the type and code configurations with `fails` and decodes
    /// the outcome.
    fn run(&self, defects: &DefectMap, fails: impl Fn(&Crossbar) -> bool) -> Diagnosis {
        assert_eq!(defects.size(), self.size, "defect map size mismatch");
        let type_fail = fails(&self.type_config);
        let syndrome = (self.code_configs.iter().enumerate())
            .filter(|(_, config)| fails(config))
            .fold(0usize, |syndrome, (j, _)| syndrome | 1 << j);
        self.decode(type_fail, syndrome)
    }

    /// Decodes the (type, syndrome) outcome pair into a [`Diagnosis`].
    fn decode(&self, type_fail: bool, syndrome: usize) -> Diagnosis {
        if !type_fail && syndrome == 0 {
            return Diagnosis::Healthy;
        }
        let width = self.code_configs.len();
        let mask = (1usize << width) - 1;
        let (code, health) = if type_fail {
            (syndrome, CrosspointHealth::StuckOpen)
        } else {
            (!syndrome & mask, CrosspointHealth::StuckClosed)
        };
        if code >= self.size.area() {
            return Diagnosis::Ambiguous;
        }
        let row = code / self.size.cols;
        let col = code % self.size.cols;
        Diagnosis::Faulty { row, col, health }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all_single_faults(size: ArraySize) {
        let plan = DiagnosisPlan::generate(size);
        for r in 0..size.rows {
            for c in 0..size.cols {
                for health in [CrosspointHealth::StuckOpen, CrosspointHealth::StuckClosed] {
                    let mut defects = DefectMap::healthy(size);
                    defects.set(r, c, health);
                    let got = plan.diagnose(&defects);
                    assert_eq!(got, plan.diagnose_scalar(&defects));
                    assert_eq!(
                        got,
                        Diagnosis::Faulty {
                            row: r,
                            col: c,
                            health
                        },
                        "failed to diagnose {health:?} at ({r},{c}) on {size}"
                    );
                }
            }
        }
    }

    #[test]
    fn unique_diagnosis_on_small_fabrics() {
        check_all_single_faults(ArraySize::new(4, 4));
        check_all_single_faults(ArraySize::new(3, 5));
        check_all_single_faults(ArraySize::new(6, 2));
    }

    #[test]
    fn healthy_chip_reports_healthy() {
        let size = ArraySize::new(5, 5);
        let plan = DiagnosisPlan::generate(size);
        assert_eq!(plan.diagnose(&DefectMap::healthy(size)), Diagnosis::Healthy);
    }

    #[test]
    fn config_count_is_logarithmic() {
        // resources -> ceil(log2(F+1)) + 1 configurations
        let cases = [
            (ArraySize::new(4, 4), 5 + 1),   // 16 resources -> 5 bits
            (ArraySize::new(8, 8), 7 + 1),   // 64 -> 7
            (ArraySize::new(16, 16), 9 + 1), // 256 -> 9
            (ArraySize::new(32, 32), 11 + 1),
        ];
        for (size, expect) in cases {
            assert_eq!(
                DiagnosisPlan::generate(size).config_count(),
                expect,
                "{size}"
            );
        }
    }

    #[test]
    fn faults_whose_codes_or_past_the_fabric_are_ambiguous() {
        // Stuck-opens at (2,2) and (0,1) fail the code configurations of
        // 8 | 1 = 9, and a 3×3 fabric has only codes 0..9.
        let size = ArraySize::new(3, 3);
        let plan = DiagnosisPlan::generate(size);
        let mut chip = DefectMap::healthy(size);
        chip.set(2, 2, CrosspointHealth::StuckOpen);
        chip.set(0, 1, CrosspointHealth::StuckOpen);
        assert_eq!(plan.diagnose(&chip), Diagnosis::Ambiguous);
        assert_eq!(plan.diagnose_scalar(&chip), Diagnosis::Ambiguous);
    }

    #[test]
    fn exhaustive_uniqueness_8x8() {
        check_all_single_faults(ArraySize::new(8, 8));
    }
}
