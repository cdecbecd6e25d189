//! The end-to-end design flow: synthesise → recover fabric → map → test.
//!
//! Mirrors the proposed defect-unaware flow of Fig. 6(b): the chip is
//! characterised once ([`nanoxbar_reliability::unaware::extract_greedy`]);
//! each application is then synthesised against a clean `k×k` crossbar and
//! placed on the recovered rows/columns, with application-dependent BIST as
//! the final check.
//!
//! Jobs with a chip run it through `Engine::run`/`run_batch`
//! ([`crate::Job::on_chip`]); [`defect_unaware_flow_with_cover`] is the
//! direct entry point.

use nanoxbar_logic::Cover;
use nanoxbar_reliability::bism::{application_bist, Application};
use nanoxbar_reliability::defect::DefectMap;
use nanoxbar_reliability::unaware::{extract_greedy, RecoveredCrossbar};

/// Outcome of mapping one function onto one defective chip.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowReport {
    /// The recovered defect-free sub-crossbar used.
    pub recovered: RecoveredCrossbar,
    /// Rows of the physical fabric used for the products (one per product).
    pub placement: Vec<usize>,
    /// Whether the final application BIST passed.
    pub bist_passed: bool,
    /// Products placed.
    pub products: usize,
    /// Literal columns used.
    pub used_cols: usize,
}

/// Errors from the defect-unaware flow.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowError {
    /// The recovered defect-free sub-crossbar is too small for the
    /// function's SOP.
    InsufficientFabric {
        /// Rows/columns needed (products, literals).
        needed: (usize, usize),
        /// Recovered square side.
        recovered_k: usize,
    },
    /// The target function is constant and needs no array.
    ConstantFunction,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::InsufficientFabric {
                needed,
                recovered_k,
            } => write!(
                f,
                "function needs {}x{} but recovered sub-crossbar is {recovered_k}x{recovered_k}",
                needed.0, needed.1
            ),
            FlowError::ConstantFunction => write!(f, "constant function needs no crossbar"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Runs the defect-unaware flow for one SOP cover on one chip; the
/// engine passes the cover of whichever minimiser the job asked for.
///
/// # Errors
///
/// [`FlowError::ConstantFunction`] for constant covers,
/// [`FlowError::InsufficientFabric`] when the one-time recovered `k×k`
/// crossbar cannot hold the cover.
///
/// # Examples
///
/// ```
/// use nanoxbar_engine::flow::defect_unaware_flow_with_cover;
/// use nanoxbar_crossbar::ArraySize;
/// use nanoxbar_logic::{isop_cover, parse_function};
/// use nanoxbar_reliability::defect::DefectMap;
///
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let chip = DefectMap::random_uniform(ArraySize::new(16, 16), 0.03, 0.01, 5);
/// let report = defect_unaware_flow_with_cover(&isop_cover(&f), &chip)?;
/// assert!(report.bist_passed);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn defect_unaware_flow_with_cover(
    cover: &Cover,
    chip: &DefectMap,
) -> Result<FlowReport, FlowError> {
    if cover.is_zero_cover() || cover.has_universe_cube() {
        return Err(FlowError::ConstantFunction);
    }
    let app = Application::from_cover(cover);

    // One-time chip characterisation (amortised over all applications).
    let recovered = extract_greedy(chip);
    let k = recovered.k();
    if app.product_count() > k || app.used_cols() > k {
        return Err(FlowError::InsufficientFabric {
            needed: (app.product_count(), app.used_cols()),
            recovered_k: k,
        });
    }

    // Defect-unaware placement: any recovered rows/columns work — take the
    // first P rows and route the literals through the recovered columns.
    let placement: Vec<usize> = recovered.rows[..app.product_count()].to_vec();
    let physical_app = app.with_columns(&recovered.cols);

    let bist_passed = application_bist(&physical_app, &placement, chip);
    let used_cols = app.used_cols();
    Ok(FlowReport {
        recovered,
        placement,
        bist_passed,
        products: app.product_count(),
        used_cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_crossbar::ArraySize;
    use nanoxbar_logic::{isop_cover, parse_function, TruthTable};

    #[test]
    fn flow_succeeds_on_moderately_defective_chips() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        for seed in 0..10u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(16, 16), 0.05, 0.02, seed);
            let report = defect_unaware_flow_with_cover(&isop_cover(&f), &chip).unwrap();
            assert!(report.bist_passed, "seed {seed}");
            assert!(report.recovered.is_defect_free(&chip));
        }
    }

    #[test]
    fn flow_rejects_constants_and_tiny_fabrics() {
        let chip = DefectMap::healthy(ArraySize::new(2, 2));
        assert!(matches!(
            defect_unaware_flow_with_cover(&isop_cover(&TruthTable::ones(2)), &chip),
            Err(FlowError::ConstantFunction)
        ));
        let f = parse_function("x0 x1 + !x0 !x1").unwrap(); // needs 4 columns
        match defect_unaware_flow_with_cover(&isop_cover(&f), &chip) {
            Err(FlowError::InsufficientFabric {
                needed,
                recovered_k,
            }) => {
                assert_eq!(needed, (2, 4));
                assert_eq!(recovered_k, 2);
            }
            other => panic!("expected InsufficientFabric, got {other:?}"),
        }
    }

    #[test]
    fn bist_always_passes_on_recovered_region() {
        // The whole point of the flow: the recovered region is defect-free,
        // so BIST on it must pass for any placement.
        let f = parse_function("x0 x1 x2 + !x0 !x1 + x1 !x2").unwrap();
        for seed in 20..30u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(24, 24), 0.08, 0.02, seed);
            match defect_unaware_flow_with_cover(&isop_cover(&f), &chip) {
                Ok(report) => assert!(report.bist_passed, "seed {seed}"),
                Err(FlowError::InsufficientFabric { .. }) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }
}
