//! Built-in self-mapping (paper Sec. IV-B).
//!
//! BISM places an application (an SOP cover, one product per crossbar row)
//! onto a partially defective chip, using only on-chip test feedback:
//!
//! * **Blind** — generate a random configuration, run application-dependent
//!   BIST, retry until it passes. No diagnosis hardware; fast at low defect
//!   densities, ineffective at high ones.
//! * **Greedy** — after each failed BIST, run application-dependent BISD on
//!   the used resources, remember the defective ones, and remap around
//!   them.
//! * **Hybrid** — blind for a fixed retry budget, then switch to greedy;
//!   works across global *and* local (per-chip) density variation.
//!
//! The figures of merit are the number of configuration attempts and of
//! BIST/BISD invocations until a defect-free configuration is found.
//!
//! [`application_bist`] and [`application_bisd`] read their verdict
//! straight off the defect map: a used row answers a walking zero
//! differently from a healthy row exactly where a stuck device
//! contradicts the programming ([`CrosspointHealth::contradicts`]).
//! [`application_bist_scalar`] and [`application_bisd_scalar`] simulate
//! every stimulus on the whole array instead; they are the references the
//! rule is checked against.

use std::collections::HashSet;

use nanoxbar_crossbar::{ArraySize, Crossbar};
use nanoxbar_logic::Cover;

use crate::defect::{CrosspointHealth, DefectMap};
use crate::fsim::simulate_with_defects;

/// The application to map onto a fabric.
///
/// Literals are *logical* indices `0..columns.len()`; `columns[l]` is the
/// physical fabric column carrying logical literal `l`. Fabric columns not
/// listed are left undriven (tied high), so defects there cannot disturb
/// the mapped function — which is what lets the defect-unaware flow ignore
/// them.
#[derive(Clone, Debug)]
pub struct Application {
    /// Physical column of each logical literal.
    pub columns: Vec<usize>,
    /// Per-product logical literal sets.
    pub products: Vec<Vec<usize>>,
}

impl Application {
    /// Derives the application from an SOP cover with the canonical
    /// distinct-literal column assignment (logical literal `l` on physical
    /// column `l`).
    pub fn from_cover(cover: &Cover) -> Self {
        let literals = nanoxbar_crossbar::distinct_literals(cover);
        let products = cover
            .cubes()
            .iter()
            .map(|cube| {
                cube.literals()
                    .iter()
                    .map(|l| {
                        literals
                            .iter()
                            .position(|x| x == l)
                            .expect("cube literal in distinct set")
                    })
                    .collect()
            })
            .collect();
        Application {
            columns: (0..literals.len()).collect(),
            products,
        }
    }

    /// The same application routed through different physical columns
    /// (e.g. the recovered columns of the defect-unaware flow).
    ///
    /// # Panics
    ///
    /// Panics if fewer physical columns are supplied than logical literals
    /// exist.
    pub fn with_columns(&self, physical: &[usize]) -> Self {
        assert!(
            physical.len() >= self.columns.len(),
            "not enough physical columns"
        );
        Application {
            columns: physical[..self.columns.len()].to_vec(),
            products: self.products.clone(),
        }
    }

    /// Number of logical literal columns.
    pub fn used_cols(&self) -> usize {
        self.columns.len()
    }

    /// Number of products to place.
    pub fn product_count(&self) -> usize {
        self.products.len()
    }

    /// Physical columns product `p` must program.
    pub fn physical_needs(&self, p: usize) -> Vec<usize> {
        self.products[p].iter().map(|&l| self.columns[l]).collect()
    }
}

/// A placement of products onto fabric rows.
pub type Mapping = Vec<usize>;

/// Counters for one BISM run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BismStats {
    /// Configurations tried (including the successful one).
    pub attempts: u64,
    /// BIST invocations.
    pub bist_runs: u64,
    /// BISD invocations (greedy/hybrid only).
    pub bisd_runs: u64,
    /// Whether a working configuration was found.
    pub success: bool,
}

/// Strategy selector (paper Sec. IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BismStrategy {
    /// Random configurations, BIST only.
    Blind,
    /// Diagnose after every failure and avoid known-bad resources.
    Greedy,
    /// Blind for the given number of retries, then greedy.
    Hybrid {
        /// Blind attempts before switching.
        blind_retries: u64,
    },
}

impl std::fmt::Display for BismStrategy {
    /// Renders the CLI/wire spelling: `blind`, `greedy`, `hybrid:N`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BismStrategy::Blind => write!(f, "blind"),
            BismStrategy::Greedy => write!(f, "greedy"),
            BismStrategy::Hybrid { blind_retries } => write!(f, "hybrid:{blind_retries}"),
        }
    }
}

impl std::str::FromStr for BismStrategy {
    type Err = String;

    /// Parses `blind`, `greedy`, `hybrid` (5 blind retries) or `hybrid:N`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "blind" => Ok(BismStrategy::Blind),
            "greedy" => Ok(BismStrategy::Greedy),
            "hybrid" => Ok(BismStrategy::Hybrid { blind_retries: 5 }),
            other => match other.strip_prefix("hybrid:") {
                Some(n) => n
                    .parse()
                    .map(|blind_retries| BismStrategy::Hybrid { blind_retries })
                    .map_err(|_| format!("bad hybrid retry count {n:?}")),
                None => Err(format!(
                    "unknown BISM strategy {other:?} (blind, greedy, hybrid[:N])"
                )),
            },
        }
    }
}

/// Builds the crossbar programming for a mapping.
fn program(app: &Application, mapping: &Mapping, size: ArraySize) -> Crossbar {
    let mut config = Crossbar::new(size);
    for (p, &row) in mapping.iter().enumerate() {
        for &l in &app.products[p] {
            config.set(row, app.columns[l], true);
        }
    }
    config
}

/// The BIST stimuli: all-ones plus a walking zero on every *driven*
/// physical column.
fn stimuli(app: &Application, cols: usize) -> Vec<Vec<bool>> {
    let mut vectors = vec![vec![true; cols]];
    for &pc in &app.columns {
        let mut v = vec![true; cols];
        v[pc] = false;
        vectors.push(v);
    }
    vectors
}

/// Application-dependent BIST: pass iff every *used* row responds exactly
/// like a healthy chip would on every stimulus. The all-ones stimulus
/// never tells a row apart, so this holds iff [`application_bisd`] finds
/// nothing; [`application_bist_scalar`] is the simulated reference.
pub fn application_bist(app: &Application, mapping: &Mapping, defects: &DefectMap) -> bool {
    application_bisd(app, mapping, defects).is_empty()
}

/// Scalar reference for [`application_bist`]: one full-array simulation
/// per (stimulus, chip) pair.
pub fn application_bist_scalar(app: &Application, mapping: &Mapping, defects: &DefectMap) -> bool {
    let size = defects.size();
    let config = program(app, mapping, size);
    let healthy = DefectMap::healthy(size);
    let used: HashSet<usize> = mapping.iter().copied().collect();
    stimuli(app, size.cols).iter().all(|v| {
        let golden = simulate_with_defects(&config, &healthy, v);
        let actual = simulate_with_defects(&config, defects, v);
        used.iter().all(|&r| golden[r] == actual[r])
    })
}

/// Application-dependent BISD: walking-zero responses localise each
/// mismatch to a (used row, physical column) resource; the mismatch
/// direction tells the fault type. Returns the defective used resources,
/// ordered by stimulus then row: each driven column's crosspoints, on
/// each distinct used row, that contradict the programmed crossbar
/// ([`CrosspointHealth::contradicts`]). [`application_bisd_scalar`] is
/// the simulated reference returning the same resource set.
pub fn application_bisd(
    app: &Application,
    mapping: &Mapping,
    defects: &DefectMap,
) -> Vec<(usize, usize, CrosspointHealth)> {
    let config = program(app, mapping, defects.size());
    let mut used: Vec<usize> = mapping.clone();
    used.sort_unstable();
    used.dedup();
    let mut found = Vec::new();
    for &pc in &app.columns {
        for &r in &used {
            let health = defects.health(r, pc);
            if health.contradicts(config.is_programmed(r, pc)) {
                found.push((r, pc, health));
            }
        }
    }
    found
}

/// Scalar reference for [`application_bisd`]: one full-array simulation
/// per (walking-zero stimulus, chip) pair.
pub fn application_bisd_scalar(
    app: &Application,
    mapping: &Mapping,
    defects: &DefectMap,
) -> Vec<(usize, usize, CrosspointHealth)> {
    let size = defects.size();
    let config = program(app, mapping, size);
    let healthy = DefectMap::healthy(size);
    let used: HashSet<usize> = mapping.iter().copied().collect();
    let mut found = Vec::new();
    for &pc in &app.columns {
        let mut v = vec![true; size.cols];
        v[pc] = false;
        let golden = simulate_with_defects(&config, &healthy, &v);
        let actual = simulate_with_defects(&config, defects, &v);
        for &r in &used {
            if golden[r] != actual[r] {
                let health = if golden[r] && !actual[r] {
                    CrosspointHealth::StuckClosed
                } else {
                    CrosspointHealth::StuckOpen
                };
                found.push((r, pc, health));
            }
        }
    }
    found
}

/// Runs one BISM session on a chip.
///
/// Since the staged [`crate::mapper::Mapper`] became the mapping engine,
/// this is a thin wrapper over a speculation-width-1 mapper — one
/// candidate per round, which is exactly the paper's serial algorithm
/// (and the reference the speculative widths are proved against).
///
/// # Panics
///
/// Panics if the fabric has fewer rows than the application has products
/// or does not contain the application's physical columns.
///
/// # Examples
///
/// ```
/// use nanoxbar_crossbar::ArraySize;
/// use nanoxbar_logic::{isop_cover, parse_function};
/// use nanoxbar_reliability::bism::{run_bism, Application, BismStrategy};
/// use nanoxbar_reliability::defect::DefectMap;
///
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let app = Application::from_cover(&isop_cover(&f));
/// let chip = DefectMap::random_uniform(ArraySize::new(8, 8), 0.05, 0.0, 1);
/// let stats = run_bism(&app, &chip, BismStrategy::Blind, 1000, 99);
/// assert!(stats.success);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_bism(
    app: &Application,
    defects: &DefectMap,
    strategy: BismStrategy,
    max_attempts: u64,
    seed: u64,
) -> BismStats {
    let config = crate::mapper::MapConfig {
        strategy,
        speculation: 1,
        max_attempts,
        seed,
    };
    crate::mapper::Mapper::new(app.clone(), defects.clone(), config)
        .run()
        .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_logic::{isop_cover, parse_function};

    fn xnor_app() -> Application {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        Application::from_cover(&isop_cover(&f))
    }

    #[test]
    fn application_extraction() {
        let app = xnor_app();
        assert_eq!(app.product_count(), 2);
        assert_eq!(app.used_cols(), 4);
        for p in &app.products {
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn bist_passes_on_healthy_chip() {
        let app = xnor_app();
        let chip = DefectMap::healthy(ArraySize::new(4, 4));
        assert!(application_bist(&app, &vec![0, 1], &chip));
    }

    #[test]
    fn bist_fails_on_conflicting_defect() {
        let app = xnor_app();
        let mut chip = DefectMap::healthy(ArraySize::new(4, 4));
        // Break a needed crosspoint of product 0 placed on row 0.
        let c = app.physical_needs(0)[0];
        chip.set(0, c, CrosspointHealth::StuckOpen);
        assert!(!application_bist(&app, &vec![0, 1], &chip));
        // The same chip works if product 0 moves to row 2.
        assert!(application_bist(&app, &vec![2, 1], &chip));
    }

    #[test]
    fn defects_on_undriven_columns_are_invisible() {
        let app = xnor_app();
        // Route the app through physical columns {0,2,4,6} of a wide chip.
        let routed = app.with_columns(&[0, 2, 4, 6]);
        let mut chip = DefectMap::healthy(ArraySize::new(4, 8));
        // Stuck-closed devices on undriven columns of the used rows.
        chip.set(0, 1, CrosspointHealth::StuckClosed);
        chip.set(1, 7, CrosspointHealth::StuckClosed);
        assert!(application_bist(&routed, &vec![0, 1], &chip));
    }

    #[test]
    fn bisd_localises_the_defect() {
        let app = xnor_app();
        let mut chip = DefectMap::healthy(ArraySize::new(4, 4));
        let c = app.physical_needs(1)[1];
        chip.set(1, c, CrosspointHealth::StuckOpen);
        let found = application_bisd(&app, &vec![0, 1], &chip);
        assert!(
            found.contains(&(1, c, CrosspointHealth::StuckOpen)),
            "{found:?}"
        );
    }

    #[test]
    fn bisd_detects_stuck_closed_type() {
        let app = xnor_app();
        let mut chip = DefectMap::healthy(ArraySize::new(4, 4));
        // A stuck-closed device on a driven-but-unneeded column of a used row.
        let needed: std::collections::HashSet<usize> = app.physical_needs(0).into_iter().collect();
        let c = app
            .columns
            .iter()
            .copied()
            .find(|c| !needed.contains(c))
            .unwrap();
        chip.set(0, c, CrosspointHealth::StuckClosed);
        let found = application_bisd(&app, &vec![0, 1], &chip);
        assert!(
            found.contains(&(0, c, CrosspointHealth::StuckClosed)),
            "{found:?}"
        );
    }

    #[test]
    fn blind_succeeds_quickly_on_clean_chip() {
        let app = xnor_app();
        let chip = DefectMap::healthy(ArraySize::new(8, 8));
        let stats = run_bism(&app, &chip, BismStrategy::Blind, 100, 5);
        assert!(stats.success);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn greedy_beats_blind_at_high_density() {
        let app = xnor_app();
        let size = ArraySize::new(16, 16);
        let mut blind_total = 0u64;
        let mut greedy_total = 0u64;
        let mut blind_failures = 0u32;
        for seed in 0..20u64 {
            let chip = DefectMap::random_uniform(size, 0.12, 0.03, seed);
            let blind = run_bism(&app, &chip, BismStrategy::Blind, 300, seed);
            let greedy = run_bism(&app, &chip, BismStrategy::Greedy, 300, seed);
            assert!(greedy.success, "greedy should cope, seed {seed}");
            if blind.success {
                blind_total += blind.attempts;
            } else {
                blind_failures += 1;
                blind_total += 300;
            }
            greedy_total += greedy.attempts;
        }
        assert!(
            greedy_total < blind_total || blind_failures > 0,
            "greedy {greedy_total} vs blind {blind_total}"
        );
    }

    #[test]
    fn hybrid_switches_after_budget() {
        let app = xnor_app();
        let size = ArraySize::new(8, 8);
        // A chip nasty enough that blind rarely wins instantly.
        let chip = DefectMap::random_uniform(size, 0.25, 0.05, 77);
        let stats = run_bism(
            &app,
            &chip,
            BismStrategy::Hybrid { blind_retries: 3 },
            500,
            3,
        );
        if stats.success && stats.attempts > 3 {
            assert!(stats.bisd_runs > 0, "greedy phase must have engaged");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let app = xnor_app();
        let chip = DefectMap::random_uniform(ArraySize::new(8, 8), 0.1, 0.02, 9);
        let a = run_bism(&app, &chip, BismStrategy::Greedy, 100, 4);
        let b = run_bism(&app, &chip, BismStrategy::Greedy, 100, 4);
        assert_eq!(a, b);
    }
}
