//! SAT-based optimal lattice synthesis (after Gange–Søndergaard–Stuckey,
//! paper ref \[9\]).
//!
//! For a candidate grid size R×C, a CNF encodes "there is an assignment of
//! literals to sites such that the lattice computes `f`":
//!
//! * every site selects exactly one candidate control (a literal of either
//!   polarity, or a constant);
//! * for every **ON** minterm, an unrolled-reachability certificate forces a
//!   4-connected top→bottom path of true sites;
//! * for every **OFF** minterm, a certificate forces an 8-connected
//!   left→right path of *false* sites — by planar duality this is exactly
//!   the absence of a top→bottom path.
//!
//! Enumerating candidate sizes by increasing area and returning the first
//! satisfiable one yields a minimum-area lattice, quantifying the paper's
//! remark that the Fig. 5 construction is "not necessarily optimal".
//!
//! Which minimum-area lattice comes back is the first model the CDCL solver
//! finds, so the output depends on the solver's whole search trajectory,
//! not just on the formula. Service bodies carry fingerprints of these
//! exact lattices; that is why `nanoxbar-sat` keeps its trajectory fixed
//! across optimisations, and `tests/optimal_pinned.rs` pins a digest of the
//! lattices over the synth-cold benchmark's class of functions.

use std::time::Instant;

use nanoxbar_logic::{Literal, TruthTable};
use nanoxbar_sat::{encode, Cnf, Lit as SatLit, SolveResult, Solver};

use crate::lattice::{Lattice, Site};
use crate::synth::{dual_based, SynthError};

/// Options for the optimal search.
#[derive(Clone, Debug)]
pub struct OptimalOptions {
    /// Allow constant-0/1 sites in addition to literals.
    pub allow_constants: bool,
    /// Upper bound on rows (defaults defensively to the dual-based size).
    pub max_rows: Option<usize>,
    /// Upper bound on columns.
    pub max_cols: Option<usize>,
    /// Conflict budget per SAT call; exhausting it fails
    /// [`try_synthesize`] with [`SynthError::SatBudgetExceeded`]. `None`
    /// solves without a budget (the [`synthesize`] behaviour).
    pub max_conflicts_per_call: Option<u64>,
    /// Wall-clock deadline, checked before every SAT call; passing it fails
    /// [`try_synthesize`] with [`SynthError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
}

impl Default for OptimalOptions {
    fn default() -> Self {
        OptimalOptions {
            allow_constants: true,
            max_rows: None,
            max_cols: None,
            max_conflicts_per_call: None,
            deadline: None,
        }
    }
}

/// Result of an optimal synthesis run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimalLattice {
    /// A minimum-area lattice computing the target.
    pub lattice: Lattice,
    /// Area of the dual-based construction, for the optimality-gap metric.
    pub dual_based_area: usize,
    /// Number of SAT calls spent.
    pub sat_calls: usize,
}

/// Finds a minimum-area lattice for `f` by SAT search over grid sizes.
///
/// Practical for the paper's scale (n ≤ 4–5 and optimal areas ≤ ~20); the
/// encoding grows as `O(area² · 2^n)`.
///
/// # Examples
///
/// ```
/// use nanoxbar_lattice::synth::optimal::{synthesize, OptimalOptions};
/// use nanoxbar_logic::parse_function;
///
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let r = synthesize(&f, &OptimalOptions::default());
/// assert!(r.lattice.computes(&f));
/// assert!(r.lattice.area() <= 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(f: &TruthTable, options: &OptimalOptions) -> OptimalLattice {
    try_synthesize(f, options).unwrap_or_else(|e| panic!("optimal synthesis: {e}"))
}

/// Fallible form of [`synthesize`]: honours the conflict budget and
/// deadline of [`OptimalOptions`], returning a typed [`SynthError`] when a
/// limit is hit instead of running without bound.
///
/// # Errors
///
/// [`SynthError::SatBudgetExceeded`] when a SAT call burns through
/// `max_conflicts_per_call`; [`SynthError::DeadlineExceeded`] when
/// `deadline` passes between SAT calls. With both limits unset it never
/// fails.
pub fn try_synthesize(
    f: &TruthTable,
    options: &OptimalOptions,
) -> Result<OptimalLattice, SynthError> {
    let dual = dual_based::try_synthesize(f)?;
    let dual_area = dual.area();
    if f.is_zero() || f.is_ones() {
        return Ok(OptimalLattice {
            lattice: dual,
            dual_based_area: dual_area,
            sat_calls: 0,
        });
    }

    let max_rows = options.max_rows.unwrap_or(dual.rows().max(1));
    let max_cols = options.max_cols.unwrap_or(dual.cols().max(1));
    let mut sat_calls = 0;

    // Candidate sizes ordered by area, then by squareness (prefer balanced).
    let mut sizes: Vec<(usize, usize)> = (1..=max_rows)
        .flat_map(|r| (1..=max_cols).map(move |c| (r, c)))
        .collect();
    sizes.sort_by_key(|&(r, c)| (r * c, r.abs_diff(c)));

    for (rows, cols) in sizes {
        if rows * cols > dual_area {
            break;
        }
        if options
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Err(SynthError::DeadlineExceeded { sat_calls });
        }
        sat_calls += 1;
        match try_size_limited(
            f,
            rows,
            cols,
            options.allow_constants,
            options.max_conflicts_per_call,
        ) {
            Ok(Some(lattice)) => {
                debug_assert!(lattice.computes(f));
                return Ok(OptimalLattice {
                    lattice,
                    dual_based_area: dual_area,
                    sat_calls,
                });
            }
            Ok(None) => {}
            Err(SynthError::SatBudgetExceeded { .. }) => {
                return Err(SynthError::SatBudgetExceeded { sat_calls });
            }
            Err(other) => return Err(other),
        }
    }
    Ok(OptimalLattice {
        lattice: dual,
        dual_based_area: dual_area,
        sat_calls,
    })
}

/// Attempts to realise `f` on a fixed R×C grid; returns the lattice if SAT.
pub fn try_size(
    f: &TruthTable,
    rows: usize,
    cols: usize,
    allow_constants: bool,
) -> Option<Lattice> {
    try_size_limited(f, rows, cols, allow_constants, None)
        .expect("unbudgeted sat call cannot give up")
}

/// [`try_size`] with an optional conflict budget per SAT call.
///
/// # Errors
///
/// [`SynthError::SatBudgetExceeded`] when the budget runs out before the
/// solver reaches a verdict.
pub fn try_size_limited(
    f: &TruthTable,
    rows: usize,
    cols: usize,
    allow_constants: bool,
    max_conflicts: Option<u64>,
) -> Result<Option<Lattice>, SynthError> {
    let n = f.num_vars();
    let sites = rows * cols;

    // Candidate controls per site.
    let mut candidates: Vec<Site> = Vec::with_capacity(2 * n + 2);
    for v in 0..n {
        candidates.push(Site::Literal(Literal::positive(v)));
        candidates.push(Site::Literal(Literal::negative(v)));
    }
    if allow_constants {
        candidates.push(Site::Const(false));
        candidates.push(Site::Const(true));
    }

    let mut cnf = Cnf::new();
    // sel[s][k]: site s selects candidate k.
    let sel: Vec<Vec<SatLit>> = (0..sites)
        .map(|_| {
            (0..candidates.len())
                .map(|_| cnf.fresh_var().positive())
                .collect()
        })
        .collect();
    for sel_site in &sel {
        encode::exactly_one(&mut cnf, sel_site);
    }

    // Per-minterm site truth values.
    let minterm_count = 1u64 << n;
    // truth[m][s]: site s is ON under minterm m.
    let mut truth: Vec<Vec<SatLit>> = Vec::with_capacity(minterm_count as usize);
    for m in 0..minterm_count {
        let row: Vec<SatLit> = (0..sites).map(|_| cnf.fresh_var().positive()).collect();
        for s in 0..sites {
            for (k, cand) in candidates.iter().enumerate() {
                if cand.is_on(m) {
                    cnf.add_clause([!sel[s][k], row[s]]);
                } else {
                    cnf.add_clause([!sel[s][k], !row[s]]);
                }
            }
        }
        truth.push(row);
    }

    let site_index = |r: usize, c: usize| r * cols + c;

    // Reachability certificate for one minterm.
    // `active` gives the per-site "usable" literal (true sites for ON
    // minterms, false sites for OFF minterms); `king` selects adjacency;
    // sources/sinks select the plate pair.
    let add_path_certificate =
        |cnf: &mut Cnf, usable: &dyn Fn(usize) -> SatLit, king: bool, top_bottom: bool| {
            let steps = sites; // longest simple path bound
                               // reach[s][k] (flattened): site reachable from the source plate in
                               // <= k expansion rounds.
            let mut reach: Vec<Vec<SatLit>> = Vec::with_capacity(steps + 1);
            let layer0: Vec<SatLit> = (0..sites).map(|_| cnf.fresh_var().positive()).collect();
            for r in 0..rows {
                for c in 0..cols {
                    let s = site_index(r, c);
                    let is_source = if top_bottom { r == 0 } else { c == 0 };
                    if is_source {
                        // layer0[s] -> usable(s)
                        cnf.add_clause([!layer0[s], usable(s)]);
                    } else {
                        cnf.add_clause([!layer0[s]]);
                    }
                }
            }
            reach.push(layer0);
            for k in 1..=steps {
                let layer: Vec<SatLit> = (0..sites).map(|_| cnf.fresh_var().positive()).collect();
                for r in 0..rows {
                    for c in 0..cols {
                        let s = site_index(r, c);
                        // layer[s] -> usable(s)
                        cnf.add_clause([!layer[s], usable(s)]);
                        // layer[s] -> prev[s] OR OR(prev[neighbors])
                        let mut support = vec![reach[k - 1][s]];
                        let deltas: &[(i64, i64)] = if king {
                            &[
                                (-1, -1),
                                (-1, 0),
                                (-1, 1),
                                (0, -1),
                                (0, 1),
                                (1, -1),
                                (1, 0),
                                (1, 1),
                            ]
                        } else {
                            &[(-1, 0), (1, 0), (0, -1), (0, 1)]
                        };
                        for (dr, dc) in deltas {
                            let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                            if nr >= 0 && nc >= 0 && (nr as usize) < rows && (nc as usize) < cols {
                                support.push(reach[k - 1][site_index(nr as usize, nc as usize)]);
                            }
                        }
                        let mut clause = vec![!layer[s]];
                        clause.extend(support);
                        cnf.add_clause(clause);
                    }
                }
                reach.push(layer);
            }
            // Some sink site reachable at the last layer.
            let sinks: Vec<SatLit> = (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (r, c)))
                .filter(|&(r, c)| {
                    if top_bottom {
                        r == rows - 1
                    } else {
                        c == cols - 1
                    }
                })
                .map(|(r, c)| reach[steps][site_index(r, c)])
                .collect();
            cnf.add_clause(sinks);
        };

    for m in 0..minterm_count {
        if f.value(m) {
            let row = truth[m as usize].clone();
            add_path_certificate(&mut cnf, &move |s| row[s], false, true);
        } else {
            let row = truth[m as usize].clone();
            add_path_certificate(&mut cnf, &move |s| !row[s], true, false);
        }
    }

    let mut solver = Solver::from_cnf(&cnf);
    let verdict = match max_conflicts {
        Some(budget) => solver.solve_limited(&[], budget),
        None => solver.solve(),
    };
    match verdict {
        SolveResult::Sat(model) => {
            let mut grid = Vec::with_capacity(rows);
            for r in 0..rows {
                let mut row = Vec::with_capacity(cols);
                for c in 0..cols {
                    let s = site_index(r, c);
                    let k = (0..candidates.len())
                        .find(|&k| model[sel[s][k].var().index()])
                        .expect("exactly-one selection");
                    row.push(candidates[k]);
                }
                grid.push(row);
            }
            Ok(Some(Lattice::from_rows(n, grid).expect("rectangular")))
        }
        SolveResult::Unsat => Ok(None),
        SolveResult::Unknown => Err(SynthError::SatBudgetExceeded { sat_calls: 1 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_logic::parse_function;

    fn optimal(expr: &str) -> (OptimalLattice, TruthTable) {
        let f = parse_function(expr).unwrap();
        (synthesize(&f, &OptimalOptions::default()), f)
    }

    #[test]
    fn and_or_single_sites() {
        let (r, f) = optimal("x0 x1");
        assert!(r.lattice.computes(&f));
        assert_eq!(r.lattice.area(), 2);
        let (r, f) = optimal("x0 + x1");
        assert!(r.lattice.computes(&f));
        assert_eq!(r.lattice.area(), 2);
    }

    #[test]
    fn single_literal_is_1x1() {
        let (r, f) = optimal("!x1");
        assert!(r.lattice.computes(&f));
        assert_eq!(r.lattice.area(), 1);
    }

    #[test]
    fn xnor_optimal_is_4() {
        // The 2x2 of Fig. 5's example is optimal: XNOR needs 4 sites.
        let (r, f) = optimal("x0 x1 + !x0 !x1");
        assert!(r.lattice.computes(&f));
        assert_eq!(r.lattice.area(), 4);
        assert_eq!(r.dual_based_area, 4);
    }

    #[test]
    fn optimal_never_exceeds_dual_based() {
        let mut state = 0x0B7A1Cu64;
        for _ in 0..8 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bits = state;
            let f = TruthTable::from_fn(3, |m| (bits >> (m % 64)) & 1 == 1);
            let r = synthesize(&f, &OptimalOptions::default());
            assert!(r.lattice.computes(&f), "bits {bits:x}");
            assert!(r.lattice.area() <= r.dual_based_area);
        }
    }

    #[test]
    fn expired_deadline_fails_typed() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let options = OptimalOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..OptimalOptions::default()
        };
        assert_eq!(
            try_synthesize(&f, &options),
            Err(SynthError::DeadlineExceeded { sat_calls: 0 })
        );
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        let f = parse_function("x0 x1 + !x0 !x1 + x2").unwrap();
        let unbudgeted = synthesize(&f, &OptimalOptions::default());
        let options = OptimalOptions {
            max_conflicts_per_call: Some(1_000_000),
            ..OptimalOptions::default()
        };
        let budgeted = try_synthesize(&f, &options).expect("budget is generous");
        assert_eq!(budgeted.lattice.area(), unbudgeted.lattice.area());
        assert!(budgeted.lattice.computes(&f));
    }

    #[test]
    fn majority_three() {
        let f = nanoxbar_logic::suite::majority(3);
        let r = synthesize(&f, &OptimalOptions::default());
        assert!(r.lattice.computes(&f));
        // Dual-based gives 3x3 = 9; the optimal is smaller.
        assert!(r.lattice.area() < 9, "area {}", r.lattice.area());
    }
}
