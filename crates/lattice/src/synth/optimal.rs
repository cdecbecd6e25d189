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
//!
//! The formula's shape is part of that trajectory too. The variable
//! numbering (`Encoding`: selectors, then per-minterm truth values, then
//! each minterm's reachability layers) fixes the decision heap's tie order,
//! and the clause order fixes the watch lists and the level-0 propagation
//! during intake; `optimal_pinned` pins both. Each size's clauses go
//! straight into one solver per thread, reset at the start of every size.
//! A reset solver decides as a new one does, so the reuse never shows in a
//! lattice.

use std::cell::Cell;
use std::time::Instant;

use nanoxbar_logic::{Literal, TruthTable};
use nanoxbar_sat::{encode, Lit as SatLit, SolveResult, Solver, Var};

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

/// Attempts to realise `f` on a fixed R×C grid under an optional
/// conflict budget per SAT call; returns the lattice if SAT.
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

    // Reset at the start, so a panic or an exhausted budget in an earlier
    // call leaves nothing behind.
    let mut solver = SOLVER.take().unwrap_or_default();
    solver.reset();
    let vars = Encoding::new(rows, cols, candidates.len(), n);
    solver.new_vars(vars.total());
    vars.encode(&mut solver, f, &candidates);

    let verdict = match max_conflicts {
        Some(budget) => solver.solve_limited(&[], budget),
        None => solver.solve(),
    };
    if solver.arena_capacity() <= MAX_KEPT_ARENA {
        SOLVER.set(Some(solver));
    }
    match verdict {
        SolveResult::Sat(model) => {
            let grid = (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|c| {
                            let k = (0..candidates.len())
                                .find(|&k| model[vars.sel(r * cols + c, k).var().index()])
                                .expect("exactly-one selection");
                            candidates[k]
                        })
                        .collect()
                })
                .collect();
            Ok(Some(Lattice::from_rows(n, grid).expect("rectangular")))
        }
        SolveResult::Unsat => Ok(None),
        SolveResult::Unknown => Err(SynthError::SatBudgetExceeded { sat_calls: 1 }),
    }
}

/// Arena size (in literals) past which a thread's solver is dropped after
/// its call instead of kept, so one outsized request cannot pin memory on
/// a worker. The synth-cold class peaks far below it.
const MAX_KEPT_ARENA: usize = 1 << 20;

thread_local! {
    /// One solver per thread, reused by every size so that clause intake
    /// allocates nothing once the thread has seen a size as large.
    static SOLVER: Cell<Option<Solver>> = const { Cell::new(None) };
}

/// Variable numbering of one grid size's formula, in the order the
/// encoding would allocate them one by one:
///
/// * `sel(s, k)`: site `s` selects candidate `k`;
/// * `truth(m, s)`: site `s` is ON under minterm `m`;
/// * `reach(m, k, s)`: minterm `m`'s certificate reaches site `s` from the
///   source plate in at most `k` expansion rounds, `k ≤ sites`.
struct Encoding {
    rows: usize,
    cols: usize,
    sites: usize,
    candidates: usize,
    minterms: usize,
}

impl Encoding {
    fn new(rows: usize, cols: usize, candidates: usize, num_vars: usize) -> Self {
        Encoding {
            rows,
            cols,
            sites: rows * cols,
            candidates,
            minterms: 1 << num_vars,
        }
    }

    fn truth_base(&self) -> usize {
        self.sites * self.candidates
    }

    fn reach_base(&self) -> usize {
        self.truth_base() + self.minterms * self.sites
    }

    /// Variables per certificate: `sites + 1` layers of `sites`.
    fn certificate_vars(&self) -> usize {
        (self.sites + 1) * self.sites
    }

    fn total(&self) -> usize {
        self.reach_base() + self.minterms * self.certificate_vars()
    }

    fn sel(&self, s: usize, k: usize) -> SatLit {
        Var::new(s * self.candidates + k).positive()
    }

    fn truth(&self, m: usize, s: usize) -> SatLit {
        Var::new(self.truth_base() + m * self.sites + s).positive()
    }

    fn reach(&self, m: usize, k: usize, s: usize) -> SatLit {
        Var::new(self.reach_base() + m * self.certificate_vars() + k * self.sites + s).positive()
    }

    /// Adds every clause of the formula for `f`, in a fixed order.
    fn encode(&self, solver: &mut Solver, f: &TruthTable, candidates: &[Site]) {
        for s in 0..self.sites {
            let sel: Vec<SatLit> = (0..self.candidates).map(|k| self.sel(s, k)).collect();
            encode::exactly_one(solver, &sel);
        }
        for m in 0..self.minterms {
            for s in 0..self.sites {
                for (k, cand) in candidates.iter().enumerate() {
                    let on = self.truth(m, s);
                    let value = if cand.is_on(m as u64) { on } else { !on };
                    solver.add_clause([!self.sel(s, k), value]);
                }
            }
        }
        for m in 0..self.minterms {
            if f.value(m as u64) {
                // A 4-connected top→bottom path of ON sites.
                self.certificate(solver, m, true);
            } else {
                // An 8-connected left→right path of OFF sites.
                self.certificate(solver, m, false);
            }
        }
    }

    /// The unrolled-reachability certificate for minterm `m`: a path of
    /// usable sites from the source plate to the sink plate. An ON minterm
    /// uses true sites, 4-adjacency and top→bottom; an OFF minterm uses
    /// false sites, 8-adjacency and left→right.
    fn certificate(&self, solver: &mut Solver, m: usize, on: bool) {
        let (rows, cols) = (self.rows, self.cols);
        let usable = |s: usize| {
            let t = self.truth(m, s);
            if on {
                t
            } else {
                !t
            }
        };
        let deltas: &[(isize, isize)] = if on {
            &[(-1, 0), (1, 0), (0, -1), (0, 1)]
        } else {
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
        };
        for r in 0..rows {
            for c in 0..cols {
                let s = r * cols + c;
                let is_source = if on { r == 0 } else { c == 0 };
                let layer0 = self.reach(m, 0, s);
                if is_source {
                    solver.add_clause([!layer0, usable(s)]);
                } else {
                    solver.add_clause([!layer0]);
                }
            }
        }
        // The longest simple path visits every site once.
        for k in 1..=self.sites {
            for r in 0..rows {
                for c in 0..cols {
                    let s = r * cols + c;
                    let here = self.reach(m, k, s);
                    solver.add_clause([!here, usable(s)]);
                    // here -> prev[s] OR OR(prev[neighbours])
                    let neighbours = deltas.iter().filter_map(|&(dr, dc)| {
                        let (nr, nc) = (r.checked_add_signed(dr)?, c.checked_add_signed(dc)?);
                        (nr < rows && nc < cols).then(|| self.reach(m, k - 1, nr * cols + nc))
                    });
                    solver.add_clause(
                        [!here, self.reach(m, k - 1, s)]
                            .into_iter()
                            .chain(neighbours),
                    );
                }
            }
        }
        // Some sink site is reachable at the last layer.
        let sinks = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| (r, c)))
            .filter(|&(r, c)| if on { r == rows - 1 } else { c == cols - 1 })
            .map(|(r, c)| self.reach(m, self.sites, r * cols + c));
        solver.add_clause(sinks);
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
    fn the_thread_keeps_its_solver_unless_it_grew_past_the_cap() {
        let f = parse_function("x0 x1 + x2 x3").unwrap();
        try_size_limited(&f, 2, 2, true, None).expect("unbudgeted");
        let kept = SOLVER.take().expect("a small solver is kept");
        assert!(kept.arena_capacity() <= MAX_KEPT_ARENA);
        // 16 certificates of 101 layers over 100 sites: over 10^6 literals.
        try_size_limited(&f, 10, 10, true, None).expect("unbudgeted");
        assert!(SOLVER.take().is_none(), "an outsized solver is dropped");
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
