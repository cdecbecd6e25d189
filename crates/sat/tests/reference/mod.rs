//! The solver as it stood before the flat clause arena and the counted
//! decision heap, kept verbatim as the trajectory oracle for
//! `proptest_trajectory.rs` (the same role the `*_scalar` kernels play for
//! the word-parallel ones). Only the imports differ: the result and stats
//! types come from the library, so the two solvers' answers compare
//! directly.
//!
//! Every data structure here is the straightforward one: one `Vec<Lit>` per
//! clause, a learnt count by scanning the clause list, a cloned reason
//! clause per resolution step, a linear `is_reason` scan, and a lazy
//! `BinaryHeap` that takes a duplicate entry for every unassigned variable
//! on every backtrack.

#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nanoxbar_sat::{Cnf, LBool, Lit, SolveResult, SolverStats, Var};

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

type ClauseRef = usize;

/// Max-heap entry for VSIDS decisions (lazy: stale activities tolerated).
#[derive(PartialEq, Debug)]
struct HeapEntry {
    activity: f64,
    var: Var,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.activity
            .partial_cmp(&other.activity)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.var.index().cmp(&other.var.index()))
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use nanoxbar_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a, b]);
/// s.add_clause([!b, a]);
/// match s.solve() {
///     SolveResult::Sat(model) => {
///         assert!(model[0] && model[1]);
///     }
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[lit.code()]`: clauses to inspect when `lit` becomes true
    /// (they watch `!lit`).
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: BinaryHeap<HeapEntry>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    max_learnts: usize,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f64 = 1.0 / 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver with no variables.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: BinaryHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            max_learnts: 4000,
        }
    }

    /// Loads every clause of a [`Cnf`].
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        while s.num_vars() < cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assign.len());
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push(HeapEntry {
            activity: 0.0,
            var: v,
        });
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Runtime counters.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.clauses.iter().filter(|c| c.learnt).count();
        s
    }

    fn value_lit(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unrecoverable (top-level) conflict after this clause.
    ///
    /// # Panics
    ///
    /// Panics if called while a solve left decisions on the trail (the
    /// public entry points always restore level 0) or if a literal's
    /// variable was not allocated via [`Solver::new_var`].
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            assert!(
                l.var().index() < self.num_vars(),
                "unallocated variable {}",
                l.var()
            );
        }
        clause.sort();
        clause.dedup();
        // Tautology?
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            return true;
        }
        // Remove literals already false at level 0; satisfied clause is a no-op.
        clause.retain(|&l| self.value_lit(l) != LBool::False);
        if clause.iter().any(|&l| self.value_lit(l) == LBool::True) {
            return true;
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(clause[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(clause, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len();
        self.watches[(!lits[0]).code()].push(cref);
        self.watches[(!lits[1]).code()].push(cref);
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
        });
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                // Make sure the falsified literal (!p) sits at position 1.
                let first = {
                    let clause = &mut self.clauses[cref];
                    if clause.lits[0] == !p {
                        clause.lits.swap(0, 1);
                    }
                    debug_assert_eq!(clause.lits[1], !p);
                    clause.lits[0]
                };

                if self.value_lit(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let replacement = {
                    let clause = &self.clauses[cref];
                    (2..clause.lits.len()).find(|&k| self.value_lit(clause.lits[k]) != LBool::False)
                };
                if let Some(k) = replacement {
                    let clause = &mut self.clauses[cref];
                    clause.lits.swap(1, k);
                    let new_watch = !clause.lits[1];
                    self.watches[new_watch.code()].push(cref);
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    // Conflict: restore the remaining watchers before returning.
                    self.watches[p.code()].append(&mut ws);
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[p.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.index()];
        *a += self.var_inc;
        if *a > RESCALE_LIMIT {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let activity = self.activity[v.index()];
        self.order.push(HeapEntry { activity, var: v });
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref];
        c.activity += self.cla_inc;
        if c.activity > RESCALE_LIMIT {
            for cl in &mut self.clauses {
                cl.activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            let lits: Vec<Lit> = self.clauses[confl].lits.clone();
            for &q in &lits {
                // Skip the pivot literal itself (it is being resolved away;
                // a reason clause contains the pivot positively at lits[0]).
                if let Some(piv) = p {
                    if q.var() == piv.var() {
                        continue;
                    }
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal of the current level to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pivot = self.trail[index];
            self.seen[pivot.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pivot);
                break;
            }
            confl =
                self.reason[pivot.var().index()].expect("non-decision literal must have a reason");
            p = Some(pivot);
        }

        let asserting = !p.expect("analysis always finds a UIP");
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(asserting);
        clause.extend(learnt.iter().copied());

        // Clean up `seen` for the remaining marked literals.
        for l in &clause[1..] {
            self.seen[l.var().index()] = false;
        }

        // Backtrack level: highest level among the non-asserting literals.
        let back_level = clause[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);

        // Put a literal of the backtrack level at index 1 (watch invariant).
        if clause.len() > 2 {
            let pos = clause[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == back_level)
                .expect("some literal has the backtrack level")
                + 1;
            clause.swap(1, pos);
        }
        (clause, back_level)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("limits match levels");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty above limit");
                let v = l.var().index();
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
                let activity = self.activity[v];
                self.order.push(HeapEntry {
                    activity,
                    var: l.var(),
                });
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(entry) = self.order.pop() {
            let v = entry.var;
            if self.assign[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Reduces the learnt clause database, keeping the most active half.
    fn reduce_learnts(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = (0..self.clauses.len())
            .filter(|&i| {
                self.clauses[i].learnt && !self.is_reason(i) && self.clauses[i].lits.len() > 2
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(Ordering::Equal)
        });
        let remove: std::collections::HashSet<ClauseRef> = learnt_refs[..learnt_refs.len() / 2]
            .iter()
            .copied()
            .collect();
        if remove.is_empty() {
            return;
        }
        // Rebuild clause storage and watches.
        let old = std::mem::take(&mut self.clauses);
        for w in &mut self.watches {
            w.clear();
        }
        let mut remap: Vec<Option<ClauseRef>> = vec![None; old.len()];
        for (i, clause) in old.into_iter().enumerate() {
            if remove.contains(&i) {
                continue;
            }
            let cref = self.clauses.len();
            remap[i] = Some(cref);
            self.watches[(!clause.lits[0]).code()].push(cref);
            self.watches[(!clause.lits[1]).code()].push(cref);
            self.clauses.push(clause);
        }
        for r in &mut self.reason {
            *r = r.and_then(|old_ref| remap[old_ref]);
        }
    }

    fn is_reason(&self, cref: ClauseRef) -> bool {
        self.reason.contains(&Some(cref))
    }

    /// Solves the formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumptions (literals forced true for this
    /// call only). The solver can be reused afterwards.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        let result = self.search(assumptions, None);
        self.backtrack_to(0);
        result
    }

    /// Solves with a conflict budget: gives up with [`SolveResult::Unknown`]
    /// once `max_conflicts` conflicts have been analysed in this call.
    /// Learnt clauses survive, so callers may retry with a larger budget and
    /// resume from the accumulated knowledge.
    pub fn solve_limited(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        let result = self.search(assumptions, Some(max_conflicts));
        self.backtrack_to(0);
        result
    }

    fn search(&mut self, assumptions: &[Lit], max_conflicts: Option<u64>) -> SolveResult {
        let mut conflicts_since_restart = 0u64;
        let mut conflicts_this_call = 0u64;
        let mut restart_number = 0u32;
        let mut restart_limit = RESTART_BASE * luby(restart_number);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    // Conflict with no decisions: globally unsatisfiable.
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                if (self.decision_level() as usize) <= assumptions.len() {
                    // Conflict while only assumptions are on the trail:
                    // unsatisfiable under these assumptions (the solver
                    // itself remains usable).
                    return SolveResult::Unsat;
                }
                if max_conflicts.is_some_and(|budget| conflicts_this_call > budget) {
                    return SolveResult::Unknown;
                }
                let (clause, back_level) = self.analyze(confl);
                self.backtrack_to(back_level);
                let asserting = clause[0];
                if clause.len() == 1 {
                    if self.value_lit(asserting) == LBool::Undef {
                        self.enqueue(asserting, None);
                    }
                } else {
                    let cref = self.attach(clause, true);
                    self.bump_clause(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.var_inc *= VAR_DECAY;
                self.cla_inc *= CLA_DECAY;
            } else {
                // No conflict: maybe restart / reduce, then decide.
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    restart_number += 1;
                    restart_limit = RESTART_BASE * luby(restart_number);
                    conflicts_since_restart = 0;
                    self.backtrack_to(0);
                    continue;
                }
                let learnt_count = self.clauses.iter().filter(|c| c.learnt).count();
                if learnt_count > self.max_learnts && self.decision_level() == 0 {
                    self.reduce_learnts();
                }

                // Place pending assumptions as pseudo-decisions.
                let lvl = self.decision_level() as usize;
                if lvl < assumptions.len() {
                    let a = assumptions[lvl];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied: open an empty decision level
                            // so the level/assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return SolveResult::Unsat,
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }

                match self.pick_branch_var() {
                    None => {
                        let model = self.assign.iter().map(|&v| v == LBool::True).collect();
                        return SolveResult::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v.index()];
                        self.enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,…), 0-indexed.
fn luby(i: u32) -> u64 {
    let mut x = i as u64 + 1; // work 1-indexed
    loop {
        // Smallest k with 2^k - 1 >= x.
        let mut k = 1u32;
        while ((1u64 << k) - 1) < x {
            k += 1;
        }
        if (1u64 << k) - 1 == x {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}
