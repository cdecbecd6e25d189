//! Conflict-driven clause-learning SAT solver.
//!
//! A compact but genuine CDCL engine in the MiniSat lineage: two-watched-
//! literal propagation, first-UIP conflict analysis with clause learning,
//! VSIDS-style variable activities with phase saving, Luby-sequence
//! restarts, periodic learnt-clause reduction, and incremental solving
//! under assumptions. It exists because the optimal lattice synthesis of
//! Gange et al. (paper ref \[9\]) — reproduced in `nanoxbar-lattice` — needs
//! a SAT back-end, and the workspace builds all substrates from scratch.
//!
//! # Trajectory contract
//!
//! For a given sequence of calls, the solver makes a fixed sequence of
//! decisions, conflicts, propagations and learnt clauses, and returns a
//! fixed model. `optimal` lattice synthesis returns the first model found,
//! and service bodies carry fingerprints of those lattices, so this
//! trajectory is part of the output: a faster data structure must keep it
//! exactly. `tests/proptest_trajectory.rs` checks that against the
//! straightforward solver in `tests/reference/`, and
//! `nanoxbar-lattice`'s `optimal_pinned` test pins the lattices.
//!
//! # Clause arena
//!
//! Every clause's literals live in one `Vec<Lit>`; a `Clause` header is
//! `{ start, len, learnt, activity }` into it, and a clause reference is
//! the header's index. Propagation swaps a long clause's literals in place
//! inside the arena, conflict analysis reads a reason clause straight from
//! it, and a learnt clause is copied into it from a reused scratch buffer,
//! so neither intake nor search allocates per clause. `reduce_learnts`
//! compacts the arena and the header list in clause order and rebuilds the
//! watch lists in that order, exactly as a rebuild of per-clause vectors
//! would. Learnt clauses are attached in `search` and deleted only by that
//! compaction.
//!
//! # Binary watches
//!
//! A watch entry is `{ cref, other }`. For a binary clause `other` is its
//! other literal, so when `p` becomes true the clause `[other, !p]` is
//! satisfied, unit or conflicting by `other`'s value alone, and
//! propagation reads neither its header nor the arena. `attach` and the
//! `reduce_learnts` rebuild fill `other` in; a longer clause's entry holds
//! `LONG` and takes the usual path.
//!
//! This keeps the trajectory although the arena order of a binary clause
//! now differs from the reference solver's, which swaps `!p` to position 1
//! on every visit. Only these readers could see the order:
//!
//! * `analyze` reads the *conflict* clause in arena order (the order of its
//!   activity bumps can matter when a rescale falls between them), so a
//!   binary conflict first writes `[other, !p]`, the order the swap left.
//! * `analyze` reads a *reason* clause skipping the pivot by variable, and
//!   a binary reason has one other literal, so its order is never seen.
//! * Propagation and the `reduce_learnts` rebuild watch both literals of a
//!   binary clause, each in its own list, whatever their order.
//!
//! # Reuse
//!
//! [`Solver::reset`] empties the solver but keeps every allocation: the
//! arena, the headers, each watch list and the per-variable tables.
//! [`Solver::new_vars`] grows the watch table only when it is too short,
//! and lists past `2 * num_vars` stay empty. After a reset the solver makes
//! exactly the decisions a new one would, so a caller that solves many
//! formulas in turn (optimal lattice synthesis solves one per grid size)
//! can keep one solver and pay for clause intake without allocating.
//!
//! # Counted decision heap
//!
//! The decision order is a lazy max-heap over `(activity, var)` entries: a
//! bump pushes the variable's new activity, every backtrack pushes each
//! unassigned variable again, and a pick pops until it meets an unassigned
//! variable. Only the multiset of entries decides what a pick returns, so
//! `DecisionHeap` stores that multiset compactly: one heap entry per
//! distinct `(activity, var)` value with a copy count.
//!
//! * Each variable has at most one *current* entry, the one holding its
//!   present activity. A backtrack adds a copy to it, or pushes it anew
//!   when the variable has none.
//! * A bump pushes a new current entry; the old one stays with its count.
//! * A pick that meets an assigned variable drops the whole entry (the
//!   lazy heap discards its copies one by one, each staying the maximum).
//!   A pick that meets an unassigned variable takes one copy.
//! * An activity rescale makes every current entry stale.
//!
//! The rescale is the subtle case. `bump_var` scales every activity by
//! 1e-100 but leaves existing entries at their old values, so pre-rescale
//! entries keep steering decisions until they drain, and how many copies
//! each holds decides how often. The counts keep that behaviour exactly; a
//! heap that merely skipped duplicate pushes would diverge after the first
//! rescale (about 4,490 conflicts into a solve). Entries order by the bit
//! pattern of the activity, which for the non-negative finite values
//! activities take is the numeric order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::cnf::Cnf;
use crate::lit::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveResult {
    /// Satisfiable, with a complete model indexed by variable.
    Sat(Vec<bool>),
    /// Proven unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The conflict budget of [`Solver::solve_limited`] ran out before a
    /// verdict was reached. The solver remains usable (learnt clauses are
    /// kept, so a retry resumes from accumulated knowledge).
    Unknown,
}

impl SolveResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat | SolveResult::Unknown => None,
        }
    }
}

/// Runtime counters, exposed for the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently retained.
    pub learnt_clauses: usize,
}

/// A clause header: `lits[start..start + len]` of the solver's arena.
#[derive(Clone, Copy, Debug)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    activity: f64,
}

impl Clause {
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

type ClauseRef = u32;

/// Marks the [`Watch`] of a clause longer than two literals.
const LONG: Lit = Lit::from_code(u32::MAX as usize);

/// A watch-list entry. For a binary clause `other` is the clause's other
/// literal, so propagation decides it without reading the arena; for a
/// longer clause it is [`LONG`].
#[derive(Clone, Copy, Debug)]
struct Watch {
    cref: ClauseRef,
    other: Lit,
}

/// Watches the clause `cref` whose first two literals are `a` and `b`.
fn watch_clause(watches: &mut [Vec<Watch>], cref: ClauseRef, a: Lit, b: Lit, binary: bool) {
    let (other_a, other_b) = if binary { (b, a) } else { (LONG, LONG) };
    watches[(!a).code()].push(Watch {
        cref,
        other: other_a,
    });
    watches[(!b).code()].push(Watch {
        cref,
        other: other_b,
    });
}

/// Marks a variable without a current [`DecisionHeap`] entry.
const NO_ENTRY: u32 = u32::MAX;

/// One distinct `(activity, var)` value of the decision multiset; its copy
/// count is `DecisionHeap::counts[slot]`.
#[derive(Debug)]
struct HeapEntry {
    activity_bits: u64,
    var: u32,
    slot: u32,
}

impl HeapEntry {
    fn key(&self) -> (u64, u32) {
        (self.activity_bits, self.var)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The VSIDS decision order as a counted multiset (see the module docs).
#[derive(Debug, Default)]
struct DecisionHeap {
    heap: BinaryHeap<HeapEntry>,
    /// Copy count per slot; slots of popped entries go to `free`.
    counts: Vec<u32>,
    free: Vec<u32>,
    /// Per variable: the slot of its current entry, or [`NO_ENTRY`].
    current: Vec<u32>,
}

impl DecisionHeap {
    /// Empties the multiset, keeping its allocations.
    fn clear(&mut self) {
        self.heap.clear();
        self.counts.clear();
        self.free.clear();
        self.current.clear();
    }

    /// Adds variables `vars`, each with one copy of activity 0.
    fn add_vars(&mut self, vars: std::ops::Range<usize>) {
        debug_assert_eq!(self.current.len(), vars.start);
        let first_slot = self.counts.len() as u32;
        self.counts.resize(self.counts.len() + vars.len(), 1);
        self.current.extend((first_slot..).take(vars.len()));
        // `extend` heapifies a large batch in linear time, where pushing
        // equal activities in increasing variable order would sift each
        // entry to the root.
        self.heap
            .extend(vars.zip(first_slot..).map(|(v, slot)| HeapEntry {
                activity_bits: 0.0f64.to_bits(),
                var: v as u32,
                slot,
            }));
    }

    /// Pushes `(activity, v)` as `v`'s new current entry with one copy.
    fn push(&mut self, v: usize, activity: f64) {
        debug_assert!(activity >= 0.0, "activities are non-negative");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.counts[slot as usize] = 1;
                slot
            }
            None => {
                self.counts.push(1);
                (self.counts.len() - 1) as u32
            }
        };
        self.current[v] = slot;
        self.heap.push(HeapEntry {
            activity_bits: activity.to_bits(),
            var: v as u32,
            slot,
        });
    }

    /// Adds one copy of `(activity, v)`, where `activity` is `v`'s present
    /// activity.
    fn add_copy(&mut self, v: usize, activity: f64) {
        match self.current[v] {
            NO_ENTRY => self.push(v, activity),
            slot => self.counts[slot as usize] += 1,
        }
    }

    /// After an activity rescale no entry holds a present activity.
    fn make_stale(&mut self) {
        self.current.fill(NO_ENTRY);
    }

    /// Removes the maximum copy whose variable is unassigned, discarding
    /// every greater entry on the way, and returns that variable.
    fn pick(&mut self, values: &[LBool]) -> Option<Var> {
        loop {
            let top = self.heap.peek()?;
            let (v, slot) = (top.var as usize, top.slot);
            let unassigned = values[Var::new(v).positive().code()] == LBool::Undef;
            if unassigned {
                self.counts[slot as usize] -= 1;
                if self.counts[slot as usize] > 0 {
                    return Some(Var::new(v));
                }
            }
            self.heap.pop();
            self.free.push(slot);
            if self.current[v] == slot {
                self.current[v] = NO_ENTRY;
            }
            if unassigned {
                return Some(Var::new(v));
            }
        }
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
    /// The clause arena: every clause's literals, back to back.
    lits: Vec<Lit>,
    num_learnts: usize,
    /// `watches[lit.code()]`: clauses to inspect when `lit` becomes true
    /// (they watch `!lit`). After a [`Solver::reset`] the table may be
    /// longer than `2 * num_vars`; the lists past it are empty.
    watches: Vec<Vec<Watch>>,
    /// `values[lit.code()]`: the literal's value under the trail.
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: DecisionHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Reused buffer for the clause being added or learnt.
    scratch: Vec<Lit>,
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
            lits: Vec::new(),
            num_learnts: 0,
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: DecisionHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            scratch: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            max_learnts: 4000,
        }
    }

    /// Empties the solver: no variables, no clauses, fresh statistics, as
    /// after [`Solver::new`]. Every allocation is kept for the next formula,
    /// and the solver then makes exactly the decisions a new one would.
    pub fn reset(&mut self) {
        self.clauses.clear();
        self.lits.clear();
        self.num_learnts = 0;
        for w in &mut self.watches {
            w.clear();
        }
        self.values.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.cla_inc = 1.0;
        self.order.clear();
        self.phase.clear();
        self.seen.clear();
        self.ok = true;
        self.stats = SolverStats::default();
    }

    /// Literal slots the clause arena has allocated. [`Solver::reset`] keeps
    /// them, so a caller that reuses a solver can bound what it retains.
    pub fn arena_capacity(&self) -> usize {
        self.lits.capacity()
    }

    /// Loads every clause of a [`Cnf`].
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        s.new_vars(cnf.num_vars());
        for c in cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.new_vars(1)
    }

    /// Allocates `n` fresh variables at once and returns the first; the
    /// others follow it in index order. One call of `n` and `n` calls of
    /// [`Solver::new_var`] leave the solver making the same decisions.
    pub fn new_vars(&mut self, n: usize) -> Var {
        let (old, new) = (self.num_vars(), self.num_vars() + n);
        self.values.resize(2 * new, LBool::Undef);
        self.level.resize(new, 0);
        self.reason.resize(new, None);
        self.activity.resize(new, 0.0);
        self.phase.resize(new, false);
        self.seen.resize(new, false);
        if self.watches.len() < 2 * new {
            self.watches.resize_with(2 * new, Vec::new);
        }
        self.order.add_vars(old..new);
        Var::new(old)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Runtime counters.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            learnt_clauses: self.num_learnts,
            ..self.stats
        }
    }

    fn value_lit(&self, l: Lit) -> LBool {
        self.values[l.code()]
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
        let mut clause = std::mem::take(&mut self.scratch);
        clause.clear();
        clause.extend(lits);
        for l in &clause {
            assert!(
                l.var().index() < self.num_vars(),
                "unallocated variable {}",
                l.var()
            );
        }
        clause.sort();
        clause.dedup();
        // A tautology is a no-op. Otherwise drop literals already false at
        // level 0; a clause already satisfied there is a no-op too.
        let done = clause.windows(2).any(|w| w[0] == !w[1]) || {
            clause.retain(|&l| self.value_lit(l) != LBool::False);
            clause.iter().any(|&l| self.value_lit(l) == LBool::True)
        };
        let ok = if done {
            true
        } else {
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
                    self.attach(&clause, false);
                    true
                }
            }
        };
        self.scratch = clause;
        ok
    }

    fn attach(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as ClauseRef;
        watch_clause(&mut self.watches, cref, lits[0], lits[1], lits.len() == 2);
        self.clauses.push(Clause {
            start: self.lits.len() as u32,
            len: lits.len() as u32,
            learnt,
            activity: 0.0,
        });
        self.lits.extend_from_slice(lits);
        self.num_learnts += usize::from(learnt);
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().index();
        self.values[l.code()] = LBool::True;
        self.values[(!l).code()] = LBool::False;
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
                let Watch { cref, other } = ws[i];
                if other != LONG {
                    // A binary clause `[other, !p]`: unit, satisfied or
                    // conflicting by `other` alone.
                    match self.values[other.code()] {
                        LBool::True => {}
                        LBool::Undef => self.enqueue(other, Some(cref)),
                        LBool::False => {
                            // `analyze` reads a conflict in arena order.
                            let start = self.clauses[cref as usize].start as usize;
                            self.lits[start..start + 2].copy_from_slice(&[other, !p]);
                            self.watches[p.code()] = ws;
                            return Some(cref);
                        }
                    }
                    i += 1;
                    continue;
                }
                let lits = &mut self.lits[self.clauses[cref as usize].range()];
                // Make sure the falsified literal (!p) sits at position 1.
                if lits[0] == !p {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], !p);
                let first = lits[0];
                let first_value = self.values[first.code()];
                if first_value == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let replacement =
                    (2..lits.len()).find(|&k| self.values[lits[k].code()] != LBool::False);
                if let Some(k) = replacement {
                    lits.swap(1, k);
                    // `lits[1]` is not false, so this is never `p`'s list.
                    self.watches[(!lits[1]).code()].push(Watch { cref, other: LONG });
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting.
                if first_value == LBool::False {
                    // Conflict: restore the watchers before returning. No
                    // clause moved into `p`'s list, so it is still empty.
                    self.watches[p.code()] = ws;
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
            self.order.make_stale();
        }
        self.order.push(v.index(), self.activity[v.index()]);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > RESCALE_LIMIT {
            for cl in &mut self.clauses {
                cl.activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in `scratch`
    /// (asserting literal first) and returns the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.scratch);
        learnt.clear();
        // Slot for the asserting literal, filled in once the UIP is found.
        learnt.push(Lit::from_code(0));
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();

        loop {
            self.bump_clause(confl);
            for k in self.clauses[confl as usize].range() {
                let q = self.lits[k];
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
            p = Some(pivot);
            if counter == 0 {
                break;
            }
            confl =
                self.reason[pivot.var().index()].expect("non-decision literal must have a reason");
        }
        learnt[0] = !p.expect("analysis always finds a UIP");

        // Clean up `seen` for the remaining marked literals.
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // Backtrack level: highest level among the non-asserting literals.
        let back_level = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);

        // Put a literal of the backtrack level at index 1 (watch invariant).
        if learnt.len() > 2 {
            let pos = learnt[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == back_level)
                .expect("some literal has the backtrack level")
                + 1;
            learnt.swap(1, pos);
        }
        self.scratch = learnt;
        back_level
    }

    fn backtrack_to(&mut self, level: u32) {
        if let Some(&lim) = self.trail_lim.get(level as usize) {
            self.trail_lim.truncate(level as usize);
            for l in self.trail.drain(lim..) {
                let v = l.var().index();
                self.values[l.code()] = LBool::Undef;
                self.values[(!l).code()] = LBool::Undef;
                self.reason[v] = None;
                self.order.add_copy(v, self.activity[v]);
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        self.order.pick(&self.values)
    }

    /// Reduces the learnt clause database, keeping the most active half.
    fn reduce_learnts(&mut self) {
        let n = self.clauses.len();
        // `keep[i]` is false for reason clauses until the candidates are
        // chosen, then false for the clauses to delete.
        let mut keep = vec![true; n];
        for &cref in self.reason.iter().flatten() {
            keep[cref as usize] = false;
        }
        let mut learnt_refs: Vec<ClauseRef> = (0..n as ClauseRef)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && keep[i as usize] && c.len > 2
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(Ordering::Equal)
        });
        let remove = &learnt_refs[..learnt_refs.len() / 2];
        if remove.is_empty() {
            return;
        }
        keep.fill(true);
        for &cref in remove {
            keep[cref as usize] = false;
        }
        self.num_learnts -= remove.len();

        // Compact the arena and the headers in clause order; rebuild the
        // watches in that order.
        for w in &mut self.watches {
            w.clear();
        }
        let mut remap: Vec<ClauseRef> = vec![ClauseRef::MAX; n];
        let mut kept = 0usize;
        let mut end = 0usize;
        for (i, keep) in keep.into_iter().enumerate() {
            if !keep {
                continue;
            }
            let clause = self.clauses[i];
            let start = end;
            self.lits.copy_within(clause.range(), start);
            end += clause.len as usize;
            let cref = kept as ClauseRef;
            remap[i] = cref;
            watch_clause(
                &mut self.watches,
                cref,
                self.lits[start],
                self.lits[start + 1],
                clause.len == 2,
            );
            self.clauses[kept] = Clause {
                start: start as u32,
                ..clause
            };
            kept += 1;
        }
        self.clauses.truncate(kept);
        self.lits.truncate(end);
        for r in self.reason.iter_mut().flatten() {
            *r = remap[*r as usize];
        }
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
                let back_level = self.analyze(confl);
                self.backtrack_to(back_level);
                let learnt = std::mem::take(&mut self.scratch);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    if self.value_lit(asserting) == LBool::Undef {
                        self.enqueue(asserting, None);
                    }
                } else {
                    let cref = self.attach(&learnt, true);
                    self.bump_clause(cref);
                    self.enqueue(asserting, Some(cref));
                }
                self.scratch = learnt;
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
                if self.num_learnts > self.max_learnts && self.decision_level() == 0 {
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
                        let model = (0..self.num_vars())
                            .map(|v| self.values[Var::new(v).positive().code()] == LBool::True)
                            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause([v[0]]));
        assert!(s.solve().is_sat());
        assert!(!s.add_clause([!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_clause([v[0]]);
        for i in 0..4 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            other => panic!("chain is satisfiable, got {other:?}"),
        }
    }

    #[test]
    fn model_satisfies_formula() {
        // Random 3-SAT near the easy region; check models against the CNF.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for trial in 0..30 {
            let n = 12;
            let m = 30 + (trial % 20);
            let mut cnf = Cnf::new();
            let vars = cnf.fresh_vars(n);
            for _ in 0..m {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let v = vars[(state % n as u64) as usize];
                    clause.push(Lit::new(v, state & (1 << 20) != 0));
                }
                cnf.add_clause(clause);
            }
            let mut s = Solver::from_cnf(&cnf);
            if let SolveResult::Sat(model) = s.solve() {
                assert!(cnf.eval(&model), "model must satisfy the formula");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force() {
        let mut state = 0xCAFEBABE1337u64;
        for _ in 0..60 {
            let n = 6;
            let mut cnf = Cnf::new();
            let vars = cnf.fresh_vars(n);
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let clause_count = 3 + (state % 16) as usize;
            for _ in 0..clause_count {
                let mut clause = Vec::new();
                let width = 1 + (state % 3) as usize;
                for _ in 0..width {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    clause.push(Lit::new(vars[(state % n as u64) as usize], state & 2 != 0));
                }
                cnf.add_clause(clause);
            }
            let brute_sat = (0..(1u32 << n)).any(|m| {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                cnf.eval(&a)
            });
            let mut s = Solver::from_cnf(&cnf);
            assert_eq!(s.solve().is_sat(), brute_sat, "cnf: {}", cnf.to_dimacs());
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // pairwise indexing is clearest here
    fn pigeonhole_4_into_3_is_unsat() {
        // PHP(4,3): classic hard-ish UNSAT instance exercising learning.
        let pigeons = 4;
        let holes = 3;
        let mut s = Solver::new();
        let mut x = vec![vec![]; pigeons];
        for p in x.iter_mut() {
            for _ in 0..holes {
                p.push(s.new_var().positive());
            }
        }
        for row in &x {
            s.add_clause(row.clone());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([!x[p1][h], !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        // Assume !a and !b: unsat.
        assert_eq!(
            s.solve_with_assumptions(&[!v[0], !v[1]]),
            SolveResult::Unsat
        );
        // Without assumptions the formula is still satisfiable.
        assert!(s.solve().is_sat());
        // Assume only !a: b must hold.
        match s.solve_with_assumptions(&[!v[0]]) {
            SolveResult::Sat(m) => {
                assert!(!m[0]);
                assert!(m[1]);
            }
            other => panic!("satisfiable under !a, got {other:?}"),
        }
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        assert!(s.solve().is_sat());
        s.add_clause([!v[0]]);
        s.add_clause([!v[1]]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m[2]),
            other => panic!("still satisfiable, got {other:?}"),
        }
        s.add_clause([!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u32).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor_clauses = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        xor_clauses(&mut s, v[0], v[1]);
        xor_clauses(&mut s, v[1], v[2]);
        xor_clauses(&mut s, v[0], v[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// A pigeonhole instance PHP(n+1, n): n+1 pigeons in n holes, famously
    /// hard for resolution — guaranteed to burn conflicts.
    fn pigeonhole(s: &mut Solver, holes: usize) -> Vec<Vec<Lit>> {
        let pigeons = holes + 1;
        let p: Vec<Vec<Lit>> = (0..pigeons).map(|_| lits(s, holes)).collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (&a, &b) in row_i.iter().zip(row_j) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        p
    }

    #[test]
    fn budgeted_solve_gives_up_then_resumes() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        // A tiny budget cannot refute PHP(8, 7).
        assert_eq!(s.solve_limited(&[], 5), SolveResult::Unknown);
        // The solver stays usable: the unbudgeted call still refutes it.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn budgeted_solve_matches_unbudgeted_on_easy_instances() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        s.add_clause([!v[2], v[3]]);
        assert!(s.solve_limited(&[], 1_000_000).is_sat());
        // A definitive root-level refutation beats the budget even at 0.
        s.add_clause([!v[3]]);
        s.add_clause([!v[1]]);
        assert_eq!(s.solve_limited(&[], 0), SolveResult::Unsat);
    }
}
