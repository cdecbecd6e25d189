//! # nanoxbar-bddsynth
//!
//! Multi-output BDD → sneak-path crossbar compiler.
//!
//! The paper's two-terminal and lattice backends synthesise one output at
//! a time from SOP covers. This crate compiles **1..=K output functions
//! at once** through a shared ROBDD and maps the DAG onto a resistive
//! crossbar directly — BDD *nodes* become row wires, BDD *edges* become
//! column wires — so subgraphs shared between outputs are realised once.
//! Structure sharing, not per-output minimisation, is where multi-output
//! crossbar area wins come from.
//!
//! ## The sneak-path scheme
//!
//! Each kept BDD edge `u → v` owns one column with exactly two programmed
//! junctions: `(row_u, col)` carries the branch literal (`x` for the high
//! edge of a node testing `x`, `!x` for the low edge — the complement
//! wiring), and `(row_v, col)` is permanently ON. Edges into the FALSE
//! terminal are dropped entirely. Under an input assignment, a column
//! conducts iff its literal is satisfied, and output `o` reads **1** iff
//! the root row of output `o` is connected to the TRUE-terminal row
//! through conducting columns — in the *undirected* sense, sneak paths
//! included.
//!
//! Correctness despite sneak paths: under any assignment every internal
//! node keeps at most one conducting out-edge, so the conducting graph is
//! a functional graph on a DAG. Each weakly-connected component of such a
//! graph has exactly one sink (a connected component on `N` nodes needs
//! `≥ N−1` undirected edges, and out-degree ≤ 1 supplies exactly
//! `N − #sinks`). The TRUE row is always a sink; the evaluation chain
//! from a root ends at the TRUE row iff the function is 1. So root ~ TRUE
//! undirected connectivity ⟺ `f = 1` — no false positives through
//! multi-column sneak paths.
//!
//! ## Variable ordering
//!
//! [`compile_multi`] runs a deterministic greedy sifting pass: the
//! initial order puts the combined truth-table support first (ascending
//! index), then each variable — visited in that same seed order — is
//! tried at every position and pinned where the shared BDD's node count
//! is minimal, ties broken by the smallest position. No randomness, no
//! clocks: the same inputs give the same order, crossbar, and `Debug`
//! rendering at every thread count.
//!
//! ```
//! use nanoxbar_bddsynth::compile_multi;
//! use nanoxbar_logic::parse_function;
//!
//! let sum = parse_function("x0 ^ x1 ^ x2")?;
//! let carry = parse_function("x0 x1 + x0 x2 + x1 x2")?;
//! let xbar = compile_multi(&[sum.clone(), carry.clone()])?;
//! assert_eq!(xbar.num_outputs(), 2);
//! assert!(xbar.computes_all(&[sum, carry]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error as StdError;
use std::fmt;

use nanoxbar_logic::bdd::{Bdd, BddManager, BDD_FALSE, BDD_TRUE};
use nanoxbar_logic::{tail_mask, variable_word, word_len, TruthTable};

/// Variable counts above this skip the sifting pass (every move rescans
/// two levels of the `O(2^n)` tables, and sifting makes `O(n^2)` moves);
/// the support-seeded order is used as-is instead.
pub const SIFT_MAX_VARS: usize = 10;

/// Typed failures of the BDD → crossbar compiler.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddSynthError {
    /// The output list was empty.
    NoOutputs,
    /// Output functions disagree on input arity.
    ArityMismatch {
        /// Arity of output 0.
        expected: usize,
        /// First differing output's arity.
        found: usize,
    },
    /// An output is constant — constants need no array, and a constant
    /// root would sit on a terminal row with nothing to wire.
    ConstantOutput {
        /// Index of the constant output.
        output: usize,
    },
}

impl fmt::Display for BddSynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddSynthError::NoOutputs => write!(f, "multi-output job carries no outputs"),
            BddSynthError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "outputs disagree on arity ({expected} vs {found} variables)"
                )
            }
            BddSynthError::ConstantOutput { output } => {
                write!(f, "output {output} is constant")
            }
        }
    }
}

impl StdError for BddSynthError {}

/// One programmed crossbar column: the sneak-path image of a kept BDD
/// edge `from → to`, conducting when variable `var` equals `positive`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Row of the edge's source node (carries the branch literal).
    pub from: usize,
    /// Row of the edge's target node (always-ON junction).
    pub to: usize,
    /// The *original* (pre-sifting) variable the literal tests.
    pub var: usize,
    /// Literal polarity: `true` for the high branch (`x`), `false` for
    /// the low branch (`!x`).
    pub positive: bool,
}

impl Edge {
    /// Whether this column conducts under minterm `m`.
    fn conducts(&self, m: u64) -> bool {
        ((m >> self.var) & 1 == 1) == self.positive
    }
}

/// A compiled multi-output sneak-path crossbar.
///
/// Row 0 is the TRUE-terminal wire; rows `1..rows()` are the shared
/// BDD's internal nodes in manager-creation order. Each column is one
/// [`Edge`]. All fields are plain data with derived `Debug`, so the
/// rendering (and any fingerprint taken over it) is deterministic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SneakPathCrossbar {
    num_vars: usize,
    rows: usize,
    /// Row index of each output's root node.
    roots: Vec<usize>,
    /// One column per kept BDD edge, in (source row, low-before-high)
    /// order.
    edges: Vec<Edge>,
    /// Sifted variable order: position `p` tests original variable
    /// `order[p]`.
    order: Vec<usize>,
    /// Longest root → TRUE directed path, in edges (the worst-case
    /// series-resistance depth — the latency proxy).
    depth: usize,
}

impl SneakPathCrossbar {
    /// Input arity.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of compiled outputs.
    pub fn num_outputs(&self) -> usize {
        self.roots.len()
    }

    /// Row-wire count (TRUE terminal + shared internal nodes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column-wire count (one per kept BDD edge).
    pub fn cols(&self) -> usize {
        self.edges.len()
    }

    /// Programmed-junction count: exactly two devices per column (the
    /// literal junction and the always-ON junction). This is the area
    /// figure of merit for the sneak-path scheme — unprogrammed
    /// crosspoints hold no device.
    pub fn area(&self) -> usize {
        2 * self.edges.len()
    }

    /// Longest root → TRUE directed path in edges (latency proxy: the
    /// worst-case number of series devices a read current crosses).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The sifted variable order: position `p` tests original variable
    /// `order[p]`.
    pub fn variable_order(&self) -> &[usize] {
        &self.order
    }

    /// The compiled columns.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Row index of output `o`'s root node.
    ///
    /// # Panics
    ///
    /// Panics if `o >= num_outputs()`.
    pub fn root_row(&self, o: usize) -> usize {
        self.roots[o]
    }

    /// Evaluates output `o` under minterm `m`: undirected connectivity
    /// between the root row and the TRUE row through conducting columns.
    ///
    /// # Panics
    ///
    /// Panics if `o >= num_outputs()`.
    pub fn eval_output(&self, o: usize, m: u64) -> bool {
        let mut reach = vec![false; self.rows];
        reach[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for e in &self.edges {
                if !e.conducts(m) {
                    continue;
                }
                if reach[e.from] != reach[e.to] {
                    reach[e.from] = true;
                    reach[e.to] = true;
                    changed = true;
                }
            }
        }
        reach[self.roots[o]]
    }

    /// The complete truth table of every output, evaluated word-parallel
    /// (64 minterms per fixpoint sweep) — the replay used to verify a
    /// compiled crossbar against its specification tables.
    pub fn functions(&self) -> Vec<TruthTable> {
        let wl = word_len(self.num_vars);
        let mut words: Vec<Vec<u64>> = vec![vec![0; wl]; self.roots.len()];
        let mut conds: Vec<u64> = vec![0; self.edges.len()];
        let mut reach: Vec<u64> = vec![0; self.rows];
        for w in 0..wl {
            for (c, e) in conds.iter_mut().zip(&self.edges) {
                let v = variable_word(e.var, w);
                *c = if e.positive { v } else { !v };
            }
            reach.iter_mut().for_each(|r| *r = 0);
            reach[0] = u64::MAX;
            let mut changed = true;
            while changed {
                changed = false;
                for (e, &cond) in self.edges.iter().zip(&conds) {
                    let add_from = reach[e.to] & cond & !reach[e.from];
                    if add_from != 0 {
                        reach[e.from] |= add_from;
                        changed = true;
                    }
                    let add_to = reach[e.from] & cond & !reach[e.to];
                    if add_to != 0 {
                        reach[e.to] |= add_to;
                        changed = true;
                    }
                }
            }
            let tm = if w + 1 == wl {
                tail_mask(self.num_vars)
            } else {
                u64::MAX
            };
            for (out, &root) in words.iter_mut().zip(&self.roots) {
                out[w] = reach[root] & tm;
            }
        }
        words
            .into_iter()
            .map(|w| TruthTable::from_words(self.num_vars, w))
            .collect()
    }

    /// Replays every output and compares against `expected` — the
    /// all-outputs verification contract.
    pub fn computes_all(&self, expected: &[TruthTable]) -> bool {
        if expected.len() != self.roots.len() {
            return false;
        }
        if expected.iter().any(|t| t.num_vars() != self.num_vars) {
            return false;
        }
        self.functions() == expected
    }
}

/// Compiles one function — the single-output convenience wrapper around
/// [`compile_multi`].
///
/// # Errors
///
/// As for [`compile_multi`].
pub fn compile(f: &TruthTable) -> Result<SneakPathCrossbar, BddSynthError> {
    compile_multi(std::slice::from_ref(f))
}

/// Compiles `outputs` into one shared sneak-path crossbar.
///
/// # Errors
///
/// [`BddSynthError::NoOutputs`] for an empty list,
/// [`BddSynthError::ArityMismatch`] when the outputs disagree on input
/// arity, and [`BddSynthError::ConstantOutput`] when any output is
/// constant.
pub fn compile_multi(outputs: &[TruthTable]) -> Result<SneakPathCrossbar, BddSynthError> {
    let order = sifted_order(outputs)?;
    let num_vars = outputs[0].num_vars();
    let permuted: Vec<TruthTable> = outputs.iter().map(|t| t.permute_vars(&order)).collect();
    let mut mgr = BddManager::new(num_vars);
    let roots: Vec<Bdd> = permuted.iter().map(|t| mgr.from_truth_table(t)).collect();
    check_bdd_invariants(&mut mgr, &roots, &permuted);

    // Deterministic row assignment: TRUE terminal first, then reachable
    // internal nodes in manager-creation order (itself deterministic —
    // the build order above is fixed by the input order).
    let mut reachable: Vec<Bdd> = Vec::new();
    let mut seen = vec![false; mgr.node_count()];
    let mut stack: Vec<Bdd> = roots.clone();
    while let Some(b) = stack.pop() {
        let Some((_, low, high)) = mgr.node_parts(b) else {
            continue;
        };
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        reachable.push(b);
        stack.push(low);
        stack.push(high);
    }
    reachable.sort_unstable();
    let mut row_of = vec![usize::MAX; mgr.node_count()];
    row_of[BDD_TRUE.index()] = 0;
    for (i, b) in reachable.iter().enumerate() {
        row_of[b.index()] = i + 1;
    }

    let mut edges = Vec::new();
    for &u in &reachable {
        let (pos, low, high) = mgr.node_parts(u).expect("reachable nodes are internal");
        let var = order[pos];
        for (child, positive) in [(low, false), (high, true)] {
            if child == BDD_FALSE {
                continue;
            }
            edges.push(Edge {
                from: row_of[u.index()],
                to: row_of[child.index()],
                var,
                positive,
            });
        }
    }

    let depth = longest_path(&mgr, &roots);
    Ok(SneakPathCrossbar {
        num_vars,
        rows: reachable.len() + 1,
        roots: roots.iter().map(|r| row_of[r.index()]).collect(),
        edges,
        order,
        depth,
    })
}

/// The deterministic greedy-sifted variable order for `outputs`:
/// position `p` of the returned vector names the original variable
/// tested at BDD level `p`.
///
/// Seeded from the combined truth-table support (support variables
/// first, ascending), then each variable — in seed order — is pinned at
/// the position minimising the shared BDD's internal-node count, ties
/// broken by the smallest position; a move must strictly improve on the
/// current position. Above [`SIFT_MAX_VARS`] variables the seed order is
/// returned un-sifted.
///
/// No BDD is built: a level's node count is the number of distinct
/// cofactors there that depend on the level's variable, read off one
/// working copy of the tables that adjacent [`TruthTable::swap_vars`]
/// moves keep in step with the order, so a move recounts two levels.
/// [`sifted_order_scalar`] is the manager-built reference it is tested
/// against.
///
/// # Errors
///
/// As for [`compile_multi`].
pub fn sifted_order(outputs: &[TruthTable]) -> Result<Vec<usize>, BddSynthError> {
    let order = seed_order(outputs)?;
    let num_vars = order.len();
    if num_vars > SIFT_MAX_VARS {
        return Ok(order);
    }
    let seed = order.clone();
    let mut levels = LevelTables::new(outputs, order);
    for &v in &seed {
        // Walk the variable to the nearer end, then to the far end, so it
        // visits every position; record the cost at each. The others keep
        // their relative order, so position `p` is exactly the candidate
        // "remove v, insert at p" of the reference pass.
        let cur = levels.position(v);
        let mut costs = vec![0; num_vars];
        costs[cur] = levels.cost();
        let ends = if cur < num_vars - 1 - cur {
            [0, num_vars - 1]
        } else {
            [num_vars - 1, 0]
        };
        let mut pos = cur;
        for end in ends {
            while pos != end {
                pos = levels.step(pos, end);
                costs[pos] = levels.cost();
            }
        }
        // Strict improvement over the current position, smallest position
        // among the best — the reference pass's tie rules.
        let mut best = cur;
        for p in 0..num_vars {
            if p != cur && costs[p] < costs[best] {
                best = p;
            }
        }
        while pos != best {
            pos = levels.step(pos, best);
        }
    }
    Ok(levels.order)
}

/// The working state of [`sifted_order`]: every output's
/// table with BDD level `p` stored as table variable `n - 1 - p`, so the
/// cofactors below level `p` are contiguous chunks of `2^(n-p)` bits, plus
/// the shared-BDD node count of every level.
///
/// Level `p` holds one node per distinct chunk at that level (across all
/// outputs) whose two halves differ — a subfunction that depends on the
/// level's variable. Swapping two adjacent levels leaves every other
/// level's chunks unchanged as sets, so a swap recounts just those two.
struct LevelTables {
    tables: Vec<TruthTable>,
    order: Vec<usize>,
    nodes: Vec<usize>,
}

impl LevelTables {
    fn new(outputs: &[TruthTable], order: Vec<usize>) -> LevelTables {
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let tables = outputs.iter().map(|t| t.permute_vars(&reversed)).collect();
        let mut levels = LevelTables {
            tables,
            nodes: vec![0; order.len()],
            order,
        };
        for p in 0..levels.order.len() {
            levels.recount(p);
        }
        levels
    }

    fn position(&self, v: usize) -> usize {
        self.order
            .iter()
            .position(|&o| o == v)
            .expect("var in order")
    }

    /// Internal-node count of the shared BDD under the current order.
    fn cost(&self) -> usize {
        self.nodes.iter().sum()
    }

    /// Moves the variable at level `pos` one level towards `target` and
    /// returns its new level.
    fn step(&mut self, pos: usize, target: usize) -> usize {
        let p = if target < pos { pos - 1 } else { pos };
        let n = self.order.len();
        for t in &mut self.tables {
            *t = t.swap_vars(n - 1 - p, n - 2 - p);
        }
        self.order.swap(p, p + 1);
        self.recount(p);
        self.recount(p + 1);
        if target < pos {
            pos - 1
        } else {
            pos + 1
        }
    }

    fn recount(&mut self, p: usize) {
        let k = self.order.len() - 1 - p;
        self.nodes[p] = if k < 6 {
            dependent_sub_word_chunks(&self.tables, k)
        } else {
            let chunk = 1usize << (k - 5);
            let mut chunks: Vec<&[u64]> = self
                .tables
                .iter()
                .flat_map(|t| t.words().chunks(chunk))
                .filter(|c| c[..chunk / 2] != c[chunk / 2..])
                .collect();
            chunks.sort_unstable();
            chunks.dedup();
            chunks.len()
        };
    }
}

/// Distinct chunks of `2^(k+1)` bits (at most a word) across `tables` whose
/// halves differ — the node count of the level stored as table variable
/// `k < 6`.
fn dependent_sub_word_chunks(tables: &[TruthTable], k: usize) -> usize {
    let bits = 1u32 << (k + 1);
    let half = bits / 2;
    let chunk_mask = u64::MAX >> (64 - bits);
    let half_mask = (1u64 << half) - 1;
    let mut small = [0u64; 4];
    let mut wide = Vec::new();
    for t in tables {
        let valid = 1u32 << t.num_vars().min(6);
        for &w in t.words() {
            for off in (0..valid).step_by(bits as usize) {
                let c = (w >> off) & chunk_mask;
                if (c ^ (c >> half)) & half_mask == 0 {
                    continue;
                }
                if bits <= 8 {
                    small[(c >> 6) as usize] |= 1 << (c & 63);
                } else {
                    wide.push(c);
                }
            }
        }
    }
    wide.sort_unstable();
    wide.dedup();
    wide.len() + small.iter().map(|w| w.count_ones() as usize).sum::<usize>()
}

/// Per-candidate reference for [`sifted_order`]: the same greedy pass,
/// scoring every candidate order by building its shared BDD in a fresh
/// hash-consed [`BddManager`]. Returns the same order; kept as the oracle
/// the level-count kernel is tested against.
///
/// # Errors
///
/// As for [`compile_multi`].
pub fn sifted_order_scalar(outputs: &[TruthTable]) -> Result<Vec<usize>, BddSynthError> {
    let mut order = seed_order(outputs)?;
    let num_vars = order.len();
    if num_vars > SIFT_MAX_VARS {
        return Ok(order);
    }

    // Greedy sifting: visit variables in the (fixed) seed order; try each
    // at every position; keep the first position attaining the minimal
    // shared node count.
    let seed = order.clone();
    for &v in &seed {
        // Baseline: the variable's current position. A move must be a
        // *strict* improvement (ties keep the current, support-seeded
        // placement), and among strictly better positions the smallest
        // wins — both rules fixed, so the pass is deterministic.
        let mut best_order = order.clone();
        let mut best_cost = shared_size(outputs, &order);
        let cur = order.iter().position(|&o| o == v).expect("var in order");
        for pos in 0..num_vars {
            if pos == cur {
                continue;
            }
            let mut candidate: Vec<usize> = order.iter().copied().filter(|&o| o != v).collect();
            candidate.insert(pos, v);
            let cost = shared_size(outputs, &candidate);
            if cost < best_cost {
                best_cost = cost;
                best_order = candidate;
            }
        }
        order = best_order;
    }
    Ok(order)
}

/// Validates `outputs` and returns the support-seeded initial order:
/// support variables first, ascending, then the rest.
fn seed_order(outputs: &[TruthTable]) -> Result<Vec<usize>, BddSynthError> {
    let first = outputs.first().ok_or(BddSynthError::NoOutputs)?;
    let num_vars = first.num_vars();
    for t in outputs {
        if t.num_vars() != num_vars {
            return Err(BddSynthError::ArityMismatch {
                expected: num_vars,
                found: t.num_vars(),
            });
        }
    }
    for (o, t) in outputs.iter().enumerate() {
        if t.is_zero() || t.is_ones() {
            return Err(BddSynthError::ConstantOutput { output: o });
        }
    }

    // Support-seeded initial order.
    let in_support: Vec<bool> = (0..num_vars)
        .map(|v| outputs.iter().any(|t| !t.is_independent_of(v)))
        .collect();
    let mut order: Vec<usize> = (0..num_vars).filter(|&v| in_support[v]).collect();
    order.extend((0..num_vars).filter(|&v| !in_support[v]));
    Ok(order)
}

/// Internal-node count of the shared BDD for `outputs` under `order`.
fn shared_size(outputs: &[TruthTable], order: &[usize]) -> usize {
    let mut mgr = BddManager::new(order.len());
    let roots: Vec<Bdd> = outputs
        .iter()
        .map(|t| {
            let permuted = t.permute_vars(order);
            mgr.from_truth_table(&permuted)
        })
        .collect();
    let mut seen = vec![false; mgr.node_count()];
    let mut count = 0;
    let mut stack = roots;
    while let Some(b) = stack.pop() {
        let Some((_, low, high)) = mgr.node_parts(b) else {
            continue;
        };
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        count += 1;
        stack.push(low);
        stack.push(high);
    }
    count
}

/// Longest root → TRUE path length in kept edges, memoised over the DAG.
fn longest_path(mgr: &BddManager, roots: &[Bdd]) -> usize {
    fn depth_to_true(
        mgr: &BddManager,
        b: Bdd,
        memo: &mut Vec<Option<Option<usize>>>,
    ) -> Option<usize> {
        if b == BDD_TRUE {
            return Some(0);
        }
        let Some((_, low, high)) = mgr.node_parts(b) else {
            return None; // FALSE terminal: no path.
        };
        if let Some(cached) = memo[b.index()] {
            return cached;
        }
        let l = depth_to_true(mgr, low, memo);
        let h = depth_to_true(mgr, high, memo);
        let d = match (l, h) {
            (Some(a), Some(b)) => Some(a.max(b) + 1),
            (Some(a), None) | (None, Some(a)) => Some(a + 1),
            (None, None) => None,
        };
        memo[b.index()] = Some(d);
        d
    }
    let mut memo = vec![None; mgr.node_count()];
    roots
        .iter()
        .filter_map(|&r| depth_to_true(mgr, r, &mut memo))
        .max()
        .unwrap_or(0)
}

/// Cross-checks the built BDDs against their specification tables through
/// the manager's quantification/counting surface: `sat_count` must match
/// the table's ON-minterm count, and `exists`/`restrict` must agree with
/// the table on every variable's (in)dependence. Debug-build only — these
/// are internal invariants, not data errors.
fn check_bdd_invariants(mgr: &mut BddManager, roots: &[Bdd], tables: &[TruthTable]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (&root, table) in roots.iter().zip(tables) {
        debug_assert_eq!(mgr.sat_count(root), table.count_ones(), "sat_count drift");
        for v in 0..table.num_vars() {
            let exists = mgr.exists(root, v);
            debug_assert_eq!(
                exists == root,
                table.is_independent_of(v),
                "exists/support drift on variable {v}"
            );
            let low = mgr.restrict(root, v, false);
            let high = mgr.restrict(root, v, true);
            debug_assert_eq!(
                low == high,
                table.is_independent_of(v),
                "restrict/support drift on variable {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_logic::parse_function;

    fn f(expr: &str) -> TruthTable {
        parse_function(expr).unwrap()
    }

    #[test]
    fn single_output_families_verify() {
        for expr in [
            "x0 x1 + !x0 !x1",
            "x0 ^ x1 ^ x2",
            "x0 x1 + x0 x2 + x1 x2",
            "x0 + x1 x2 + !x3",
            "x0 x1 x2 x3 + !x0 !x1 !x2 !x3",
        ] {
            let table = f(expr);
            let xbar = compile(&table).unwrap();
            assert!(xbar.computes_all(std::slice::from_ref(&table)), "{expr}");
            assert_eq!(xbar.num_outputs(), 1, "{expr}");
            assert!(xbar.depth() >= 1, "{expr}");
            assert_eq!(xbar.area(), 2 * xbar.cols(), "{expr}");
        }
    }

    #[test]
    fn multi_output_shares_structure() {
        let sum = f("x0 ^ x1 ^ x2");
        let carry = f("x0 x1 + x0 x2 + x1 x2");
        let shared = compile_multi(&[sum.clone(), carry.clone()]).unwrap();
        assert!(shared.computes_all(&[sum.clone(), carry.clone()]));
        let separate = compile(&sum).unwrap().cols() + compile(&carry).unwrap().cols();
        assert!(
            shared.cols() < separate,
            "shared {} vs separate {separate}",
            shared.cols()
        );
    }

    #[test]
    fn identical_outputs_share_their_root() {
        let table = f("x0 x1 + !x0 !x1");
        let xbar = compile_multi(&[table.clone(), table.clone()]).unwrap();
        assert_eq!(xbar.root_row(0), xbar.root_row(1));
        assert!(xbar.computes_all(&[table.clone(), table]));
    }

    #[test]
    fn word_parallel_matches_single_minterm_eval() {
        let outputs = [
            f("x0 x1 + x2 !x3"),
            f("x1 ^ x3"),
            f("!x0 + x2").extend_vars(1),
        ];
        let xbar = compile_multi(&outputs).unwrap();
        let tables = xbar.functions();
        for (o, table) in tables.iter().enumerate() {
            for m in 0..16u64 {
                assert_eq!(
                    table.value(m),
                    xbar.eval_output(o, m),
                    "output {o} minterm {m}"
                );
            }
        }
    }

    #[test]
    fn typed_errors_for_bad_specs() {
        assert_eq!(compile_multi(&[]), Err(BddSynthError::NoOutputs));
        assert_eq!(
            compile_multi(&[f("x0 x1"), f("x0 x1 + x2")]),
            Err(BddSynthError::ArityMismatch {
                expected: 2,
                found: 3
            })
        );
        assert_eq!(
            compile_multi(&[f("x0"), TruthTable::ones(1)]),
            Err(BddSynthError::ConstantOutput { output: 1 })
        );
        let display = BddSynthError::ConstantOutput { output: 1 }.to_string();
        assert!(display.contains("output 1"));
    }

    #[test]
    fn compilation_is_deterministic() {
        let outputs = [
            f("x0 x1 + x2 x3"),
            f("x0 ^ x2").extend_vars(1),
            f("x1 + !x3"),
        ];
        let a = compile_multi(&outputs).unwrap();
        let b = compile_multi(&outputs).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn sifting_seeds_support_first() {
        // x2 is the only support variable: it must lead the order.
        let table = f("x2");
        let order = sifted_order(std::slice::from_ref(&table)).unwrap();
        assert_eq!(order[0], 2);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn sifting_improves_an_interleaved_adder() {
        // The classic ordering-sensitive family: x0 x2 + x1 x3 wants the
        // pairs adjacent. Sifting must not do worse than the natural
        // order.
        let table = f("x0 x2 + x1 x3");
        let natural: Vec<usize> = (0..4).collect();
        let sifted = sifted_order(std::slice::from_ref(&table)).unwrap();
        let cost = |o: &[usize]| shared_size(std::slice::from_ref(&table), o);
        assert!(cost(&sifted) <= cost(&natural));
        let xbar = compile(&table).unwrap();
        assert!(xbar.computes_all(std::slice::from_ref(&table)));
    }

    #[test]
    fn level_counts_match_the_manager_built_size() {
        let mut state = 0xC0FF_EE00_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=9usize {
            let outputs: Vec<TruthTable> = (0..3)
                .map(|_| {
                    let words = (0..word_len(n)).map(|_| next()).collect();
                    TruthTable::from_words(n, words)
                })
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            // Fisher–Yates, then every single adjacent move from there.
            for i in (1..n).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut levels = LevelTables::new(&outputs, order.clone());
            assert_eq!(levels.cost(), shared_size(&outputs, &order), "n={n}");
            for p in 0..n.saturating_sub(1) {
                levels.step(p, p + 1);
                assert_eq!(
                    levels.cost(),
                    shared_size(&outputs, &levels.order),
                    "n={n} after moving level {p}"
                );
            }
            assert_eq!(
                sifted_order(&outputs),
                sifted_order_scalar(&outputs),
                "n={n}"
            );
        }
    }

    #[test]
    fn wide_functions_skip_sifting_but_still_verify() {
        let n = SIFT_MAX_VARS + 1;
        let table = TruthTable::from_fn(n, |m| (m.count_ones() & 1) == 1);
        let xbar = compile(&table).unwrap();
        assert_eq!(xbar.variable_order(), (0..n).collect::<Vec<_>>());
        assert!(xbar.computes_all(std::slice::from_ref(&table)));
        // Parity's BDD is linear: 2n - 1 internal nodes + the TRUE row.
        assert_eq!(xbar.rows(), 2 * n);
    }
}
