//! A compact reduced ordered binary decision diagram (ROBDD) package.
//!
//! The paper notes (Sec. III-A) that BDD *forms* cannot be wired onto
//! nanoarrays directly — but BDDs remain the workhorse for internal function
//! manipulation (equivalence, quantification, counting), so the workspace
//! carries this small, self-contained implementation: hash-consed nodes, an
//! `ite` core with memoisation, and conversions to/from truth tables.
//!
//! # Examples
//!
//! ```
//! use nanoxbar_logic::bdd::BddManager;
//!
//! let mut mgr = BddManager::new(3);
//! let x0 = mgr.var(0);
//! let x1 = mgr.var(1);
//! let x2 = mgr.var(2);
//! let f = {
//!     let a = mgr.and(x0, x1);
//!     mgr.or(a, x2)
//! };
//! assert_eq!(mgr.sat_count(f), 5);
//! ```

use std::collections::HashMap;

use crate::truth_table::{variable_word, word_len, TruthTable};

/// Handle to a BDD node within a [`BddManager`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The node's dense manager index (terminals are 0 and 1; internal
    /// nodes follow in creation order). Stable for the manager's lifetime,
    /// so external walkers can use it as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Internal node: `(var, low, high)` with var-ordered children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    var: u32,
    low: Bdd,
    high: Bdd,
}

/// Owns BDD nodes and caches; all operations go through the manager.
#[derive(Debug)]
pub struct BddManager {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<Node, Bdd>,
    ite_cache: HashMap<(Bdd, Bdd, Bdd), Bdd>,
}

/// The constant-false terminal.
pub const BDD_FALSE: Bdd = Bdd(0);
/// The constant-true terminal.
pub const BDD_TRUE: Bdd = Bdd(1);

const TERMINAL_VAR: u32 = u32::MAX;

/// Entry bound on the ITE memo: a top-level operation entered with the
/// memo at or above this size drops it first (the memo is a pure
/// accelerator — correctness never depends on it), so long-lived managers
/// cannot grow an unbounded cache across many operations.
const ITE_MEMO_BOUND: usize = 1 << 20;

impl BddManager {
    /// Creates a manager for functions over `num_vars` variables with the
    /// natural variable order (variable 0 at the top).
    ///
    /// The node store and unique table are pre-sized for a few thousand
    /// nodes so typical builds grow by doubling instead of rehashing the
    /// unique table once per insertion batch.
    pub fn new(num_vars: usize) -> Self {
        let terminal = |_v| Node {
            var: TERMINAL_VAR,
            low: BDD_FALSE,
            high: BDD_FALSE,
        };
        // 2^(n+1) nodes covers every function of up to `n` variables; cap
        // the pre-allocation so wide managers don't pay for that bound.
        let capacity = 2usize.saturating_pow(num_vars.min(11) as u32 + 1);
        let mut nodes = Vec::with_capacity(capacity + 2);
        nodes.push(terminal(0));
        nodes.push(terminal(1));
        BddManager {
            num_vars,
            nodes,
            unique: HashMap::with_capacity(capacity),
            ite_cache: HashMap::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The function `x_var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: usize) -> Bdd {
        assert!(var < self.num_vars, "variable {var} out of range");
        self.mk(var as u32, BDD_FALSE, BDD_TRUE)
    }

    /// The constant function.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            BDD_TRUE
        } else {
            BDD_FALSE
        }
    }

    fn mk(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&b) = self.unique.get(&node) {
            return b;
        }
        let id = Bdd(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    fn node(&self, b: Bdd) -> Node {
        self.nodes[b.0 as usize]
    }

    /// The `(var, low, high)` triple of an internal node, or `None` for
    /// the two terminals — the read-only view external DAG walkers (the
    /// sneak-path compiler in `nanoxbar-bddsynth`) traverse.
    pub fn node_parts(&self, b: Bdd) -> Option<(usize, Bdd, Bdd)> {
        let n = self.node(b);
        (n.var != TERMINAL_VAR).then_some((n.var as usize, n.low, n.high))
    }

    fn top_var(&self, b: Bdd) -> u32 {
        self.node(b).var
    }

    fn cofactor_at(&self, b: Bdd, var: u32, value: bool) -> Bdd {
        let n = self.node(b);
        if n.var == var {
            if value {
                n.high
            } else {
                n.low
            }
        } else {
            b
        }
    }

    /// If-then-else: the universal BDD combinator.
    ///
    /// Entering with the memo at or above its bound drops it first, so a
    /// long-lived manager's ITE cache stays bounded between top-level
    /// operations.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if self.ite_cache.len() >= ITE_MEMO_BOUND {
            // Replace rather than `clear()` so the capacity is released.
            self.ite_cache = HashMap::new();
        }
        self.ite_rec(f, g, h)
    }

    fn ite_rec(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f == BDD_TRUE {
            return g;
        }
        if f == BDD_FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == BDD_TRUE && h == BDD_FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let var = self.top_var(f).min(self.top_var(g)).min(self.top_var(h));
        let f0 = self.cofactor_at(f, var, false);
        let f1 = self.cofactor_at(f, var, true);
        let g0 = self.cofactor_at(g, var, false);
        let g1 = self.cofactor_at(g, var, true);
        let h0 = self.cofactor_at(h, var, false);
        let h1 = self.cofactor_at(h, var, true);
        let low = self.ite_rec(f0, g0, h0);
        let high = self.ite_rec(f1, g1, h1);
        let r = self.mk(var, low, high);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Logical NOT.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, BDD_FALSE, BDD_TRUE)
    }

    /// Logical AND.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, BDD_FALSE)
    }

    /// Logical OR.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, BDD_TRUE, g)
    }

    /// Evaluates under minterm `m`.
    pub fn eval(&self, f: Bdd, m: u64) -> bool {
        let mut cur = f;
        loop {
            if cur == BDD_TRUE {
                return true;
            }
            if cur == BDD_FALSE {
                return false;
            }
            let n = self.node(cur);
            cur = if (m >> n.var) & 1 == 1 { n.high } else { n.low };
        }
    }

    /// Existential quantification over `var`.
    pub fn exists(&mut self, f: Bdd, var: usize) -> Bdd {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.or(f0, f1)
    }

    /// Restriction `f|x_var=value`.
    pub fn restrict(&mut self, f: Bdd, var: usize, value: bool) -> Bdd {
        if f == BDD_TRUE || f == BDD_FALSE {
            return f;
        }
        let n = self.node(f);
        match (n.var as usize).cmp(&var) {
            std::cmp::Ordering::Greater => f,
            std::cmp::Ordering::Equal => {
                if value {
                    n.high
                } else {
                    n.low
                }
            }
            std::cmp::Ordering::Less => {
                let low = self.restrict(n.low, var, value);
                let high = self.restrict(n.high, var, value);
                self.mk(n.var, low, high)
            }
        }
    }

    /// Number of satisfying assignments over all `num_vars` variables.
    pub fn sat_count(&self, f: Bdd) -> u64 {
        let mut memo: HashMap<Bdd, u64> = HashMap::new();
        self.sat_count_rec(f, 0, &mut memo)
    }

    fn sat_count_rec(&self, f: Bdd, from_var: u32, memo: &mut HashMap<Bdd, u64>) -> u64 {
        if f == BDD_FALSE {
            return 0;
        }
        if f == BDD_TRUE {
            return 1u64 << (self.num_vars as u32 - from_var);
        }
        let n = self.node(f);
        let key = f;
        let below = if let Some(&c) = memo.get(&key) {
            c
        } else {
            let low = self.sat_count_rec(n.low, n.var + 1, memo);
            let high = self.sat_count_rec(n.high, n.var + 1, memo);
            let c = low + high;
            memo.insert(key, c);
            c
        };
        below << (n.var - from_var)
    }

    /// Builds a BDD from a truth table.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn from_truth_table(&mut self, tt: &TruthTable) -> Bdd {
        assert_eq!(tt.num_vars(), self.num_vars, "arity mismatch");
        self.build_tt_rec(tt, 0, 0)
    }

    fn build_tt_rec(&mut self, tt: &TruthTable, var: usize, prefix: u64) -> Bdd {
        if var == self.num_vars {
            return self.constant(tt.value(prefix));
        }
        let low = self.build_tt_rec(tt, var + 1, prefix);
        let high = self.build_tt_rec(tt, var + 1, prefix | (1 << var));
        self.mk(var as u32, low, high)
    }

    /// Converts back to a truth table, 64 minterms at a time: per word,
    /// every node reachable from `f` gets its slice as the multiplexer
    /// `x ? high : low` of its children's slices. Children always precede
    /// their parents in the node store, so ascending index order is a
    /// valid evaluation order.
    pub fn to_truth_table(&self, f: Bdd) -> TruthTable {
        // Slots 0 and 1 hold the terminals' constant slices.
        let slots = f.index().max(BDD_TRUE.index()) + 1;
        let mut reachable = Vec::new();
        let mut seen = vec![false; slots];
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b.index()], true) {
                continue;
            }
            if let Some((_, low, high)) = self.node_parts(b) {
                reachable.push(b);
                stack.push(low);
                stack.push(high);
            }
        }
        reachable.sort_unstable();
        let mut value = vec![0u64; slots];
        value[BDD_TRUE.index()] = u64::MAX;
        let words = (0..word_len(self.num_vars))
            .map(|w| {
                for &b in &reachable {
                    let n = self.node(b);
                    let x = variable_word(n.var as usize, w);
                    value[b.index()] = (x & value[n.high.index()]) | (!x & value[n.low.index()]);
                }
                value[f.index()]
            })
            .collect();
        TruthTable::from_words(self.num_vars, words)
    }

    /// Number of *internal* nodes reachable from `f` (a common size metric;
    /// terminals are not counted).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(b) = stack.pop() {
            if b == BDD_TRUE || b == BDD_FALSE || !seen.insert(b) {
                continue;
            }
            count += 1;
            let n = self.node(b);
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut mgr = BddManager::new(2);
        assert_eq!(mgr.constant(true), BDD_TRUE);
        let x0 = mgr.var(0);
        assert!(mgr.eval(x0, 0b01));
        assert!(!mgr.eval(x0, 0b10));
    }

    #[test]
    fn hash_consing_makes_sharing_exact() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        let a = mgr.and(x0, x1);
        let b = mgr.and(x0, x1);
        assert_eq!(a, b);
    }

    #[test]
    fn truth_table_roundtrip_random() {
        let mut state = 0xFEEDFACE12345678u64;
        for n in 1..=6 {
            let mut mgr = BddManager::new(n);
            for _ in 0..20 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let bits = state;
                let tt = TruthTable::from_fn(n, |m| (bits >> (m % 64)) & 1 == 1);
                let f = mgr.from_truth_table(&tt);
                assert_eq!(mgr.to_truth_table(f), tt);
                assert_eq!(mgr.sat_count(f), tt.count_ones());
            }
        }
    }

    #[test]
    fn word_to_truth_table_matches_eval() {
        let mut state = 0x0DDB_A11Cu64;
        for n in [0usize, 1, 5, 6, 7, 9] {
            let mut mgr = BddManager::new(n);
            assert!(mgr.to_truth_table(BDD_FALSE).is_zero());
            assert!(mgr.to_truth_table(BDD_TRUE).is_ones());
            for _ in 0..6 {
                let words = (0..word_len(n))
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    })
                    .collect();
                let f = mgr.from_truth_table(&TruthTable::from_words(n, words));
                let scalar = TruthTable::from_fn(n, |m| mgr.eval(f, m));
                assert_eq!(mgr.to_truth_table(f), scalar, "n={n}");
            }
        }
    }

    #[test]
    fn ite_implements_boolean_ops() {
        let mut mgr = BddManager::new(4);
        let tt_a = TruthTable::from_fn(4, |m| m % 3 == 0);
        let tt_b = TruthTable::from_fn(4, |m| m % 5 == 0);
        let a = mgr.from_truth_table(&tt_a);
        let b = mgr.from_truth_table(&tt_b);
        let and = mgr.and(a, b);
        let or = mgr.or(a, b);
        let nb = mgr.not(b);
        let xor = mgr.ite(a, nb, b);
        let not = mgr.not(a);
        assert_eq!(mgr.to_truth_table(and), tt_a.and(&tt_b));
        assert_eq!(mgr.to_truth_table(or), tt_a.or(&tt_b));
        assert_eq!(mgr.to_truth_table(xor), tt_a.xor(&tt_b));
        assert_eq!(mgr.to_truth_table(not), tt_a.not());
    }

    #[test]
    fn restrict_and_exists() {
        let mut mgr = BddManager::new(3);
        let tt = TruthTable::from_fn(3, |m| m == 0b101 || m == 0b011);
        let f = mgr.from_truth_table(&tt);
        let r0 = mgr.restrict(f, 2, false);
        assert_eq!(mgr.to_truth_table(r0), tt.cofactor(2, false));
        let e = mgr.exists(f, 2);
        assert_eq!(mgr.to_truth_table(e), tt.exists(2));
    }

    #[test]
    fn parity_bdd_is_linear_in_vars() {
        let n = 10;
        let mut mgr = BddManager::new(n);
        let mut f = mgr.constant(false);
        for v in 0..n {
            let x = mgr.var(v);
            let nx = mgr.not(x);
            f = mgr.ite(f, nx, x);
        }
        // Parity has exactly 2 nodes per level plus terminals => 2n - 1
        // internal nodes; allow the standard bound.
        assert_eq!(mgr.size(f), 2 * n - 1);
        assert_eq!(mgr.sat_count(f), 1 << (n - 1));
    }

    #[test]
    fn reduction_eliminates_redundant_tests() {
        let mut mgr = BddManager::new(2);
        let x0 = mgr.var(0);
        let nx0 = mgr.not(x0);
        let tautology = mgr.or(x0, nx0);
        assert_eq!(tautology, BDD_TRUE);
    }

    #[test]
    fn node_parts_exposes_internal_nodes_only() {
        let mut mgr = BddManager::new(2);
        assert_eq!(mgr.node_parts(BDD_FALSE), None);
        assert_eq!(mgr.node_parts(BDD_TRUE), None);
        let x1 = mgr.var(1);
        let (var, low, high) = mgr.node_parts(x1).expect("internal node");
        assert_eq!((var, low, high), (1, BDD_FALSE, BDD_TRUE));
        assert_eq!(BDD_FALSE.index(), 0);
        assert_eq!(BDD_TRUE.index(), 1);
        assert!(x1.index() >= 2);
    }

    #[test]
    fn ite_memo_is_dropped_at_the_bound() {
        let mut mgr = BddManager::new(2);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        // Fill the memo past its bound with synthetic entries (top-level
        // `ite` clears before any lookup, so the keys are never followed).
        for i in 0..ITE_MEMO_BOUND as u32 {
            mgr.ite_cache
                .insert((Bdd(i + 2), Bdd(i + 3), Bdd(i + 4)), BDD_TRUE);
        }
        let a = mgr.and(x0, x1);
        assert!(
            mgr.ite_cache.len() < ITE_MEMO_BOUND,
            "top-level ite must drop an over-bound memo"
        );
        assert_eq!(mgr.to_truth_table(a), {
            let t0 = TruthTable::variable(2, 0);
            let t1 = TruthTable::variable(2, 1);
            t0.and(&t1)
        });
    }
}
