//! Word-parallel (bit-sliced) lattice evaluation: 64 minterms per grid
//! sweep lane, 4 lanes per sweep, and whole-table evaluation spread
//! across cores.
//!
//! # Bit-slicing layout
//!
//! The engine adopts [`TruthTable`]'s packed layout: minterm `m` lives at
//! bit `m & 63` of word `m >> 6`, so one `u64` carries the lattice's
//! behaviour on 64 consecutive input assignments at once. For each word
//! index `w`, every site gets a 64-bit **on-mask** — the slice of its
//! control literal's truth table ([`nanoxbar_logic::variable_word`]):
//! bit `i` of site `(r, c)`'s mask says whether the switch conducts under
//! minterm `64*w + i`. Variables `x0..x5` toggle inside a word (fixed
//! patterns such as `0xAAAA…`); variables `x6+` select whole words, so
//! their masks are all-ones or all-zeros per word.
//!
//! # Word-wise percolation
//!
//! Top→bottom evaluation asks, per minterm, whether a 4-connected path of
//! ON switches joins the top and bottom plates. Bit-sliced, each site
//! carries a **reach word** — the set of minterms for which the site is
//! connected to the top plate through ON switches. Row 0 seeds
//! `reach = mask`; interior sites satisfy the fixpoint equation
//!
//! ```text
//! reach[r][c] = mask[r][c] & (reach[up] | reach[down] | reach[left] | reach[right])
//! ```
//!
//! which the engine solves by monotone Gauss–Seidel sweeps (alternating
//! forward/backward over rows, with in-row carry passes both directions)
//! until nothing changes; the answer word is the union of the bottom
//! row's reach. Left→right king-move percolation — the planar-dual
//! evaluation of paper Fig. 5 — is the same computation transposed, with
//! the 8-neighbour adjacency and column 0 as the seed.
//!
//! Sweeps converge in `O(longest shortest path)` iterations (1–3 for
//! practically every lattice, including all synthesised ones) and each
//! sweep is a handful of AND/OR/shift-free word operations per site, so a
//! full truth table costs roughly `sites × sweeps` word-ops per 64
//! minterms — replacing 64 scalar BFS traversals, their visited-vector
//! allocations, and their per-site closure dispatch.
//!
//! # Lane unrolling and multi-core evaluation
//!
//! The percolation kernel is generic over a **lane count** `L`: lanes are
//! `[u64; L]` arrays moved through the same sweeps element-wise, so a
//! 4-lane pass percolates 256 minterms per grid traversal with the loop
//! control, bounds checks, and `changed` bookkeeping paid once — exactly
//! the u64x4-style unrolling `std::simd` would generate. Whole-table
//! entry points use 4-lane blocks and fall back to the 1-lane kernel for
//! the tail and for narrow tables (fewer than four words).
//!
//! On top of that, [`BitEvaluator::function`], [`dual_function`]
//! (word-parallel dual evaluation) and [`computes`] split their word
//! range into chunks evaluated on the [`nanoxbar_par`] work-stealing pool
//! with an independent scratch evaluator per task. Every word's value is
//! independent of the split, so results are **bit-identical for every
//! `NANOXBAR_THREADS` value** — proved by the property suite in
//! `tests/word_parallel_equivalence.rs`, which also proves both lane
//! kernels bit-identical to the scalar BFS evaluators retained in
//! [`crate::eval`].
//!
//! [`dual_function`]: BitEvaluator::dual_function
//! [`computes`]: BitEvaluator::computes

use std::sync::atomic::{AtomicBool, Ordering};

use nanoxbar_logic::{tail_mask, variable_word, word_len, TruthTable};
use nanoxbar_par as par;

use crate::lattice::{Lattice, Site};

/// Minimum table length (in words) before whole-table evaluation fans
/// out to the thread pool; below this the per-task overhead dominates.
const PAR_MIN_WORDS: usize = 16;

/// The 64-minterm on-mask of a site at word index `word` (the predicate
/// `site.is_on(m)` bit-sliced).
fn site_word(site: Site, word: usize) -> u64 {
    match site {
        Site::Literal(l) => {
            let base = variable_word(l.var(), word);
            if l.is_positive() {
                base
            } else {
                !base
            }
        }
        Site::Const(true) => u64::MAX,
        Site::Const(false) => 0,
    }
}

/// The on-mask of the *dual* predicate `!site.is_on(m ^ all_ones)`.
///
/// For a literal, complementing every input and then negating the result
/// cancels out (`!(x̄_v) = x_v`), so the mask equals the plain
/// [`site_word`]; a constant site must be complemented.
fn dual_site_word(site: Site, word: usize) -> u64 {
    match site {
        Site::Literal(_) => site_word(site, word),
        Site::Const(b) => site_word(Site::Const(!b), word),
    }
}

/// Which bit-sliced site predicate a percolation pass evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MaskKind {
    /// `site.is_on(m)` — the computed function's switches.
    On,
    /// `!site.is_on(m ^ all)` — the Boolean-dual evaluation of
    /// [`crate::eval::eval_dual`].
    Dual,
}

/// Which percolation a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Route {
    /// Top plate → bottom plate, 4-neighbour adjacency.
    TopBottom,
    /// Left plate → right plate, 8-neighbour king adjacency.
    LeftRightKing,
}

/// Lane-generic percolation scratch: each site carries `L` mask/reach
/// words, percolating `64·L` minterms per grid sweep.
#[derive(Clone, Debug, Default)]
struct Lanes<const L: usize> {
    /// Per-site on-masks for the words being evaluated (row-major).
    masks: Vec<[u64; L]>,
    /// Per-site reach words (row-major).
    reach: Vec<[u64; L]>,
}

impl<const L: usize> Lanes<L> {
    /// Fills `self.masks` for words `word0 .. word0 + L` under `kind`.
    fn fill_masks(&mut self, lattice: &Lattice, word0: usize, kind: MaskKind) {
        let (rows, cols) = (lattice.rows(), lattice.cols());
        self.masks.clear();
        self.masks.reserve(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let site = lattice.site(r, c);
                let mut m = [0u64; L];
                for (l, lane) in m.iter_mut().enumerate() {
                    *lane = match kind {
                        MaskKind::On => site_word(site, word0 + l),
                        MaskKind::Dual => dual_site_word(site, word0 + l),
                    };
                }
                self.masks.push(m);
            }
        }
    }

    /// Relaxes one interior row (4-neighbour adjacency); returns whether
    /// any reach word grew in any lane.
    fn relax_row_tb(&mut self, r: usize, rows: usize, cols: usize) -> bool {
        let base = r * cols;
        let mut changed = false;
        let mut carry = [0u64; L];
        for c in 0..cols {
            let m = self.masks[base + c];
            let up = self.reach[base - cols + c];
            let down = if r + 1 < rows {
                self.reach[base + cols + c]
            } else {
                [0u64; L]
            };
            let old = self.reach[base + c];
            let mut t = [0u64; L];
            let mut grew = false;
            for l in 0..L {
                t[l] = m[l] & (up[l] | down[l] | old[l] | carry[l]);
                grew |= t[l] != old[l];
            }
            if grew {
                self.reach[base + c] = t;
                changed = true;
            }
            carry = t;
        }
        let mut carry = [0u64; L];
        for c in (0..cols).rev() {
            let old = self.reach[base + c];
            let m = self.masks[base + c];
            let mut t = old;
            let mut grew = false;
            for l in 0..L {
                t[l] |= m[l] & carry[l];
                grew |= t[l] != old[l];
            }
            if grew {
                self.reach[base + c] = t;
                changed = true;
            }
            carry = t;
        }
        changed
    }

    /// Word-parallel top→bottom percolation over the masks currently in
    /// `self.masks`; returns the per-lane result words (unmasked).
    fn percolate_top_bottom(&mut self, rows: usize, cols: usize) -> [u64; L] {
        self.reach.clear();
        self.reach.extend_from_slice(&self.masks[..cols]);
        self.reach.resize(rows * cols, [0u64; L]);
        loop {
            let mut changed = false;
            for r in 1..rows {
                changed |= self.relax_row_tb(r, rows, cols);
            }
            for r in (1..rows).rev() {
                changed |= self.relax_row_tb(r, rows, cols);
            }
            if !changed {
                break;
            }
        }
        let bottom = (rows - 1) * cols;
        self.reach[bottom..bottom + cols]
            .iter()
            .fold([0u64; L], |mut acc, w| {
                for l in 0..L {
                    acc[l] |= w[l];
                }
                acc
            })
    }

    /// Relaxes one interior column (8-neighbour king adjacency); returns
    /// whether any reach word grew in any lane.
    fn relax_col_lr(&mut self, c: usize, rows: usize, cols: usize) -> bool {
        let mut changed = false;
        let mut carry = [0u64; L];
        for r in 0..rows {
            let idx = r * cols + c;
            let m = self.masks[idx];
            let mut gather = carry;
            for (g, &v) in gather.iter_mut().zip(&self.reach[idx]) {
                *g |= v;
            }
            // Left and right columns, rows r-1 ..= r+1 (king moves).
            for nr in r.saturating_sub(1)..=(r + 1).min(rows - 1) {
                let left = self.reach[nr * cols + c - 1];
                for l in 0..L {
                    gather[l] |= left[l];
                }
                if c + 1 < cols {
                    let right = self.reach[nr * cols + c + 1];
                    for l in 0..L {
                        gather[l] |= right[l];
                    }
                }
            }
            if r + 1 < rows {
                let below = self.reach[idx + cols];
                for l in 0..L {
                    gather[l] |= below[l];
                }
            }
            let old = self.reach[idx];
            let mut t = [0u64; L];
            let mut grew = false;
            for l in 0..L {
                t[l] = m[l] & gather[l];
                grew |= t[l] != old[l];
            }
            if grew {
                self.reach[idx] = t;
                changed = true;
            }
            carry = t;
        }
        let mut carry = [0u64; L];
        for r in (0..rows).rev() {
            let idx = r * cols + c;
            let old = self.reach[idx];
            let m = self.masks[idx];
            let mut t = old;
            let mut grew = false;
            for l in 0..L {
                t[l] |= m[l] & carry[l];
                grew |= t[l] != old[l];
            }
            if grew {
                self.reach[idx] = t;
                changed = true;
            }
            carry = t;
        }
        changed
    }

    /// Word-parallel left→right king-move percolation over the masks
    /// currently in `self.masks`; returns the per-lane result words
    /// (unmasked).
    fn percolate_left_right_king(&mut self, rows: usize, cols: usize) -> [u64; L] {
        self.reach.clear();
        self.reach.resize(rows * cols, [0u64; L]);
        for r in 0..rows {
            self.reach[r * cols] = self.masks[r * cols];
        }
        loop {
            let mut changed = false;
            for c in 1..cols {
                changed |= self.relax_col_lr(c, rows, cols);
            }
            for c in (1..cols).rev() {
                changed |= self.relax_col_lr(c, rows, cols);
            }
            if !changed {
                break;
            }
        }
        (0..rows).fold([0u64; L], |mut acc, r| {
            let w = self.reach[r * cols + cols - 1];
            for l in 0..L {
                acc[l] |= w[l];
            }
            acc
        })
    }

    /// One full percolation of words `word0 .. word0 + L`.
    fn run(&mut self, lattice: &Lattice, word0: usize, kind: MaskKind, route: Route) -> [u64; L] {
        self.fill_masks(lattice, word0, kind);
        let (rows, cols) = (lattice.rows(), lattice.cols());
        match route {
            Route::TopBottom => self.percolate_top_bottom(rows, cols),
            Route::LeftRightKing => self.percolate_left_right_king(rows, cols),
        }
    }
}

/// Reusable word-parallel evaluator.
///
/// Holds the per-site mask and reach scratch buffers (one set per lane
/// width) so that evaluating many words (a whole truth table, or many
/// lattices of similar size) performs no per-call allocation — the
/// buffers are resized once and reused. Whole-table evaluation spreads
/// word chunks across the [`nanoxbar_par`] pool (each task with its own
/// scratch), so one evaluator produces identical tables at every
/// `NANOXBAR_THREADS` setting.
///
/// # Examples
///
/// ```
/// use nanoxbar_lattice::{BitEvaluator, Lattice, Site};
/// use nanoxbar_logic::{parse_function, Literal};
///
/// let lit = |v: usize| Site::Literal(Literal::positive(v));
/// let lattice = Lattice::from_rows(2, vec![
///     vec![lit(0), Site::Literal(Literal::negative(1))],
///     vec![lit(1), Site::Literal(Literal::negative(0))],
/// ])?;
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let mut eval = BitEvaluator::new();
/// assert_eq!(eval.function(&lattice), f);
/// assert!(eval.computes(&lattice, &f));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitEvaluator {
    /// 1-lane scratch (single-word calls, narrow tables, block tails).
    narrow: Lanes<1>,
    /// 4-lane scratch (unrolled whole-table blocks).
    wide: Lanes<4>,
}

impl BitEvaluator {
    /// A fresh evaluator with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The left→right king-move percolation word over ON sites (the
    /// bit-sliced [`crate::eval::eval_left_right_king`]).
    pub fn left_right_king_word(&mut self, lattice: &Lattice, word: usize) -> u64 {
        self.narrow
            .run(lattice, word, MaskKind::On, Route::LeftRightKing)[0]
            & tail_mask(lattice.num_vars())
    }

    /// Fills `out[i]` with the percolation word at index `word0 + i`,
    /// running 4-lane blocks and a 1-lane tail.
    fn eval_words(
        &mut self,
        lattice: &Lattice,
        kind: MaskKind,
        route: Route,
        word0: usize,
        out: &mut [u64],
    ) {
        let tm = tail_mask(lattice.num_vars());
        let mut blocks = out.chunks_exact_mut(4);
        let mut i = 0;
        for block in &mut blocks {
            let w = self.wide.run(lattice, word0 + i, kind, route);
            for (slot, lane) in block.iter_mut().zip(w) {
                *slot = lane & tm;
            }
            i += 4;
        }
        for slot in blocks.into_remainder() {
            *slot = self.narrow.run(lattice, word0 + i, kind, route)[0] & tm;
            i += 1;
        }
    }

    /// Whole-table evaluation: serial (with this evaluator's scratch) for
    /// narrow tables or a serial pool, chunked across the pool otherwise.
    fn table(&mut self, lattice: &Lattice, kind: MaskKind, route: Route) -> TruthTable {
        let n = lattice.num_vars();
        let wl = word_len(n);
        let mut words = vec![0u64; wl];
        if par::threads() > 1 && wl >= PAR_MIN_WORDS {
            // Multiple of 4 so only the final chunk can have a 1-lane tail.
            let chunk = par::chunk_len(wl, 4).next_multiple_of(4);
            par::par_chunks_mut(&mut words, chunk, |ci, out| {
                let mut scratch = BitEvaluator::new();
                scratch.eval_words(lattice, kind, route, ci * chunk, out);
            });
        } else {
            self.eval_words(lattice, kind, route, 0, &mut words);
        }
        TruthTable::from_words(n, words)
    }

    /// The complete truth table of the computed function, one percolation
    /// per 256 minterms (4-lane blocks), chunks spread across the pool.
    pub fn function(&mut self, lattice: &Lattice) -> TruthTable {
        self.table(lattice, MaskKind::On, Route::TopBottom)
    }

    /// The complete truth table of the dual function `f^D`.
    pub fn dual_function(&mut self, lattice: &Lattice) -> TruthTable {
        self.table(lattice, MaskKind::Dual, Route::LeftRightKing)
    }

    /// Compares blocks of evaluated words against `expect`, bailing out
    /// early on a mismatch or when `abort` is already set; returns whether
    /// the range matched.
    fn words_match(
        &mut self,
        lattice: &Lattice,
        word0: usize,
        expect: &[u64],
        abort: Option<&AtomicBool>,
    ) -> bool {
        let tm = tail_mask(lattice.num_vars());
        let mut blocks = expect.chunks_exact(4);
        let mut i = 0;
        for block in &mut blocks {
            if abort.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return false;
            }
            let w = self
                .wide
                .run(lattice, word0 + i, MaskKind::On, Route::TopBottom);
            for (lane, &fw) in w.iter().zip(block) {
                if lane & tm != fw {
                    return false;
                }
            }
            i += 4;
        }
        for &fw in blocks.remainder() {
            let w = self
                .narrow
                .run(lattice, word0 + i, MaskKind::On, Route::TopBottom)[0];
            if w & tm != fw {
                return false;
            }
            i += 1;
        }
        true
    }

    /// True if the lattice computes exactly `f`, comparing word by word
    /// with early exit on the first mismatch (cooperative across pool
    /// tasks on wide tables).
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn computes(&mut self, lattice: &Lattice, f: &TruthTable) -> bool {
        assert_eq!(lattice.num_vars(), f.num_vars(), "arity mismatch");
        let words = f.words();
        if par::threads() > 1 && words.len() >= PAR_MIN_WORDS {
            let mismatch = AtomicBool::new(false);
            // Multiple of 4 so only the final chunk can have a 1-lane tail.
            let chunk = par::chunk_len(words.len(), 4).next_multiple_of(4);
            par::par_chunks(words, chunk, |ci, expect| {
                let mut scratch = BitEvaluator::new();
                if !scratch.words_match(lattice, ci * chunk, expect, Some(&mismatch)) {
                    mismatch.store(true, Ordering::Relaxed);
                }
            });
            !mismatch.load(Ordering::Relaxed)
        } else {
            self.words_match(lattice, 0, words, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_dual, eval_left_right_king, eval_top_bottom};
    use nanoxbar_logic::Literal;

    /// Deterministic xorshift for structured-random grids.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_lattice(state: &mut u64, num_vars: usize) -> Lattice {
        let rows = 1 + (next(state) % 5) as usize;
        let cols = 1 + (next(state) % 5) as usize;
        let grid = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| match next(state) % 8 {
                        0 => Site::Const(false),
                        1 => Site::Const(true),
                        s => Site::Literal(Literal::new(
                            (next(state) % num_vars as u64) as usize,
                            s & 1 == 0,
                        )),
                    })
                    .collect()
            })
            .collect();
        Lattice::from_rows(num_vars, grid).unwrap()
    }

    #[test]
    fn site_words_match_scalar_is_on() {
        let sites = [
            Site::Const(false),
            Site::Const(true),
            Site::Literal(Literal::positive(0)),
            Site::Literal(Literal::negative(3)),
            Site::Literal(Literal::positive(7)),
            Site::Literal(Literal::negative(8)),
        ];
        for site in sites {
            for w in 0..word_len(9) {
                let mask = site_word(site, w);
                let dual = dual_site_word(site, w);
                for bit in 0..64 {
                    let m = (w as u64) * 64 + bit;
                    assert_eq!((mask >> bit) & 1 == 1, site.is_on(m), "{site:?} m={m}");
                    let all = (1u64 << 9) - 1;
                    assert_eq!(
                        (dual >> bit) & 1 == 1,
                        !site.is_on(m ^ all),
                        "{site:?} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_engine_matches_scalar_bfs_on_random_grids() {
        let mut state = 0xD1CE_D00Du64;
        let mut eval = BitEvaluator::new();
        for round in 0..60 {
            // Cross the 6-variable word boundary in both directions.
            let n = 1 + (round % 8);
            let l = random_lattice(&mut state, n);
            let scalar_tb = TruthTable::from_fn(n, |m| eval_top_bottom(&l, m));
            let scalar_lr = TruthTable::from_fn(n, |m| eval_left_right_king(&l, m));
            let scalar_dual = TruthTable::from_fn(n, |m| eval_dual(&l, m));
            assert_eq!(eval.function(&l), scalar_tb, "tb mismatch on\n{l}");
            let lr_words: Vec<u64> = (0..word_len(n))
                .map(|w| eval.left_right_king_word(&l, w))
                .collect();
            assert_eq!(
                TruthTable::from_words(n, lr_words),
                scalar_lr,
                "lr mismatch on\n{l}"
            );
            assert_eq!(eval.dual_function(&l), scalar_dual, "dual mismatch on\n{l}");
            assert!(eval.computes(&l, &scalar_tb));
            assert!(!eval.computes(&l, &scalar_tb.not()) || scalar_tb == scalar_tb.not());
        }
    }

    #[test]
    fn four_lane_blocks_match_single_lane_words() {
        // 10-var lattices have 16 words: the whole-table path runs 4-lane
        // blocks which must agree with the 1-lane scratch run word by word
        // (every word is whole at 10 variables, so no tail is masked).
        let mut state = 0xC0FF_EE00u64;
        let mut eval = BitEvaluator::new();
        for _ in 0..20 {
            let l = random_lattice(&mut state, 10);
            let table = eval.function(&l);
            for w in 0..word_len(10) {
                let single = eval.narrow.run(&l, w, MaskKind::On, Route::TopBottom)[0];
                assert_eq!(table.words()[w], single, "word {w}");
            }
            let dual = eval.dual_function(&l);
            for w in 0..word_len(10) {
                let single = eval.narrow.run(&l, w, MaskKind::Dual, Route::LeftRightKing)[0];
                assert_eq!(dual.words()[w], single, "dual word {w}");
            }
        }
    }

    #[test]
    fn snake_paths_converge() {
        // A serpentine single path exercises many sweep iterations: the
        // path runs right along row 0, down, left along row 2, down,
        // right along row 4...
        let n = 1;
        let on = Site::Const(true);
        let off = Site::Const(false);
        let rows = 9;
        let cols = 7;
        let grid: Vec<Vec<Site>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        if r % 2 == 0 {
                            on
                        } else if (r / 2) % 2 == 0 {
                            if c == cols - 1 {
                                on
                            } else {
                                off
                            }
                        } else if c == 0 {
                            on
                        } else {
                            off
                        }
                    })
                    .collect()
            })
            .collect();
        let l = Lattice::from_rows(n, grid).unwrap();
        let mut eval = BitEvaluator::new();
        assert_eq!(
            eval.function(&l),
            TruthTable::from_fn(n, |m| eval_top_bottom(&l, m))
        );
    }

    #[test]
    fn single_row_and_column_edge_cases() {
        let mut eval = BitEvaluator::new();
        let l = Lattice::from_rows(
            7,
            vec![vec![
                Site::Literal(Literal::positive(6)),
                Site::Literal(Literal::positive(0)),
            ]],
        )
        .unwrap();
        assert_eq!(
            eval.function(&l),
            TruthTable::from_fn(7, |m| eval_top_bottom(&l, m))
        );
        let col = Lattice::from_rows(
            7,
            vec![
                vec![Site::Literal(Literal::positive(6))],
                vec![Site::Literal(Literal::negative(1))],
            ],
        )
        .unwrap();
        assert_eq!(
            eval.function(&col),
            TruthTable::from_fn(7, |m| eval_top_bottom(&col, m))
        );
        assert_eq!(
            eval.dual_function(&col),
            TruthTable::from_fn(7, |m| eval_dual(&col, m))
        );
    }
}
