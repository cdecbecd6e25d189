//! Staged built-in self-mapping with speculative greedy search.
//!
//! [`Mapper`] refactors the monolithic `run_bism` loop into a resumable
//! four-stage state machine; one **round** walks the stages in order:
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            │                  one round                     │
//!            ▼                                                │
//!   ┌─────────────┐   ┌──────────────┐   ┌──────────────┐   ┌──┴─────┐
//!   │   Propose   │──▶│   Simulate   │──▶│   Diagnose   │──▶│ Commit │──▶ Done
//!   │ K candidate │   │ BIST up to   │   │ BISD every   │   │ stats, │
//!   │ placements  │   │ the first    │   │ failed cand. │   │ merge, │
//!   │ (serial RNG)│   │ pass, inline │   │ inline       │   │ decide │
//!   └─────────────┘   └──────────────┘   └──────────────┘   └────────┘
//! ```
//!
//! * **Propose** draws up to `K = speculation` candidate placements from
//!   the seeded RNG — greedy rounds avoid the known-bad resource set as
//!   it stood at round start (it changes only at commit), blind rounds
//!   place randomly.
//! * **Simulate** judges the candidates in candidate order with
//!   application-dependent BIST, stopping at the first pass.
//! * **Diagnose** runs application-dependent BISD on the failed
//!   candidates that precede the first pass (all of them when none
//!   passed), in candidate order.
//! * **Commit** advances the counters *as if the candidates had been
//!   tried one by one*, commits the **first passing candidate in
//!   candidate order**, and merges the diagnoses of the failed
//!   candidates into the defect knowledge base in candidate order.
//!
//! ## Determinism contract
//!
//! The outcome — the full [`MapReport`]: success, committed mapping,
//! counters, round count, and sorted knowledge base — is a pure function
//! of `(application, chip, MapConfig)`. Candidate generation consumes the
//! RNG serially in candidate order, and verdicts, diagnoses and commits
//! follow candidate order. The proptest suite proves [`Mapper::run`]
//! bit-identical to [`run_mapper_reference`] (a strictly serial
//! one-candidate-at-a-time execution of the same semantics) across
//! `NANOXBAR_THREADS` ∈ {1,2,8}, and `speculation = 1` bit-identical to
//! the paper-serial [`crate::bism::run_bism`] (which is now a wrapper
//! over this type).
//!
//! ## Why speculate
//!
//! The greedy phase is inherently sequential — each attempt feeds the
//! next through its diagnosis. Speculation widens each round instead of
//! pipelining attempts: all K candidates are drawn from the *same*
//! knowledge snapshot and every failed candidate still contributes its
//! diagnosis. In the high-density regime, where almost every candidate
//! fails, one round therefore learns up to K diagnoses — fewer rounds to
//! convergence, at identical per-attempt accounting. Speculation buys
//! fewer rounds, not threads.
//!
//! ## How a candidate is judged
//!
//! The application's BIST drives the all-ones vector and a walking zero
//! on each driven column; its BISD drives the walking zeros. A used row
//! answers a walking zero on column `c` low exactly when a device
//! conducts there, so the row's response differs from the healthy one at
//! `c` exactly when a stuck device contradicts the programming: stuck-open
//! where the row's product needs a device, or stuck-closed where it needs
//! none ([`CrosspointHealth::contradicts`]). So a candidate passes BIST
//! iff no used row holds such a contradiction, and BISD reports exactly
//! those contradictions, with their fault types. The mapper reads them off
//! one sorted list of the chip's stuck devices on driven columns, built
//! once per [`Mapper`], with the same `(product, row)` test that keeps
//! greedy proposals clear of the known-bad set. The serial reference
//! [`run_mapper_reference`] shares no code with that rule: it simulates
//! every stimulus on the programmed crossbar
//! ([`crate::bism::application_bist_scalar`] and
//! [`crate::bism::application_bisd_scalar`]) and keeps its own
//! known-bad test, so the proptest suite and the pinned reports check the
//! two against each other.
//!
//! Simulate and Diagnose do not fan a round's candidates out to the
//! `nanoxbar-par` pool: a candidate's verdict reads a few list entries
//! per used row, far less than a pool spawn, and in the service a mapper
//! already runs inside one of `Engine::run_batch`'s pool tasks.
//!
//! ## What a round allocates
//!
//! Nothing, once the first rounds have grown its buffers, and it hashes
//! nothing:
//!
//! * the knowledge base is one sorted, duplicate-free `Vec`, so a fabric
//!   row's known defects are one contiguous run of it, found by binary
//!   search, and commit merges a diagnosis by binary-search insertion;
//! * which columns are driven and which columns each product programs
//!   are boolean masks built once per [`Mapper`], so a `(product, row)`
//!   test reads flags instead of searching column lists;
//! * a proposal shuffles one reused row buffer, restored to the identity
//!   first, so it permutes exactly as a freshly collected `0..rows` would,
//!   and marks taken rows in a reused per-row flag buffer;
//! * the candidates sit back to back in one buffer, and the diagnoses in
//!   another.
//!
//! Every RNG draw, the candidate order and the knowledge-merge order are
//! those of the serial reference, which keeps its per-round sets.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::bism::{
    application_bisd_scalar, application_bist_scalar, Application, BismStats, BismStrategy, Mapping,
};
use crate::defect::{CrosspointHealth, DefectMap};

/// One diagnosed resource: `(row, physical column, fault type)`.
pub type Defect = (usize, usize, CrosspointHealth);

/// Configuration of one mapping session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MapConfig {
    /// Blind / greedy / hybrid (paper Sec. IV-B).
    pub strategy: BismStrategy,
    /// Candidates proposed per round (the speculation width K ≥ 1).
    /// Part of the outcome, **not** an execution detail: greedy rounds
    /// merge the diagnoses of all K failed candidates, so different
    /// widths legitimately take different trajectories. `1` reproduces
    /// the serial paper algorithm exactly.
    pub speculation: usize,
    /// Total candidate budget (a dead-ended proposal also costs one).
    pub max_attempts: u64,
    /// Seed of the placement RNG.
    pub seed: u64,
}

impl Default for MapConfig {
    /// Hybrid with 5 blind retries, speculation width 4, 400 attempts.
    fn default() -> Self {
        MapConfig {
            strategy: BismStrategy::Hybrid { blind_retries: 5 },
            speculation: 4,
            max_attempts: 400,
            seed: 0,
        }
    }
}

/// The stage a [`Mapper`] will execute next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Draw the next round's candidate placements.
    Propose,
    /// BIST-judge the proposed candidates.
    Simulate,
    /// BISD-diagnose the failed candidates.
    Diagnose,
    /// Account, merge knowledge, commit or continue.
    Commit,
    /// The session is over; [`Mapper::report`] is final.
    Done,
}

/// The outcome of one mapping session. Deterministic in
/// `(application, chip, MapConfig)` — carries no clocks, so it can be
/// rendered byte-identically by the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapReport {
    /// Attempt/BIST/BISD counters, advanced one-candidate-at-a-time.
    pub stats: BismStats,
    /// Rounds executed (each proposes up to `speculation` candidates).
    pub rounds: u64,
    /// The committed placement (fabric row of each product) on success.
    pub mapping: Option<Mapping>,
    /// Every diagnosed defective resource, sorted (row, column, type).
    pub known_bad: Vec<Defect>,
    /// The strategy that ran.
    pub strategy: BismStrategy,
    /// The speculation width that ran.
    pub speculation: usize,
}

/// A round-boundary checkpoint of a [`Mapper`].
///
/// Taken between rounds (stage [`Stage::Propose`] or [`Stage::Done`]),
/// a snapshot captures everything the next round depends on — the RNG
/// position, the defect knowledge base, the counters — and **nothing
/// recomputable**: the column masks and the chip's list of stuck devices
/// are pure functions of `(application, chip)` and are rebuilt on
/// [`Mapper::resume`]. Resuming from a snapshot is bit-identical to
/// never having stopped; round scratch never needs to serialise
/// because rounds are atomic between checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapperSnapshot {
    /// Raw RNG state at the round boundary.
    pub rng: [u64; 4],
    /// The defect knowledge base, sorted.
    pub known_bad: Vec<Defect>,
    /// Counters so far.
    pub stats: BismStats,
    /// Rounds executed so far.
    pub rounds: u64,
    /// Whether the session had already finished.
    pub done: bool,
    /// The committed placement, if the session succeeded.
    pub mapping: Option<Mapping>,
}

/// Per-round state shared by the stages, and the buffers a round reuses
/// from the last one: no stage allocates once they have grown.
struct Round {
    /// Candidate placements, in proposal (= RNG) order, back to back:
    /// candidate `i` is `candidates[i * P..(i + 1) * P]` for `P` products.
    candidates: Vec<usize>,
    /// How many candidates `candidates` holds.
    count: usize,
    /// Index of the first passing candidate.
    first_pass: Option<usize>,
    /// BISD findings of the diagnosed candidates, in candidate order
    /// (greedy rounds).
    found: Vec<Defect>,
    /// How many candidates were diagnosed.
    diagnosed: usize,
    /// A greedy proposal found no compatible placement (terminal unless
    /// an earlier candidate of the same round passes).
    dead_end: bool,
    /// Whether this round diagnoses failures (greedy phase).
    greedy: bool,
    /// The row permutation a proposal shuffles.
    order: Vec<usize>,
    /// Per fabric row: taken by the candidate being proposed.
    taken: Vec<bool>,
}

impl Round {
    fn new(rows: usize) -> Round {
        Round {
            candidates: Vec::new(),
            count: 0,
            first_pass: None,
            found: Vec::new(),
            diagnosed: 0,
            dead_end: false,
            greedy: false,
            order: Vec::with_capacity(rows),
            taken: vec![false; rows],
        }
    }

    /// Empties the round's results for a new round; keeps the buffers.
    fn reset(&mut self, greedy: bool) {
        self.candidates.clear();
        self.count = 0;
        self.first_pass = None;
        self.found.clear();
        self.diagnosed = 0;
        self.dead_end = false;
        self.greedy = greedy;
    }

    /// Candidate `i` of a round placing `products` products.
    fn candidate(&self, i: usize, products: usize) -> &[usize] {
        &self.candidates[i * products..(i + 1) * products]
    }

    /// Draws a fresh row permutation into `order`: the identity,
    /// shuffled, as a freshly collected `(0..rows)` would be.
    fn shuffle(&mut self, rng: &mut ChaCha8Rng) {
        self.order.clear();
        self.order.extend(0..self.taken.len());
        self.order.shuffle(rng);
    }
}

/// The application's columns as masks over the fabric columns, built
/// once per [`Mapper`]: which columns are driven, and which each product
/// programs.
struct ColumnMasks {
    cols: usize,
    /// `driven[c]`: column `c` carries one of the application's literals.
    driven: Vec<bool>,
    /// `needed[p * cols + c]`: product `p` programs column `c`.
    needed: Vec<bool>,
}

impl ColumnMasks {
    fn new(app: &Application, cols: usize) -> ColumnMasks {
        let mut driven = vec![false; cols];
        for &c in &app.columns {
            driven[c] = true;
        }
        let mut needed = vec![false; app.product_count() * cols];
        for p in 0..app.product_count() {
            for c in app.physical_needs(p) {
                needed[p * cols + c] = true;
            }
        }
        ColumnMasks {
            cols,
            driven,
            needed,
        }
    }

    /// The entries of `row` (one fabric row's run of a [`DefectRows`])
    /// that rule product `p` out of that row: stuck-open devices on
    /// driven columns `p` programs, and stuck-closed ones on driven
    /// columns `p` leaves open. Against the knowledge base this decides
    /// as the reference's `row_compatible`; against the chip's visible
    /// defects it lists what BISD finds on the row (module docs).
    fn conflicts<'a>(&'a self, row: &'a [Defect], p: usize) -> impl Iterator<Item = &'a Defect> {
        let needed = &self.needed[p * self.cols..(p + 1) * self.cols];
        row.iter().filter(move |&&(_, c, health)| {
            self.driven.get(c) == Some(&true) && health.contradicts(needed[c])
        })
    }
}

/// A sorted, duplicate-free list of defects with the start of each
/// fabric row's run, so a row's defects are one slice away. Entries on
/// rows past the fabric (a restored snapshot may hold any) stay in the
/// list but in no row's run.
struct DefectRows {
    list: Vec<Defect>,
    /// Row `r`'s run is `list[start[r]..start[r + 1]]`.
    start: Vec<usize>,
}

impl DefectRows {
    /// Indexes `list` for a fabric of `rows` rows.
    fn new(mut list: Vec<Defect>, rows: usize) -> DefectRows {
        list.sort_unstable();
        list.dedup();
        let mut defects = DefectRows {
            list,
            start: Vec::with_capacity(rows + 1),
        };
        defects.reindex(rows);
        defects
    }

    fn reindex(&mut self, rows: usize) {
        self.start.clear();
        let mut i = 0;
        for r in 0..=rows {
            while self.list.get(i).is_some_and(|&(row, ..)| row < r) {
                i += 1;
            }
            self.start.push(i);
        }
    }

    /// Row `r`'s defects, sorted.
    fn row(&self, r: usize) -> &[Defect] {
        &self.list[self.start[r]..self.start[r + 1]]
    }

    /// Adds `found` (in any order, duplicates allowed) to the list.
    fn merge(&mut self, found: &[Defect]) {
        if found.is_empty() {
            return;
        }
        for &defect in found {
            if let Err(at) = self.list.binary_search(&defect) {
                self.list.insert(at, defect);
            }
        }
        self.reindex(self.start.len() - 1);
    }
}

/// Every stuck device of `defects` on a driven column: the resources the
/// application's BIST can see.
fn visible_defects(defects: &DefectMap, masks: &ColumnMasks) -> DefectRows {
    let mut visible = Vec::new();
    for r in 0..defects.size().rows {
        for (c, &health) in defects.row(r).iter().enumerate() {
            if health != CrosspointHealth::Good && masks.driven[c] {
                visible.push((r, c, health));
            }
        }
    }
    DefectRows::new(visible, defects.size().rows)
}

/// The staged, resumable self-mapping state machine. See the module docs
/// for the lifecycle and determinism contract.
///
/// Drive it with [`Mapper::step`] (one stage at a time — callers such as
/// the engine interleave deadline checks between stages) or [`Mapper::run`]
/// (to completion). State is inspectable between steps via
/// [`Mapper::stage`], [`Mapper::stats`], [`Mapper::rounds`] and
/// [`Mapper::known_bad`].
pub struct Mapper {
    app: Application,
    config: MapConfig,
    rng: ChaCha8Rng,
    masks: ColumnMasks,
    /// The chip's stuck devices on driven columns, sorted: what BIST and
    /// BISD can observe of the chip.
    visible: DefectRows,
    /// The defect knowledge base.
    known_bad: DefectRows,
    stats: BismStats,
    rounds: u64,
    stage: Stage,
    round: Round,
    mapping: Option<Mapping>,
}

impl Mapper {
    /// Starts a mapping session.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has fewer rows than the application has
    /// products, does not contain the application's physical columns, or
    /// `config.speculation` is 0 (callers that need typed errors — the
    /// engine — validate first).
    pub fn new(app: Application, defects: DefectMap, config: MapConfig) -> Mapper {
        let size = defects.size();
        assert!(size.rows >= app.product_count(), "not enough fabric rows");
        assert!(
            app.columns.iter().all(|&c| c < size.cols),
            "application columns exceed fabric"
        );
        assert!(config.speculation >= 1, "speculation width must be >= 1");
        let masks = ColumnMasks::new(&app, size.cols);
        Mapper {
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            visible: visible_defects(&defects, &masks),
            masks,
            app,
            config,
            known_bad: DefectRows::new(Vec::new(), size.rows),
            stats: BismStats::default(),
            rounds: 0,
            stage: Stage::Propose,
            round: Round::new(size.rows),
            mapping: None,
        }
    }

    /// The stage the next [`Mapper::step`] will execute.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Whether the session is over.
    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// The counters so far (final once [`Mapper::is_done`]).
    pub fn stats(&self) -> BismStats {
        self.stats
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The defect knowledge base so far, sorted.
    pub fn known_bad(&self) -> Vec<Defect> {
        self.known_bad.list.clone()
    }

    /// Executes one stage and returns the stage that comes next.
    /// A no-op once [`Mapper::is_done`].
    pub fn step(&mut self) -> Stage {
        self.stage = match self.stage {
            Stage::Propose => self.propose(),
            Stage::Simulate => self.simulate(),
            Stage::Diagnose => self.diagnose(),
            Stage::Commit => self.commit(),
            Stage::Done => Stage::Done,
        };
        self.stage
    }

    /// Runs the remaining stages to completion and returns the report.
    pub fn run(&mut self) -> MapReport {
        while !self.is_done() {
            self.step();
        }
        self.report()
    }

    /// A snapshot of the session (final once [`Mapper::is_done`]).
    pub fn report(&self) -> MapReport {
        MapReport {
            stats: self.stats,
            rounds: self.rounds,
            mapping: self.mapping.clone(),
            known_bad: self.known_bad(),
            strategy: self.config.strategy,
            speculation: self.config.speculation,
        }
    }

    /// Runs at most `max_rounds` complete rounds, stopping early at
    /// session end; returns how many rounds actually completed. The
    /// mapper is left at a round boundary, so [`Mapper::snapshot`] is
    /// always legal afterwards — this is the incremental-session
    /// entry point.
    pub fn run_rounds(&mut self, max_rounds: u64) -> u64 {
        let mut completed = 0u64;
        while completed < max_rounds && !self.is_done() {
            loop {
                let stage = self.stage;
                self.step();
                if stage == Stage::Commit {
                    completed += 1;
                    break;
                }
                if self.is_done() {
                    break;
                }
            }
        }
        completed
    }

    /// Checkpoints the session at a round boundary.
    ///
    /// # Panics
    ///
    /// Panics mid-round (stages Simulate/Diagnose/Commit): rounds are
    /// atomic between checkpoints by design.
    pub fn snapshot(&self) -> MapperSnapshot {
        assert!(
            matches!(self.stage, Stage::Propose | Stage::Done),
            "snapshot only at a round boundary, not at {:?}",
            self.stage
        );
        MapperSnapshot {
            rng: self.rng.state(),
            known_bad: self.known_bad(),
            stats: self.stats,
            rounds: self.rounds,
            done: self.is_done(),
            mapping: self.mapping.clone(),
        }
    }

    /// Rebuilds a session from a [`Mapper::snapshot`]. The recomputable
    /// parts (column masks, visible defects) are rebuilt from
    /// `(app, defects)`;
    /// everything else restores from the snapshot. Resumed execution is
    /// bit-identical to uninterrupted execution.
    ///
    /// # Panics
    ///
    /// Same contract as [`Mapper::new`].
    pub fn resume(
        app: Application,
        defects: DefectMap,
        config: MapConfig,
        snapshot: &MapperSnapshot,
    ) -> Mapper {
        let rows = defects.size().rows;
        let mut mapper = Mapper::new(app, defects, config);
        mapper.rng = ChaCha8Rng::from_state(snapshot.rng);
        mapper.known_bad = DefectRows::new(snapshot.known_bad.clone(), rows);
        mapper.stats = snapshot.stats;
        mapper.rounds = snapshot.rounds;
        mapper.mapping = snapshot.mapping.clone();
        mapper.stage = if snapshot.done {
            Stage::Done
        } else {
            Stage::Propose
        };
        mapper
    }

    /// Whether the *next* attempt would be a greedy (diagnosing) one.
    fn greedy_next(&self) -> bool {
        match self.config.strategy {
            BismStrategy::Blind => false,
            BismStrategy::Greedy => true,
            BismStrategy::Hybrid { blind_retries } => self.stats.attempts + 1 > blind_retries,
        }
    }

    /// Candidates the next round may propose: the speculation width,
    /// capped so a blind round never crosses into the greedy phase and
    /// no round overruns the attempt budget.
    fn round_width(&self, greedy: bool) -> usize {
        let remaining = self.config.max_attempts - self.stats.attempts;
        let phase_left = match (greedy, self.config.strategy) {
            (false, BismStrategy::Hybrid { blind_retries }) => {
                (blind_retries - self.stats.attempts).min(remaining)
            }
            _ => remaining,
        };
        (self.config.speculation as u64).min(phase_left).max(1) as usize
    }

    /// Appends one greedy first-fit placement over a fresh row shuffle to
    /// the round's candidates, avoiding the known-bad set; `false`, with
    /// nothing appended, when the knowledge admits no placement for this
    /// shuffle.
    fn propose_greedy(&mut self) -> bool {
        let round = &mut self.round;
        round.shuffle(&mut self.rng);
        let start = round.candidates.len();
        let mut placed = true;
        let (masks, known_bad) = (&self.masks, &self.known_bad);
        for p in 0..self.app.product_count() {
            let found = round.order.iter().copied().find(|&r| {
                !round.taken[r] && masks.conflicts(known_bad.row(r), p).next().is_none()
            });
            let Some(r) = found else {
                placed = false;
                break;
            };
            round.taken[r] = true;
            round.candidates.push(r);
        }
        for &r in &round.candidates[start..] {
            round.taken[r] = false;
        }
        if !placed {
            round.candidates.truncate(start);
        }
        placed
    }

    /// Appends one blind placement: a fresh row shuffle, first P rows.
    fn propose_blind(&mut self) {
        let round = &mut self.round;
        round.shuffle(&mut self.rng);
        let products = self.app.product_count();
        round.candidates.extend_from_slice(&round.order[..products]);
    }

    /// Stage 1: draw the round's candidates (serial RNG consumption, in
    /// candidate order — the only stage that touches the RNG). Every
    /// candidate of a round sees the round-start knowledge: it only
    /// changes at commit.
    fn propose(&mut self) -> Stage {
        if self.stats.attempts >= self.config.max_attempts {
            // Budget exhausted without a working configuration.
            return Stage::Done;
        }
        let greedy = self.greedy_next();
        let width = self.round_width(greedy);
        self.rounds += 1;
        self.round.reset(greedy);
        for _ in 0..width {
            if greedy {
                if !self.propose_greedy() {
                    // The shuffle is consumed and will be accounted as
                    // one attempt; the round is truncated here.
                    self.round.dead_end = true;
                    break;
                }
            } else {
                self.propose_blind();
            }
            self.round.count += 1;
        }
        Stage::Simulate
    }

    /// Stage 2: BIST the candidates inline, in candidate order, up to the
    /// first pass — the later ones could never be committed. A candidate
    /// passes when none of its rows holds a visible defect that
    /// contradicts its product (module docs).
    fn simulate(&mut self) -> Stage {
        let products = self.app.product_count();
        let (masks, visible) = (&self.masks, &self.visible);
        let round = &mut self.round;
        round.first_pass = (0..round.count).find(|&i| {
            let candidate = round.candidate(i, products);
            (candidate.iter().enumerate())
                .all(|(p, &r)| masks.conflicts(visible.row(r), p).next().is_none())
        });
        Stage::Diagnose
    }

    /// Stage 3: BISD the failed candidates that the one-at-a-time
    /// reference would have diagnosed — every candidate before the first
    /// pass (all, when none passed), inline, in candidate order: each
    /// row's contradicting visible defects. Blind rounds diagnose
    /// nothing.
    fn diagnose(&mut self) -> Stage {
        let products = self.app.product_count();
        let (masks, visible) = (&self.masks, &self.visible);
        let round = &mut self.round;
        if !round.greedy {
            return Stage::Commit;
        }
        round.diagnosed = round.first_pass.unwrap_or(round.count);
        for i in 0..round.diagnosed {
            let candidate = &round.candidates[i * products..(i + 1) * products];
            for (p, &r) in candidate.iter().enumerate() {
                round.found.extend(masks.conflicts(visible.row(r), p));
            }
        }
        Stage::Commit
    }

    /// Stage 4: advance the counters one-candidate-at-a-time, merge the
    /// diagnoses in candidate order, and either commit the first passing
    /// candidate, declare a dead end, or start the next round.
    fn commit(&mut self) -> Stage {
        let round = &self.round;
        let evaluated = round.first_pass.map_or(round.count, |i| i + 1);
        self.stats.attempts += evaluated as u64;
        self.stats.bist_runs += evaluated as u64;
        if round.greedy {
            self.stats.bisd_runs += round.diagnosed as u64;
            self.known_bad.merge(&round.found);
        }
        if let Some(i) = round.first_pass {
            self.stats.success = true;
            self.mapping = Some(round.candidate(i, self.app.product_count()).to_vec());
            return Stage::Done;
        }
        if round.dead_end {
            // The dead-ended proposal consumed a shuffle: count it, like
            // the serial reference, then stop — the knowledge base admits
            // no compatible placement for that draw.
            self.stats.attempts += 1;
            return Stage::Done;
        }
        Stage::Propose
    }
}

/// Strictly serial reference for [`Mapper::run`]: the same round
/// semantics executed one candidate at a time — generation, BIST, and
/// BISD interleaved lazily, stopping at the first pass. Proptests prove
/// the staged mapper bit-identical to this for every `NANOXBAR_THREADS`
/// and speculation width.
///
/// # Panics
///
/// Same contract as [`Mapper::new`].
pub fn run_mapper_reference(
    app: &Application,
    defects: &DefectMap,
    config: &MapConfig,
) -> MapReport {
    let size = defects.size();
    assert!(size.rows >= app.product_count(), "not enough fabric rows");
    assert!(
        app.columns.iter().all(|&c| c < size.cols),
        "application columns exceed fabric"
    );
    assert!(config.speculation >= 1, "speculation width must be >= 1");

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut stats = BismStats::default();
    let mut known_bad: HashSet<Defect> = HashSet::new();
    let mut rounds = 0u64;
    let mut mapping = None;

    'session: while stats.attempts < config.max_attempts {
        let greedy = match config.strategy {
            BismStrategy::Blind => false,
            BismStrategy::Greedy => true,
            BismStrategy::Hybrid { blind_retries } => stats.attempts + 1 > blind_retries,
        };
        let remaining = config.max_attempts - stats.attempts;
        let phase_left = match (greedy, config.strategy) {
            (false, BismStrategy::Hybrid { blind_retries }) => {
                (blind_retries - stats.attempts).min(remaining)
            }
            _ => remaining,
        };
        let width = (config.speculation as u64).min(phase_left).max(1) as usize;

        rounds += 1;
        // Candidates of one round are generated against the knowledge
        // snapshot taken at round start; diagnoses merge at round end.
        let mut learned: Vec<Defect> = Vec::new();
        for _ in 0..width {
            let candidate = if greedy {
                let mut rows: Vec<usize> = (0..size.rows).collect();
                rows.shuffle(&mut rng);
                let mut taken: HashSet<usize> = HashSet::new();
                let mut placed = Vec::with_capacity(app.product_count());
                let mut ok = true;
                for p in 0..app.product_count() {
                    match rows
                        .iter()
                        .find(|&&r| !taken.contains(&r) && row_compatible(app, p, r, &known_bad))
                    {
                        Some(&r) => {
                            taken.insert(r);
                            placed.push(r);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    stats.attempts += 1;
                    known_bad.extend(learned);
                    break 'session;
                }
                placed
            } else {
                let mut rows: Vec<usize> = (0..size.rows).collect();
                rows.shuffle(&mut rng);
                rows[..app.product_count()].to_vec()
            };

            stats.attempts += 1;
            stats.bist_runs += 1;
            if application_bist_scalar(app, &candidate, defects) {
                stats.success = true;
                mapping = Some(candidate);
                known_bad.extend(learned);
                break 'session;
            }
            if greedy {
                stats.bisd_runs += 1;
                learned.extend(application_bisd_scalar(app, &candidate, defects));
            }
        }
        known_bad.extend(learned);
    }

    let mut bad: Vec<Defect> = known_bad.into_iter().collect();
    bad.sort_unstable();
    MapReport {
        stats,
        rounds,
        mapping,
        known_bad: bad,
        strategy: config.strategy,
        speculation: config.speculation,
    }
}

/// The reference's known-bad test: a product can use a row iff no
/// *known* defect conflicts with it.
fn row_compatible(
    app: &Application,
    product: usize,
    row: usize,
    known_bad: &HashSet<(usize, usize, CrosspointHealth)>,
) -> bool {
    let needed: HashSet<usize> = app.physical_needs(product).into_iter().collect();
    for &(r, c, health) in known_bad {
        if r != row || !app.columns.contains(&c) {
            continue;
        }
        match health {
            CrosspointHealth::StuckOpen if needed.contains(&c) => return false,
            CrosspointHealth::StuckClosed if !needed.contains(&c) => return false,
            _ => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bism::{application_bist, run_bism};
    use nanoxbar_crossbar::ArraySize;
    use nanoxbar_logic::{isop_cover, parse_function};

    fn app4() -> Application {
        let f = parse_function("x0 x1 + !x0 !x1 + x2 !x3").unwrap();
        Application::from_cover(&isop_cover(&f))
    }

    fn config(strategy: BismStrategy, k: usize, seed: u64) -> MapConfig {
        MapConfig {
            strategy,
            speculation: k,
            max_attempts: 200,
            seed,
        }
    }

    #[test]
    fn stages_cycle_in_lifecycle_order() {
        let chip = DefectMap::healthy(ArraySize::new(16, 16));
        let mut mapper = Mapper::new(app4(), chip, config(BismStrategy::Greedy, 2, 1));
        assert_eq!(mapper.stage(), Stage::Propose);
        assert_eq!(mapper.step(), Stage::Simulate);
        assert_eq!(mapper.step(), Stage::Diagnose);
        assert_eq!(mapper.step(), Stage::Commit);
        // A healthy chip passes on the first candidate.
        assert_eq!(mapper.step(), Stage::Done);
        assert!(mapper.is_done());
        let report = mapper.report();
        assert!(report.stats.success);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.stats.attempts, 1);
        assert!(report.known_bad.is_empty());
        // Done is absorbing.
        assert_eq!(mapper.step(), Stage::Done);
        assert_eq!(mapper.report(), report);
    }

    #[test]
    fn stepwise_equals_run_equals_reference() {
        let app = app4();
        for seed in 0..12u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(12, 12), 0.10, 0.04, seed);
            for strategy in [
                BismStrategy::Blind,
                BismStrategy::Greedy,
                BismStrategy::Hybrid { blind_retries: 3 },
            ] {
                for k in [1usize, 3] {
                    let cfg = config(strategy, k, seed ^ 0xFEED);
                    let reference = run_mapper_reference(&app, &chip, &cfg);
                    let run = Mapper::new(app.clone(), chip.clone(), cfg).run();
                    assert_eq!(run, reference, "seed {seed} {strategy:?} k={k}");
                    let mut stepped = Mapper::new(app.clone(), chip.clone(), cfg);
                    while !stepped.is_done() {
                        stepped.step();
                    }
                    assert_eq!(stepped.report(), reference);
                }
            }
        }
    }

    #[test]
    fn speculation_one_matches_run_bism_exactly() {
        let app = app4();
        for seed in 0..20u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(10, 10), 0.12, 0.05, seed * 7 + 1);
            for strategy in [
                BismStrategy::Blind,
                BismStrategy::Greedy,
                BismStrategy::Hybrid { blind_retries: 4 },
            ] {
                let cfg = config(strategy, 1, seed);
                let report = run_mapper_reference(&app, &chip, &cfg);
                let stats = run_bism(&app, &chip, strategy, cfg.max_attempts, cfg.seed);
                assert_eq!(report.stats, stats, "seed {seed} {strategy:?}");
            }
        }
    }

    #[test]
    fn committed_mappings_pass_bist_and_knowledge_is_sound() {
        let app = app4();
        for seed in 0..16u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(12, 12), 0.10, 0.05, seed + 100);
            let cfg = config(BismStrategy::Greedy, 4, seed);
            let report = Mapper::new(app.clone(), chip.clone(), cfg).run();
            if report.stats.success {
                let mapping = report.mapping.as_ref().expect("success carries a mapping");
                assert!(application_bist(&app, mapping, &chip), "seed {seed}");
            } else {
                assert!(report.mapping.is_none());
            }
            for &(r, c, health) in &report.known_bad {
                assert_eq!(chip.health(r, c), health, "seed {seed} at ({r},{c})");
            }
        }
    }

    #[test]
    fn wider_speculation_takes_fewer_rounds_at_high_density() {
        // In the high-density regime almost every candidate fails, so a
        // K-wide round learns up to K diagnoses at once. Aggregate over a
        // seed grid: strictly fewer rounds overall, same per-seed success.
        let app = app4();
        let mut rounds_k1 = 0u64;
        let mut rounds_k4 = 0u64;
        for seed in 0..20u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(16, 16), 0.14, 0.06, seed * 3 + 2);
            let narrow = run_mapper_reference(&app, &chip, &config(BismStrategy::Greedy, 1, seed));
            let wide = run_mapper_reference(&app, &chip, &config(BismStrategy::Greedy, 4, seed));
            rounds_k1 += narrow.rounds;
            rounds_k4 += wide.rounds;
        }
        assert!(
            rounds_k4 < rounds_k1,
            "K=4 rounds {rounds_k4} vs K=1 rounds {rounds_k1}"
        );
    }

    #[test]
    fn snapshot_resume_is_bit_identical_at_every_boundary() {
        let app = app4();
        for seed in 0..10u64 {
            let chip = DefectMap::random_uniform(ArraySize::new(12, 12), 0.12, 0.05, seed + 40);
            let cfg = config(BismStrategy::Greedy, 2, seed);
            let uninterrupted = Mapper::new(app.clone(), chip.clone(), cfg).run();
            // Interrupt after every possible number of rounds.
            for stop_after in 0..=uninterrupted.rounds {
                let mut first = Mapper::new(app.clone(), chip.clone(), cfg);
                first.run_rounds(stop_after);
                let snap = first.snapshot();
                let mut second = Mapper::resume(app.clone(), chip.clone(), cfg, &snap);
                assert_eq!(
                    second.run(),
                    uninterrupted,
                    "seed {seed} resumed after round {stop_after}"
                );
            }
        }
    }

    #[test]
    fn run_rounds_counts_and_stops_at_done() {
        let chip = DefectMap::healthy(ArraySize::new(16, 16));
        let mut mapper = Mapper::new(app4(), chip, config(BismStrategy::Greedy, 2, 1));
        // A healthy chip succeeds in one round; asking for more stops.
        assert_eq!(mapper.run_rounds(10), 1);
        assert!(mapper.is_done());
        assert_eq!(mapper.run_rounds(5), 0);
        let snap = mapper.snapshot();
        assert!(snap.done);
        assert!(snap.mapping.is_some());
    }

    #[test]
    fn double_resume_chains_without_drift() {
        let app = app4();
        let chip = DefectMap::random_uniform(ArraySize::new(12, 12), 0.15, 0.06, 77);
        let cfg = config(BismStrategy::Hybrid { blind_retries: 3 }, 2, 9);
        let uninterrupted = Mapper::new(app.clone(), chip.clone(), cfg).run();
        // Resume twice: run 1 round, checkpoint, run 1 round, checkpoint,
        // then finish — three separate mapper instances.
        let mut m = Mapper::new(app.clone(), chip.clone(), cfg);
        m.run_rounds(1);
        let snap1 = m.snapshot();
        let mut m = Mapper::resume(app.clone(), chip.clone(), cfg, &snap1);
        m.run_rounds(1);
        let snap2 = m.snapshot();
        let mut m = Mapper::resume(app, chip, cfg, &snap2);
        assert_eq!(m.run(), uninterrupted);
    }

    #[test]
    fn strategy_spellings_roundtrip() {
        for strategy in [
            BismStrategy::Blind,
            BismStrategy::Greedy,
            BismStrategy::Hybrid { blind_retries: 9 },
        ] {
            let text = strategy.to_string();
            assert_eq!(text.parse::<BismStrategy>().unwrap(), strategy);
        }
        assert_eq!(
            "hybrid".parse::<BismStrategy>().unwrap(),
            BismStrategy::Hybrid { blind_retries: 5 }
        );
        assert!("quantum".parse::<BismStrategy>().is_err());
        assert!("hybrid:lots".parse::<BismStrategy>().is_err());
    }
}
