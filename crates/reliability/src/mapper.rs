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
//!   the seeded RNG — greedy rounds avoid the known-bad resource set
//!   snapshot taken at round start, blind rounds place randomly.
//! * **Simulate** judges the candidates in candidate order with
//!   application-dependent BIST, stopping at the first pass. Each verdict
//!   simulates only the candidate's rows over the application's columns
//!   ([`crate::fsim::PackedDefectSim::row`]).
//! * **Diagnose** runs application-dependent BISD, likewise restricted,
//!   on the failed candidates that precede the first pass (all of them
//!   when none passed), in candidate order.
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
//! ## Why the candidates are judged inline
//!
//! Simulate and Diagnose do not fan a round's candidates out to the
//! `nanoxbar-par` pool. Restricted to the used rows and driven columns, a
//! candidate's BIST or BISD costs a few microseconds, less than a pool
//! spawn, and in the service a mapper already runs inside one of
//! `Engine::run_batch`'s pool tasks. Measured on a 2-core x86-64 box with
//! both variants restricted: a whole chip-batch-shaped session (the
//! `mapper` group of the `reliability` bench, `NANOXBAR_THREADS=2`) took
//! a median 114–166 µs fanned out against 83 µs inline, and the service's
//! chip-batch workload spent 2.78 against 2.44 ms of server CPU per
//! request (medians of 6 alternating runs; inline cheaper in all 6).

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nanoxbar_crossbar::Crossbar;

use crate::bism::{
    bisd_find, bist_passes, program, row_compatible, stimuli, walking_packed, Application,
    BismStats, BismStrategy, Mapping,
};
use crate::defect::{CrosspointHealth, DefectMap};
use crate::fsim::PackedVectors;

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
/// recomputable**: packed BIST/BISD stimuli are a pure function of
/// `(application, fabric width)` and are rebuilt on
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

/// Per-round scratch shared by the stages.
#[derive(Default)]
struct Round {
    /// Candidate placements, in proposal (= RNG) order.
    candidates: Vec<Mapping>,
    /// The programmed crossbar of each candidate.
    configs: Vec<Crossbar>,
    /// Index of the first passing candidate.
    first_pass: Option<usize>,
    /// BISD findings per diagnosed candidate (greedy rounds).
    diagnoses: Vec<Vec<Defect>>,
    /// A greedy proposal found no compatible placement (terminal unless
    /// an earlier candidate of the same round passes).
    dead_end: bool,
    /// Whether this round diagnoses failures (greedy phase).
    greedy: bool,
}

/// A round's knowledge snapshot, indexed for first-fit placement: the
/// known defects of each fabric row on the application's columns, and the
/// physical columns each product programs. The snapshot is fixed for the
/// round, so it is built once per greedy round and a (product, row) probe
/// reads one short list instead of scanning the whole known-bad set. It
/// decides exactly as `bism::row_compatible`, which the serial reference
/// keeps probing directly.
struct RowKnowledge {
    bad_by_row: Vec<Vec<(usize, CrosspointHealth)>>,
    needs: Vec<Vec<usize>>,
}

impl RowKnowledge {
    fn new(app: &Application, known_bad: &HashSet<Defect>, rows: usize) -> RowKnowledge {
        let mut bad_by_row = vec![Vec::new(); rows];
        for &(r, c, health) in known_bad {
            if let Some(bad) = bad_by_row.get_mut(r) {
                if app.columns.contains(&c) {
                    bad.push((c, health));
                }
            }
        }
        RowKnowledge {
            bad_by_row,
            needs: (0..app.product_count())
                .map(|p| app.physical_needs(p))
                .collect(),
        }
    }

    /// Whether product `p` may use row `r`: no known stuck-open device on
    /// a column it programs, no known stuck-closed one on a column it
    /// leaves open.
    fn compatible(&self, p: usize, r: usize) -> bool {
        let needs = &self.needs[p];
        self.bad_by_row[r].iter().all(|&(c, health)| match health {
            CrosspointHealth::StuckOpen => !needs.contains(&c),
            CrosspointHealth::StuckClosed => needs.contains(&c),
            CrosspointHealth::Good => true,
        })
    }
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
    defects: DefectMap,
    config: MapConfig,
    rng: ChaCha8Rng,
    /// Packed BIST stimuli (application + fabric width only — reused
    /// across every candidate of every round).
    packed: Vec<PackedVectors>,
    /// Packed walking-zero BISD stimuli, likewise reused.
    walking: Vec<PackedVectors>,
    known_bad: HashSet<Defect>,
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
        let packed = PackedVectors::pack(&stimuli(&app, size.cols), size.cols);
        let walking = walking_packed(&app, size.cols);
        Mapper {
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            app,
            defects,
            config,
            packed,
            walking,
            known_bad: HashSet::new(),
            stats: BismStats::default(),
            rounds: 0,
            stage: Stage::Propose,
            round: Round::default(),
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
        let mut bad: Vec<Defect> = self.known_bad.iter().copied().collect();
        bad.sort_unstable();
        bad
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
    /// parts (packed stimuli) are rebuilt from `(app, defects)`;
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
        let mut mapper = Mapper::new(app, defects, config);
        mapper.rng = ChaCha8Rng::from_state(snapshot.rng);
        mapper.known_bad = snapshot.known_bad.iter().copied().collect();
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

    /// One greedy first-fit placement over a fresh row shuffle, avoiding
    /// the known-bad set (as indexed for this round); `None` when the
    /// knowledge admits no placement for this shuffle.
    fn propose_greedy(&mut self, known: &RowKnowledge) -> Option<Mapping> {
        let size = self.defects.size();
        let mut rows: Vec<usize> = (0..size.rows).collect();
        rows.shuffle(&mut self.rng);
        let mut taken: HashSet<usize> = HashSet::new();
        let mut mapping = Vec::with_capacity(self.app.product_count());
        for p in 0..self.app.product_count() {
            let r = *rows
                .iter()
                .find(|&&r| !taken.contains(&r) && known.compatible(p, r))?;
            taken.insert(r);
            mapping.push(r);
        }
        Some(mapping)
    }

    /// One blind placement: a fresh row shuffle, first P rows.
    fn propose_blind(&mut self) -> Mapping {
        let size = self.defects.size();
        let mut rows: Vec<usize> = (0..size.rows).collect();
        rows.shuffle(&mut self.rng);
        rows[..self.app.product_count()].to_vec()
    }

    /// Stage 1: draw the round's candidates (serial RNG consumption, in
    /// candidate order — the only stage that touches the RNG).
    fn propose(&mut self) -> Stage {
        if self.stats.attempts >= self.config.max_attempts {
            // Budget exhausted without a working configuration.
            return Stage::Done;
        }
        let greedy = self.greedy_next();
        let width = self.round_width(greedy);
        self.rounds += 1;
        self.round = Round {
            greedy,
            ..Round::default()
        };
        let size = self.defects.size();
        // Every candidate of a round sees the round-start knowledge.
        let known = greedy.then(|| RowKnowledge::new(&self.app, &self.known_bad, size.rows));
        for _ in 0..width {
            let candidate = match &known {
                Some(known) => match self.propose_greedy(known) {
                    Some(mapping) => mapping,
                    None => {
                        // The shuffle is consumed and will be accounted
                        // as one attempt; the round is truncated here.
                        self.round.dead_end = true;
                        break;
                    }
                },
                None => self.propose_blind(),
            };
            self.round
                .configs
                .push(program(&self.app, &candidate, size));
            self.round.candidates.push(candidate);
        }
        Stage::Simulate
    }

    /// Stage 2: BIST the candidates inline, in candidate order, up to the
    /// first pass — the later ones could never be committed.
    fn simulate(&mut self) -> Stage {
        let (defects, packed) = (&self.defects, &self.packed);
        let round = &mut self.round;
        round.first_pass = round
            .candidates
            .iter()
            .zip(&round.configs)
            .position(|(candidate, config)| bist_passes(config, candidate, defects, packed));
        Stage::Diagnose
    }

    /// Stage 3: BISD the failed candidates that the one-at-a-time
    /// reference would have diagnosed — every candidate before the first
    /// pass (all, when none passed), inline, in candidate order. Blind
    /// rounds diagnose nothing.
    fn diagnose(&mut self) -> Stage {
        let round = &mut self.round;
        if !round.greedy {
            return Stage::Commit;
        }
        let failed = round.first_pass.unwrap_or(round.candidates.len());
        round.diagnoses = round.candidates[..failed]
            .iter()
            .zip(&round.configs)
            .map(|(candidate, config)| {
                bisd_find(&self.app, candidate, &self.defects, config, &self.walking)
            })
            .collect();
        Stage::Commit
    }

    /// Stage 4: advance the counters one-candidate-at-a-time, merge the
    /// diagnoses in candidate order, and either commit the first passing
    /// candidate, declare a dead end, or start the next round.
    fn commit(&mut self) -> Stage {
        let round = std::mem::take(&mut self.round);
        let evaluated = round.first_pass.map_or(round.candidates.len(), |i| i + 1);
        self.stats.attempts += evaluated as u64;
        self.stats.bist_runs += evaluated as u64;
        if round.greedy {
            self.stats.bisd_runs += round.diagnoses.len() as u64;
            for found in &round.diagnoses {
                self.known_bad.extend(found.iter().copied());
            }
        }
        if let Some(i) = round.first_pass {
            self.stats.success = true;
            self.mapping = Some(round.candidates[i].clone());
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
    let packed = PackedVectors::pack(&stimuli(app, size.cols), size.cols);
    let walking = walking_packed(app, size.cols);

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

            let config_xbar = program(app, &candidate, size);
            stats.attempts += 1;
            stats.bist_runs += 1;
            if bist_passes(&config_xbar, &candidate, defects, &packed) {
                stats.success = true;
                mapping = Some(candidate);
                known_bad.extend(learned);
                break 'session;
            }
            if greedy {
                stats.bisd_runs += 1;
                learned.extend(bisd_find(app, &candidate, defects, &config_xbar, &walking));
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
