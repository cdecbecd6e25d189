//! The batch-first engine facade.
//!
//! [`Engine`] owns a [`BackendRegistry`], a default minimise mode, and
//! the optional result cache and its fill hook. Everything else a job
//! runs under — strategy, limits, chip — rides on the [`Job`] itself,
//! with the paper's fixed choices as the fallbacks: the Fig. 5
//! dual-based lattice for jobs that name no strategy, and 5% defective
//! crosspoints for [`ChipSpec::Random`] chips. [`Engine::run`] executes one
//! [`Job`], [`Engine::run_batch`] fans a slice of jobs out across the
//! `nanoxbar-par` work-stealing pool with **input-ordered** results and
//! **per-job error isolation** — one failed (or even panicking) job never
//! aborts the batch.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nanoxbar_crossbar::ArraySize;
use nanoxbar_logic::{Cover, TruthTable};
use nanoxbar_mvm::{ConductanceParams, MvmSpec, ProgramTargets};
use nanoxbar_reliability::bism::Application;
use nanoxbar_reliability::defect::DefectMap;
use nanoxbar_reliability::mapper::{MapConfig, Mapper};

use crate::backend::{BackendRegistry, MinimizeMode, Strategy, SynthesisBackend, SynthesisContext};
use crate::cache::{CacheKey, CacheStats, CachedSynthesis, ResultCache};
use crate::error::Error;
use crate::flow::defect_unaware_flow_with_cover;
use crate::job::{ChipOutcome, ChipSpec, ChipTarget, Job, JobOutput, JobResult, Work};
use crate::tech::{Fingerprinted, Realization};

/// Per-job resource limits, set with [`Job::limited`]; a `None` field
/// leaves that resource unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Wall-clock ceiling per job. Checked between synthesis phases,
    /// before every SAT call, and between mapper stages, so enforcement
    /// is coarse-grained; setting it trades the engine's bit-determinism
    /// for bounded latency.
    pub time: Option<Duration>,
    /// Maximum crosspoint count a realisation may have.
    pub max_area: Option<usize>,
    /// Conflict budget per SAT call in SAT-based backends.
    pub sat_conflicts: Option<u64>,
}

/// Everything an externally driven BISM mapping session needs, produced
/// by [`Engine::prepare_map`]: the synthesis result for rendering, and
/// the `(application, chip, config)` triple that — by the mapper's
/// determinism contract — fully determines the search outcome.
#[derive(Debug, Clone)]
pub struct MapSetup {
    /// Resolved backend name.
    pub strategy: String,
    /// The synthesised realization (cache-shared when possible).
    pub realization: Fingerprinted,
    /// The application derived from the cover.
    pub app: Application,
    /// The materialised defect map of the target chip.
    pub chip: DefectMap,
    /// The job's mapping configuration.
    pub config: MapConfig,
}

/// The strategy of jobs that name none: the paper's Fig. 5 dual-based
/// lattice.
const DEFAULT_STRATEGY: Strategy = Strategy::DualLattice;

/// Draws a [`ChipSpec::Random`] chip, deterministic in `(size, seed)`:
/// the workspace's customary 5% defect density, split 70/30 between
/// stuck-open and stuck-closed (Sec. IV) as in the experiment binaries.
fn random_chip(size: ArraySize, seed: u64) -> DefectMap {
    DefectMap::random_uniform(size, 0.035, 0.015, seed)
}

/// A last-chance supplier consulted on a result-cache miss, *before*
/// local synthesis: given the missed [`CacheKey`], it may produce the
/// finished [`CachedSynthesis`] from somewhere else — a peer replica, a
/// second cache tier, a precomputed store. A successful fill is inserted
/// into the engine's cache like a fresh synthesis (so insert listeners
/// fire) and must be **bit-identical** to what local synthesis would
/// produce; returning `None` falls through to local synthesis, so a hook
/// can never fail a job. Called from pool worker threads — implementations
/// must be `Send + Sync` and should bound their own latency.
#[derive(Clone)]
pub struct CacheFillHook(FillFn);

type FillFn = Arc<dyn Fn(&CacheKey) -> Option<CachedSynthesis> + Send + Sync>;

impl CacheFillHook {
    /// Wraps a fill function.
    pub fn new(f: impl Fn(&CacheKey) -> Option<CachedSynthesis> + Send + Sync + 'static) -> Self {
        CacheFillHook(Arc::new(f))
    }

    /// Consults the hook for one missed key.
    pub fn fill(&self, key: &CacheKey) -> Option<CachedSynthesis> {
        (self.0)(key)
    }
}

impl std::fmt::Debug for CacheFillHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CacheFillHook")
    }
}

/// Configures and builds an [`Engine`]. Obtained from [`Engine::builder`].
#[derive(Debug)]
pub struct EngineBuilder {
    registry: BackendRegistry,
    minimize: MinimizeMode,
    cache: Option<Arc<ResultCache>>,
    fill_hook: Option<CacheFillHook>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            registry: BackendRegistry::with_defaults(),
            minimize: MinimizeMode::default(),
            cache: None,
            fill_hook: None,
        }
    }
}

impl EngineBuilder {
    /// Selects how SOP covers are minimised for jobs that do not pick a
    /// mode themselves ([`Job::minimized`]).
    pub fn minimize(mut self, mode: MinimizeMode) -> Self {
        self.minimize = mode;
        self
    }

    /// Registers a custom backend (last-wins by name, so built-ins can be
    /// shadowed).
    pub fn backend(mut self, backend: Arc<dyn SynthesisBackend>) -> Self {
        self.registry.register(backend);
        self
    }

    /// Attaches a content-addressed [`ResultCache`] (no cache is the
    /// default), which may be shared with other engines. Cached results
    /// are bit-identical to re-synthesised ones; only successful,
    /// chip-independent syntheses are stored — per-chip flow and mapping
    /// outcomes never enter. Sharing is safe between engines that differ
    /// only in minimise mode (it is part of the [`CacheKey`]); engines
    /// with shadowed backends under the same names must not share one.
    pub fn shared_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a [`CacheFillHook`] consulted on every cache miss before
    /// local synthesis. Only meaningful together with a cache
    /// ([`EngineBuilder::shared_cache`]) — without one there are no
    /// misses to intercept and the hook is never called.
    pub fn cache_fill_hook(mut self, hook: CacheFillHook) -> Self {
        self.fill_hook = Some(hook);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// None today: every setting left on the builder is valid. The
    /// `Result` keeps room for a setting that can be wrong.
    pub fn build(self) -> Result<Engine, Error> {
        Ok(Engine {
            registry: self.registry,
            minimize: self.minimize,
            cache: self.cache,
            fill_hook: self.fill_hook,
            program_memo: Mutex::new(ProgramMemo::default()),
        })
    }
}

/// The batch-first synthesis engine: resolves each [`Job`]'s strategy in
/// its [`BackendRegistry`], synthesises under the job's limits, and
/// fans batches out across the `nanoxbar-par` pool with input-ordered,
/// per-job-isolated results.
#[derive(Debug)]
pub struct Engine {
    registry: BackendRegistry,
    minimize: MinimizeMode,
    /// Content-addressed memo of successful syntheses, when enabled.
    cache: Option<Arc<ResultCache>>,
    /// Last-chance miss supplier consulted before local synthesis.
    fill_hook: Option<CacheFillHook>,
    /// Bounded memo of chip-independent MVM program steps — the analog
    /// analogue of the result cache: keyed on the exact weight bits, so
    /// identical weights program once across runs and batches while every
    /// chip-specific Monte-Carlo execution stays per job.
    program_memo: Mutex<ProgramMemo>,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with every default: the built-in strategies, ISOP
    /// covers, no cache.
    pub fn new() -> Engine {
        Engine::builder().build().expect("default engine is valid")
    }

    /// The registered strategy names.
    pub fn strategies(&self) -> Vec<String> {
        self.registry.names()
    }

    /// The engine's result cache, when one is enabled.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Counters of the result cache (`None` when no cache is enabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Runs one job to completion on the calling thread.
    ///
    /// # Errors
    ///
    /// Any [`Error`] variant the job's strategy, limits, or flow can
    /// produce. Panics from custom backends are *not* captured here — use
    /// [`Engine::run_batch`] for isolation.
    pub fn run(&self, job: &Job) -> Result<JobResult, Error> {
        self.run_filled(job, true)
    }

    /// [`Engine::run`] without the [`CacheFillHook`]: a cache miss goes
    /// straight to local synthesis. A replica answering a peer's fill
    /// request runs the fill this way, so fills can never chain from
    /// peer to peer even when replicas disagree about the ring.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    pub fn run_without_fill(&self, job: &Job) -> Result<JobResult, Error> {
        self.run_filled(job, false)
    }

    fn run_filled(&self, job: &Job, fill: bool) -> Result<JobResult, Error> {
        let started = Instant::now();
        let deadline = job.limits.time.map(|t| started + t);
        let synthesized = self.realize(job, &self.cache_key(job), deadline, fill)?;
        self.finish(job, synthesized, started, deadline)
    }

    /// The minimise mode governing one job: its [`Job::minimized`]
    /// override, or the engine's default.
    fn mode(&self, job: &Job) -> MinimizeMode {
        job.minimize.unwrap_or(self.minimize)
    }

    /// The strategy name a job requests: its own, or the dual-based
    /// lattice.
    fn strategy_name(job: &Job) -> &str {
        job.strategy.as_deref().unwrap_or(DEFAULT_STRATEGY.name())
    }

    /// The content address of a job's chip-independent half: the
    /// [`ResultCache`] key of logic and multi jobs, the key of the
    /// engine's memo of MVM program steps for mvm jobs, and the batch
    /// dedupe key of all three. Logic jobs key on the requested strategy
    /// name, which is the resolved backend's name (the registry matches
    /// on it). With [`ResultCache::contains`] a caller can tell, before
    /// running a job, whether this engine will serve its synthesis from
    /// memory.
    pub fn cache_key(&self, job: &Job) -> CacheKey {
        let strategy = Self::strategy_name(job);
        let mode = self.mode(job);
        match &job.work {
            Work::Logic { function, .. } => CacheKey::new(function, strategy, mode),
            Work::Multi(outputs) => multi_synthesis_key(outputs, strategy, mode),
            Work::Mvm(spec) => mvm_program_key(spec, mode),
        }
    }

    /// The placement cover of `function` in the job's mode, for backends
    /// that built none (the SAT search) or cache entries without one.
    fn placement_cover(&self, job: &Job, function: &TruthTable) -> Arc<Cover> {
        let ctx = SynthesisContext {
            minimize: self.mode(job),
            ..SynthesisContext::default()
        };
        Arc::new(ctx.cover(function))
    }

    /// A cache hit for `key`, or else (when `fill` is set) the fill
    /// hook's answer, admitted to the cache exactly like a fresh
    /// synthesis so insert listeners (durable-state persistence) see it
    /// too. `None` means: synthesise locally.
    fn lookup(&self, key: &CacheKey, fill: bool) -> Option<CachedSynthesis> {
        let cache = self.cache.as_ref()?;
        if let Some(hit) = cache.get(key) {
            return Some(hit);
        }
        let filled = self.fill_hook.as_ref().filter(|_| fill)?.fill(key)?;
        cache.insert(key.clone(), filled.clone());
        Some(filled)
    }

    /// Admits a fresh synthesis to the cache, when one is enabled.
    fn admit(&self, key: &CacheKey, synthesis: &CachedSynthesis) {
        if let Some(cache) = &self.cache {
            cache.insert(key.clone(), synthesis.clone());
        }
    }

    /// The chip-independent half of a job, looked up under its `key`
    /// ([`Engine::cache_key`]): a synthesis for logic and multi jobs, the
    /// programmed conductance targets for mvm jobs. `fill` says whether a
    /// cache miss may consult the [`CacheFillHook`].
    fn realize(
        &self,
        job: &Job,
        key: &CacheKey,
        deadline: Option<Instant>,
        fill: bool,
    ) -> Result<Synthesized, Error> {
        let (strategy, synthesis) = match &job.work {
            Work::Logic { function, .. } => {
                self.synthesize(function, key, job.limits, deadline, fill)?
            }
            Work::Multi(outputs) => {
                self.compile_multi(Self::strategy_name(job), outputs, key, fill)?
            }
            Work::Mvm(spec) => return self.program_mvm(spec, key).map(Synthesized::Mvm),
        };
        Ok(Synthesized::Logic(strategy, synthesis))
    }

    /// Resolves the backend named in `key` and produces its name and the
    /// realization
    /// — from the cache when possible, synthesising (and populating the
    /// cache) otherwise — plus the SOP cover the backend built along the
    /// way (its context memo), so chip jobs do not repeat a full
    /// minimisation in [`Engine::finish`].
    fn synthesize(
        &self,
        function: &TruthTable,
        key: &CacheKey,
        limits: Limits,
        deadline: Option<Instant>,
        fill: bool,
    ) -> Result<(String, CachedSynthesis), Error> {
        let backend = self
            .registry
            .get(key.strategy())
            .ok_or_else(|| Error::UnknownStrategy {
                name: key.strategy().to_string(),
            })?;
        let strategy = backend.name().to_string();
        if let Some(hit) = self.lookup(key, fill) {
            return Ok((strategy, hit));
        }

        let ctx = SynthesisContext {
            minimize: key.minimize(),
            sat_budget: limits.sat_conflicts,
            deadline,
            ..SynthesisContext::default()
        };
        // The context's deadline only ever comes from `limits.time`, so a
        // backend giving up on it IS the job's time limit — report it as
        // such, not as a strategy-specific synthesis failure.
        let realization = Arc::new(
            backend
                .synthesize(function, &ctx)
                .map_err(|e| classify_deadline(e, limits))?,
        );
        let cover = ctx
            .cover_memo
            .borrow()
            .as_ref()
            .and_then(|(table, cover)| (table == function).then(|| Arc::new(cover.clone())));
        let synthesis = CachedSynthesis::new(realization, cover);
        self.admit(key, &synthesis);
        Ok((strategy, synthesis))
    }

    /// The chip-independent half of a multi-output job
    /// ([`Job::synthesize_multi`]): all outputs compile onto one
    /// shared-ROBDD sneak-path crossbar. Participates in the result cache
    /// and the fill hook exactly like single-output synthesis — the key
    /// covers the whole output set — so repeated multi jobs share one
    /// [`Realization`]. No SOP cover is produced (the compiler is
    /// BDD-based).
    fn compile_multi(
        &self,
        strategy: &str,
        outputs: &[TruthTable],
        key: &CacheKey,
        fill: bool,
    ) -> Result<(String, CachedSynthesis), Error> {
        if strategy != Strategy::Bdd.name() {
            return Err(Error::MultiSpec {
                message: format!(
                    "strategy {strategy:?} cannot realise multi-output jobs (use \"bdd\")"
                ),
            });
        }
        if let Some(hit) = self.lookup(key, fill) {
            return Ok((strategy.to_string(), hit));
        }
        let num_vars = outputs.first().map_or(0, |t| t.num_vars());
        let xbar = nanoxbar_bddsynth::compile_multi(outputs)
            .map_err(|e| crate::backend::bdd_error(e, num_vars))?;
        let synthesis = CachedSynthesis::new(Arc::new(Realization::Bdd(xbar)), None);
        self.admit(key, &synthesis);
        Ok((strategy.to_string(), synthesis))
    }

    /// The chip-independent half of an mvm job: spec validation and the
    /// program step (weights → differential conductance targets), served
    /// from the bounded [`ProgramMemo`] when the same weight matrix was
    /// programmed before. Pure and deterministic, so memoised results are
    /// bit-identical to fresh ones — the mvm counterpart of result-cache
    /// participation.
    fn program_mvm(&self, spec: &MvmSpec, key: &CacheKey) -> Result<Arc<ProgramTargets>, Error> {
        // Only the chip-independent subset here: batch dedupe groups on
        // exactly these fields, so every slot of a group agrees on this
        // check's outcome. The full per-slot validation (input, chip
        // probabilities, trials) runs in `finish` via `execute`.
        spec.validate_program()
            .map_err(|message| Error::MvmSpec { message })?;
        let memo = self.program_memo.lock().expect("program memo poisoned");
        if let Some(hit) = memo.get(key) {
            return Ok(hit);
        }
        drop(memo);
        let program = Arc::new(nanoxbar_mvm::program(
            &spec.weights,
            spec.rows,
            spec.cols,
            ConductanceParams::default(),
        ));
        self.program_memo
            .lock()
            .expect("program memo poisoned")
            .insert(key.clone(), program.clone());
        Ok(program)
    }

    /// The post-synthesis checks every logic and multi job runs: the
    /// area limit, then (when requested) exhaustive verification of every
    /// target output.
    fn check(&self, job: &Job, strategy: &str, realization: &Realization) -> Result<(), Error> {
        if let Some(limit) = job.limits.max_area {
            let area = realization.area();
            if area > limit {
                return Err(Error::AreaLimit { area, limit });
            }
        }
        if job.verify && !realization.computes_outputs(job.work.targets()) {
            return Err(Error::Verification {
                strategy: strategy.to_string(),
            });
        }
        Ok(())
    }

    /// Validates a BISM mapping of `cover` onto the chip `spec` names and
    /// materialises its inputs: a speculation width of at least 1, a
    /// non-constant cover, and a fabric the derived [`Application`] fits.
    fn map_inputs(
        &self,
        function: &TruthTable,
        cover: &Cover,
        spec: &ChipSpec,
        config: &MapConfig,
    ) -> Result<(Application, DefectMap), Error> {
        if config.speculation == 0 {
            return Err(Error::MapConfig {
                message: "speculation width must be >= 1".into(),
            });
        }
        if cover.is_zero_cover() || cover.has_universe_cube() {
            return Err(Error::ConstantFunction {
                num_vars: function.num_vars(),
            });
        }
        let app = Application::from_cover(cover);
        let chip = self.resolve_chip(spec);
        let size = chip.size();
        if size.rows < app.product_count() || size.cols < app.used_cols() {
            return Err(Error::MapFabric {
                needed: (app.product_count(), app.used_cols()),
                fabric: (size.rows, size.cols),
            });
        }
        Ok((app, chip))
    }

    /// The post-synthesis half of a job: `check`, then the
    /// defect-unaware flow for chip jobs or the BISM mapping for map jobs
    /// (both on the memoised cover when the synthesis phase produced
    /// one). Mvm jobs run their chip-specific Monte-Carlo execution
    /// instead — never cached: like BISM mappings, the chip draw is the
    /// point.
    fn finish(
        &self,
        job: &Job,
        synthesized: Synthesized,
        started: Instant,
        deadline: Option<Instant>,
    ) -> Result<JobResult, Error> {
        let limits = job.limits;
        let (strategy, output) = match (&job.work, synthesized) {
            (Work::Mvm(spec), Synthesized::Mvm(program)) => {
                let outcome = nanoxbar_mvm::execute(spec, &program)
                    .map_err(|message| Error::MvmSpec { message })?;
                check_deadline(deadline, limits)?;
                (MVM_STRATEGY.to_string(), JobOutput::Mvm(outcome))
            }
            (work, Synthesized::Logic(strategy, CachedSynthesis { realization, cover })) => {
                self.check(job, &strategy, &realization)?;
                check_deadline(deadline, limits)?;
                let chip = match work {
                    Work::Logic {
                        function,
                        target: Some(target),
                    } => {
                        let cover = cover.unwrap_or_else(|| self.placement_cover(job, function));
                        Some(self.run_target(function, &cover, target, deadline, limits)?)
                    }
                    _ => None,
                };
                let output = JobOutput::Logic {
                    realization,
                    verified: job.verify,
                    chip,
                };
                (strategy, output)
            }
            (_, Synthesized::Mvm(_)) => {
                unreachable!("dedupe keys give program targets to mvm jobs only")
            }
        };
        Ok(JobResult {
            label: job.label.clone(),
            strategy,
            output,
            elapsed: started.elapsed(),
        })
    }

    /// Runs a logic job's fault-tolerance path on its chip. The staged
    /// BISM mapper runs one stage per deadline check — the state
    /// machine's seams are what let a time-limited engine bound even a
    /// long mapping search.
    ///
    /// Neither outcome is **ever cached**: the [`ResultCache`] is keyed
    /// on (function, strategy, minimise mode) only, so it memoises the
    /// chip-independent synthesis while every chip-specific run goes
    /// fresh against its own defect map.
    fn run_target(
        &self,
        function: &TruthTable,
        cover: &Cover,
        target: &ChipTarget,
        deadline: Option<Instant>,
        limits: Limits,
    ) -> Result<ChipOutcome, Error> {
        match target {
            ChipTarget::Flow(spec) => {
                let report = defect_unaware_flow_with_cover(cover, &self.resolve_chip(spec))?;
                check_deadline(deadline, limits)?;
                Ok(ChipOutcome::Flow(report))
            }
            ChipTarget::Map(spec, config) => {
                let (app, chip) = self.map_inputs(function, cover, spec, config)?;
                let mut mapper = Mapper::new(app, chip, *config);
                while !mapper.is_done() {
                    mapper.step();
                    check_deadline(deadline, limits)?;
                }
                Ok(ChipOutcome::Map(mapper.report()))
            }
        }
    }

    /// Materialises a job's chip spec ([`random_chip`] for random ones).
    fn resolve_chip(&self, spec: &ChipSpec) -> DefectMap {
        match spec {
            ChipSpec::Explicit(map) => map.clone(),
            ChipSpec::Random { size, seed } => random_chip(*size, *seed),
        }
    }

    /// Synthesises a map job and assembles everything an **externally
    /// driven** mapping session needs: the realization (for rendering
    /// the final result), the derived [`Application`], the materialised
    /// chip, and the map config. The validation is [`Engine::run`]'s map
    /// path itself — the same area, verification and map checks, in the
    /// same order — so a [`Mapper`] built from the returned setup and run
    /// to completion reports bit-identically to `run` on the same job.
    /// This is the engine half of the service's resumable `/v1/map`
    /// sessions, which step the mapper a few rounds per request instead
    /// of holding a worker to the end.
    pub fn prepare_map(&self, job: &Job) -> Result<MapSetup, Error> {
        let Work::Logic {
            function,
            target: Some(ChipTarget::Map(spec, config)),
        } = &job.work
        else {
            return Err(Error::MapConfig {
                message: "job has no map target (use Job::map_on_chip)".into(),
            });
        };
        let deadline = job.limits.time.map(|t| Instant::now() + t);
        let (strategy, synthesis) =
            self.synthesize(function, &self.cache_key(job), job.limits, deadline, true)?;
        self.check(job, &strategy, &synthesis.realization)?;
        let cover = synthesis
            .cover
            .unwrap_or_else(|| self.placement_cover(job, function));
        let (app, chip) = self.map_inputs(function, &cover, spec, config)?;
        Ok(MapSetup {
            strategy,
            realization: synthesis.realization,
            app,
            chip,
            config: *config,
        })
    }

    /// Runs a batch across the `nanoxbar-par` pool.
    ///
    /// Results come back **in input order** — `out[i]` belongs to
    /// `jobs[i]` for every thread count — and each job is isolated: a
    /// typed error or even a panic in one job (custom backends) becomes
    /// that job's `Err` while every other job completes normally.
    ///
    /// Identical synthesis work is deduplicated **within the batch**:
    /// jobs agreeing on (function, strategy, minimise mode) synthesise
    /// once and every
    /// slot shares the resulting [`Realization`] (per-job verification,
    /// limits, and chip mapping still run per slot). With a cache enabled
    /// the dedupe extends across batches.
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<Result<JobResult, Error>> {
        // Group jobs by their chip-independent content
        // ([`Engine::cache_key`]). `assign[i]` is job i's group; `reps[g]`
        // is the index of the first job of group g, which does the
        // synthesis (or mvm program step) for the whole group. Per-job
        // limits are part of the group: two identical functions under different budgets may
        // legitimately diverge (one times out, the other succeeds), so
        // they must not share one synthesis outcome. Chips are
        // deliberately *not* part of it — synthesis is chip-independent,
        // and the per-chip flow, mapping or mvm execution runs per slot.
        let keys: Vec<CacheKey> = jobs.iter().map(|job| self.cache_key(job)).collect();
        let mut assign: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut reps: Vec<usize> = Vec::new();
        let mut groups: HashMap<(&CacheKey, Limits), usize> = HashMap::new();
        for (i, (job, key)) in jobs.iter().zip(&keys).enumerate() {
            let group = *groups.entry((key, job.limits)).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            });
            assign.push(group);
        }

        // Phase 1: one synthesis per distinct (function, strategy), fanned
        // out one job per chunk — jobs vary wildly in cost (a diode cover
        // vs a SAT search), so fine granularity lets the work-stealing
        // pool balance them; per-chunk slots keep the output input-ordered.
        let synths: Vec<GroupSynthesis> = nanoxbar_par::par_map_reduce(
            &reps,
            1,
            |_i, chunk| {
                chunk
                    .iter()
                    .map(|&rep| {
                        // The job's clock (and deadline, if any) starts at
                        // task pickup and spans both phases, like `run`.
                        let started = Instant::now();
                        let deadline = jobs[rep].limits.time.map(|t| started + t);
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                            self.realize(&jobs[rep], &keys[rep], deadline, true)
                        }))
                        .unwrap_or_else(|payload| {
                            Err(Error::Panicked {
                                message: panic_message(payload),
                            })
                        });
                        GroupSynthesis { started, outcome }
                    })
                    .collect()
            },
            |mut acc: Vec<_>, mut chunk| {
                acc.append(&mut chunk);
                acc
            },
        )
        .unwrap_or_default();

        // Phase 2: per-slot post-processing (limits, verification, chip
        // flow) on the shared realizations, again one job per chunk.
        // Duplicate slots inherit their group's clock, so `elapsed` spans
        // from the shared synthesis start; the time limit, however, is
        // re-anchored at phase-2 pickup — phase 1 is a barrier, and a
        // cheap job must not time out because an unrelated slow job held
        // the barrier past the cheap job's phase-1 deadline. (Per-phase
        // budgets only matter with `Limits::time` set, which already
        // trades bit-determinism for bounded latency.)
        let indices: Vec<usize> = (0..jobs.len()).collect();
        nanoxbar_par::par_map_reduce(
            &indices,
            1,
            |_i, chunk| {
                chunk
                    .iter()
                    .map(|&ji| {
                        let synth = &synths[assign[ji]];
                        match &synth.outcome {
                            Err(e) => Err(e.clone()),
                            Ok(s) => self.finish_isolated(&jobs[ji], s.clone(), synth.started),
                        }
                    })
                    .collect()
            },
            |mut acc: Vec<Result<JobResult, Error>>, mut chunk| {
                acc.append(&mut chunk);
                acc
            },
        )
        .unwrap_or_default()
    }

    /// [`Engine::finish`] behind a panic boundary, with the finish-phase
    /// deadline anchored at pickup (see `run_batch` phase 2).
    fn finish_isolated(
        &self,
        job: &Job,
        synthesized: Synthesized,
        started: Instant,
    ) -> Result<JobResult, Error> {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let deadline = job.limits.time.map(|t| Instant::now() + t);
            self.finish(job, synthesized, started, deadline)
        }))
        .unwrap_or_else(|payload| {
            Err(Error::Panicked {
                message: panic_message(payload),
            })
        })
    }
}

/// Errors out once the job's deadline (derived from `limits.time`) has
/// passed.
fn check_deadline(deadline: Option<Instant>, limits: Limits) -> Result<(), Error> {
    match (deadline, limits.time) {
        (Some(deadline), Some(limit)) if Instant::now() >= deadline => {
            Err(Error::TimeLimit { limit })
        }
        _ => Ok(()),
    }
}

/// Rewrites a backend's deadline-exhaustion error into the engine's
/// [`Error::TimeLimit`] (the deadline is derived from `limits.time`).
fn classify_deadline(e: Error, limits: Limits) -> Error {
    match (&e, limits.time) {
        (
            Error::Synth(nanoxbar_lattice::synth::SynthError::DeadlineExceeded { .. }),
            Some(limit),
        ) => Error::TimeLimit { limit },
        _ => e,
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// The strategy name mvm jobs report in [`JobResult::strategy`].
pub(crate) const MVM_STRATEGY: &str = "analog-mvm";

/// What [`Engine::realize`] produces — the chip-independent half of a
/// job, shared by every slot of a dedupe group.
#[derive(Clone)]
enum Synthesized {
    /// A logic or multi job's resolved backend name and synthesis.
    Logic(String, CachedSynthesis),
    /// An mvm job's programmed differential conductance targets.
    Mvm(Arc<ProgramTargets>),
}

/// Entries the [`ProgramMemo`] holds before evicting FIFO. Program
/// targets weigh two f32 planes each, so a small bound suffices.
const PROGRAM_MEMO_CAPACITY: usize = 64;

/// A bounded FIFO memo of chip-independent MVM program steps, keyed on
/// the exact weight bits. A linear scan over at most
/// [`PROGRAM_MEMO_CAPACITY`] keys — cheap next to programming even a
/// small matrix, and trivially deterministic.
#[derive(Debug, Default)]
struct ProgramMemo {
    entries: VecDeque<(CacheKey, Arc<ProgramTargets>)>,
}

impl ProgramMemo {
    fn get(&self, key: &CacheKey) -> Option<Arc<ProgramTargets>> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v))
    }

    fn insert(&mut self, key: CacheKey, value: Arc<ProgramTargets>) {
        if self.entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        if self.entries.len() >= PROGRAM_MEMO_CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back((key, value));
    }
}

/// The dedupe/memo key of an mvm job's program step: the dimensions and
/// the exact bit pattern of every weight (two f32s per word) under the
/// reserved `"analog-program"` strategy name — an exact identity, so
/// distinct weight matrices can never collide into one group.
fn mvm_program_key(spec: &MvmSpec, minimize: MinimizeMode) -> CacheKey {
    let mut words = Vec::with_capacity(1 + spec.weights.len().div_ceil(2));
    words.push(spec.cols as u64);
    for pair in spec.weights.chunks(2) {
        let lo = u64::from(pair[0].to_bits());
        let hi = pair.get(1).map_or(0, |w| u64::from(w.to_bits()) << 32);
        words.push(lo | hi);
    }
    CacheKey::from_parts(spec.rows, words, "analog-program".to_string(), minimize)
}

/// The dedupe/cache key of a multi-output job: the output count followed
/// by every output's `(arity, packed words)`, under the requested
/// strategy name plus `"-multi"` — `"bdd-multi"` for the only
/// strategy that realises these jobs. Deliberately distinct from the
/// single-output `"bdd"` key of the same function, and shaped so
/// single-function decoders (peer cache fills check
/// `words.len() == word_len(num_vars)`) reject it cleanly — a peer fill
/// on a multi key just misses and falls through to local compilation. A
/// multi job misdeclared under another strategy keys on that name, so
/// batch dedupe can never serve it a shared-BDD realization in place of
/// its typed rejection.
fn multi_synthesis_key(outputs: &[TruthTable], strategy: &str, minimize: MinimizeMode) -> CacheKey {
    let capacity = 1 + outputs.iter().map(|t| 1 + t.words().len()).sum::<usize>();
    let mut words = Vec::with_capacity(capacity);
    words.push(outputs.len() as u64);
    for t in outputs {
        words.push(t.num_vars() as u64);
        words.extend_from_slice(t.words());
    }
    CacheKey::from_parts(
        outputs.first().map_or(0, |t| t.num_vars()),
        words,
        format!("{strategy}-multi"),
        minimize,
    )
}

/// Phase-1 output of [`Engine::run_batch`], shared by every slot of one
/// dedupe group: the synthesis outcome plus the group's clock, so phase 2
/// reports `elapsed` from the synthesis start.
struct GroupSynthesis {
    started: Instant,
    outcome: Result<Synthesized, Error>,
}

/// Renders a captured panic payload for [`Error::Panicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DualLatticeBackend;
    use crate::flow::FlowError;
    use crate::tech::Realization;
    use crate::tech::Technology;
    use nanoxbar_lattice::Lattice;
    use nanoxbar_logic::parse_function;

    fn random_chip(side: usize, seed: u64) -> ChipSpec {
        ChipSpec::Random {
            size: ArraySize::new(side, side),
            seed,
        }
    }

    fn healthy_chip(side: usize) -> ChipSpec {
        ChipSpec::Explicit(DefectMap::healthy(ArraySize::new(side, side)))
    }

    fn cached(capacity: usize) -> EngineBuilder {
        Engine::builder().shared_cache(Arc::new(ResultCache::new(capacity)))
    }

    #[test]
    fn run_realises_the_paper_example_on_every_strategy() {
        let engine = Engine::new();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let mut sizes = Vec::new();
        for strategy in Strategy::ALL {
            let job = Job::synthesize(f.clone())
                .with_strategy(strategy)
                .verified(true);
            let result = engine.run(&job).unwrap();
            assert_eq!(result.strategy, strategy.name());
            assert!(result.verified());
            sizes.push(result.realization().unwrap().size().to_string());
        }
        // Paper Sec. III: 2x5 diode, 4x4 FET, 2x2 lattice (optimal too);
        // the BDD sneak-path crossbar of XNOR has 4 node rows (TRUE + 3
        // internal) and 4 kept-edge columns.
        assert_eq!(sizes, ["2x5", "4x4", "2x2", "2x2", "4x4"]);
    }

    #[test]
    fn per_job_minimize_matches_an_engine_in_that_mode() {
        // The 3-variable cyclic function: its irredundant ISOP cover has
        // four products, the exact minimum three.
        let f = parse_function("x0 !x1 + x1 !x2 + !x0 x2").unwrap();
        let job = Job::synthesize(f.clone()).with_strategy(Strategy::Diode);
        let isop = cached(1 << 16).build().unwrap();
        let exact = cached(1 << 16)
            .minimize(MinimizeMode::Exact)
            .build()
            .unwrap();

        let by_engine = exact.run(&job).unwrap();
        let by_job = isop
            .run(&job.clone().minimized(MinimizeMode::Exact))
            .unwrap();
        let default = isop.run(&job).unwrap();
        assert_eq!(by_job.realization(), by_engine.realization());
        assert_ne!(
            default.realization(),
            by_job.realization(),
            "the test function must tell the two modes apart"
        );
        // Both engines cached the exact synthesis under the same key.
        let key = CacheKey::new(&f, "diode", MinimizeMode::Exact);
        for engine in [&isop, &exact] {
            let cached = engine.cache().unwrap().get(&key).expect("exact key cached");
            assert_eq!(Some(cached.realization.realization()), by_job.realization());
        }

        // In one batch the two modes form exactly two dedupe groups: one
        // synthesis (cache lookup) per mode, however many slots each has.
        let fresh = cached(1 << 16).build().unwrap();
        let exact_job = job.clone().minimized(MinimizeMode::Exact);
        let jobs = [job.clone(), exact_job.clone(), job, exact_job];
        let results = fresh.run_batch(&jobs);
        assert_eq!(fresh.cache_stats().unwrap().misses, 2);
        let areas: Vec<usize> = results.iter().map(|r| r.as_ref().unwrap().area()).collect();
        assert_eq!(areas, [28, 21, 28, 21]);
    }

    #[test]
    fn run_without_fill_never_consults_the_hook() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = calls.clone();
        let engine = cached(1 << 16)
            .cache_fill_hook(CacheFillHook::new(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                None
            }))
            .build()
            .unwrap();
        let job = Job::parse("x0 x1 + !x0 x2").unwrap();
        engine.run_without_fill(&job).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // The entry is now cached: a second miss is needed to reach the
        // hook through `run`.
        engine.run(&Job::parse("x0 + x1 x2").unwrap()).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_strategy_is_dual_lattice() {
        let engine = Engine::new();
        let f = parse_function("x0 + x1").unwrap();
        let result = engine.run(&Job::synthesize(f)).unwrap();
        assert_eq!(result.strategy, "dual-lattice");
        assert_eq!(
            result.realization().unwrap().technology(),
            Technology::FourTerminal
        );
    }

    #[test]
    fn unknown_strategies_fail_at_run() {
        let engine = Engine::new();
        let job = Job::parse("x0").unwrap().with_strategy_name("quantum");
        assert_eq!(
            engine.run(&job).unwrap_err(),
            Error::UnknownStrategy {
                name: "quantum".into()
            }
        );
    }

    #[test]
    fn area_limit_is_enforced() {
        let engine = Engine::new();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let job = Job::synthesize(f).limited(Limits {
            max_area: Some(4),
            ..Limits::default()
        });
        let ok = engine.run(&job).unwrap();
        assert_eq!(ok.area(), 4);
        let err = engine.run(&job.with_strategy(Strategy::Diode)).unwrap_err();
        assert_eq!(err, Error::AreaLimit { area: 10, limit: 4 });
    }

    #[test]
    fn chip_jobs_produce_flow_reports_and_typed_flow_errors() {
        let engine = Engine::new();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let result = engine
            .run(&Job::on_chip(f.clone(), random_chip(16, 5)).with_strategy(Strategy::Diode))
            .unwrap();
        let flow = result.flow().expect("chip job produces a flow report");
        assert!(flow.bist_passed);

        // A 2x2 fabric cannot hold the 4 literal columns.
        let err = engine.run(&Job::on_chip(f, healthy_chip(2))).unwrap_err();
        assert!(
            matches!(err, Error::Flow(FlowError::InsufficientFabric { .. })),
            "{err}"
        );
    }

    #[test]
    fn batch_results_are_input_ordered_with_per_job_isolation() {
        struct PanickingBackend;
        impl SynthesisBackend for PanickingBackend {
            fn name(&self) -> &str {
                "panicking"
            }
            fn technology(&self) -> Technology {
                Technology::FourTerminal
            }
            fn synthesize(
                &self,
                _: &TruthTable,
                _: &SynthesisContext,
            ) -> Result<Realization, Error> {
                panic!("backend bug");
            }
        }
        let engine = Engine::builder()
            .backend(Arc::new(PanickingBackend))
            .build()
            .unwrap();
        let xnor = parse_function("x0 x1 + !x0 !x1").unwrap();
        let jobs = vec![
            Job::synthesize(xnor.clone()).labeled("ok-0"),
            Job::synthesize(TruthTable::ones(2)).with_strategy(Strategy::Diode), // typed error
            Job::synthesize(xnor.clone()).with_strategy_name("panicking"),       // panic
            Job::synthesize(xnor)
                .with_strategy(Strategy::Fet)
                .labeled("ok-3"),
        ];
        let results = engine.run_batch(&jobs);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().label.as_deref(), Some("ok-0"));
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &Error::ConstantFunction { num_vars: 2 }
        );
        assert_eq!(
            results[2].as_ref().unwrap_err(),
            &Error::Panicked {
                message: "backend bug".into()
            }
        );
        assert_eq!(results[3].as_ref().unwrap().strategy, "fet");
    }

    #[test]
    fn map_jobs_produce_deterministic_map_reports() {
        use nanoxbar_reliability::bism::BismStrategy;
        use nanoxbar_reliability::mapper::MapConfig;

        let engine = Engine::new();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let job = Job::map_on_chip(
            f.clone(),
            random_chip(16, 11),
            MapConfig {
                strategy: BismStrategy::Greedy,
                speculation: 4,
                max_attempts: 200,
                seed: 3,
            },
        );
        let a = engine.run(&job).unwrap();
        let b = engine.run(&job).unwrap();
        let map = a.map().expect("map job carries a report");
        assert!(map.stats.success, "a healthy-ish chip must map");
        assert_eq!(
            map.mapping.as_ref().unwrap().len(),
            2,
            "one row per product"
        );
        assert_eq!(a.map(), b.map(), "map reports are deterministic");
        assert!(a.flow().is_none(), "mapping does not imply the flow");

        // Batches agree with single runs.
        let results = engine.run_batch(std::slice::from_ref(&job));
        assert_eq!(results[0].as_ref().unwrap().map(), a.map());
    }

    #[test]
    fn map_jobs_reject_constants_and_small_fabrics() {
        use nanoxbar_reliability::mapper::MapConfig;

        let engine = Engine::new();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap(); // 4 literal columns
        let zero_width = engine
            .run(&Job::map_on_chip(
                f.clone(),
                healthy_chip(8),
                MapConfig {
                    speculation: 0,
                    ..MapConfig::default()
                },
            ))
            .unwrap_err();
        assert_eq!(
            zero_width,
            Error::MapConfig {
                message: "speculation width must be >= 1".into()
            }
        );
        let err = engine
            .run(&Job::map_on_chip(f, healthy_chip(2), MapConfig::default()))
            .unwrap_err();
        assert_eq!(
            err,
            Error::MapFabric {
                needed: (2, 4),
                fabric: (2, 2)
            }
        );
        let constant = engine
            .run(
                &Job::map_on_chip(TruthTable::ones(2), healthy_chip(8), MapConfig::default())
                    .with_strategy(Strategy::DualLattice),
            )
            .unwrap_err();
        assert_eq!(constant, Error::ConstantFunction { num_vars: 2 });
    }

    #[test]
    fn mappings_are_never_cached_but_their_synthesis_is() {
        let engine = cached(256).build().unwrap();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let chip_a = Job::map_on_chip(f.clone(), random_chip(16, 1), MapConfig::default());
        let chip_b = Job::map_on_chip(f.clone(), random_chip(16, 2), MapConfig::default());
        let a = engine.run(&chip_a).unwrap();
        let b = engine.run(&chip_b).unwrap();
        let plain = engine.run(&Job::synthesize(f)).unwrap();
        // One cache entry serves all three: the chip-independent synthesis.
        let stats = engine.cache_stats().unwrap();
        assert_eq!(stats.len, 1, "{stats:?}");
        assert!(Arc::ptr_eq(
            a.realization().unwrap(),
            b.realization().unwrap()
        ));
        assert!(Arc::ptr_eq(
            a.realization().unwrap(),
            plain.realization().unwrap()
        ));
        // While the chip-specific mappings ran fresh per chip.
        assert!(plain.map().is_none());
        assert!(a.map().is_some() && b.map().is_some());
    }

    #[test]
    fn per_job_limits_override_without_leaking_across_dedupe() {
        let engine = Engine::new();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let strict = Job::synthesize(f.clone()).limited(Limits {
            time: Some(Duration::from_nanos(0)),
            ..Limits::default()
        });
        let free = Job::synthesize(f);
        // Identical functions, different budgets: the strict job times
        // out, the unlimited one succeeds — they must not share a
        // synthesis outcome.
        let results = engine.run_batch(&[strict.clone(), free]);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &Error::TimeLimit {
                limit: Duration::from_nanos(0)
            }
        );
        assert!(results[1].is_ok(), "{:?}", results[1]);
        // And `run` honours the override too.
        assert!(engine.run(&strict).is_err());
    }

    #[test]
    fn cache_serves_repeat_runs_with_the_shared_realization() {
        let engine = cached(64).build().unwrap();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let a = engine.run(&Job::synthesize(f.clone())).unwrap();
        let b = engine.run(&Job::synthesize(f)).unwrap();
        assert!(
            Arc::ptr_eq(a.realization().unwrap(), b.realization().unwrap()),
            "second run must be served from the cache"
        );
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn cache_fill_hook_runs_on_miss_only_and_feeds_the_cache() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A donor engine supplies the hook's answers, so filled entries
        // are real synthesis results (bit-identical by construction).
        let donor = cached(64).build().unwrap();
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let donor_result = donor.run(&Job::synthesize(f.clone())).unwrap();
        let donor_cache = Arc::clone(donor.cache().unwrap());
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let hook = CacheFillHook::new(move |key: &CacheKey| {
            counted.fetch_add(1, Ordering::SeqCst);
            donor_cache.get(key)
        });
        let engine = cached(64).cache_fill_hook(hook).build().unwrap();
        // Miss → hook fills → same shared realization as the donor's.
        let a = engine.run(&Job::synthesize(f.clone())).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(
            a.realization().unwrap(),
            donor_result.realization().unwrap()
        ));
        // The fill landed in the cache, so a repeat is a plain hit: the
        // hook is not consulted again.
        let b = engine.run(&Job::synthesize(f)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "hit skips the hook");
        assert!(Arc::ptr_eq(
            a.realization().unwrap(),
            b.realization().unwrap()
        ));
        // A key the hook cannot supply falls through to local synthesis.
        let g = parse_function("x0 + x1 x2").unwrap();
        let local = engine.run(&Job::synthesize(g)).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(local.strategy, "dual-lattice");
    }

    #[test]
    fn batch_dedupe_synthesises_identical_jobs_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        struct CountingLattice;
        impl SynthesisBackend for CountingLattice {
            fn name(&self) -> &str {
                "counting"
            }
            fn technology(&self) -> Technology {
                Technology::FourTerminal
            }
            fn synthesize(
                &self,
                f: &TruthTable,
                ctx: &SynthesisContext,
            ) -> Result<Realization, Error> {
                CALLS.fetch_add(1, Ordering::SeqCst);
                DualLatticeBackend.synthesize(f, ctx)
            }
        }
        let engine = Engine::builder()
            .backend(Arc::new(CountingLattice))
            .build()
            .unwrap();
        assert!(engine.cache_stats().is_none(), "no cache by default");
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let jobs = vec![
            Job::synthesize(f.clone()).with_strategy_name("counting"),
            Job::synthesize(f.clone())
                .with_strategy_name("counting")
                .verified(true),
            Job::synthesize(f).with_strategy_name("counting"),
        ];
        CALLS.store(0, Ordering::SeqCst);
        let results = engine.run_batch(&jobs);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "one synthesis, 3 slots");
        let r0 = results[0].as_ref().unwrap();
        let r1 = results[1].as_ref().unwrap();
        let r2 = results[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(
            r0.realization().unwrap(),
            r1.realization().unwrap()
        ));
        assert!(Arc::ptr_eq(
            r0.realization().unwrap(),
            r2.realization().unwrap()
        ));
        // Per-slot options still apply individually.
        assert!(!r0.verified());
        assert!(r1.verified());
    }

    #[test]
    fn batch_dedupe_shares_errors_across_duplicate_slots() {
        let engine = Engine::new();
        let ones = TruthTable::ones(2);
        let jobs = vec![
            Job::synthesize(ones.clone()).with_strategy(Strategy::Diode),
            Job::synthesize(ones).with_strategy(Strategy::Diode),
        ];
        let results = engine.run_batch(&jobs);
        for r in &results {
            assert_eq!(
                r.as_ref().unwrap_err(),
                &Error::ConstantFunction { num_vars: 2 }
            );
        }
    }

    #[test]
    fn sat_budget_surfaces_as_typed_error() {
        // A conflict budget of 0 still decides trivial sizes (pure
        // propagation), so use a function whose optimal search needs real
        // conflicts and a budget of 1.
        let engine = Engine::new();
        let job = Job::synthesize(nanoxbar_logic::suite::majority(3))
            .with_strategy(Strategy::OptimalLattice);
        let strict = job.clone().limited(Limits {
            sat_conflicts: Some(1),
            ..Limits::default()
        });
        match engine.run(&strict) {
            Err(Error::Synth(nanoxbar_lattice::synth::SynthError::SatBudgetExceeded {
                ..
            })) => {}
            other => panic!("expected SatBudgetExceeded, got {other:?}"),
        }
        // The budget belongs to its job alone.
        assert!(engine.run(&job).is_ok());
    }

    #[test]
    fn custom_backend_can_shadow_a_builtin() {
        struct ConstantLattice;
        impl SynthesisBackend for ConstantLattice {
            fn name(&self) -> &str {
                "dual-lattice"
            }
            fn technology(&self) -> Technology {
                Technology::FourTerminal
            }
            fn synthesize(
                &self,
                f: &TruthTable,
                _: &SynthesisContext,
            ) -> Result<Realization, Error> {
                Ok(Realization::Lattice(Lattice::constant(f.num_vars(), true)))
            }
        }
        let engine = Engine::builder()
            .backend(Arc::new(ConstantLattice))
            .build()
            .unwrap();
        let f = parse_function("x0 x1").unwrap();
        let result = engine.run(&Job::synthesize(f.clone())).unwrap();
        assert_eq!(result.area(), 1, "shadowed backend ran");
        // And verification catches the lie as data, not a panic.
        let err = engine.run(&Job::synthesize(f).verified(true)).unwrap_err();
        assert_eq!(
            err,
            Error::Verification {
                strategy: "dual-lattice".into()
            }
        );
    }

    #[test]
    fn expired_time_limit_is_a_typed_error() {
        let engine = Engine::new();
        let job = Job::parse("x0 x1").unwrap().limited(Limits {
            time: Some(Duration::from_nanos(0)),
            ..Limits::default()
        });
        assert_eq!(
            engine.run(&job).unwrap_err(),
            Error::TimeLimit {
                limit: Duration::from_nanos(0)
            }
        );
    }

    #[test]
    fn deadline_inside_sat_search_reports_as_time_limit() {
        // The optimal backend hits the deadline between SAT calls; the
        // engine must report its configured time limit, not a
        // strategy-specific SynthError.
        let engine = Engine::new();
        let job = Job::parse("x0 x1 + !x0 !x1")
            .unwrap()
            .with_strategy(Strategy::OptimalLattice)
            .limited(Limits {
                time: Some(Duration::from_nanos(0)),
                ..Limits::default()
            });
        assert_eq!(
            engine.run(&job).unwrap_err(),
            Error::TimeLimit {
                limit: Duration::from_nanos(0)
            }
        );
    }

    fn mvm_spec(rows: usize, cols: usize, chip_seed: u64) -> MvmSpec {
        let (weights, input) = nanoxbar_mvm::random_problem(rows, cols, 5);
        MvmSpec {
            rows,
            cols,
            weights,
            input,
            chip_seed,
            p_open: 0.02,
            p_closed: 0.01,
            noise_sigma: 0.05,
            trials: 3,
        }
    }

    #[test]
    fn mvm_jobs_run_end_to_end_and_match_the_library() {
        let engine = Engine::new();
        let spec = mvm_spec(20, 12, 99);
        let result = engine
            .run(&Job::mvm(spec.clone()).labeled("mvm-0"))
            .unwrap();
        assert_eq!(result.strategy, "analog-mvm");
        assert_eq!(result.label.as_deref(), Some("mvm-0"));
        assert!(result.realization().is_none());
        assert_eq!(result.area(), 0);
        assert!(result.flow().is_none() && result.map().is_none());
        let outcome = result.mvm().expect("mvm job carries an outcome");
        // The engine path is the library path: same spec, same outcome.
        let targets = nanoxbar_mvm::program(
            &spec.weights,
            spec.rows,
            spec.cols,
            ConductanceParams::default(),
        );
        assert_eq!(outcome, &nanoxbar_mvm::execute(&spec, &targets).unwrap());
    }

    #[test]
    fn mvm_batches_dedupe_the_program_step_and_isolate_bad_specs() {
        let engine = Engine::new();
        let spec = mvm_spec(16, 8, 1);
        let mut bad = spec.clone();
        // Would trip DefectMap::random_uniform's assert on a worker
        // thread; must surface as a typed per-slot error instead.
        bad.p_open = 0.8;
        bad.p_closed = 0.7;
        let other_chip = MvmSpec {
            chip_seed: 2,
            ..spec.clone()
        };
        let jobs = vec![
            Job::mvm(spec.clone()),
            Job::mvm(bad),
            Job::parse("x0 x1").unwrap(),
            Job::mvm(other_chip),
        ];
        let results = engine.run_batch(&jobs);
        assert_eq!(results.len(), 4);
        let a = results[0].as_ref().unwrap().mvm().unwrap();
        assert!(matches!(
            results[1].as_ref().unwrap_err(),
            Error::MvmSpec { .. }
        ));
        assert!(results[2].as_ref().unwrap().realization().is_some());
        let b = results[3].as_ref().unwrap().mvm().unwrap();
        // Same weights, different chip seeds: the shared program step
        // still yields per-chip outcomes.
        assert_eq!(a.ideal, b.ideal, "ideal product is chip-independent");
        assert_ne!(a.output, b.output, "chip draw is per slot");
        // And run agrees with the batch (the memo serves the repeat).
        let again = engine.run(&Job::mvm(spec)).unwrap();
        assert_eq!(again.mvm(), Some(a));
    }

    #[test]
    fn mvm_bad_specs_are_typed_errors() {
        let engine = Engine::new();
        let mut bad = mvm_spec(4, 4, 7);
        bad.trials = 0;
        match engine.run(&Job::mvm(bad)).unwrap_err() {
            Error::MvmSpec { message } => assert!(message.contains("trials"), "{message}"),
            other => panic!("expected MvmSpec, got {other:?}"),
        }
    }

    #[test]
    fn multi_jobs_compile_verify_and_dedupe() {
        let engine = cached(256).build().unwrap();
        let outputs = vec![
            parse_function("x0 x1 + x2").unwrap(),
            parse_function("x0 x1 + !x2").unwrap(),
            parse_function("x0 ^ x1 ^ x2").unwrap(),
        ];
        let job = Job::synthesize_multi(outputs.clone())
            .verified(true)
            .labeled("multi");
        let a = engine.run(&job).unwrap();
        assert_eq!(a.strategy, "bdd");
        assert!(a.verified());
        assert_eq!(a.label.as_deref(), Some("multi"));
        let r = a.realization().unwrap();
        assert_eq!(r.num_outputs(), 3);
        assert_eq!(r.technology(), Technology::SneakPath);
        assert!(r.computes_outputs(&outputs));
        // The cache serves the repeat with the shared realization.
        let b = engine.run(&job).unwrap();
        assert!(Arc::ptr_eq(
            a.realization().unwrap(),
            b.realization().unwrap()
        ));
        // Batches dedupe multi jobs and keep mixed slots isolated.
        let results = engine.run_batch(&[job.clone(), Job::parse("x0 x1").unwrap(), job.clone()]);
        assert!(Arc::ptr_eq(
            results[0].as_ref().unwrap().realization().unwrap(),
            results[2].as_ref().unwrap().realization().unwrap()
        ));
        assert_eq!(results[1].as_ref().unwrap().strategy, "dual-lattice");
        // A single-output "bdd" job of output 0 must NOT collide with the
        // multi entry in the cache.
        let single = engine
            .run(&Job::synthesize(outputs[0].clone()).with_strategy(Strategy::Bdd))
            .unwrap();
        assert_eq!(single.realization().unwrap().num_outputs(), 1);
        // A misdeclared multi job (same outputs, non-"bdd" strategy) must
        // NOT be dedupe-served the shared realization — it keeps its
        // typed rejection even batched next to the valid twin.
        let wrong = Job::synthesize_multi(outputs.clone()).with_strategy(Strategy::Fet);
        let mixed = engine.run_batch(&[job.clone(), wrong]);
        assert!(mixed[0].is_ok());
        assert!(matches!(mixed[1], Err(Error::MultiSpec { .. })));
    }

    #[test]
    fn multi_jobs_reject_bad_specs_with_typed_errors() {
        let engine = Engine::new();
        match engine.run(&Job::synthesize_multi(vec![])).unwrap_err() {
            Error::MultiSpec { message } => assert!(message.contains("output"), "{message}"),
            other => panic!("expected MultiSpec, got {other:?}"),
        }
        let mixed = vec![
            parse_function("x0 x1").unwrap(),
            parse_function("x0 + x1 + x2").unwrap(),
        ];
        assert!(matches!(
            engine.run(&Job::synthesize_multi(mixed)).unwrap_err(),
            Error::MultiSpec { .. }
        ));
        // Only the BDD strategy realises multi-output jobs.
        let one = vec![parse_function("x0 x1").unwrap()];
        let wrong = Job::synthesize_multi(one).with_strategy(Strategy::Diode);
        assert!(matches!(
            engine.run(&wrong).unwrap_err(),
            Error::MultiSpec { .. }
        ));
        // Constant outputs keep the engine-wide error shape.
        assert_eq!(
            engine
                .run(&Job::synthesize_multi(vec![TruthTable::ones(2)]))
                .unwrap_err(),
            Error::ConstantFunction { num_vars: 2 }
        );
    }

    #[test]
    fn exact_minimisation_reaches_the_flow_placement() {
        // Chip jobs place the SOP the engine's minimise mode produced (the
        // memoised context cover), not a hard-coded ISOP.
        let engine = Engine::builder()
            .minimize(MinimizeMode::Exact)
            .build()
            .unwrap();
        let f = parse_function("x0 x1 + x0 !x1 + !x0 x1").unwrap(); // = x0 + x1
        let job = Job::on_chip(f, random_chip(16, 9)).with_strategy(Strategy::Diode);
        let result = engine.run(&job).unwrap();
        let flow = result.flow().unwrap();
        assert!(flow.bist_passed);
        assert_eq!(flow.products, 2, "exact cover of x0 + x1 has 2 products");
    }
}
