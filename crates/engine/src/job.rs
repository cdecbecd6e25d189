//! Typed jobs and results for the batch engine.
//!
//! A [`Job`] is one unit of work — a target function, a strategy choice,
//! and optionally a defective chip to map onto. [`crate::Engine::run`]
//! turns it into a [`JobResult`] or a typed [`crate::Error`];
//! [`crate::Engine::run_batch`] does the same for a whole slice with
//! input-ordered results and per-job error isolation.

use std::sync::Arc;
use std::time::Duration;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_logic::{parse_function, TruthTable};
use nanoxbar_mvm::{MvmOutcome, MvmSpec};
use nanoxbar_reliability::defect::DefectMap;
use nanoxbar_reliability::mapper::{MapConfig, MapReport};

use crate::backend::{MinimizeMode, Strategy};
use crate::engine::Limits;
use crate::error::Error;
use crate::flow::FlowReport;
use crate::tech::Realization;

/// The defective chip a job maps onto, if any.
#[derive(Clone, Debug)]
pub enum ChipSpec {
    /// A fully specified defect map (e.g. from chip characterisation).
    Explicit(DefectMap),
    /// A chip drawn from the engine's fault model at `run` time —
    /// deterministic in `(size, seed)` for a fixed engine configuration.
    Random {
        /// Fabric dimensions.
        size: ArraySize,
        /// RNG seed for the defect draw.
        seed: u64,
    },
}

/// One synthesis (and optionally mapping) request.
///
/// Build with [`Job::synthesize`] or [`Job::parse`], then chain the
/// `with_*`/`on_*` configurators:
///
/// ```
/// use nanoxbar_engine::{Job, Strategy};
///
/// let job = Job::parse("x0 x1 + !x0 !x1")?
///     .with_strategy(Strategy::OptimalLattice)
///     .verified(true);
/// # Ok::<(), nanoxbar_engine::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Job {
    pub(crate) function: TruthTable,
    /// `None` selects the engine's default strategy.
    pub(crate) strategy: Option<String>,
    pub(crate) chip: Option<ChipSpec>,
    /// The chip a BISM mapping runs against, if any.
    pub(crate) map_chip: Option<ChipSpec>,
    /// BISM strategy/speculation/budget/seed for mapping jobs.
    pub(crate) map_config: MapConfig,
    /// Per-job limit overrides (each `Some` field beats the engine's).
    pub(crate) limits: Option<Limits>,
    /// `None` selects the engine's default minimise mode.
    pub(crate) minimize: Option<MinimizeMode>,
    pub(crate) verify: bool,
    pub(crate) label: Option<String>,
    /// An analog crossbar MVM workload instead of a synthesis target.
    pub(crate) mvm: Option<MvmSpec>,
    /// A multi-output synthesis target ([`Job::synthesize_multi`]):
    /// every listed output compiles onto one shared-BDD sneak-path
    /// crossbar. `function` then holds output 0 as a placeholder.
    pub(crate) multi: Option<Vec<TruthTable>>,
}

impl Job {
    /// A synthesis job for an explicit truth table.
    pub fn synthesize(function: TruthTable) -> Self {
        Job {
            function,
            strategy: None,
            chip: None,
            map_chip: None,
            map_config: MapConfig::default(),
            limits: None,
            minimize: None,
            verify: false,
            label: None,
            mvm: None,
            multi: None,
        }
    }

    /// A multi-output synthesis job: all `outputs` compile onto **one**
    /// shared-ROBDD sneak-path crossbar ([`Strategy::Bdd`] — the only
    /// strategy that accepts multi-output jobs), so common subgraphs are
    /// realised once. The realisation lands in [`JobResult::realization`]
    /// as a multi-output [`Realization`]
    /// ([`Realization::num_outputs`]` == outputs.len()`); with
    /// [`Job::verified`], *every* output is checked exhaustively.
    ///
    /// Output-set validation (non-empty, equal arities, no constants)
    /// happens at `run` time and surfaces as [`crate::Error::MultiSpec`]
    /// or [`crate::Error::ConstantFunction`]. Chip flows and BISM mapping
    /// are single-output concerns and are rejected on multi jobs.
    pub fn synthesize_multi(outputs: Vec<TruthTable>) -> Self {
        Job {
            // Placeholder target (output 0 when present); the engine
            // routes multi jobs through `outputs`, never through this.
            function: outputs
                .first()
                .cloned()
                .unwrap_or_else(|| TruthTable::ones(1)),
            strategy: Some(Strategy::Bdd.name().to_string()),
            chip: None,
            map_chip: None,
            map_config: MapConfig::default(),
            limits: None,
            minimize: None,
            verify: false,
            label: None,
            mvm: None,
            multi: Some(outputs),
        }
    }

    /// The multi-output target set, for [`Job::synthesize_multi`] jobs.
    pub fn multi_outputs(&self) -> Option<&[TruthTable]> {
        self.multi.as_deref()
    }

    /// An analog in-memory-compute job: program `spec.weights` onto a
    /// differential-pair crossbar drawn from `spec`'s chip parameters and
    /// run `spec.trials` Monte-Carlo matrix-vector products. The outcome
    /// lands in [`JobResult::mvm`]; [`JobResult::realization`] is `None`
    /// for these jobs. Spec validation happens at `run` time and
    /// surfaces as [`Error::MvmSpec`].
    pub fn mvm(spec: MvmSpec) -> Self {
        Job {
            // Placeholder target; never synthesised for mvm jobs.
            function: TruthTable::ones(1),
            strategy: None,
            chip: None,
            map_chip: None,
            map_config: MapConfig::default(),
            limits: None,
            minimize: None,
            verify: false,
            label: None,
            mvm: Some(spec),
            multi: None,
        }
    }

    /// The analog MVM spec, for [`Job::mvm`] jobs.
    pub fn mvm_spec(&self) -> Option<&MvmSpec> {
        self.mvm.as_ref()
    }

    /// A synthesis job from a Boolean expression in the paper's syntax
    /// (`"x0 x1 + !x0 !x1"`; also `'`, `^`, parentheses).
    ///
    /// # Errors
    ///
    /// [`Error::Logic`] when the expression does not parse.
    pub fn parse(expr: &str) -> Result<Self, Error> {
        Ok(Job::synthesize(parse_function(expr)?))
    }

    /// Selects a built-in strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy.name().to_string());
        self
    }

    /// Selects any registered backend by name (for custom backends).
    pub fn with_strategy_name(mut self, name: impl Into<String>) -> Self {
        self.strategy = Some(name.into());
        self
    }

    /// Additionally maps the synthesised SOP onto a defective chip through
    /// the Fig. 6(b) defect-unaware flow.
    pub fn on_chip(mut self, chip: DefectMap) -> Self {
        self.chip = Some(ChipSpec::Explicit(chip));
        self
    }

    /// Like [`Job::on_chip`], with the chip drawn from the engine's fault
    /// model (deterministic in `(size, seed)`).
    pub fn on_random_chip(mut self, size: ArraySize, seed: u64) -> Self {
        self.chip = Some(ChipSpec::Random { size, seed });
        self
    }

    /// Additionally self-maps the synthesised SOP onto a defective chip
    /// with built-in self-mapping (paper Sec. IV-B): the staged
    /// speculative-parallel `Mapper`, configured by
    /// [`Job::with_map_config`] (hybrid strategy, speculation width 4 by
    /// default). The outcome lands in [`JobResult::map`]; an exhausted
    /// search is a report with `success == false`, not an error.
    pub fn map_on_chip(mut self, chip: DefectMap) -> Self {
        self.map_chip = Some(ChipSpec::Explicit(chip));
        self
    }

    /// Like [`Job::map_on_chip`], with the chip drawn from the engine's
    /// fault model (deterministic in `(size, seed)`).
    pub fn map_on_random_chip(mut self, size: ArraySize, seed: u64) -> Self {
        self.map_chip = Some(ChipSpec::Random { size, seed });
        self
    }

    /// Sets the BISM strategy, speculation width, retry budget, and
    /// placement seed for [`Job::map_on_chip`] jobs.
    pub fn with_map_config(mut self, config: MapConfig) -> Self {
        self.map_config = config;
        self
    }

    /// Overrides the engine's per-job limits for this job only; each
    /// `Some` field takes precedence over the engine's. Lets a service
    /// bound one request's time/SAT budget without rebuilding engines.
    pub fn limited(mut self, limits: Limits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Overrides the engine's minimise mode for this job only, the way
    /// [`Job::with_strategy`] overrides its strategy. The mode is part of
    /// the [`crate::CacheKey`], so jobs under different modes never share
    /// a cached or deduplicated synthesis; one engine serves both modes.
    pub fn minimized(mut self, mode: MinimizeMode) -> Self {
        self.minimize = Some(mode);
        self
    }

    /// Requests exhaustive verification of the realisation against the
    /// target (failure becomes [`Error::Verification`]).
    pub fn verified(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Attaches a caller-side label, echoed in the [`JobResult`].
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The target function.
    pub fn function(&self) -> &TruthTable {
        &self.function
    }

    /// The requested strategy name, if any (`None` = engine default).
    pub fn strategy(&self) -> Option<&str> {
        self.strategy.as_deref()
    }
}

/// The successful outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The caller's label, echoed back.
    pub label: Option<String>,
    /// Name of the backend that ran.
    pub strategy: String,
    /// The synthesised realisation. Shared ([`Arc`]) because batch dedupe
    /// and the result cache hand the same realisation to every job that
    /// asked for the same (function, strategy). `None` for [`Job::mvm`]
    /// jobs, which produce an [`MvmOutcome`] instead.
    pub realization: Option<Arc<Realization>>,
    /// `Some(true)` when verification ran (a failed check is an
    /// [`Error::Verification`], never `Some(false)`); `None` when the job
    /// did not request it.
    pub verified: Option<bool>,
    /// The defect-unaware flow outcome, for jobs with a chip.
    pub flow: Option<FlowReport>,
    /// The BISM mapping outcome, for [`Job::map_on_chip`] jobs. An
    /// unsuccessful search is `Some(report)` with `success == false` —
    /// the pipeline worked, the chip was just too defective.
    pub map: Option<MapReport>,
    /// The analog MVM outcome, for [`Job::mvm`] jobs.
    pub mvm: Option<MvmOutcome>,
    /// Wall-clock time the job took (excluded from determinism checks).
    pub elapsed: Duration,
}

impl JobResult {
    /// Crosspoint count of the realisation — the paper's area metric.
    /// Zero for [`Job::mvm`] jobs, which carry no realisation.
    pub fn area(&self) -> usize {
        self.realization.as_ref().map_or(0, |r| r.area())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_wraps_logic_errors() {
        let err = Job::parse("x0 +").unwrap_err();
        assert!(matches!(err, Error::Logic(_)), "{err}");
    }

    #[test]
    fn builder_chain_sets_every_field() {
        let map_config = MapConfig {
            speculation: 8,
            ..MapConfig::default()
        };
        let job = Job::parse("x0 x1")
            .unwrap()
            .with_strategy(Strategy::Fet)
            .on_random_chip(ArraySize::new(8, 8), 7)
            .map_on_random_chip(ArraySize::new(16, 16), 9)
            .with_map_config(map_config)
            .limited(Limits {
                max_area: Some(64),
                ..Limits::default()
            })
            .verified(true)
            .labeled("and2");
        assert_eq!(job.strategy(), Some("fet"));
        assert!(job.verify);
        assert_eq!(job.label.as_deref(), Some("and2"));
        assert!(matches!(job.chip, Some(ChipSpec::Random { seed: 7, .. })));
        assert!(matches!(
            job.map_chip,
            Some(ChipSpec::Random { seed: 9, .. })
        ));
        assert_eq!(job.map_config, map_config);
        assert_eq!(job.limits.unwrap().max_area, Some(64));
    }
}
