//! Typed jobs and results for the batch engine.
//!
//! A [`Job`] is one unit of work — a Boolean function (optionally taken
//! onto a defective chip), a multi-output function set, or an analog MVM
//! workload — plus the options every kind shares. [`crate::Engine::run`]
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
    /// A chip drawn at `run` time with 5% defective crosspoints (3.5%
    /// stuck open, 1.5% stuck closed) — deterministic in `(size, seed)`.
    Random {
        /// Fabric dimensions.
        size: ArraySize,
        /// RNG seed for the defect draw.
        seed: u64,
    },
}

/// The fault-tolerance path a logic job takes on a defective chip.
#[derive(Clone, Debug)]
pub(crate) enum ChipTarget {
    /// The Fig. 6(b) defect-unaware flow ([`Job::on_chip`]).
    Flow(ChipSpec),
    /// Built-in self-mapping, paper Sec. IV-B ([`Job::map_on_chip`]).
    Map(ChipSpec, MapConfig),
}

/// What a [`Job`] computes: exactly one of the engine's three job kinds,
/// so a chip on a multi-output or MVM job cannot be written down.
#[derive(Clone, Debug)]
pub(crate) enum Work {
    /// One Boolean function, optionally taken onto a defective chip.
    Logic {
        function: TruthTable,
        target: Option<ChipTarget>,
    },
    /// Every output on one shared-BDD sneak-path crossbar.
    Multi(Vec<TruthTable>),
    /// An analog crossbar matrix-vector workload.
    Mvm(MvmSpec),
}

impl Work {
    /// The Boolean functions a realisation of this work must compute:
    /// one for logic jobs, every output for multi jobs, none for mvm.
    pub(crate) fn targets(&self) -> &[TruthTable] {
        match self {
            Work::Logic { function, .. } => std::slice::from_ref(function),
            Work::Multi(outputs) => outputs,
            Work::Mvm(_) => &[],
        }
    }
}

/// One unit of engine work plus the options every kind shares.
///
/// Build a synthesis job with [`Job::synthesize`] or [`Job::parse`], a
/// chip job with [`Job::on_chip`] or [`Job::map_on_chip`], a multi-output
/// job with [`Job::synthesize_multi`], or an analog job with
/// [`Job::mvm`]; then chain the shared `with_*` configurators:
///
/// ```
/// use nanoxbar_engine::{Job, Strategy};
///
/// let job = Job::parse("x0 x1 + !x0 !x1")?
///     .with_strategy(Strategy::OptimalLattice)
///     .verified(true);
/// # Ok::<(), nanoxbar_engine::Error>(())
/// ```
///
/// A chip is part of a logic job's construction, so multi-output and
/// MVM jobs cannot take one:
///
/// ```compile_fail
/// use nanoxbar_crossbar::ArraySize;
/// use nanoxbar_engine::Job;
/// use nanoxbar_logic::parse_function;
/// use nanoxbar_reliability::defect::DefectMap;
///
/// let outputs = vec![parse_function("x0 x1").unwrap()];
/// let job = Job::synthesize_multi(outputs).on_chip(DefectMap::healthy(ArraySize::new(8, 8)));
/// ```
///
/// ```compile_fail
/// use nanoxbar_crossbar::ArraySize;
/// use nanoxbar_engine::{Job, MvmSpec};
/// use nanoxbar_reliability::defect::DefectMap;
///
/// fn chipped(spec: MvmSpec) -> Job {
///     Job::mvm(spec).map_on_chip(DefectMap::healthy(ArraySize::new(8, 8)))
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Job {
    pub(crate) work: Work,
    /// `None` selects the dual-based lattice.
    pub(crate) strategy: Option<String>,
    /// The job's resource limits (unbounded by default).
    pub(crate) limits: Limits,
    /// `None` selects the engine's default minimise mode.
    pub(crate) minimize: Option<MinimizeMode>,
    pub(crate) verify: bool,
    pub(crate) label: Option<String>,
}

impl Job {
    fn new(work: Work) -> Self {
        Job {
            work,
            strategy: None,
            limits: Limits::default(),
            minimize: None,
            verify: false,
            label: None,
        }
    }

    /// A synthesis job for an explicit truth table.
    pub fn synthesize(function: TruthTable) -> Self {
        Job::new(Work::Logic {
            function,
            target: None,
        })
    }

    /// A synthesis job that additionally maps the synthesised SOP onto a
    /// defective chip through the Fig. 6(b) defect-unaware flow. The
    /// outcome lands in [`JobResult::flow`].
    pub fn on_chip(function: TruthTable, chip: ChipSpec) -> Self {
        Job::new(Work::Logic {
            function,
            target: Some(ChipTarget::Flow(chip)),
        })
    }

    /// A synthesis job that additionally self-maps the synthesised SOP
    /// onto a defective chip with built-in self-mapping (paper Sec.
    /// IV-B): the staged speculative `Mapper` under `config`
    /// (strategy, speculation width, retry budget, placement seed). The
    /// outcome lands in [`JobResult::map`]; an exhausted search is a
    /// report with `success == false`, not an error.
    pub fn map_on_chip(function: TruthTable, chip: ChipSpec, config: MapConfig) -> Self {
        Job::new(Work::Logic {
            function,
            target: Some(ChipTarget::Map(chip, config)),
        })
    }

    /// A multi-output synthesis job: all `outputs` compile onto **one**
    /// shared-ROBDD sneak-path crossbar ([`Strategy::Bdd`] — the only
    /// strategy that accepts multi-output jobs), so common subgraphs are
    /// realised once. The realisation is a multi-output [`Realization`]
    /// ([`Realization::num_outputs`]` == outputs.len()`); with
    /// [`Job::verified`], *every* output is checked exhaustively.
    ///
    /// Output-set validation (non-empty, equal arities, no constants)
    /// happens at `run` time and surfaces as [`crate::Error::MultiSpec`]
    /// or [`crate::Error::ConstantFunction`].
    pub fn synthesize_multi(outputs: Vec<TruthTable>) -> Self {
        Job::new(Work::Multi(outputs)).with_strategy(Strategy::Bdd)
    }

    /// The multi-output target set, for [`Job::synthesize_multi`] jobs.
    pub fn multi_outputs(&self) -> Option<&[TruthTable]> {
        match &self.work {
            Work::Multi(outputs) => Some(outputs),
            _ => None,
        }
    }

    /// An analog in-memory-compute job: program `spec.weights` onto a
    /// differential-pair crossbar drawn from `spec`'s chip parameters and
    /// run `spec.trials` Monte-Carlo matrix-vector products. The outcome
    /// lands in [`JobResult::mvm`]. Spec validation happens at `run` time
    /// and surfaces as [`Error::MvmSpec`].
    pub fn mvm(spec: MvmSpec) -> Self {
        Job::new(Work::Mvm(spec))
    }

    /// The analog MVM spec, for [`Job::mvm`] jobs.
    pub fn mvm_spec(&self) -> Option<&MvmSpec> {
        match &self.work {
            Work::Mvm(spec) => Some(spec),
            _ => None,
        }
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
    pub fn with_strategy(self, strategy: Strategy) -> Self {
        self.with_strategy_name(strategy.name())
    }

    /// Selects any registered backend by name (for custom backends).
    pub fn with_strategy_name(mut self, name: impl Into<String>) -> Self {
        self.strategy = Some(name.into());
        self
    }

    /// Sets this job's resource limits (a job has none by default). Lets a
    /// service bound one request's time/SAT budget without rebuilding
    /// engines.
    pub fn limited(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Overrides the engine's minimise mode
    /// ([`crate::EngineBuilder::minimize`]) for this job only. The mode is
    /// part of the [`crate::CacheKey`], so jobs under different modes never
    /// share a cached or deduplicated synthesis; one engine serves both
    /// modes.
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

    /// The target function of a single-output job.
    ///
    /// # Panics
    ///
    /// On [`Job::synthesize_multi`] and [`Job::mvm`] jobs, which have no
    /// single target ([`Job::multi_outputs`], [`Job::mvm_spec`]).
    pub fn function(&self) -> &TruthTable {
        match &self.work {
            Work::Logic { function, .. } => function,
            _ => panic!("Job::function called on a multi-output or mvm job"),
        }
    }

    /// The requested strategy name, if any (`None` = the dual-based
    /// lattice).
    pub fn strategy(&self) -> Option<&str> {
        self.strategy.as_deref()
    }
}

/// The outcome of a logic job on its chip, if it targeted one.
#[derive(Clone, Debug, PartialEq)]
pub enum ChipOutcome {
    /// The defect-unaware flow outcome, for [`Job::on_chip`] jobs.
    Flow(FlowReport),
    /// The BISM mapping outcome, for [`Job::map_on_chip`] jobs. An
    /// unsuccessful search is a report with `success == false`: the
    /// pipeline worked, the chip was just too defective.
    Map(MapReport),
}

/// What a job produced, mirroring its kind.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// A synthesis (single- or multi-output).
    Logic {
        /// The synthesised realisation. Shared ([`Arc`]) because batch
        /// dedupe and the result cache hand the same realisation to every
        /// job that asked for the same (function, strategy).
        realization: Arc<Realization>,
        /// Whether verification ran (a failed check is an
        /// [`Error::Verification`], never an output).
        verified: bool,
        /// The fault-tolerance outcome, for jobs with a chip.
        chip: Option<ChipOutcome>,
    },
    /// The analog MVM outcome, for [`Job::mvm`] jobs.
    Mvm(MvmOutcome),
}

/// The successful outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The caller's label, echoed back.
    pub label: Option<String>,
    /// Name of the backend that ran.
    pub strategy: String,
    /// What the job produced.
    pub output: JobOutput,
    /// Wall-clock time the job took (excluded from determinism checks).
    pub elapsed: Duration,
}

impl JobResult {
    /// The realisation of a synthesis job; `None` for [`Job::mvm`] jobs.
    pub fn realization(&self) -> Option<&Arc<Realization>> {
        match &self.output {
            JobOutput::Logic { realization, .. } => Some(realization),
            JobOutput::Mvm(_) => None,
        }
    }

    /// Whether the realisation was verified ([`Job::verified`]).
    pub fn verified(&self) -> bool {
        matches!(self.output, JobOutput::Logic { verified: true, .. })
    }

    /// Crosspoint count of the realisation — the paper's area metric.
    /// Zero for [`Job::mvm`] jobs, which carry no realisation.
    pub fn area(&self) -> usize {
        self.realization().map_or(0, |r| r.area())
    }

    /// The defect-unaware flow outcome, for [`Job::on_chip`] jobs.
    pub fn flow(&self) -> Option<&FlowReport> {
        match &self.output {
            JobOutput::Logic {
                chip: Some(ChipOutcome::Flow(report)),
                ..
            } => Some(report),
            _ => None,
        }
    }

    /// The BISM mapping outcome, for [`Job::map_on_chip`] jobs.
    pub fn map(&self) -> Option<&MapReport> {
        match &self.output {
            JobOutput::Logic {
                chip: Some(ChipOutcome::Map(report)),
                ..
            } => Some(report),
            _ => None,
        }
    }

    /// The analog MVM outcome, for [`Job::mvm`] jobs.
    pub fn mvm(&self) -> Option<&MvmOutcome> {
        match &self.output {
            JobOutput::Mvm(outcome) => Some(outcome),
            JobOutput::Logic { .. } => None,
        }
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
        let f = parse_function("x0 x1").unwrap();
        let job = Job::map_on_chip(
            f.clone(),
            ChipSpec::Random {
                size: ArraySize::new(16, 16),
                seed: 9,
            },
            map_config,
        )
        .with_strategy(Strategy::Fet)
        .limited(Limits {
            max_area: Some(64),
            ..Limits::default()
        })
        .verified(true)
        .labeled("and2");
        assert_eq!(job.strategy(), Some("fet"));
        assert!(job.verify);
        assert_eq!(job.label.as_deref(), Some("and2"));
        assert_eq!(job.function(), &f);
        assert!(matches!(
            job.work,
            Work::Logic {
                target: Some(ChipTarget::Map(ChipSpec::Random { seed: 9, .. }, config)),
                ..
            } if config == map_config
        ));
        assert_eq!(job.limits.max_area, Some(64));

        let flow = Job::on_chip(
            f,
            ChipSpec::Random {
                size: ArraySize::new(8, 8),
                seed: 7,
            },
        );
        assert!(matches!(
            flow.work,
            Work::Logic {
                target: Some(ChipTarget::Flow(ChipSpec::Random { seed: 7, .. })),
                ..
            }
        ));
    }
}
