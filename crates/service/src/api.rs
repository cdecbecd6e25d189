//! The service's request/response vocabulary: [`JobSpec`] (one synthesis
//! request) and its mapping onto engine [`Job`]s, plus the JSON rendering
//! of per-slot results.
//!
//! Responses are **deterministic**: no wall-clock fields, object keys in
//! fixed order, and a content [`fingerprint`] of the realization — so two
//! runs of the same job (cached or not, any thread count) produce
//! byte-identical bodies. Latency lives in `/metrics`, not in bodies.

use std::time::Duration;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{
    BismStrategy, ChipOutcome, ChipSpec, Error, Job, JobOutput, JobResult, Limits, MapConfig,
    MapReport, MinimizeMode, MvmOutcome, MvmSpec, Realization,
};
use nanoxbar_logic::parse_function;
use nanoxbar_logic::pla::parse_pla;
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};

use crate::wire::{object, Json};

/// One job of a `/v1/synthesize` or `/v1/batch` request.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct JobSpec {
    /// Boolean expression in the paper's syntax (`"x0 x1 + !x0 !x1"`).
    /// Exactly one of `expr`/`exprs`/`pla` must be set.
    pub expr: Option<String>,
    /// Multi-output job: one expression per output, all compiled onto a
    /// *single* shared-BDD sneak-path crossbar (strategy `"bdd"`).
    /// Shorter expressions are zero-extended to the widest arity.
    /// Exclusive with `chip`/`map` — the defect flow is single-output.
    pub exprs: Option<Vec<String>>,
    /// A Berkeley-format PLA body. Single-output bodies lower to an
    /// ordinary synthesis job; multi-output bodies lower to a shared-BDD
    /// multi-output job exactly like [`JobSpec::exprs`].
    pub pla: Option<String>,
    /// Backend name (`"diode"`, `"fet"`, `"dual-lattice"`,
    /// `"optimal-lattice"`, or a custom registration); `None` = engine
    /// default.
    pub strategy: Option<String>,
    /// Request exhaustive verification of the realization.
    pub verify: bool,
    /// Caller label echoed in the result.
    pub label: Option<String>,
    /// The simulated defective chip the fault-tolerance path targets.
    /// Alone it selects the defect-unaware flow; with [`JobSpec::map`]
    /// it becomes the BISM mapping target instead.
    pub chip: Option<ChipRequest>,
    /// Run built-in self-mapping on the chip (requires `chip`).
    pub map: Option<MapRequest>,
    /// An analog in-memory-compute MVM workload. Exclusive with every
    /// synthesis field — an mvm slot carries its own chip parameters.
    pub mvm: Option<MvmSpec>,
}

/// The optional chip of a [`JobSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChipRequest {
    /// Fabric rows.
    pub rows: usize,
    /// Fabric columns.
    pub cols: usize,
    /// Seed of the deterministic defect draw.
    pub seed: u64,
    /// Total defect rate (split 70/30 stuck-open/stuck-closed like the
    /// experiment binaries); `None` = 5%, the rate of
    /// [`ChipSpec::Random`] chips.
    pub defect_rate: Option<f64>,
}

/// The BISM options of a `/v1/map` request (or a map slot in a batch).
/// Every field is optional; [`MapRequest::default`] is the engine's
/// default [`MapConfig`] (hybrid:5, speculation 4, 400 attempts, seed 0).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MapRequest {
    /// `"blind"`, `"greedy"`, or `"hybrid"`; `None` = hybrid.
    pub strategy: Option<String>,
    /// Blind retries before hybrid switches to greedy (hybrid only).
    pub blind_retries: Option<u64>,
    /// Speculation width K, in `1..=64`.
    pub speculation: Option<u64>,
    /// Candidate budget, in `1..=1_000_000`.
    pub max_attempts: Option<u64>,
    /// Placement RNG seed.
    pub seed: u64,
}

impl MapRequest {
    fn from_json(v: &Json) -> Result<MapRequest, String> {
        let Json::Object(members) = v else {
            return Err("\"map\" must be a JSON object".into());
        };
        let mut request = MapRequest::default();
        for (key, value) in members {
            match key.as_str() {
                "strategy" => request.strategy = Some(string_field(value, "strategy")?),
                "blind_retries" => {
                    request.blind_retries = Some(value.as_u64().ok_or_else(|| {
                        "\"blind_retries\" must be a non-negative integer".to_string()
                    })?)
                }
                "speculation" => {
                    request.speculation = Some(budget_field(value, "speculation", 1, 64)?)
                }
                "max_attempts" => {
                    request.max_attempts = Some(budget_field(value, "max_attempts", 1, 1_000_000)?)
                }
                "seed" => {
                    request.seed = value
                        .as_u64()
                        .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?
                }
                other => return Err(format!("unknown map field {other:?}")),
            }
        }
        // Validate the strategy spelling eagerly so a bad spec 400s
        // instead of poisoning its slot later.
        request.config()?;
        Ok(request)
    }

    fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        if let Some(strategy) = &self.strategy {
            members.push(("strategy".into(), Json::Str(strategy.clone())));
        }
        if let Some(retries) = self.blind_retries {
            members.push(("blind_retries".into(), Json::from(retries)));
        }
        if let Some(speculation) = self.speculation {
            members.push(("speculation".into(), Json::from(speculation)));
        }
        if let Some(attempts) = self.max_attempts {
            members.push(("max_attempts".into(), Json::from(attempts)));
        }
        if self.seed != 0 {
            members.push(("seed".into(), Json::from(self.seed)));
        }
        Json::Object(members)
    }

    /// Lowers the request to the engine's [`MapConfig`].
    ///
    /// # Errors
    ///
    /// A message for unknown strategies or `blind_retries` on a
    /// non-hybrid strategy.
    pub fn config(&self) -> Result<MapConfig, String> {
        let defaults = MapConfig::default();
        let strategy = match self.strategy.as_deref() {
            None | Some("hybrid") => BismStrategy::Hybrid {
                blind_retries: self.blind_retries.unwrap_or(5),
            },
            Some(other) => {
                if self.blind_retries.is_some() {
                    return Err("\"blind_retries\" only applies to \"hybrid\"".into());
                }
                match other {
                    "blind" => BismStrategy::Blind,
                    "greedy" => BismStrategy::Greedy,
                    _ => {
                        return Err(format!(
                            "unknown map strategy {other:?} (blind, greedy, hybrid)"
                        ))
                    }
                }
            }
        };
        Ok(MapConfig {
            strategy,
            speculation: self.speculation.unwrap_or(defaults.speculation as u64) as usize,
            max_attempts: self.max_attempts.unwrap_or(defaults.max_attempts),
            seed: self.seed,
        })
    }
}

/// Reads the analog MVM workload of a `/v1/mvm` request (or an mvm slot
/// in a batch): `rows` and `cols` in `1..=4096`, row-major `weights`, the
/// `input` vector, and the chip the weights are programmed onto —
/// `chip_seed`, `p_open`, `p_closed` and `noise_sigma` default to 0,
/// `trials` (in `1..=4096`) to 1. Only the structure is checked here;
/// [`JobSpec::to_job`] validates the values.
fn mvm_from_json(v: &Json) -> Result<MvmSpec, String> {
    let Json::Object(members) = v else {
        return Err("\"mvm\" must be a JSON object".into());
    };
    let (mut rows, mut cols, mut weights, mut input) = (None, None, None, None);
    let mut spec = MvmSpec {
        rows: 0,
        cols: 0,
        weights: Vec::new(),
        input: Vec::new(),
        chip_seed: 0,
        p_open: 0.0,
        p_closed: 0.0,
        noise_sigma: 0.0,
        trials: 1,
    };
    for (key, value) in members {
        match key.as_str() {
            "rows" => rows = Some(dimension_field(value, "rows")?),
            "cols" => cols = Some(dimension_field(value, "cols")?),
            "weights" => weights = Some(f32_array_field(value, "weights")?),
            "input" => input = Some(f32_array_field(value, "input")?),
            "chip_seed" => {
                spec.chip_seed = value
                    .as_u64()
                    .ok_or_else(|| "\"chip_seed\" must be a non-negative integer".to_string())?
            }
            "p_open" => spec.p_open = float_field(value, "p_open")?,
            "p_closed" => spec.p_closed = float_field(value, "p_closed")?,
            "noise_sigma" => spec.noise_sigma = float_field(value, "noise_sigma")? as f32,
            "trials" => {
                spec.trials = budget_field(value, "trials", 1, 4096)? as u32;
            }
            other => return Err(format!("unknown mvm field {other:?}")),
        }
    }
    spec.rows = rows.ok_or("\"mvm\" needs \"rows\"")?;
    spec.cols = cols.ok_or("\"mvm\" needs \"cols\"")?;
    spec.weights = weights.ok_or("\"mvm\" needs \"weights\"")?;
    spec.input = input.ok_or("\"mvm\" needs \"input\"")?;
    Ok(spec)
}

/// The JSON object form of an mvm workload (inverse of `mvm_from_json`;
/// defaulted fields are left out).
fn mvm_to_json(spec: &MvmSpec) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("rows".into(), Json::from(spec.rows)),
        ("cols".into(), Json::from(spec.cols)),
        ("weights".into(), f32_json_array(&spec.weights)),
        ("input".into(), f32_json_array(&spec.input)),
    ];
    if spec.chip_seed != 0 {
        members.push(("chip_seed".into(), Json::from(spec.chip_seed)));
    }
    if spec.p_open != 0.0 {
        members.push(("p_open".into(), Json::Float(spec.p_open)));
    }
    if spec.p_closed != 0.0 {
        members.push(("p_closed".into(), Json::Float(spec.p_closed)));
    }
    if spec.noise_sigma != 0.0 {
        members.push((
            "noise_sigma".into(),
            Json::Float(f64::from(spec.noise_sigma)),
        ));
    }
    if spec.trials != 1 {
        members.push(("trials".into(), Json::from(u64::from(spec.trials))));
    }
    Json::Object(members)
}

impl JobSpec {
    /// A spec synthesising `expr` with every option defaulted.
    pub fn expr(expr: impl Into<String>) -> Self {
        JobSpec {
            expr: Some(expr.into()),
            ..JobSpec::default()
        }
    }

    /// A spec synthesising a single-output PLA body.
    pub fn pla(body: impl Into<String>) -> Self {
        JobSpec {
            pla: Some(body.into()),
            ..JobSpec::default()
        }
    }

    /// Reads a spec from its JSON object form.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown fields, type mismatches, or a
    /// missing/ambiguous function.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let Json::Object(members) = v else {
            return Err("job must be a JSON object".into());
        };
        let mut spec = JobSpec::default();
        for (key, value) in members {
            match key.as_str() {
                "expr" => spec.expr = Some(string_field(value, "expr")?),
                "exprs" => spec.exprs = Some(string_array_field(value, "exprs")?),
                "pla" => spec.pla = Some(string_field(value, "pla")?),
                "strategy" => spec.strategy = Some(string_field(value, "strategy")?),
                "label" => spec.label = Some(string_field(value, "label")?),
                "verify" => {
                    spec.verify = value
                        .as_bool()
                        .ok_or_else(|| "\"verify\" must be a boolean".to_string())?
                }
                "chip" => spec.chip = Some(ChipRequest::from_json(value)?),
                "map" => spec.map = Some(MapRequest::from_json(value)?),
                "mvm" => spec.mvm = Some(mvm_from_json(value)?),
                other => return Err(format!("unknown job field {other:?}")),
            }
        }
        if spec.map.is_some() && spec.chip.is_none() {
            return Err("\"map\" needs a \"chip\" to map onto".into());
        }
        if spec.mvm.is_some() {
            if spec.expr.is_some()
                || spec.exprs.is_some()
                || spec.pla.is_some()
                || spec.strategy.is_some()
                || spec.verify
                || spec.chip.is_some()
                || spec.map.is_some()
            {
                return Err("\"mvm\" cannot be combined with synthesis fields \
                     (expr, exprs, pla, strategy, verify, chip, map)"
                    .into());
            }
            return Ok(spec);
        }
        let sources = [
            spec.expr.is_some(),
            spec.exprs.is_some(),
            spec.pla.is_some(),
        ]
        .into_iter()
        .filter(|&set| set)
        .count();
        match sources {
            0 => Err("job needs an \"expr\", \"exprs\", a \"pla\", or an \"mvm\"".into()),
            1 => {
                if spec.exprs.is_some() && (spec.chip.is_some() || spec.map.is_some()) {
                    return Err("multi-output \"exprs\" cannot target a \"chip\" \
                         (the defect flow is single-output)"
                        .into());
                }
                Ok(spec)
            }
            _ => Err("job cannot have both \"expr\" and \"pla\" \
                 (exactly one of \"expr\"/\"exprs\"/\"pla\")"
                .into()),
        }
    }

    /// The JSON object form (inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        if let Some(expr) = &self.expr {
            members.push(("expr".into(), Json::Str(expr.clone())));
        }
        if let Some(exprs) = &self.exprs {
            members.push((
                "exprs".into(),
                Json::Array(exprs.iter().map(|e| Json::Str(e.clone())).collect()),
            ));
        }
        if let Some(pla) = &self.pla {
            members.push(("pla".into(), Json::Str(pla.clone())));
        }
        if let Some(strategy) = &self.strategy {
            members.push(("strategy".into(), Json::Str(strategy.clone())));
        }
        if self.verify {
            members.push(("verify".into(), Json::Bool(true)));
        }
        if let Some(label) = &self.label {
            members.push(("label".into(), Json::Str(label.clone())));
        }
        if let Some(chip) = &self.chip {
            members.push(("chip".into(), chip.to_json()));
        }
        if let Some(map) = &self.map {
            members.push(("map".into(), map.to_json()));
        }
        if let Some(mvm) = &self.mvm {
            members.push(("mvm".into(), mvm_to_json(mvm)));
        }
        Json::Object(members)
    }

    /// Lowers the spec to an engine [`Job`].
    ///
    /// # Errors
    ///
    /// A message for unparsable expressions/PLA bodies, an invalid mvm
    /// workload, a multi-output PLA under a strategy other than `"bdd"`,
    /// or a multi-output job with a `"chip"`.
    pub fn to_job(&self) -> Result<Job, String> {
        let single = |function| -> Result<Job, String> {
            Ok(match (&self.chip, &self.map) {
                (None, _) => Job::synthesize(function),
                // A map request redirects the chip to BISM self-mapping;
                // the defect-unaware flow is the chip-only default.
                (Some(chip), Some(map)) => Job::map_on_chip(function, chip.spec(), map.config()?),
                (Some(chip), None) => Job::on_chip(function, chip.spec()),
            })
        };
        let mut job = match (&self.expr, &self.exprs, &self.pla, &self.mvm) {
            (Some(expr), None, None, None) => {
                let f = parse_function(expr)
                    .map_err(|e| format!("bad expression: {}", Error::from(e)))?;
                single(f)?
            }
            (None, Some(exprs), None, None) => {
                if exprs.is_empty() {
                    return Err("\"exprs\" must name at least one output".into());
                }
                let mut outputs = Vec::with_capacity(exprs.len());
                for (i, expr) in exprs.iter().enumerate() {
                    let f = parse_function(expr)
                        .map_err(|e| format!("bad expression in exprs[{i}]: {e}"))?;
                    outputs.push(f);
                }
                // Outputs of one crossbar share one input bus: align every
                // function to the widest arity before compiling.
                let arity = outputs.iter().map(|f| f.num_vars()).max().unwrap_or(1);
                let outputs = outputs
                    .into_iter()
                    .map(|f| {
                        let extra = arity - f.num_vars();
                        f.extend_vars(extra)
                    })
                    .collect();
                Job::synthesize_multi(outputs)
            }
            (None, None, Some(body), None) => {
                let pla = parse_pla(body).map_err(|e| format!("bad PLA: {e}"))?;
                match pla.outputs.as_slice() {
                    [] => return Err("PLA declares 0 outputs".into()),
                    [only] => single(only.to_truth_table())?,
                    outputs => {
                        // A multi-output body is a multi-output job: every
                        // column compiles onto one shared-BDD crossbar.
                        // Only the "bdd" strategy realises those.
                        if !matches!(self.strategy.as_deref(), None | Some("bdd")) {
                            return Err(format!(
                                "PLA has {} outputs; only strategy \"bdd\" realises \
                                 multi-output jobs (or submit one job per output)",
                                outputs.len()
                            ));
                        }
                        Job::synthesize_multi(
                            outputs.iter().map(|cover| cover.to_truth_table()).collect(),
                        )
                    }
                }
            }
            // Validation happens here — at the boundary — so a bad mvm
            // spec fails its own slot (batch) or 400s (one-shot) instead
            // of tripping an assert on a pool worker.
            (None, None, None, Some(mvm)) => {
                mvm.validate()?;
                Job::mvm(mvm.clone())
            }
            _ => return Err("job needs exactly one of \"expr\"/\"exprs\"/\"pla\"".into()),
        };
        if let (Some(outputs), Some(_)) = (job.multi_outputs(), &self.chip) {
            return Err(format!(
                "a multi-output job ({} outputs) cannot target a \"chip\" \
                 (the defect flow is single-output)",
                outputs.len()
            ));
        }
        if let Some(strategy) = &self.strategy {
            job = job.with_strategy_name(strategy.clone());
        }
        if let Some(label) = &self.label {
            job = job.labeled(label.clone());
        }
        Ok(job.verified(self.verify))
    }
}

impl ChipRequest {
    /// The engine chip this request names: an explicit rate pins the
    /// whole defect draw in the request; otherwise the engine draws a
    /// [`ChipSpec::Random`] chip.
    fn spec(&self) -> ChipSpec {
        let size = ArraySize::new(self.rows, self.cols);
        match self.defect_rate {
            Some(rate) => ChipSpec::Explicit(DefectMap::random_uniform(
                size,
                rate * 0.7,
                rate * 0.3,
                self.seed,
            )),
            None => ChipSpec::Random {
                size,
                seed: self.seed,
            },
        }
    }

    fn from_json(v: &Json) -> Result<ChipRequest, String> {
        let Json::Object(members) = v else {
            return Err("\"chip\" must be a JSON object".into());
        };
        let mut rows = None;
        let mut cols = None;
        let mut seed = 0u64;
        let mut defect_rate = None;
        for (key, value) in members {
            match key.as_str() {
                "rows" => rows = Some(dimension_field(value, "rows")?),
                "cols" => cols = Some(dimension_field(value, "cols")?),
                "seed" => {
                    seed = value
                        .as_u64()
                        .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?
                }
                "defect_rate" => {
                    let rate = value
                        .as_f64()
                        .ok_or_else(|| "\"defect_rate\" must be a number".to_string())?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err("\"defect_rate\" must be in [0, 1]".into());
                    }
                    defect_rate = Some(rate);
                }
                other => return Err(format!("unknown chip field {other:?}")),
            }
        }
        Ok(ChipRequest {
            rows: rows.ok_or("\"chip\" needs \"rows\"")?,
            cols: cols.ok_or("\"chip\" needs \"cols\"")?,
            seed,
            defect_rate,
        })
    }

    fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("rows".into(), Json::from(self.rows)),
            ("cols".into(), Json::from(self.cols)),
            ("seed".into(), Json::from(self.seed)),
        ];
        if let Some(rate) = self.defect_rate {
            members.push(("defect_rate".into(), Json::Float(rate)));
        }
        Json::Object(members)
    }
}

fn string_field(v: &Json, name: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{name:?} must be a string"))
}

/// Largest accepted multi-output `exprs` list (the shared-BDD compiler is
/// exponential in the worst case; the bound keeps one slot from holding a
/// pool worker).
const MAX_EXPRS: usize = 64;

fn string_array_field(v: &Json, name: &str) -> Result<Vec<String>, String> {
    let values = v
        .as_array()
        .ok_or_else(|| format!("{name:?} must be an array of strings"))?;
    if values.len() > MAX_EXPRS {
        return Err(format!(
            "{name:?} holds {} outputs, more than the accepted {MAX_EXPRS}",
            values.len()
        ));
    }
    values
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{name:?} must be an array of strings"))
        })
        .collect()
}

fn float_field(v: &Json, name: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("{name:?} must be a number"))
}

/// Largest accepted `weights`/`input` array (matches the engine's
/// `MvmSpec` area ceiling).
const MAX_F32_ARRAY: usize = 1 << 20;

fn f32_array_field(v: &Json, name: &str) -> Result<Vec<f32>, String> {
    let values = v
        .as_array()
        .ok_or_else(|| format!("{name:?} must be an array of numbers"))?;
    if values.len() > MAX_F32_ARRAY {
        return Err(format!(
            "{name:?} holds {} values, more than the accepted {MAX_F32_ARRAY}",
            values.len()
        ));
    }
    values
        .iter()
        .map(|x| {
            x.as_f64()
                .map(|f| f as f32)
                .ok_or_else(|| format!("{name:?} must be an array of numbers"))
        })
        .collect()
}

/// f32 values on the wire: widened to f64 (exact — every f32 is an f64),
/// so rendering inherits the wire layer's deterministic float format and
/// responses stay byte-identical across runs and replicas.
fn f32_json_array(values: &[f32]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Float(f64::from(v))).collect())
}

fn dimension_field(v: &Json, name: &str) -> Result<usize, String> {
    let value = v
        .as_u64()
        .ok_or_else(|| format!("{name:?} must be a positive integer"))?;
    if value == 0 || value > 4096 {
        return Err(format!("{name:?} must be in 1..=4096"));
    }
    Ok(value as usize)
}

/// A bounded integer budget field; out-of-range values are rejected so a
/// request cannot hold a pool worker indefinitely (or starve itself).
fn budget_field(v: &Json, name: &str, min: u64, max: u64) -> Result<u64, String> {
    let value = v
        .as_u64()
        .ok_or_else(|| format!("{name:?} must be a positive integer"))?;
    if !(min..=max).contains(&value) {
        return Err(format!("{name:?} must be in {min}..={max}"));
    }
    Ok(value)
}

/// Largest accepted per-request time budget (one minute).
const MAX_TIME_MS: u64 = 60_000;
/// Largest accepted per-request SAT conflict budget.
const MAX_SAT_CONFLICTS: u64 = 1_000_000_000;

/// Parses the optional top-level `"limits"` request object into per-job
/// engine [`Limits`]: `{"time_ms": 1..=60000, "sat_conflicts":
/// 1..=10^9}`. Out-of-range budgets are rejected — the hardening contract
/// is that no accepted request can hold a pool worker indefinitely.
///
/// # Errors
///
/// A message naming the offending field and its accepted range.
pub fn parse_limits(v: Option<&Json>) -> Result<Option<Limits>, String> {
    let Some(v) = v else { return Ok(None) };
    let Json::Object(members) = v else {
        return Err("\"limits\" must be a JSON object".into());
    };
    let mut limits = Limits::default();
    for (key, value) in members {
        match key.as_str() {
            "time_ms" => {
                limits.time = Some(Duration::from_millis(budget_field(
                    value,
                    "time_ms",
                    1,
                    MAX_TIME_MS,
                )?))
            }
            "sat_conflicts" => {
                limits.sat_conflicts =
                    Some(budget_field(value, "sat_conflicts", 1, MAX_SAT_CONFLICTS)?)
            }
            other => return Err(format!("unknown limits field {other:?}")),
        }
    }
    Ok(Some(limits))
}

/// A short machine-matchable tag for each error variant.
pub fn error_kind(e: &Error) -> &'static str {
    match e {
        Error::Logic(_) => "logic",
        Error::Flow(_) => "flow",
        Error::Synth(_) => "synthesis",
        Error::ConstantFunction { .. } => "constant-function",
        Error::UnknownStrategy { .. } => "unknown-strategy",
        Error::MvmSpec { .. } => "mvm-spec",
        Error::MultiSpec { .. } => "multi-spec",
        Error::MapConfig { .. } => "map-config",
        Error::MapFabric { .. } => "map-fabric",
        Error::AreaLimit { .. } => "area-limit",
        Error::TimeLimit { .. } => "time-limit",
        Error::Verification { .. } => "verification",
        Error::Panicked { .. } => "panicked",
        _ => "other",
    }
}

/// FNV-1a content fingerprint of a realization (stable across runs,
/// processes, and thread counts — `Realization` derives a deterministic
/// `Debug`). Lets clients and the load generator assert that cached and
/// fresh responses carry the *same* realization, not just the same area.
pub fn fingerprint(realization: &Realization) -> String {
    let mut hash: u64 = 0xCBF29CE484222325;
    for byte in format!("{realization:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001B3);
    }
    format!("{hash:016x}")
}

/// Renders one batch slot as its wire object.
pub fn result_to_json(slot: &Result<JobResult, Error>) -> Json {
    let result = match slot {
        Ok(result) => result,
        Err(e) => return bad_slot(error_kind(e), &e.to_string()),
    };
    let (realization, verified, chip) = match &result.output {
        JobOutput::Mvm(outcome) => return mvm_result_to_json(result, outcome),
        JobOutput::Logic {
            realization,
            verified,
            chip,
        } => (realization, *verified, chip),
    };
    let size = realization.size();
    let mut members: Vec<(String, Json)> = vec![
        ("ok".into(), Json::Bool(true)),
        ("strategy".into(), Json::Str(result.strategy.clone())),
        (
            "technology".into(),
            Json::Str(realization.technology().name().into()),
        ),
        ("rows".into(), Json::from(size.rows)),
        ("cols".into(), Json::from(size.cols)),
        ("area".into(), Json::from(realization.area())),
        ("fingerprint".into(), Json::Str(fingerprint(realization))),
    ];
    // Multi-output realizations say how many functions share the
    // crossbar; single-output bodies keep their historical shape.
    if realization.num_outputs() > 1 {
        members.push(("outputs".into(), Json::from(realization.num_outputs())));
    }
    if verified {
        members.push(("verified".into(), Json::Bool(true)));
    }
    if let Some(label) = &result.label {
        members.push(("label".into(), Json::Str(label.clone())));
    }
    match chip {
        None => {}
        Some(ChipOutcome::Flow(flow)) => members.push((
            "flow".into(),
            object(vec![
                ("bist_passed", Json::Bool(flow.bist_passed)),
                ("recovered_k", Json::from(flow.recovered.k())),
                ("products", Json::from(flow.products)),
                ("used_cols", Json::from(flow.used_cols)),
                (
                    "placement",
                    Json::Array(flow.placement.iter().map(|&r| Json::from(r)).collect()),
                ),
            ]),
        )),
        Some(ChipOutcome::Map(map)) => members.push(("map".into(), map_to_json(map))),
    }
    Json::Object(members)
}

/// Renders an mvm slot: dimensions, the chip's defect count, the ideal
/// and analog output vectors (f32 widened exactly to f64), and the
/// Monte-Carlo RMS error statistics. No clocks — identical requests give
/// byte-identical mvm objects on every run, thread count, and replica.
fn mvm_result_to_json(result: &JobResult, outcome: &MvmOutcome) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("ok".into(), Json::Bool(true)),
        ("strategy".into(), Json::Str(result.strategy.clone())),
        ("rows".into(), Json::from(outcome.rows)),
        ("cols".into(), Json::from(outcome.cols)),
        ("trials".into(), Json::from(u64::from(outcome.trials))),
        ("defects".into(), Json::from(outcome.defects)),
        ("ideal".into(), f32_json_array(&outcome.ideal)),
        ("output".into(), f32_json_array(&outcome.output)),
        ("rms_error_mean".into(), Json::Float(outcome.rms_error_mean)),
        ("rms_error_max".into(), Json::Float(outcome.rms_error_max)),
    ];
    if let Some(label) = &result.label {
        members.push(("label".into(), Json::Str(label.clone())));
    }
    Json::Object(members)
}

/// Renders a [`MapReport`] as its deterministic wire object: counters,
/// the committed placement (success only), and the sorted defect
/// knowledge base as `[row, col, "stuck-open"|"stuck-closed"]` triples.
/// No clocks — identical requests give byte-identical map objects.
pub fn map_to_json(map: &MapReport) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("success".into(), Json::Bool(map.stats.success)),
        ("strategy".into(), Json::Str(map.strategy.to_string())),
        ("speculation".into(), Json::from(map.speculation)),
        ("rounds".into(), Json::from(map.rounds)),
        ("attempts".into(), Json::from(map.stats.attempts)),
        ("bist_runs".into(), Json::from(map.stats.bist_runs)),
        ("bisd_runs".into(), Json::from(map.stats.bisd_runs)),
    ];
    if let Some(mapping) = &map.mapping {
        members.push((
            "mapping".into(),
            Json::Array(mapping.iter().map(|&r| Json::from(r)).collect()),
        ));
    }
    members.push((
        "known_bad".into(),
        Json::Array(
            map.known_bad
                .iter()
                .map(|&(r, c, health)| {
                    let kind = match health {
                        CrosspointHealth::StuckOpen => "stuck-open",
                        CrosspointHealth::StuckClosed => "stuck-closed",
                        CrosspointHealth::Good => "good",
                    };
                    Json::Array(vec![Json::from(r), Json::from(c), Json::Str(kind.into())])
                })
                .collect(),
        ),
    ));
    Json::Object(members)
}

/// The wire object of a failed slot (engine errors and spec errors share
/// one shape).
pub fn bad_slot(kind: &str, message: &str) -> Json {
    object(vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::Str(kind.into())),
        ("error", Json::Str(message.into())),
    ])
}

/// Parses the optional `"minimize"` request field.
///
/// # Errors
///
/// A message naming the accepted spellings.
pub fn parse_minimize(v: Option<&Json>) -> Result<MinimizeMode, String> {
    match v.map(|m| m.as_str()) {
        None => Ok(MinimizeMode::Isop),
        Some(Some("isop")) => Ok(MinimizeMode::Isop),
        Some(Some("exact")) => Ok(MinimizeMode::Exact),
        _ => Err("\"minimize\" must be \"isop\" or \"exact\"".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_engine::{Engine, Strategy};

    #[test]
    fn spec_json_roundtrips() {
        let spec = JobSpec {
            expr: Some("x0 x1 + !x0 !x1".into()),
            exprs: None,
            pla: None,
            strategy: Some("diode".into()),
            verify: true,
            label: Some("xnor".into()),
            chip: Some(ChipRequest {
                rows: 16,
                cols: 16,
                seed: 5,
                defect_rate: Some(0.05),
            }),
            map: Some(MapRequest {
                strategy: Some("greedy".into()),
                blind_retries: None,
                speculation: Some(8),
                max_attempts: Some(250),
                seed: 7,
            }),
            mvm: None,
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_validation_messages() {
        for (body, needle) in [
            ("{}", "expr"),
            ("{\"expr\":\"x0\",\"pla\":\".i 1\"}", "both"),
            ("{\"expr\":\"x0\",\"exprs\":[\"x1\"]}", "exactly one"),
            ("{\"exprs\":\"x0\"}", "array of strings"),
            ("{\"exprs\":[1]}", "array of strings"),
            (
                "{\"exprs\":[\"x0\"],\"chip\":{\"rows\":4,\"cols\":4}}",
                "cannot target a \"chip\"",
            ),
            ("{\"expr\":1}", "string"),
            ("{\"bogus\":1}", "unknown job field"),
            ("{\"expr\":\"x0\",\"chip\":{\"rows\":4}}", "cols"),
            (
                "{\"expr\":\"x0\",\"chip\":{\"rows\":0,\"cols\":4}}",
                "1..=4096",
            ),
            (
                "{\"expr\":\"x0\",\"chip\":{\"rows\":4,\"cols\":4,\"defect_rate\":7.0}}",
                "[0, 1]",
            ),
            ("{\"expr\":\"x0\",\"map\":{}}", "needs a \"chip\""),
            (
                "{\"expr\":\"x0\",\"chip\":{\"rows\":4,\"cols\":4},\"map\":{\"speculation\":0}}",
                "1..=64",
            ),
            (
                "{\"expr\":\"x0\",\"chip\":{\"rows\":4,\"cols\":4},\
                 \"map\":{\"max_attempts\":9999999}}",
                "1..=1000000",
            ),
            (
                "{\"expr\":\"x0\",\"chip\":{\"rows\":4,\"cols\":4},\
                 \"map\":{\"strategy\":\"psychic\"}}",
                "unknown map strategy",
            ),
            (
                "{\"expr\":\"x0\",\"chip\":{\"rows\":4,\"cols\":4},\
                 \"map\":{\"strategy\":\"blind\",\"blind_retries\":3}}",
                "only applies",
            ),
        ] {
            let err = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn specs_lower_to_equivalent_jobs() {
        let spec = JobSpec {
            strategy: Some(Strategy::Diode.name().into()),
            verify: true,
            ..JobSpec::expr("x0 x1 + !x0 !x1")
        };
        let engine = Engine::new();
        let result = engine.run(&spec.to_job().unwrap()).unwrap();
        assert_eq!(result.realization().unwrap().size().to_string(), "2x5");

        // The same function as a PLA body gives the same realization.
        let cover =
            nanoxbar_logic::isop_cover(&nanoxbar_logic::parse_function("x0 x1 + !x0 !x1").unwrap());
        let pla_spec = JobSpec::pla(nanoxbar_logic::pla::write_pla(&cover));
        let pla_spec = JobSpec {
            strategy: Some("diode".into()),
            ..pla_spec
        };
        let pla_result = engine.run(&pla_spec.to_job().unwrap()).unwrap();
        assert_eq!(pla_result.realization(), result.realization());
        assert_eq!(
            fingerprint(pla_result.realization().unwrap()),
            fingerprint(result.realization().unwrap())
        );
    }

    #[test]
    fn results_render_without_timing_fields() {
        let engine = Engine::new();
        let spec = JobSpec {
            verify: true,
            label: Some("j".into()),
            ..JobSpec::expr("x0 + x1")
        };
        let json = result_to_json(&engine.run(&spec.to_job().unwrap()));
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("verified"), Some(&Json::Bool(true)));
        assert_eq!(json.get("label").unwrap().as_str(), Some("j"));
        assert!(json.get("elapsed").is_none(), "bodies stay deterministic");
        let err = result_to_json(&Err(Error::ConstantFunction { num_vars: 2 }));
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("constant-function"));
    }

    #[test]
    fn map_specs_lower_to_map_jobs_and_render() {
        let engine = Engine::new();
        let json = Json::parse(
            "{\"expr\":\"x0 x1 + !x0 !x1\",\
             \"chip\":{\"rows\":16,\"cols\":16,\"seed\":3,\"defect_rate\":0.05},\
             \"map\":{\"strategy\":\"greedy\",\"speculation\":4,\"seed\":9}}",
        )
        .unwrap();
        let spec = JobSpec::from_json(&json).unwrap();
        let result = engine.run(&spec.to_job().unwrap()).unwrap();
        let report = result.map().expect("map slot carries a report");
        assert!(report.stats.success);
        assert!(result.flow().is_none(), "map replaces the flow");

        let rendered = result_to_json(&Ok(result));
        let map = rendered.get("map").expect("rendered map object");
        assert_eq!(map.get("success"), Some(&Json::Bool(true)));
        assert_eq!(map.get("strategy").unwrap().as_str(), Some("greedy"));
        assert_eq!(map.get("speculation").unwrap().as_u64(), Some(4));
        assert_eq!(
            map.get("mapping").unwrap().as_array().unwrap().len(),
            2,
            "one row per product"
        );
        assert!(map.get("known_bad").unwrap().as_array().is_some());
    }

    fn mvm_request(rows: usize, cols: usize) -> MvmSpec {
        MvmSpec {
            rows,
            cols,
            weights: vec![0.5; rows * cols],
            input: vec![1.0; cols],
            chip_seed: 3,
            p_open: 0.02,
            p_closed: 0.01,
            noise_sigma: 0.05,
            trials: 2,
        }
    }

    #[test]
    fn mvm_specs_roundtrip_and_lower_to_mvm_jobs() {
        let spec = JobSpec {
            label: Some("analog".into()),
            mvm: Some(mvm_request(2, 3)),
            ..JobSpec::default()
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        let engine = Engine::new();
        let result = engine.run(&spec.to_job().unwrap()).unwrap();
        assert_eq!(result.strategy, "analog-mvm");
        assert!(result.realization().is_none());
        let rendered = result_to_json(&Ok(result));
        assert_eq!(rendered.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            rendered.get("strategy").unwrap().as_str(),
            Some("analog-mvm")
        );
        assert_eq!(rendered.get("rows").unwrap().as_u64(), Some(2));
        assert_eq!(rendered.get("trials").unwrap().as_u64(), Some(2));
        assert_eq!(rendered.get("label").unwrap().as_str(), Some("analog"));
        assert_eq!(rendered.get("ideal").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(rendered.get("output").unwrap().as_array().unwrap().len(), 2);
        assert!(rendered.get("rms_error_mean").is_some());
        assert!(rendered.get("fingerprint").is_none(), "mvm has no lattice");
        assert!(
            rendered.get("elapsed").is_none(),
            "bodies stay deterministic"
        );
    }

    #[test]
    fn mvm_parse_errors_name_the_field() {
        for (body, needle) in [
            ("{\"mvm\":[]}", "must be a JSON object"),
            ("{\"mvm\":{}}", "needs \"rows\""),
            ("{\"mvm\":{\"rows\":2,\"cols\":0}}", "1..=4096"),
            (
                "{\"mvm\":{\"rows\":2,\"cols\":2,\"weights\":\"x\"}}",
                "array of numbers",
            ),
            (
                "{\"mvm\":{\"rows\":2,\"cols\":2,\"weights\":[0,0,0,0],\
                 \"input\":[0,0],\"trials\":0}}",
                "1..=4096",
            ),
            (
                "{\"mvm\":{\"rows\":2,\"cols\":2,\"weights\":[0,0,0,0],\
                 \"input\":[0,0],\"bogus\":1}}",
                "unknown mvm field",
            ),
            (
                "{\"expr\":\"x0\",\"mvm\":{\"rows\":1,\"cols\":1,\
                 \"weights\":[1],\"input\":[1]}}",
                "cannot be combined",
            ),
        ] {
            let err = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn bad_mvm_specs_fail_at_the_boundary_not_as_asserts() {
        // Parses fine (every field structurally valid) but is a bad spec:
        // the probabilities sum past 1, which would trip
        // DefectMap::random_uniform's assert on a worker thread.
        let mut bad = mvm_request(2, 2);
        bad.p_open = 0.8;
        bad.p_closed = 0.7;
        let spec = JobSpec {
            mvm: Some(bad),
            ..JobSpec::default()
        };
        let err = spec.to_job().unwrap_err();
        assert!(err.contains("p_open + p_closed"), "{err}");
        for (p_open, p_closed, sigma, needle) in [
            (-0.1, 0.0, 0.0, "p_open"),
            (0.0, f64::NAN, 0.0, "p_closed"),
            (0.0, 0.0, f32::NAN, "noise_sigma"),
        ] {
            let mut bad = mvm_request(2, 2);
            bad.p_open = p_open;
            bad.p_closed = p_closed;
            bad.noise_sigma = sigma;
            let spec = JobSpec {
                mvm: Some(bad),
                ..JobSpec::default()
            };
            let err = spec.to_job().unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn limits_parsing_rejects_out_of_range_budgets() {
        assert_eq!(parse_limits(None).unwrap(), None);
        let limits = parse_limits(Some(
            &Json::parse("{\"time_ms\":250,\"sat_conflicts\":1000}").unwrap(),
        ))
        .unwrap()
        .unwrap();
        assert_eq!(limits.time, Some(Duration::from_millis(250)));
        assert_eq!(limits.sat_conflicts, Some(1000));
        assert_eq!(limits.max_area, None);
        for (body, needle) in [
            ("{\"time_ms\":0}", "1..=60000"),
            ("{\"time_ms\":3600000}", "1..=60000"),
            ("{\"sat_conflicts\":0}", "1..=1000000000"),
            ("{\"budget\":1}", "unknown limits field"),
            ("[1]", "must be a JSON object"),
        ] {
            let err = parse_limits(Some(&Json::parse(body).unwrap())).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn multi_expr_specs_roundtrip_and_render_outputs() {
        let spec = JobSpec {
            exprs: Some(vec!["x0 ^ x1 ^ x2".into(), "x0 x1 + x0 x2 + x1 x2".into()]),
            verify: true,
            label: Some("adder".into()),
            ..JobSpec::default()
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        let engine = Engine::new();
        let result = engine.run(&spec.to_job().unwrap()).unwrap();
        assert_eq!(result.strategy, "bdd");
        assert!(result.verified());
        let realization = result.realization().unwrap().clone();
        assert_eq!(realization.num_outputs(), 2);

        let rendered = result_to_json(&Ok(result));
        assert_eq!(rendered.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(rendered.get("strategy").unwrap().as_str(), Some("bdd"));
        assert_eq!(
            rendered.get("technology").unwrap().as_str(),
            Some("sneak-path")
        );
        assert_eq!(rendered.get("outputs").unwrap().as_u64(), Some(2));
        assert_eq!(rendered.get("verified"), Some(&Json::Bool(true)));
        assert!(rendered.get("fingerprint").is_some());

        // Single-output bodies keep their historical shape: no "outputs".
        let single = result_to_json(&engine.run(&JobSpec::expr("x0 + x1").to_job().unwrap()));
        assert!(single.get("outputs").is_none());
    }

    #[test]
    fn multi_exprs_align_arities_before_compiling() {
        // "x0" is arity 1, "x1 x2" is arity 3 — the spec zero-extends the
        // narrow output so the shared crossbar verifies both.
        let spec = JobSpec {
            exprs: Some(vec!["x0".into(), "x1 x2".into()]),
            verify: true,
            ..JobSpec::default()
        };
        let engine = Engine::new();
        let result = engine.run(&spec.to_job().unwrap()).unwrap();
        assert!(result.verified());
        assert_eq!(result.realization().unwrap().num_outputs(), 2);
    }

    #[test]
    fn multi_output_pla_specs_lower_to_bdd_jobs() {
        let body = "\
.i 3
.o 2
11- 01
1-1 01
-11 01
100 10
010 10
001 10
111 10
.e
";
        let engine = Engine::new();
        let result = engine.run(&JobSpec::pla(body).to_job().unwrap()).unwrap();
        assert_eq!(result.strategy, "bdd");
        assert_eq!(result.realization().unwrap().num_outputs(), 2);

        // Any non-"bdd" strategy on a multi-output body is a spec error.
        let wrong = JobSpec {
            strategy: Some("diode".into()),
            ..JobSpec::pla(body)
        };
        let err = wrong.to_job().unwrap_err();
        assert!(err.contains("only strategy \"bdd\""), "{err}");

        // An empty exprs list never reaches the engine.
        let empty = JobSpec {
            exprs: Some(Vec::new()),
            ..JobSpec::default()
        };
        let err = empty.to_job().unwrap_err();
        assert!(err.contains("at least one output"), "{err}");
    }

    #[test]
    fn multi_spec_engine_errors_carry_their_own_kind() {
        // A constant output is a ConstantFunction; a mixed-arity set built
        // directly (bypassing the spec's alignment) is a MultiSpec.
        let engine = Engine::new();
        let spec = JobSpec {
            exprs: Some(vec!["x0 + !x0".into()]),
            ..JobSpec::default()
        };
        let rendered = result_to_json(&engine.run(&spec.to_job().unwrap()));
        assert_eq!(rendered.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            rendered.get("kind").unwrap().as_str(),
            Some("constant-function")
        );

        let diode_multi = JobSpec {
            exprs: Some(vec!["x0".into(), "x1".into()]),
            strategy: Some("diode".into()),
            ..JobSpec::default()
        };
        let rendered = result_to_json(&engine.run(&diode_multi.to_job().unwrap()));
        assert_eq!(rendered.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(rendered.get("kind").unwrap().as_str(), Some("multi-spec"));
    }

    #[test]
    fn minimize_parsing() {
        assert_eq!(parse_minimize(None).unwrap(), MinimizeMode::Isop);
        assert_eq!(
            parse_minimize(Some(&Json::Str("exact".into()))).unwrap(),
            MinimizeMode::Exact
        );
        assert!(parse_minimize(Some(&Json::Str("fancy".into()))).is_err());
        assert!(parse_minimize(Some(&Json::Int(3))).is_err());
    }
}
