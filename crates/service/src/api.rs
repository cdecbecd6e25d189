//! The service's request/response vocabulary: [`JobSpec`] (one synthesis
//! request) and its mapping onto engine [`Job`]s, the decoders that read
//! request bodies into specs, and the writers that render per-slot
//! results.
//!
//! **Decoding.** [`read_job_request`] (`/v1/synthesize`, `/v1/map`,
//! `/v1/mvm`) and [`read_batch_request`] (`/v1/batch`) read the body with
//! the wire reader straight into [`JobSpec`]s: no [`Json`] tree, keys
//! borrowed, MVM arrays straight into `Vec<f32>`. Their rules:
//!
//! * a syntax error anywhere in the body is the request's error, even
//!   after a field error: a job's first field error is kept and the rest
//!   of the body is still scanned;
//! * then a bad `"minimize"`, then bad `"limits"`, then the batch's
//!   `"jobs"` checks, then the job's own first field error, in member
//!   order, then its cross-field checks;
//! * top-level `"minimize"`, `"limits"`, `"jobs"` and `"stream"` (and,
//!   on `/v1/map`, `"session"` and `"resume"`) are read on their first
//!   occurrence, as are a session's `"id"` and `"rounds"`; inside a job,
//!   chip, map, mvm or limits object a repeated field overwrites the
//!   earlier one;
//! * unknown top-level batch keys are ignored; unknown fields elsewhere
//!   are errors.
//!
//! [`JobSpec::from_json`], [`parse_limits`] and [`parse_minimize`] take a
//! tree; they encode it and read the text, so every rule lives in the
//! decoders. Beside the session log's specs, these adapters and
//! [`result_to_json`] (a slot written, then parsed) serve only the
//! benchmark's replay and the `proptest_wire` oracle.
//!
//! **Rendering.** [`write_result`] appends one slot's object to an output
//! buffer with the wire writer; the service writes each response body,
//! and each streamed batch fragment, that way.
//!
//! Responses are **deterministic**: no wall-clock fields, object keys in
//! fixed order, and the realization's content fingerprint
//! ([`nanoxbar_engine::Realization::fingerprint`], hashed once per
//! realization by [`nanoxbar_engine::Fingerprinted`]) — so two runs of
//! the same job (cached or not, any thread count) produce byte-identical
//! bodies. Latency lives in `/metrics`, not in bodies.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Duration;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{
    BismStrategy, ChipOutcome, ChipSpec, Error, Job, JobOutput, JobResult, Limits, MapConfig,
    MapReport, MinimizeMode, MvmOutcome, MvmSpec,
};
use nanoxbar_logic::parse_function;
use nanoxbar_logic::pla::parse_pla;
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};

use crate::wire::{Item, Json, ObjectWriter, Reader, WireError, WriteJson};

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

/// The JSON object form of an mvm workload (inverse of `read_mvm`;
/// defaulted fields are left out).
fn mvm_to_json(spec: &MvmSpec) -> Json {
    let floats =
        |values: &[f32]| Json::Array(values.iter().map(|&v| Json::Float(f64::from(v))).collect());
    let mut members: Vec<(String, Json)> = vec![
        ("rows".into(), Json::from(spec.rows)),
        ("cols".into(), Json::from(spec.cols)),
        ("weights".into(), floats(&spec.weights)),
        ("input".into(), floats(&spec.input)),
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

    /// Reads a spec from its JSON object form, by the rules of a batch
    /// slot (see the module docs).
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown fields, type mismatches, or a
    /// missing/ambiguous function.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        read_tree(v, read_job)
    }

    /// The cross-field checks of a job whose members all decoded.
    fn checked(self) -> Result<JobSpec, String> {
        if self.map.is_some() && self.chip.is_none() {
            return Err("\"map\" needs a \"chip\" to map onto".into());
        }
        if self.mvm.is_some() {
            if self.expr.is_some()
                || self.exprs.is_some()
                || self.pla.is_some()
                || self.strategy.is_some()
                || self.verify
                || self.chip.is_some()
                || self.map.is_some()
            {
                return Err("\"mvm\" cannot be combined with synthesis fields \
                     (expr, exprs, pla, strategy, verify, chip, map)"
                    .into());
            }
            return Ok(self);
        }
        let sources = [
            self.expr.is_some(),
            self.exprs.is_some(),
            self.pla.is_some(),
        ]
        .into_iter()
        .filter(|&set| set)
        .count();
        match sources {
            0 => Err("job needs an \"expr\", \"exprs\", a \"pla\", or an \"mvm\"".into()),
            1 => {
                if self.exprs.is_some() && (self.chip.is_some() || self.map.is_some()) {
                    return Err("multi-output \"exprs\" cannot target a \"chip\" \
                         (the defect flow is single-output)"
                        .into());
                }
                Ok(self)
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

/// The request-scoped settings of a job route: the top-level
/// `"minimize"` and `"limits"` fields, which scope the request's jobs and
/// are not job content.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scope {
    /// The minimise mode; ISOP when absent.
    pub minimize: MinimizeMode,
    /// Per-job limits, when given.
    pub limits: Option<Limits>,
}

/// A decoded `/v1/synthesize`, `/v1/map` or `/v1/mvm` body: the job is
/// the body's members other than `"minimize"` and `"limits"` (and, on
/// `/v1/map`, `"session"` and `"resume"`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// The request-scoped settings.
    pub scope: Scope,
    /// The job, or its first field error or failed cross-field check.
    pub spec: Result<JobSpec, String>,
    /// The incremental `/v1/map` protocol: present when the body has a
    /// top-level `"session"` or `"resume"`, and read only where sessions
    /// are served (elsewhere both are unknown job fields in `spec`).
    pub session: Option<Result<SessionRequest, String>>,
}

/// The session fields of a `/v1/map` body: `"session": {"id",
/// "rounds"?}` and `"resume"`, each read on its first occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRequest {
    /// The session id, 1..=120 bytes.
    pub id: String,
    /// Most BISM rounds to run now; all that remain when absent.
    pub rounds: Option<u64>,
    /// Continue an existing session (`"resume": true`) instead of
    /// creating one.
    pub resume: bool,
}

/// A decoded `/v1/batch` body.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRequest {
    /// The request-scoped settings.
    pub scope: Scope,
    /// One entry per slot, in input order: the spec or the slot's error.
    pub slots: Vec<Result<JobSpec, String>>,
    /// The first `"stream"` member is `true`.
    pub stream: bool,
}

/// Largest accepted batch.
pub(crate) const MAX_BATCH_JOBS: usize = 1024;

/// Reads a one-job request body; with `sessions` (the `/v1/map` route)
/// it also reads the session fields.
///
/// # Errors
///
/// The request's `400` message: a syntax error, then a bad `"minimize"`,
/// then bad `"limits"`. Session errors are in [`JobRequest::session`],
/// job errors in [`JobRequest::spec`].
pub fn read_job_request(body: &str, sessions: bool) -> Result<JobRequest, String> {
    let (mut minimize, mut limits) = (None, None);
    let (mut session, mut resume) = (None, None);
    let mut spec = JobSpec::default();
    let mut failed = None;
    Reader::new(body)
        .document(|r| match r.item(0)? {
            Item::Object => r.members(|r, key| {
                match &*key {
                    "minimize" => return first(&mut minimize, r, read_minimize),
                    "limits" => return first(&mut limits, r, read_limits),
                    "session" if sessions => return first(&mut session, r, read_session),
                    "resume" if sessions => return first(&mut resume, r, read_resume),
                    _ => {}
                }
                if failed.is_some() {
                    return r.skip(1);
                }
                keep(job_member(r, &key, 1, &mut spec), &mut failed)
            }),
            other => {
                failed = Some("job must be a JSON object".to_string());
                r.skip_item(other, 0)
            }
        })
        .map_err(|e| e.to_string())?;
    Ok(JobRequest {
        scope: scope(minimize, limits)?,
        spec: failed.map_or_else(|| spec.checked(), Err),
        session: (session.is_some() || resume.is_some()).then(|| {
            let resume = resume.unwrap_or(Ok(false))?;
            let (id, rounds) =
                session.ok_or("\"resume\" needs a \"session\" object with an \"id\"")??;
            Ok(SessionRequest { id, rounds, resume })
        }),
    })
}

/// A session id as the session protocol and session migration take it:
/// 1..=120 bytes.
pub(crate) fn session_id(id: &str) -> Result<String, String> {
    if id.is_empty() || id.len() > 120 {
        return Err("session id must be 1..=120 bytes".into());
    }
    Ok(id.to_string())
}

fn read_resume(r: &mut Reader<'_>, depth: usize) -> Read<bool> {
    match r.item(depth)? {
        Item::Bool(flag) => Ok(flag),
        other => mismatch(r, other, depth, "\"resume\" must be a boolean"),
    }
}

/// Reads a `"session"` object. Its first unknown member is its error;
/// then `"id"`, then `"rounds"` are checked, each at its first
/// occurrence.
fn read_session(r: &mut Reader<'_>, depth: usize) -> Read<(String, Option<u64>)> {
    let item = r.item(depth)?;
    if item != Item::Object {
        return mismatch(r, item, depth, "\"session\" must be an object");
    }
    let (mut unknown, mut id, mut rounds) = (None, None, None);
    r.members(|r, key| {
        let item = r.item(depth + 1)?;
        let text = match &item {
            Item::Str(text) => Some(&**text),
            _ => None,
        };
        match &*key {
            "id" if id.is_none() => id = Some(text.map(session_id)),
            "rounds" if rounds.is_none() => rounds = Some(item.as_u64()),
            "id" | "rounds" => {}
            other if unknown.is_none() => {
                unknown = Some(format!("unknown session field {other:?}"))
            }
            _ => {}
        }
        r.skip_item(item, depth + 1)
    })?;
    if let Some(message) = unknown {
        return Err(message.into());
    }
    let id = id.flatten().ok_or("session needs a string \"id\"")??;
    let rounds = rounds
        .map(|n| n.ok_or("session \"rounds\" must be a non-negative integer"))
        .transpose()?;
    Ok((id, rounds))
}

/// Reads a `/v1/batch` body.
///
/// # Errors
///
/// The request's `400` message: a syntax error, then a bad `"minimize"`,
/// then bad `"limits"`, then a missing `"jobs"` array, then a batch of
/// more than 1024 jobs. Slot errors are in
/// [`BatchRequest::slots`].
pub fn read_batch_request(body: &str) -> Result<BatchRequest, String> {
    let (mut minimize, mut limits) = (None, None);
    let mut jobs = None;
    let mut stream = None;
    Reader::new(body)
        .document(|r| match r.item(0)? {
            Item::Object => r.members(|r, key| match &*key {
                "minimize" => first(&mut minimize, r, read_minimize),
                "limits" => first(&mut limits, r, read_limits),
                "jobs" if jobs.is_none() => {
                    jobs = Some(read_slots(r, 1)?);
                    Ok(())
                }
                "stream" if stream.is_none() => {
                    let item = r.item(1)?;
                    stream = Some(item == Item::Bool(true));
                    r.skip_item(item, 1)
                }
                _ => r.skip(1),
            }),
            other => r.skip_item(other, 0),
        })
        .map_err(|e| e.to_string())?;
    let scope = scope(minimize, limits)?;
    let Some(Some((slots, count))) = jobs else {
        return Err("batch needs a \"jobs\" array".into());
    };
    if count > MAX_BATCH_JOBS {
        return Err(format!(
            "batch of {count} jobs exceeds the limit of {MAX_BATCH_JOBS}"
        ));
    }
    Ok(BatchRequest {
        scope,
        slots,
        stream: stream == Some(true),
    })
}

/// The slots of a batch's `"jobs"` value, and how many there are; `None`
/// when it is not an array. Slots past [`MAX_BATCH_JOBS`] are only
/// counted and checked.
type Slots = Option<(Vec<Result<JobSpec, String>>, usize)>;

fn read_slots(r: &mut Reader<'_>, depth: usize) -> Result<Slots, WireError> {
    let item = r.item(depth)?;
    if item != Item::Array {
        r.skip_item(item, depth)?;
        return Ok(None);
    }
    let (mut slots, mut count) = (Vec::new(), 0);
    r.items(|r| {
        count += 1;
        if count > MAX_BATCH_JOBS {
            return r.skip(depth + 1);
        }
        slots.push(split(read_job(r, depth + 1))?);
        Ok(())
    })?;
    Ok(Some((slots, count)))
}

fn scope(
    minimize: Option<Result<MinimizeMode, String>>,
    limits: Option<Result<Limits, String>>,
) -> Result<Scope, String> {
    Ok(Scope {
        minimize: minimize.unwrap_or(Ok(MinimizeMode::Isop))?,
        limits: limits.transpose()?,
    })
}

/// Why a value did not decode. A syntax error fails the whole request;
/// a field error fails only its job, and is kept while the reader scans
/// on, so that a later syntax error still wins.
enum Fault {
    Syntax(WireError),
    Field(String),
}

impl From<WireError> for Fault {
    fn from(e: WireError) -> Self {
        Fault::Syntax(e)
    }
}

impl From<String> for Fault {
    fn from(message: String) -> Self {
        Fault::Field(message)
    }
}

impl From<&str> for Fault {
    fn from(message: &str) -> Self {
        Fault::Field(message.to_string())
    }
}

/// A decoded value, or why it did not decode. A decoder that fails with
/// a field error has still consumed its whole value.
type Read<T> = Result<T, Fault>;

/// Separates a field error (the inner `Err`) from a syntax error.
fn split<T>(read: Read<T>) -> Result<Result<T, String>, WireError> {
    match read {
        Ok(value) => Ok(Ok(value)),
        Err(Fault::Field(message)) => Ok(Err(message)),
        Err(Fault::Syntax(e)) => Err(e),
    }
}

/// Keeps a member's field error in `failed`.
fn keep(read: Read<()>, failed: &mut Option<String>) -> Result<(), WireError> {
    if let Err(message) = split(read)? {
        *failed = Some(message);
    }
    Ok(())
}

/// Reads a top-level field on its first occurrence, as [`Json::get`]
/// finds it; a repeat is only checked.
fn first<'a, T>(
    slot: &mut Option<Result<T, String>>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>, usize) -> Read<T>,
) -> Result<(), WireError> {
    if slot.is_some() {
        return r.skip(1);
    }
    *slot = Some(split(read(r, 1))?);
    Ok(())
}

/// Decodes a tree by reading its text, so the tree entry points follow
/// the decoders' rules exactly.
fn read_tree<T>(
    v: &Json,
    read: impl for<'a> FnOnce(&mut Reader<'a>, usize) -> Read<T>,
) -> Result<T, String> {
    let text = v.encode_for_reader();
    Reader::new(&text)
        .document(|r| split(read(r, 0)))
        .unwrap_or_else(|e| Err(e.to_string()))
}

/// Reads the object at the cursor (at `depth`) member by member:
/// `member` decodes one member from its key and the value's depth. After
/// the first field error the remaining members are only checked.
fn fields<'a>(
    r: &mut Reader<'a>,
    depth: usize,
    not_object: &str,
    mut member: impl FnMut(&mut Reader<'a>, &str, usize) -> Read<()>,
) -> Read<()> {
    let item = r.item(depth)?;
    if item != Item::Object {
        return mismatch(r, item, depth, not_object);
    }
    let mut failed = None;
    r.members(|r, key| {
        if failed.is_some() {
            return r.skip(depth + 1);
        }
        keep(member(r, &key, depth + 1), &mut failed)
    })?;
    failed.map_or(Ok(()), |message| Err(Fault::Field(message)))
}

/// Finishes a value of the wrong kind and fails with `message`.
fn mismatch<'a, T>(
    r: &mut Reader<'a>,
    item: Item<'a>,
    depth: usize,
    message: impl Into<Fault>,
) -> Read<T> {
    r.skip_item(item, depth)?;
    Err(message.into())
}

/// Skips the value of an unknown field and fails with `message`.
fn unknown(r: &mut Reader<'_>, depth: usize, message: String) -> Read<()> {
    r.skip(depth)?;
    Err(Fault::Field(message))
}

fn read_job(r: &mut Reader<'_>, depth: usize) -> Read<JobSpec> {
    let mut spec = JobSpec::default();
    fields(r, depth, "job must be a JSON object", |r, key, depth| {
        job_member(r, key, depth, &mut spec)
    })?;
    Ok(spec.checked()?)
}

fn job_member(r: &mut Reader<'_>, key: &str, depth: usize, spec: &mut JobSpec) -> Read<()> {
    match key {
        "expr" => spec.expr = Some(string(r, depth, "expr")?.into_owned()),
        "exprs" => spec.exprs = Some(string_array(r, depth, "exprs")?),
        "pla" => spec.pla = Some(string(r, depth, "pla")?.into_owned()),
        "strategy" => spec.strategy = Some(string(r, depth, "strategy")?.into_owned()),
        "label" => spec.label = Some(string(r, depth, "label")?.into_owned()),
        "verify" => {
            spec.verify = match r.item(depth)? {
                Item::Bool(b) => b,
                other => return mismatch(r, other, depth, "\"verify\" must be a boolean"),
            }
        }
        "chip" => spec.chip = Some(read_chip(r, depth)?),
        "map" => spec.map = Some(read_map(r, depth)?),
        "mvm" => spec.mvm = Some(read_mvm(r, depth)?),
        other => return unknown(r, depth, format!("unknown job field {other:?}")),
    }
    Ok(())
}

fn read_chip(r: &mut Reader<'_>, depth: usize) -> Read<ChipRequest> {
    let (mut rows, mut cols, mut seed, mut defect_rate) = (None, None, 0, None);
    fields(
        r,
        depth,
        "\"chip\" must be a JSON object",
        |r, key, depth| {
            match key {
                "rows" => rows = Some(dimension(r, depth, "rows")?),
                "cols" => cols = Some(dimension(r, depth, "cols")?),
                "seed" => seed = seed_field(r, depth, "seed")?,
                "defect_rate" => {
                    let rate = float(r, depth, "defect_rate")?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err("\"defect_rate\" must be in [0, 1]".into());
                    }
                    defect_rate = Some(rate);
                }
                other => return unknown(r, depth, format!("unknown chip field {other:?}")),
            }
            Ok(())
        },
    )?;
    Ok(ChipRequest {
        rows: rows.ok_or("\"chip\" needs \"rows\"")?,
        cols: cols.ok_or("\"chip\" needs \"cols\"")?,
        seed,
        defect_rate,
    })
}

fn read_map(r: &mut Reader<'_>, depth: usize) -> Read<MapRequest> {
    let mut request = MapRequest::default();
    fields(
        r,
        depth,
        "\"map\" must be a JSON object",
        |r, key, depth| {
            match key {
                "strategy" => request.strategy = Some(string(r, depth, "strategy")?.into_owned()),
                "blind_retries" => {
                    request.blind_retries = Some(seed_field(r, depth, "blind_retries")?)
                }
                "speculation" => {
                    request.speculation = Some(budget(r, depth, "speculation", 1, 64)?)
                }
                "max_attempts" => {
                    request.max_attempts = Some(budget(r, depth, "max_attempts", 1, 1_000_000)?)
                }
                "seed" => request.seed = seed_field(r, depth, "seed")?,
                other => return unknown(r, depth, format!("unknown map field {other:?}")),
            }
            Ok(())
        },
    )?;
    // Validate the strategy spelling eagerly so a bad spec 400s instead
    // of poisoning its slot later.
    request.config()?;
    Ok(request)
}

/// Reads the analog MVM workload of a `/v1/mvm` request (or an mvm slot
/// in a batch): `rows` and `cols` in `1..=4096`, row-major `weights`, the
/// `input` vector, and the chip the weights are programmed onto —
/// `chip_seed`, `p_open`, `p_closed` and `noise_sigma` default to 0,
/// `trials` (in `1..=4096`) to 1. Only the structure is checked here;
/// [`JobSpec::to_job`] validates the values.
fn read_mvm(r: &mut Reader<'_>, depth: usize) -> Read<MvmSpec> {
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
    fields(
        r,
        depth,
        "\"mvm\" must be a JSON object",
        |r, key, depth| {
            match key {
                "rows" => rows = Some(dimension(r, depth, "rows")?),
                "cols" => cols = Some(dimension(r, depth, "cols")?),
                "weights" => weights = Some(f32_array(r, depth, "weights")?),
                "input" => input = Some(f32_array(r, depth, "input")?),
                "chip_seed" => spec.chip_seed = seed_field(r, depth, "chip_seed")?,
                "p_open" => spec.p_open = float(r, depth, "p_open")?,
                "p_closed" => spec.p_closed = float(r, depth, "p_closed")?,
                "noise_sigma" => {
                    spec.noise_sigma =
                        narrow_to_f32(float(r, depth, "noise_sigma")?, "noise_sigma")?
                }
                "trials" => spec.trials = budget(r, depth, "trials", 1, 4096)? as u32,
                other => return unknown(r, depth, format!("unknown mvm field {other:?}")),
            }
            Ok(())
        },
    )?;
    spec.rows = rows.ok_or("\"mvm\" needs \"rows\"")?;
    spec.cols = cols.ok_or("\"mvm\" needs \"cols\"")?;
    spec.weights = weights.ok_or("\"mvm\" needs \"weights\"")?;
    spec.input = input.ok_or("\"mvm\" needs \"input\"")?;
    Ok(spec)
}

fn string<'a>(r: &mut Reader<'a>, depth: usize, name: &str) -> Read<Cow<'a, str>> {
    match r.item(depth)? {
        Item::Str(s) => Ok(s),
        other => mismatch(r, other, depth, format!("{name:?} must be a string")),
    }
}

/// A non-negative integer field (seeds, retry counts).
fn seed_field(r: &mut Reader<'_>, depth: usize, name: &str) -> Read<u64> {
    let item = r.item(depth)?;
    match item.as_u64() {
        Some(value) => Ok(value),
        None => mismatch(
            r,
            item,
            depth,
            format!("{name:?} must be a non-negative integer"),
        ),
    }
}

fn float(r: &mut Reader<'_>, depth: usize, name: &str) -> Read<f64> {
    let item = r.item(depth)?;
    match item.as_f64() {
        Some(value) => Ok(value),
        None => mismatch(r, item, depth, format!("{name:?} must be a number")),
    }
}

/// Largest accepted multi-output `exprs` list (the shared-BDD compiler is
/// exponential in the worst case; the bound keeps one slot from holding a
/// pool worker).
const MAX_EXPRS: usize = 64;

/// Largest accepted `weights`/`input` array (matches the engine's
/// `MvmSpec` area ceiling).
const MAX_F32_ARRAY: usize = 1 << 20;

/// Reads an array element by element with `element`, which returns each
/// element's value or its error. An over-long array is an error before
/// any element's; otherwise the first element error wins. Elements past
/// `max` or after an error are only checked.
fn array<'a, T>(
    r: &mut Reader<'a>,
    depth: usize,
    max: usize,
    not_array: &str,
    too_long: impl FnOnce(usize) -> String,
    mut element: impl FnMut(&mut Reader<'a>, Item<'a>) -> Read<T>,
) -> Read<Vec<T>> {
    let item = r.item(depth)?;
    if item != Item::Array {
        return mismatch(r, item, depth, not_array);
    }
    let (mut values, mut count, mut failed) = (Vec::new(), 0, None);
    r.items(|r| {
        count += 1;
        let item = r.item(depth + 1)?;
        if failed.is_some() || count > max {
            return r.skip_item(item, depth + 1);
        }
        match split(element(r, item))? {
            Ok(value) => values.push(value),
            Err(message) => failed = Some(message),
        }
        Ok(())
    })?;
    if count > max {
        return Err(too_long(count).into());
    }
    failed.map_or(Ok(values), |message| Err(Fault::Field(message)))
}

fn string_array(r: &mut Reader<'_>, depth: usize, name: &str) -> Read<Vec<String>> {
    let not_strings = format!("{name:?} must be an array of strings");
    array(
        r,
        depth,
        MAX_EXPRS,
        &not_strings,
        |n| format!("{name:?} holds {n} outputs, more than the accepted {MAX_EXPRS}"),
        |r, item| match item {
            Item::Str(s) => Ok(s.into_owned()),
            other => mismatch(r, other, depth + 1, not_strings.as_str()),
        },
    )
}

fn f32_array(r: &mut Reader<'_>, depth: usize, name: &str) -> Read<Vec<f32>> {
    let not_numbers = format!("{name:?} must be an array of numbers");
    array(
        r,
        depth,
        MAX_F32_ARRAY,
        &not_numbers,
        |n| format!("{name:?} holds {n} values, more than the accepted {MAX_F32_ARRAY}"),
        |r, item| match item.as_f64() {
            Some(x) => Ok(narrow_to_f32(x, name)?),
            None => mismatch(r, item, depth + 1, not_numbers.as_str()),
        },
    )
}

/// Rounds a wire number to the f32 an MVM field holds. A finite number
/// past the f32 range would round to infinity and later read as "must be
/// finite", so it is rejected here, by name.
fn narrow_to_f32(x: f64, name: &str) -> Result<f32, String> {
    let narrow = x as f32;
    if x.is_finite() && narrow.is_infinite() {
        return Err(format!("{name:?} value {x:e} is out of f32 range"));
    }
    Ok(narrow)
}

fn dimension(r: &mut Reader<'_>, depth: usize, name: &str) -> Read<usize> {
    let item = r.item(depth)?;
    let Some(value) = item.as_u64() else {
        return mismatch(
            r,
            item,
            depth,
            format!("{name:?} must be a positive integer"),
        );
    };
    if value == 0 || value > 4096 {
        return Err(format!("{name:?} must be in 1..=4096").into());
    }
    Ok(value as usize)
}

/// A bounded integer budget field; out-of-range values are rejected so a
/// request cannot hold a pool worker indefinitely (or starve itself).
fn budget(r: &mut Reader<'_>, depth: usize, name: &str, min: u64, max: u64) -> Read<u64> {
    let item = r.item(depth)?;
    let Some(value) = item.as_u64() else {
        return mismatch(
            r,
            item,
            depth,
            format!("{name:?} must be a positive integer"),
        );
    };
    if !(min..=max).contains(&value) {
        return Err(format!("{name:?} must be in {min}..={max}").into());
    }
    Ok(value)
}

/// Largest accepted per-request time budget (one minute).
const MAX_TIME_MS: u64 = 60_000;
/// Largest accepted per-request SAT conflict budget.
const MAX_SAT_CONFLICTS: u64 = 1_000_000_000;

fn read_limits(r: &mut Reader<'_>, depth: usize) -> Read<Limits> {
    let mut limits = Limits::default();
    fields(
        r,
        depth,
        "\"limits\" must be a JSON object",
        |r, key, depth| {
            match key {
                "time_ms" => {
                    limits.time = Some(Duration::from_millis(budget(
                        r,
                        depth,
                        "time_ms",
                        1,
                        MAX_TIME_MS,
                    )?))
                }
                "sat_conflicts" => {
                    limits.sat_conflicts =
                        Some(budget(r, depth, "sat_conflicts", 1, MAX_SAT_CONFLICTS)?)
                }
                other => return unknown(r, depth, format!("unknown limits field {other:?}")),
            }
            Ok(())
        },
    )?;
    Ok(limits)
}

fn read_minimize(r: &mut Reader<'_>, depth: usize) -> Read<MinimizeMode> {
    match r.item(depth)? {
        Item::Str(mode) if mode == "isop" => Ok(MinimizeMode::Isop),
        Item::Str(mode) if mode == "exact" => Ok(MinimizeMode::Exact),
        other => mismatch(
            r,
            other,
            depth,
            "\"minimize\" must be \"isop\" or \"exact\"",
        ),
    }
}

/// Parses the optional top-level `"limits"` request object into per-job
/// engine [`Limits`]: `{"time_ms": 1..=60000, "sat_conflicts":
/// 1..=10^9}`. Out-of-range budgets are rejected — the hardening contract
/// is that no accepted request can hold a pool worker indefinitely.
///
/// # Errors
///
/// A message naming the offending field and its accepted range.
pub fn parse_limits(v: Option<&Json>) -> Result<Option<Limits>, String> {
    v.map(|v| read_tree(v, read_limits)).transpose()
}

/// Parses the optional `"minimize"` request field.
///
/// # Errors
///
/// A message naming the accepted spellings.
pub fn parse_minimize(v: Option<&Json>) -> Result<MinimizeMode, String> {
    v.map_or(Ok(MinimizeMode::Isop), |v| read_tree(v, read_minimize))
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

/// Renders one batch slot as its wire object (the [`write_result`] text
/// parsed back; non-finite floats, written as `null`, come back as
/// [`Json::Null`]).
pub fn result_to_json(slot: &Result<JobResult, Error>) -> Json {
    let mut out = String::new();
    write_result(slot, &mut out);
    Json::parse(&out).expect("results render as JSON")
}

/// Appends one batch slot's wire object to `out`.
pub fn write_result(slot: &Result<JobResult, Error>, out: &mut String) {
    let result = match slot {
        Ok(result) => result,
        Err(e) => return write_bad_slot(error_kind(e), &e.to_string(), out),
    };
    let (realization, verified, chip) = match &result.output {
        JobOutput::Mvm(outcome) => return write_mvm_result(result, outcome, out),
        JobOutput::Logic {
            realization,
            verified,
            chip,
        } => (realization, *verified, chip),
    };
    let size = realization.size();
    let mut o = ObjectWriter::new(out);
    o.field("ok", true)
        .field("strategy", result.strategy.as_str())
        .field("technology", realization.technology().name())
        .field("rows", size.rows)
        .field("cols", size.cols)
        .field("area", realization.area());
    write!(
        o.key("fingerprint"),
        "\"{:016x}\"",
        realization.fingerprint()
    )
    .expect("writing to a String cannot fail");
    // Multi-output realizations say how many functions share the
    // crossbar; single-output bodies keep their historical shape.
    if realization.num_outputs() > 1 {
        o.field("outputs", realization.num_outputs());
    }
    if verified {
        o.field("verified", true);
    }
    if let Some(label) = &result.label {
        o.field("label", label.as_str());
    }
    match chip {
        None => {}
        Some(ChipOutcome::Flow(flow)) => {
            let mut f = ObjectWriter::new(o.key("flow"));
            f.field("bist_passed", flow.bist_passed)
                .field("recovered_k", flow.recovered.k())
                .field("products", flow.products)
                .field("used_cols", flow.used_cols)
                .field("placement", flow.placement.as_slice());
            f.end();
        }
        Some(ChipOutcome::Map(map)) => write_map(map, o.key("map")),
    }
    o.end();
}

/// Writes an mvm slot: dimensions, the chip's defect count, the ideal
/// and analog output vectors (f32 widened exactly to f64), and the
/// Monte-Carlo RMS error statistics. No clocks — identical requests give
/// byte-identical mvm objects on every run, thread count, and replica.
fn write_mvm_result(result: &JobResult, outcome: &MvmOutcome, out: &mut String) {
    let mut o = ObjectWriter::new(out);
    o.field("ok", true)
        .field("strategy", result.strategy.as_str())
        .field("rows", outcome.rows)
        .field("cols", outcome.cols)
        .field("trials", u64::from(outcome.trials))
        .field("defects", outcome.defects)
        .field("ideal", outcome.ideal.as_slice())
        .field("output", outcome.output.as_slice())
        .field("rms_error_mean", outcome.rms_error_mean)
        .field("rms_error_max", outcome.rms_error_max);
    if let Some(label) = &result.label {
        o.field("label", label.as_str());
    }
    o.end();
}

/// Writes a [`MapReport`] as its deterministic wire object: counters,
/// the committed placement (success only), and the sorted defect
/// knowledge base as `[row, col, "stuck-open"|"stuck-closed"]` triples.
/// No clocks — identical requests give byte-identical map objects.
fn write_map(map: &MapReport, out: &mut String) {
    let mut o = ObjectWriter::new(out);
    o.field("success", map.stats.success)
        .field("strategy", map.strategy.to_string().as_str())
        .field("speculation", map.speculation)
        .field("rounds", map.rounds)
        .field("attempts", map.stats.attempts)
        .field("bist_runs", map.stats.bist_runs)
        .field("bisd_runs", map.stats.bisd_runs);
    if let Some(mapping) = &map.mapping {
        o.field("mapping", mapping.as_slice());
    }
    let out = o.key("known_bad");
    out.push('[');
    for (i, &(row, col, health)) in map.known_bad.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match health {
            CrosspointHealth::StuckOpen => "stuck-open",
            CrosspointHealth::StuckClosed => "stuck-closed",
            CrosspointHealth::Good => "good",
        };
        out.push('[');
        row.write_json(out);
        out.push(',');
        col.write_json(out);
        out.push(',');
        kind.write_json(out);
        out.push(']');
    }
    out.push(']');
    o.end();
}

/// Appends the wire object of a failed slot (engine errors and spec
/// errors share one shape).
pub(crate) fn write_bad_slot(kind: &str, message: &str, out: &mut String) {
    let mut o = ObjectWriter::new(out);
    o.field("ok", false)
        .field("kind", kind)
        .field("error", message);
    o.end();
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
    fn finite_numbers_past_the_f32_range_are_rejected_by_name() {
        let mvm = |weights: &str, input: &str, sigma: &str| {
            format!(
                "{{\"mvm\":{{\"rows\":1,\"cols\":2,\"weights\":{weights},\
                 \"input\":{input},\"noise_sigma\":{sigma}}}}}"
            )
        };
        for (body, message) in [
            (
                mvm("[1e39,0]", "[0,0]", "0"),
                "\"weights\" value 1e39 is out of f32 range",
            ),
            (
                mvm("[0,0]", "[0,-1e39]", "0"),
                "\"input\" value -1e39 is out of f32 range",
            ),
            (
                mvm("[0,0]", "[0,0]", "1e39"),
                "\"noise_sigma\" value 1e39 is out of f32 range",
            ),
        ] {
            let err = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap_err();
            assert_eq!(err, message, "{body}");
        }
        // The largest f32, and a number just past it that rounds to it,
        // still pass.
        let edge = mvm("[3.4028235e38,0]", "[0,3.40282356e38]", "0.05");
        let spec = JobSpec::from_json(&Json::parse(&edge).unwrap()).unwrap();
        let spec = spec.mvm.expect("an mvm spec");
        assert_eq!(spec.weights[0], f32::MAX);
        assert_eq!(spec.input[1], f32::MAX);
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
            pla_result.realization().unwrap().fingerprint(),
            result.realization().unwrap().fingerprint()
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
