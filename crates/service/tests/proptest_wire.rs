//! Property suite for the wire format: JSON values, job specs, and
//! rendered results must survive encode → parse unchanged, for arbitrary
//! content including escapes, unicode, and nesting. The request decoders
//! must give what the `Json` tree decoder they replaced gives (kept below
//! as the oracle), spec for spec and message for message. The HTTP
//! request parser must yield the same requests however a byte stream is
//! split, never panic, never buffer an endless line, and never buffer a
//! body past `max_body`.

use std::time::Duration;

use proptest::prelude::*;

use nanoxbar_engine::{Limits, MinimizeMode, MvmSpec};
use nanoxbar_service::api::{
    read_batch_request, read_job_request, BatchRequest, JobRequest, MapRequest, Scope,
    SessionRequest,
};
use nanoxbar_service::http::{HttpError, Request, RequestParser};
use nanoxbar_service::{ChipRequest, JobSpec, Json};

/// The `Json` tree decoder the request readers replaced, kept verbatim
/// as their oracle: parse the whole body, read the top-level
/// `"minimize"`/`"limits"`/`"jobs"`/`"stream"` (and, on `/v1/map`,
/// `"session"`/`"resume"`) with `Json::get` (first occurrence), then
/// decode each job object member by member (last occurrence), returning
/// on its first error.
mod oracle {
    use super::*;

    /// A one-job body as the service decoded it; with `sessions` (the
    /// `/v1/map` route) the session fields are read and leave the job.
    pub fn job_request(body: &str, sessions: bool) -> Result<JobRequest, String> {
        let mut json = Json::parse(body).map_err(|e| e.to_string())?;
        let minimize = parse_minimize(json.get("minimize"))?;
        let limits = parse_limits(json.get("limits"))?;
        let session = (sessions && (json.get("session").is_some() || json.get("resume").is_some()))
            .then(|| session_request(&json));
        if let Json::Object(members) = &mut json {
            members.retain(|(key, _)| {
                key != "minimize"
                    && key != "limits"
                    && !(sessions && (key == "session" || key == "resume"))
            });
        }
        Ok(JobRequest {
            scope: Scope { minimize, limits },
            spec: from_json(&json),
            session,
        })
    }

    /// The session checks of a `/v1/map` body, in the order the service
    /// made them on the tree.
    fn session_request(json: &Json) -> Result<SessionRequest, String> {
        let resume = match json.get("resume") {
            None => false,
            Some(Json::Bool(flag)) => *flag,
            Some(_) => return Err("\"resume\" must be a boolean".into()),
        };
        let Some(session) = json.get("session") else {
            return Err("\"resume\" needs a \"session\" object with an \"id\"".into());
        };
        let Json::Object(members) = session else {
            return Err("\"session\" must be an object".into());
        };
        for (key, _) in members {
            if key != "id" && key != "rounds" {
                return Err(format!("unknown session field {key:?}"));
            }
        }
        let id = match session.get("id").and_then(Json::as_str) {
            Some(id) if !id.is_empty() && id.len() <= 120 => id.to_string(),
            Some(_) => return Err("session id must be 1..=120 bytes".into()),
            None => return Err("session needs a string \"id\"".into()),
        };
        let rounds = match session.get("rounds") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(n) => Some(n),
                None => return Err("session \"rounds\" must be a non-negative integer".into()),
            },
        };
        Ok(SessionRequest { id, rounds, resume })
    }

    /// A batch body as the service decoded it.
    pub fn batch_request(body: &str) -> Result<BatchRequest, String> {
        let json = Json::parse(body).map_err(|e| e.to_string())?;
        let minimize = parse_minimize(json.get("minimize"))?;
        let limits = parse_limits(json.get("limits"))?;
        let Some(slots) = json.get("jobs").and_then(Json::as_array) else {
            return Err("batch needs a \"jobs\" array".into());
        };
        if slots.len() > 1024 {
            return Err(format!(
                "batch of {} jobs exceeds the limit of 1024",
                slots.len()
            ));
        }
        Ok(BatchRequest {
            scope: Scope { minimize, limits },
            slots: slots.iter().map(from_json).collect(),
            stream: json.get("stream").and_then(Json::as_bool) == Some(true),
        })
    }

    fn map_from_json(v: &Json) -> Result<MapRequest, String> {
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
        request.config()?;
        Ok(request)
    }

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
                "noise_sigma" => {
                    spec.noise_sigma =
                        narrow_to_f32(float_field(value, "noise_sigma")?, "noise_sigma")?
                }
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
                "chip" => spec.chip = Some(chip_from_json(value)?),
                "map" => spec.map = Some(map_from_json(value)?),
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

    fn chip_from_json(v: &Json) -> Result<ChipRequest, String> {
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

    fn string_field(v: &Json, name: &str) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{name:?} must be a string"))
    }

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

    fn narrow_to_f32(x: f64, name: &str) -> Result<f32, String> {
        let narrow = x as f32;
        if x.is_finite() && narrow.is_infinite() {
            return Err(format!("{name:?} value {x:e} is out of f32 range"));
        }
        Ok(narrow)
    }

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
                let x = x
                    .as_f64()
                    .ok_or_else(|| format!("{name:?} must be an array of numbers"))?;
                narrow_to_f32(x, name)
            })
            .collect()
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

    fn budget_field(v: &Json, name: &str, min: u64, max: u64) -> Result<u64, String> {
        let value = v
            .as_u64()
            .ok_or_else(|| format!("{name:?} must be a positive integer"))?;
        if !(min..=max).contains(&value) {
            return Err(format!("{name:?} must be in {min}..={max}"));
        }
        Ok(value)
    }

    fn parse_limits(v: Option<&Json>) -> Result<Option<Limits>, String> {
        let Some(v) = v else { return Ok(None) };
        let Json::Object(members) = v else {
            return Err("\"limits\" must be a JSON object".into());
        };
        let mut limits = Limits::default();
        for (key, value) in members {
            match key.as_str() {
                "time_ms" => {
                    limits.time = Some(Duration::from_millis(budget_field(
                        value, "time_ms", 1, 60_000,
                    )?))
                }
                "sat_conflicts" => {
                    limits.sat_conflicts =
                        Some(budget_field(value, "sat_conflicts", 1, 1_000_000_000)?)
                }
                other => return Err(format!("unknown limits field {other:?}")),
            }
        }
        Ok(Some(limits))
    }

    fn parse_minimize(v: Option<&Json>) -> Result<MinimizeMode, String> {
        match v.map(|m| m.as_str()) {
            None => Ok(MinimizeMode::Isop),
            Some(Some("isop")) => Ok(MinimizeMode::Isop),
            Some(Some("exact")) => Ok(MinimizeMode::Exact),
            _ => Err("\"minimize\" must be \"isop\" or \"exact\"".into()),
        }
    }
}

/// Request bodies built member by member from a seed: job objects whose
/// members are shuffled, repeated, unknown or of the wrong type, with
/// chip, map and mvm objects built the same way, top-level
/// `"minimize"`/`"limits"` (for one-job bodies `"session"`/`"resume"`,
/// and for batches `"jobs"`/`"stream"`)
/// members that may be bad or repeated, whitespace, and deep unknown
/// values. All ASCII, so any cut is a string.
struct BodyGen(u64);

impl BodyGen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    fn space(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\n  ", "\t"])
    }

    /// An object whose members come from `field`, which writes one
    /// member's key and value.
    fn object(&mut self, members: usize, field: impl Fn(&mut Self) -> String) -> String {
        let count = self.below(members + 1);
        let parts: Vec<String> = (0..count).map(|_| field(self)).collect();
        let comma = format!(",{}", self.space());
        format!("{{{}{}}}", self.space(), parts.join(&comma))
    }

    fn member(&mut self, key: &str, value: String) -> String {
        let space = self.space();
        format!("\"{key}\"{space}:{space}{value}")
    }

    fn deep(&mut self) -> String {
        let n = self.pick(&["1", "3", "63", "64", "65"]).parse().unwrap();
        format!("{}{}", "[".repeat(n), "]".repeat(n))
    }

    fn chip(&mut self) -> String {
        match self.below(8) {
            0 => self.pick(&["[]", "3", "null"]).to_string(),
            _ => self.object(5, |g| match g.below(6) {
                0 => {
                    let v = g.pick(&["16", "4", "0", "4097", "-1", "4.0", "\"4\""]);
                    g.member("rows", v.into())
                }
                1 => {
                    let v = g.pick(&["16", "8", "0", "1e1"]);
                    g.member("cols", v.into())
                }
                2 => {
                    let v = g.pick(&["5", "-5", "1e3", "18446744073709551615", "7"]);
                    g.member("seed", v.into())
                }
                3 => {
                    let v = g.pick(&["0.05", "1", "1.5", "-0.0", "\"x\"", "1e400", "0"]);
                    g.member("defect_rate", v.into())
                }
                4 => {
                    let v = g.deep();
                    g.member("depth", v)
                }
                _ => g.member("rows", "12".into()),
            }),
        }
    }

    fn map(&mut self) -> String {
        match self.below(8) {
            0 => self.pick(&["[]", "\"greedy\""]).to_string(),
            _ => self.object(4, |g| match g.below(6) {
                0 => {
                    let v = g.pick(&["\"greedy\"", "\"blind\"", "\"hybrid\"", "\"psychic\"", "1"]);
                    g.member("strategy", v.into())
                }
                1 => {
                    let v = g.pick(&["3", "-1", "0"]);
                    g.member("blind_retries", v.into())
                }
                2 => {
                    let v = g.pick(&["4", "0", "65", "4.5"]);
                    g.member("speculation", v.into())
                }
                3 => {
                    let v = g.pick(&["100", "0", "2000000"]);
                    g.member("max_attempts", v.into())
                }
                4 => {
                    let v = g.pick(&["9", "null", "-2"]);
                    g.member("seed", v.into())
                }
                _ => g.member("bogus", "{}".into()),
            }),
        }
    }

    fn mvm(&mut self) -> String {
        match self.below(10) {
            0 => self.pick(&["[]", "0"]).to_string(),
            _ => self.object(9, |g| match g.below(10) {
                0 => {
                    let v = g.pick(&["2", "0", "2", "1"]);
                    g.member("rows", v.into())
                }
                1 => {
                    let v = g.pick(&["2", "4097", "2"]);
                    g.member("cols", v.into())
                }
                2 => {
                    let v = g.pick(&[
                        "[0.5,-0.25,0.125,1.0]",
                        "[1e39,0,0,0]",
                        "[1e400,0]",
                        "[0,\"x\",1e39]",
                        "\"w\"",
                        "[]",
                        "[1,2,3,4,5,6,7,8,9,10]",
                        "[3.4028235e38,-3.40282356e38,0.1,-0]",
                        "[12345678901234567890,0.000001,1E2,-0.0]",
                    ]);
                    g.member("weights", v.into())
                }
                3 => {
                    let v = g.pick(&["[1.0,0.5]", "[-0]", "[0.1,1e-50]", "[[1],2]"]);
                    g.member("input", v.into())
                }
                4 => {
                    let v = g.pick(&["3", "-3"]);
                    g.member("chip_seed", v.into())
                }
                5 => {
                    let v = g.pick(&["0.02", "2", "0"]);
                    g.member("p_open", v.into())
                }
                6 => {
                    let v = g.pick(&["0.01", "\"x\""]);
                    g.member("p_closed", v.into())
                }
                7 => {
                    let v = g.pick(&["0.05", "1e39", "-0.0", "1e400"]);
                    g.member("noise_sigma", v.into())
                }
                8 => {
                    let v = g.pick(&["2", "0", "4097"]);
                    g.member("trials", v.into())
                }
                _ => g.member("bogus", "1".into()),
            }),
        }
    }

    fn job_member(&mut self) -> String {
        match self.below(14) {
            0 | 1 => {
                let v = self.pick(&[
                    "\"x0 x1\"",
                    "\"x0 x1 + !x0 !x1\"",
                    "1",
                    "null",
                    "[\"x0\"]",
                    "\"x\\u0030\"",
                ]);
                self.member("expr", v.into())
            }
            2 => {
                let v = self.pick(&["[\"x0\",\"x1\"]", "[]", "\"x0\"", "[1]", "[\"x0\",2]"]);
                self.member("exprs", v.into())
            }
            3 => {
                let v = self.pick(&["\".i 1\\n.o 1\\n1 1\\n.e\\n\"", "false"]);
                self.member("pla", v.into())
            }
            4 => {
                let v = self.pick(&["\"diode\"", "7"]);
                self.member("strategy", v.into())
            }
            5 => {
                let v = self.pick(&["\"l\"", "\"tab\\t\\ud83d\\ude00\"", "{}"]);
                self.member("label", v.into())
            }
            6 => {
                let v = self.pick(&["true", "false", "\"yes\"", "1"]);
                self.member("verify", v.into())
            }
            7 | 8 => {
                let v = self.chip();
                self.member("chip", v)
            }
            9 => {
                let v = self.map();
                self.member("map", v)
            }
            10 | 11 => {
                let v = self.mvm();
                self.member("mvm", v)
            }
            _ => {
                let key = self.pick(&["bogus", "session", "resume", "minimize", "e\\u0078pr"]);
                let v = self.deep();
                self.member(key, v)
            }
        }
    }

    fn minimize(&mut self) -> String {
        let v = self.pick(&["\"exact\"", "\"isop\"", "1", "\"fancy\""]);
        self.member("minimize", v.into())
    }

    fn limits(&mut self) -> String {
        let v = self.pick(&[
            "{\"time_ms\":250}",
            "{\"time_ms\":0}",
            "{\"bogus\":1}",
            "[1]",
            "{\"sat_conflicts\":5,\"time_ms\":60000}",
            "{\"time_ms\":1,\"time_ms\":2}",
        ]);
        self.member("limits", v.into())
    }

    fn job(&mut self) -> String {
        match self.below(12) {
            0 => self.pick(&["[\"x0\"]", "\"x0\"", "7"]).to_string(),
            _ => self.object(6, Self::job_member),
        }
    }

    /// A `"session"` member: valid, wrong in one field, repeated
    /// inside, or not an object.
    fn session(&mut self) -> String {
        let v = self.pick(&[
            "{\"id\":\"s\"}",
            "{\"id\":\"s\",\"rounds\":2}",
            "{\"rounds\":0,\"i\\u0064\":\"s\"}",
            "{\"id\":\"\"}",
            "{\"id\":\"ID\"}",
            "{\"id\":7,\"rounds\":1}",
            "{\"rounds\":1}",
            "{\"id\":\"s\",\"rounds\":-1}",
            "{\"id\":\"s\",\"rounds\":1.0}",
            "{\"id\":\"a\",\"id\":\"\",\"rounds\":1,\"rounds\":\"x\"}",
            "{\"rounds\":[[1]],\"extra\":{},\"id\":\"s\",\"more\":1}",
            "{\"rounds\":-1,\"id\":\"\"}",
            "{\"id\":null,\"rounds\":\"x\",\"extra\":1}",
            "{}",
            "\"s\"",
            "null",
            "[{\"id\":\"s\"}]",
        ]);
        // An id one byte past the 120-byte bound.
        let v = v.replace("ID", &"i".repeat(121));
        self.member("session", v)
    }

    fn resume(&mut self) -> String {
        let v = self.pick(&["true", "false", "\"yes\"", "null", "1"]);
        self.member("resume", v.into())
    }

    fn job_body(&mut self) -> String {
        self.object(7, |g| match g.below(10) {
            0 => g.minimize(),
            1 => g.limits(),
            2 => g.session(),
            3 => g.resume(),
            _ => g.job_member(),
        })
    }

    /// A `/v1/map` body dense in `"session"` and `"resume"` members.
    fn session_body(&mut self) -> String {
        self.object(6, |g| match g.below(3) {
            0 => g.session(),
            1 => g.resume(),
            _ => g.job_member(),
        })
    }

    fn batch_body(&mut self) -> String {
        self.object(6, |g| match g.below(7) {
            0 => g.minimize(),
            1 => g.limits(),
            2 | 3 => {
                let n = g.below(4);
                let jobs: Vec<String> = (0..n).map(|_| g.job()).collect();
                g.member("jobs", format!("[{}]", jobs.join(",")))
            }
            4 => {
                let v = g.pick(&["true", "false", "1", "[true]"]);
                g.member("stream", v.into())
            }
            5 => g.member("jobs", "{}".into()),
            _ => {
                let v = g.deep();
                g.member("extra", v)
            }
        })
    }

    /// The body, cut at a random byte one time in four.
    fn maybe_cut(&mut self, body: String) -> String {
        if self.below(4) == 0 {
            let at = self.below(body.len() + 1);
            body[..at].to_string()
        } else {
            body
        }
    }
}

/// The fields a parsed request is compared on: method, path,
/// `version_minor`, headers, body, and `wants_close()`.
type Parsed = (String, String, u8, Vec<(String, String)>, Vec<u8>, bool);

fn fields(request: &Request) -> Parsed {
    (
        request.method.clone(),
        request.path.clone(),
        request.version_minor,
        request.headers.clone(),
        request.body.clone(),
        request.wants_close(),
    )
}

/// Requests as a client writes them, paired with what the parser must
/// report. They vary method, path, version, CRLF vs LF line endings, a
/// header set including `Connection` token lists, and 0–64 body bytes.
fn arb_request() -> impl Strategy<Value = (Vec<u8>, Parsed)> {
    const METHODS: [&str; 4] = ["GET", "post", "PUT", "DELETE"];
    const PATHS: [&str; 5] = [
        "/",
        "/healthz",
        "/v1/batch",
        "/v1/map?session=a%20b",
        "/metrics",
    ];
    const CONNECTION: [&str; 6] = [
        "close",
        "keep-alive",
        "Keep-Alive",
        "keep-alive, close",
        "Upgrade,  CLOSE ",
        "upgrade",
    ];
    const OTHER: [(&str, &str); 3] = [
        ("Host", "127.0.0.1:8080"),
        ("X-Trace", "a:b:c"),
        ("Accept", "application/json; q=0.9"),
    ];
    (
        (any::<u8>(), any::<u8>()),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..=4),
        proptest::collection::vec(any::<u8>(), 0..=64),
        any::<bool>(),
    )
        .prop_map(
            |((m_knob, p_knob), crlf, http10, header_knobs, body, explicit_length)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let method = METHODS[m_knob as usize % METHODS.len()];
                let path = PATHS[p_knob as usize % PATHS.len()];
                let version_minor = u8::from(!http10);
                let mut sent: Vec<(&str, String)> = Vec::new();
                for knob in header_knobs {
                    if knob % 3 == 0 {
                        let value = CONNECTION[(knob / 3) as usize % CONNECTION.len()];
                        sent.push(("Connection", value.to_string()));
                    } else {
                        let (name, value) = OTHER[knob as usize % OTHER.len()];
                        sent.push((name, value.to_string()));
                    }
                }
                if !body.is_empty() || explicit_length {
                    sent.push(("Content-Length", body.len().to_string()));
                }
                let mut wire = format!("{method} {path} HTTP/1.{version_minor}{eol}");
                for (name, value) in &sent {
                    wire.push_str(&format!("{name}: {value}{eol}"));
                }
                wire.push_str(eol);
                let mut wire = wire.into_bytes();
                wire.extend_from_slice(&body);
                let headers: Vec<(String, String)> = sent
                    .iter()
                    .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
                    .collect();
                let token = |t: &str| {
                    headers.iter().any(|(name, value)| {
                        name == "connection"
                            && value
                                .split(',')
                                .any(|item| item.trim().eq_ignore_ascii_case(t))
                    })
                };
                let wants_close = token("close") || (http10 && !token("keep-alive"));
                let parsed = (
                    method.to_ascii_uppercase(),
                    path.to_string(),
                    version_minor,
                    headers,
                    body,
                    wants_close,
                );
                (wire, parsed)
            },
        )
}

/// Splits `bytes` at the (deduplicated) `cuts`, each taken modulo the
/// length.
fn split_at_cuts(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    points.push(0);
    points.push(bytes.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| bytes[w[0]..w[1]].to_vec())
        .collect()
}

/// Feeds `pieces` one at a time, draining every complete request after
/// each feed. Stops at the first error, which it returns alongside the
/// requests parsed before it.
fn parse_pieces(pieces: &[Vec<u8>], max_body: usize) -> (Vec<Parsed>, Option<String>) {
    let mut parser = RequestParser::new();
    let mut parsed = Vec::new();
    for piece in pieces {
        parser.feed(piece);
        loop {
            match parser.try_next(max_body) {
                Ok(Some(request)) => parsed.push(fields(&request)),
                Ok(None) => break,
                Err(e) => return (parsed, Some(e.to_string())),
            }
        }
    }
    (parsed, None)
}

/// Strings exercising the encoder's escape paths: quotes, backslashes,
/// control characters, astral-plane unicode, plus arbitrary scalars.
fn arb_string() -> impl Strategy<Value = String> {
    const PALETTE: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{7}', '\u{1f}', 'é', 'Ж',
        '\u{2028}', '😀',
    ];
    proptest::collection::vec(any::<u32>(), 0..=10).prop_map(|codes| {
        codes
            .into_iter()
            .map(|code| {
                if code & 1 == 0 {
                    PALETTE[(code >> 1) as usize % PALETTE.len()]
                } else {
                    char::from_u32(code % 0x11_0000).unwrap_or('\u{FFFD}')
                }
            })
            .collect()
    })
}

/// One JSON scalar.
fn arb_scalar() -> impl Strategy<Value = Json> {
    (any::<u8>(), any::<i64>(), any::<f64>(), arb_string()).prop_map(|(tag, i, x, s)| {
        match tag % 5 {
            0 => Json::Null,
            1 => Json::Bool(i & 1 == 1),
            2 => Json::Int(i),
            3 => Json::Float(x * 1e9 - 5e8),
            _ => Json::Str(s),
        }
    })
}

/// JSON values up to two container levels deep.
fn arb_json() -> impl Strategy<Value = Json> {
    (
        any::<u8>(),
        proptest::collection::vec(arb_scalar(), 0..=5),
        proptest::collection::vec((arb_string(), arb_scalar()), 0..=5),
    )
        .prop_map(|(tag, items, members)| match tag % 4 {
            0 => Json::Array(items),
            1 => Json::Object(members.into_iter().collect()),
            2 => Json::Array(vec![
                Json::Object(members.into_iter().collect()),
                Json::Array(items),
            ]),
            _ => items.into_iter().next().unwrap_or(Json::Null),
        })
}

/// Arbitrary job specs — content need not be a *valid* expression; the
/// wire layer must round-trip whatever the client sent.
fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        arb_string(),
        (any::<u8>(), arb_string()),
        (any::<u8>(), arb_string()),
        any::<bool>(),
        (
            any::<u8>(),
            1usize..=4096,
            1usize..=4096,
            0u64..1 << 62,
            any::<f64>(),
        ),
    )
        .prop_map(
            |(function, (s_knob, strategy), (l_knob, label), verify, chip)| {
                let (c_knob, rows, cols, seed, rate) = chip;
                let mut spec = if c_knob & 1 == 0 {
                    JobSpec::expr(function)
                } else {
                    JobSpec::pla(function)
                };
                if s_knob % 3 == 0 {
                    spec.strategy = Some(strategy);
                }
                if l_knob % 3 == 0 {
                    spec.label = Some(label);
                }
                spec.verify = verify;
                if c_knob % 4 == 0 {
                    spec.chip = Some(ChipRequest {
                        rows,
                        cols,
                        seed,
                        defect_rate: (c_knob % 8 == 0).then_some(rate),
                    });
                }
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary JSON values encode to text that parses back to the same
    /// value.
    #[test]
    fn json_values_roundtrip(value in arb_json()) {
        let text = value.encode();
        let back = Json::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&value), "{}", text);
        // And the encoding is a fixed point: re-encoding the parse gives
        // the same bytes (determinism the service's bit-identity relies on).
        prop_assert_eq!(back.unwrap().encode(), text);
    }

    /// Job specs survive the full wire trip: struct → JSON → text →
    /// JSON → struct.
    #[test]
    fn job_specs_roundtrip(spec in arb_spec()) {
        let text = spec.to_json().encode();
        let parsed = Json::parse(&text).expect("spec encodes to valid JSON");
        let back = JobSpec::from_json(&parsed);
        prop_assert_eq!(back.as_ref(), Ok(&spec), "{}", text);
    }

    /// Rendered engine results are themselves valid wire documents that
    /// re-encode to identical bytes.
    #[test]
    fn rendered_results_are_stable_wire_documents(
        bits in any::<u64>(),
        knobs in 0u8..=255,
    ) {
        use nanoxbar_engine::{Engine, Job, Strategy};
        use nanoxbar_logic::TruthTable;
        use nanoxbar_service::result_to_json;

        let f = TruthTable::from_fn(2, |m| (bits >> m) & 1 == 1);
        let mut job = Job::synthesize(f);
        job = match knobs % 4 {
            0 => job.with_strategy(Strategy::Diode),
            1 => job.with_strategy(Strategy::Fet),
            2 => job.with_strategy(Strategy::DualLattice),
            _ => job.with_strategy_name("no-such-backend"),
        };
        if knobs & 16 != 0 {
            job = job.verified(true).labeled(format!("job-{bits:x}"));
        }
        let engine = Engine::new();
        let rendered = result_to_json(&engine.run(&job));
        let text = rendered.encode();
        let back = Json::parse(&text).expect("results encode to valid JSON");
        prop_assert_eq!(&back, &rendered, "{}", text);
        prop_assert!(back.get("ok").is_some());
    }

    /// One-job bodies decode as the tree decoder decoded them, on
    /// `/v1/map` (session fields read) and elsewhere.
    #[test]
    fn job_requests_decode_as_the_tree_did(seed in any::<u64>()) {
        let mut g = BodyGen(seed);
        let body = g.job_body();
        let body = g.maybe_cut(body);
        for sessions in [false, true] {
            prop_assert_eq!(
                read_job_request(&body, sessions),
                oracle::job_request(&body, sessions),
                "{} (sessions: {})",
                body,
                sessions
            );
        }
    }

    /// `/v1/map` bodies full of session fields decode as the tree
    /// decoder decoded them.
    #[test]
    fn session_requests_decode_as_the_tree_did(seed in any::<u64>()) {
        let mut g = BodyGen(seed);
        let body = g.session_body();
        let body = g.maybe_cut(body);
        prop_assert_eq!(read_job_request(&body, true), oracle::job_request(&body, true), "{}", body);
    }

    /// Batch bodies decode as the tree decoder decoded them.
    #[test]
    fn batch_requests_decode_as_the_tree_did(seed in any::<u64>()) {
        let mut g = BodyGen(seed);
        let body = g.batch_body();
        let body = g.maybe_cut(body);
        prop_assert_eq!(read_batch_request(&body), oracle::batch_request(&body), "{}", body);
    }

    /// A pipelined stream of 1–4 requests parses to the same requests
    /// whether it is fed whole or cut at arbitrary points — and those are
    /// the requests the client wrote.
    #[test]
    fn request_parser_is_chunking_invariant(
        requests in proptest::collection::vec(arb_request(), 1..=4),
        cuts in proptest::collection::vec(any::<usize>(), 0..=12),
    ) {
        let (wires, sent): (Vec<Vec<u8>>, Vec<Parsed>) = requests.into_iter().unzip();
        let stream = wires.concat();
        let whole = parse_pieces(std::slice::from_ref(&stream), 1024);
        let split = parse_pieces(&split_at_cuts(&stream, &cuts), 1024);
        prop_assert_eq!(&whole, &(sent, None));
        prop_assert_eq!(&split, &whole, "cuts {:?}", cuts);
    }

    /// Arbitrary bytes — raw, or HTTP-flavoured — never panic the parser,
    /// and every split agrees with the whole feed.
    #[test]
    fn request_parser_survives_arbitrary_bytes(
        codes in proptest::collection::vec(any::<u16>(), 0..=512),
        cuts in proptest::collection::vec(any::<usize>(), 0..=8),
    ) {
        const PALETTE: &[u8] = b"GET POST / HTTP/1.0\r\n:content-length: 12 transfer-encoding\x00\xff";
        let bytes: Vec<u8> = codes
            .iter()
            .map(|&code| {
                if code & 1 == 0 {
                    PALETTE[(code >> 1) as usize % PALETTE.len()]
                } else {
                    (code >> 1) as u8
                }
            })
            .collect();
        let whole = parse_pieces(std::slice::from_ref(&bytes), 64);
        let split = parse_pieces(&split_at_cuts(&bytes, &cuts), 64);
        prop_assert_eq!(split, whole);
    }

    /// An unterminated line longer than 8 KiB is refused as soon as it
    /// is that long, whatever precedes it and however it trickles in —
    /// the parser never waits on it with `Ok(None)`.
    #[test]
    fn request_parser_refuses_an_endless_line(
        head_lines in 0usize..=3,
        extra in 1usize..=2048,
        cuts in proptest::collection::vec(any::<usize>(), 0..=16),
    ) {
        const MAX_LINE: usize = 8 * 1024;
        let mut head = Vec::new();
        if head_lines > 0 {
            head.extend_from_slice(b"POST /v1/batch HTTP/1.1\r\n");
            for _ in 1..head_lines {
                head.extend_from_slice(b"host: t\r\n");
            }
        }
        let mut bytes = head.clone();
        bytes.resize(head.len() + MAX_LINE + extra, b'a');
        let mut parser = RequestParser::new();
        let mut fed = 0;
        let mut refused = false;
        for piece in split_at_cuts(&bytes, &cuts) {
            parser.feed(&piece);
            fed += piece.len();
            let tail = fed.saturating_sub(head.len());
            match parser.try_next(1024) {
                Err(_) => {
                    prop_assert!(tail > MAX_LINE, "refused early at {} bytes", tail);
                    refused = true;
                    break;
                }
                Ok(None) => prop_assert!(tail <= MAX_LINE, "waited on {} bytes", tail),
                Ok(Some(request)) => {
                    return Err(format!("parsed {request:?} from an unterminated line"));
                }
            }
        }
        prop_assert!(refused);
    }
    /// The body bound holds before any body byte arrives, however the
    /// input is cut: once a head declaring `Content-Length` > `max_body`
    /// is complete, `try_next` refuses it; a head within the bound waits
    /// with `Ok(None)` until exactly head + length bytes have arrived,
    /// then yields the request and keeps nothing buffered.
    #[test]
    fn request_parser_bounds_the_body_before_buffering_it(
        filler in 0usize..=3,
        spelling in any::<usize>(),
        declared in 0usize..=96,
        max_body in 0usize..=64,
        seed in any::<u8>(),
        cuts in proptest::collection::vec(any::<usize>(), 0..=12),
    ) {
        const NAMES: [&str; 3] = ["Content-Length", "content-length", "CONTENT-LENGTH"];
        let mut headers: Vec<String> = (0..filler).map(|i| format!("x-filler-{i}: {i}")).collect();
        headers.insert(
            spelling % (filler + 1),
            format!("{}: {declared}", NAMES[spelling % NAMES.len()]),
        );
        let head = format!("POST /v1/batch HTTP/1.1\r\n{}\r\n\r\n", headers.join("\r\n"));
        let head = head.into_bytes();
        let body: Vec<u8> = (0..declared).map(|i| seed.wrapping_add(i as u8)).collect();
        let stream = [head.clone(), body.clone()].concat();
        // Always cut where the head ends, so the first check after it
        // completes has seen no body byte.
        let mut cuts = cuts;
        cuts.push(head.len());

        let mut parser = RequestParser::new();
        let mut fed = 0;
        for piece in split_at_cuts(&stream, &cuts) {
            parser.feed(&piece);
            fed += piece.len();
            let next = parser.try_next(max_body);
            if fed < head.len() || (declared <= max_body && fed < stream.len()) {
                prop_assert!(matches!(next, Ok(None)), "at {} bytes: {:?}", fed, next);
                continue;
            }
            if declared > max_body {
                prop_assert_eq!(fed, head.len(), "refused only with the head alone");
                prop_assert!(
                    matches!(next, Err(HttpError::BodyTooLarge { declared: d, limit })
                        if d == declared && limit == max_body),
                    "{:?}",
                    next
                );
            } else {
                let request = next.expect("a framed request parses").expect("complete");
                prop_assert_eq!(request.body, body);
                prop_assert_eq!(parser.buffered(), 0);
            }
            return Ok(());
        }
        prop_assert!(false, "the stream ended without a verdict");
    }
}
