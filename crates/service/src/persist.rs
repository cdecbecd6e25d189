//! Crash-safe durable state: the wire-JSON record codecs for the two
//! append-only logs (`cache.log`, `sessions.log`) and the background
//! [`StatePersister`] that batches appends, syncs them, and compacts a
//! log once its dead weight dwarfs the live state.
//!
//! Records are framed and checksummed by [`nanoxbar_store`]; this module
//! only decides what the payload bytes *mean*. Payloads are the service's
//! own deterministic [`wire`](crate::wire) JSON. Two encoding rules keep
//! them faithful:
//!
//! * **Full-range `u64`s travel as 16-digit hex strings** — truth-table
//!   words and RNG state use all 64 bits, and the wire integer is `i64`.
//! * **Realizations are persisted structurally** (grid points, literals,
//!   lattice sites), then rebuilt through the checked `from_parts`/
//!   `from_rows` constructors — persisted bytes are data, not code, so a
//!   tampered record becomes a counted decode error, never a panic.
//!   BDD sneak-path crossbars persist as their *output truth tables* and
//!   are rebuilt by the deterministic compiler, so a decoded crossbar is
//!   bit-identical to the one that was stored and can never be
//!   structurally invalid.
//!
//! Replay happens in [`Service::new`](crate::Service) *before* the cache
//! insert listener is registered, so preloaded entries are not re-logged.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nanoxbar_crossbar::{ArraySize, Crossbar, DiodeArray, FetArray};
use nanoxbar_engine::{
    CacheKey, CachedSynthesis, MapperSnapshot, MinimizeMode, Realization, ResultCache,
};
use nanoxbar_lattice::{Lattice, Site};
use nanoxbar_logic::{word_len, Cover, Cube, Literal, TruthTable};
use nanoxbar_reliability::defect::CrosspointHealth;
use nanoxbar_reliability::mapper::Defect;
use nanoxbar_store::{open_log, rewrite_log, LogWriter, Vfs};

use crate::metrics::Metrics;
use crate::session::SessionTable;
use crate::wire::{object, Json};

/// File name of the result-cache log inside the state directory.
pub const CACHE_LOG: &str = "cache.log";
/// File name of the mapper-session log inside the state directory.
pub const SESSION_LOG: &str = "sessions.log";

/// Record format version; bump on incompatible payload changes.
const RECORD_VERSION: i64 = 1;

/// Compaction threshold: a log is rewritten once it holds more than
/// `2 × live + COMPACT_SLACK` records. The slack keeps tiny state from
/// compacting on every append.
const COMPACT_SLACK: u64 = 64;

// ---------------------------------------------------------------------
// Scalar codecs
// ---------------------------------------------------------------------

/// A full-range `u64` as a 16-digit hex wire string (the wire integer is
/// `i64`, which cannot carry truth-table words or RNG state faithfully).
fn hex64(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn parse_hex64(v: &Json) -> Result<u64, String> {
    let text = v.as_str().ok_or("expected a hex string")?;
    u64::from_str_radix(text, 16).map_err(|_| format!("bad hex u64 {text:?}"))
}

fn parse_usize(v: &Json, what: &str) -> Result<usize, String> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("{what} must be a non-negative integer"))
}

fn parse_u64(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{what} must be a non-negative integer"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn minimize_to_str(mode: MinimizeMode) -> &'static str {
    match mode {
        MinimizeMode::Isop => "isop",
        MinimizeMode::Exact => "exact",
    }
}

fn parse_minimize_mode(v: &Json) -> Result<MinimizeMode, String> {
    match v.as_str() {
        Some("isop") => Ok(MinimizeMode::Isop),
        Some("exact") => Ok(MinimizeMode::Exact),
        _ => Err("bad minimize mode".into()),
    }
}

fn literal_to_str(lit: Literal) -> String {
    if lit.is_positive() {
        format!("x{}", lit.var())
    } else {
        format!("!x{}", lit.var())
    }
}

fn parse_literal(v: &Json) -> Result<Literal, String> {
    let text = v.as_str().ok_or("literal must be a string")?;
    let (positive, rest) = match text.strip_prefix('!') {
        Some(rest) => (false, rest),
        None => (true, text),
    };
    let var: usize = rest
        .strip_prefix('x')
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| format!("bad literal {text:?}"))?;
    Ok(Literal::new(var, positive))
}

fn site_to_json(site: Site) -> Json {
    match site {
        Site::Const(false) => Json::Str("0".into()),
        Site::Const(true) => Json::Str("1".into()),
        Site::Literal(lit) => Json::Str(literal_to_str(lit)),
    }
}

fn parse_site(v: &Json) -> Result<Site, String> {
    match v.as_str() {
        Some("0") => Ok(Site::Const(false)),
        Some("1") => Ok(Site::Const(true)),
        _ => Ok(Site::Literal(parse_literal(v)?)),
    }
}

fn health_to_str(health: CrosspointHealth) -> &'static str {
    match health {
        CrosspointHealth::Good => "good",
        CrosspointHealth::StuckOpen => "stuck-open",
        CrosspointHealth::StuckClosed => "stuck-closed",
    }
}

fn parse_health(v: &Json) -> Result<CrosspointHealth, String> {
    match v.as_str() {
        Some("good") => Ok(CrosspointHealth::Good),
        Some("stuck-open") => Ok(CrosspointHealth::StuckOpen),
        Some("stuck-closed") => Ok(CrosspointHealth::StuckClosed),
        other => Err(format!("bad crosspoint health {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Realization / cover codecs
// ---------------------------------------------------------------------

fn points_to_json(grid: &Crossbar) -> Json {
    Json::Array(
        grid.programmed_points()
            .map(|(r, c)| Json::Array(vec![Json::from(r), Json::from(c)]))
            .collect(),
    )
}

fn parse_grid(size: ArraySize, points: &Json) -> Result<Crossbar, String> {
    let mut grid = Crossbar::new(size);
    for point in points.as_array().ok_or("points must be an array")? {
        let pair = point.as_array().ok_or("point must be a [row, col] pair")?;
        if pair.len() != 2 {
            return Err("point must be a [row, col] pair".into());
        }
        let r = parse_usize(&pair[0], "point row")?;
        let c = parse_usize(&pair[1], "point col")?;
        if r >= size.rows || c >= size.cols {
            return Err(format!("point ({r}, {c}) outside {size}"));
        }
        grid.set(r, c, true);
    }
    Ok(grid)
}

/// The structural wire form of a [`Realization`].
pub fn realization_to_json(realization: &Realization) -> Json {
    match realization {
        Realization::Diode(array) => object(vec![
            ("tech", Json::Str("diode".into())),
            ("rows", Json::from(array.size().rows)),
            ("cols", Json::from(array.size().cols)),
            ("num_vars", Json::from(array.num_vars())),
            (
                "literals",
                Json::Array(
                    array
                        .column_literals()
                        .iter()
                        .map(|&l| Json::Str(literal_to_str(l)))
                        .collect(),
                ),
            ),
            ("points", points_to_json(array.grid())),
        ]),
        Realization::Fet(array) => object(vec![
            ("tech", Json::Str("fet".into())),
            ("rows", Json::from(array.size().rows)),
            ("cols", Json::from(array.size().cols)),
            ("num_vars", Json::from(array.num_vars())),
            ("n_columns", Json::from(array.n_columns())),
            (
                "literals",
                Json::Array(
                    array
                        .row_literals()
                        .iter()
                        .map(|&l| Json::Str(literal_to_str(l)))
                        .collect(),
                ),
            ),
            ("points", points_to_json(array.grid())),
        ]),
        Realization::Lattice(lattice) => object(vec![
            ("tech", Json::Str("lattice".into())),
            ("num_vars", Json::from(lattice.num_vars())),
            (
                "sites",
                Json::Array(
                    (0..lattice.rows())
                        .map(|r| {
                            Json::Array(
                                (0..lattice.cols())
                                    .map(|c| site_to_json(lattice.site(r, c)))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ]),
        Realization::Bdd(xbar) => object(vec![
            ("tech", Json::Str("bdd".into())),
            ("num_vars", Json::from(xbar.num_vars())),
            (
                "outputs",
                Json::Array(
                    xbar.functions()
                        .iter()
                        .map(|t| Json::Array(t.words().iter().map(|&w| hex64(w)).collect()))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Rebuilds a [`Realization`] from its structural wire form through the
/// checked constructors.
pub fn realization_from_json(v: &Json) -> Result<Realization, String> {
    let literals = |v: &Json| -> Result<Vec<Literal>, String> {
        field(v, "literals")?
            .as_array()
            .ok_or("literals must be an array")?
            .iter()
            .map(parse_literal)
            .collect()
    };
    match field(v, "tech")?.as_str() {
        Some("diode") => {
            let size = ArraySize::new(
                parse_usize(field(v, "rows")?, "rows")?,
                parse_usize(field(v, "cols")?, "cols")?,
            );
            let grid = parse_grid(size, field(v, "points")?)?;
            let num_vars = parse_usize(field(v, "num_vars")?, "num_vars")?;
            Ok(Realization::Diode(DiodeArray::from_parts(
                grid,
                literals(v)?,
                num_vars,
            )?))
        }
        Some("fet") => {
            let size = ArraySize::new(
                parse_usize(field(v, "rows")?, "rows")?,
                parse_usize(field(v, "cols")?, "cols")?,
            );
            let grid = parse_grid(size, field(v, "points")?)?;
            let n_columns = parse_usize(field(v, "n_columns")?, "n_columns")?;
            let num_vars = parse_usize(field(v, "num_vars")?, "num_vars")?;
            Ok(Realization::Fet(FetArray::from_parts(
                grid,
                literals(v)?,
                n_columns,
                num_vars,
            )?))
        }
        Some("lattice") => {
            let num_vars = parse_usize(field(v, "num_vars")?, "num_vars")?;
            let rows: Vec<Vec<Site>> = field(v, "sites")?
                .as_array()
                .ok_or("sites must be an array")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| "site row must be an array".to_string())?
                        .iter()
                        .map(parse_site)
                        .collect()
                })
                .collect::<Result<_, String>>()?;
            Ok(Realization::Lattice(Lattice::from_rows(num_vars, rows)?))
        }
        Some("bdd") => {
            let num_vars = parse_usize(field(v, "num_vars")?, "num_vars")?;
            // Bound the rebuild cost: a record past this arity could not
            // have come from the service (and would decode into an
            // exponential allocation).
            if num_vars > 20 {
                return Err(format!("bdd record arity {num_vars} too large"));
            }
            let wl = word_len(num_vars);
            let outputs: Vec<TruthTable> = field(v, "outputs")?
                .as_array()
                .ok_or("outputs must be an array")?
                .iter()
                .map(|words| -> Result<TruthTable, String> {
                    let words: Vec<u64> = words
                        .as_array()
                        .ok_or("output words must be an array")?
                        .iter()
                        .map(parse_hex64)
                        .collect::<Result<_, String>>()?;
                    if words.len() != wl {
                        return Err(format!(
                            "output needs {wl} words for {num_vars} variables, got {}",
                            words.len()
                        ));
                    }
                    Ok(TruthTable::from_fn(num_vars, |m| {
                        (words[(m / 64) as usize] >> (m % 64)) & 1 == 1
                    }))
                })
                .collect::<Result<_, String>>()?;
            // The compiler is deterministic in the output set, so the
            // rebuilt crossbar is bit-identical to the stored one.
            let xbar = nanoxbar_bddsynth::compile_multi(&outputs).map_err(|e| e.to_string())?;
            Ok(Realization::Bdd(xbar))
        }
        other => Err(format!("unknown realization technology {other:?}")),
    }
}

fn cover_to_json(cover: &Cover) -> Json {
    object(vec![
        ("num_vars", Json::from(cover.num_vars())),
        (
            "cubes",
            Json::Array(
                cover
                    .cubes()
                    .iter()
                    .map(|cube| Json::Array(vec![hex64(cube.pos_mask()), hex64(cube.neg_mask())]))
                    .collect(),
            ),
        ),
    ])
}

fn cover_from_json(v: &Json) -> Result<Cover, String> {
    let num_vars = parse_usize(field(v, "num_vars")?, "num_vars")?;
    let cubes: Vec<Cube> = field(v, "cubes")?
        .as_array()
        .ok_or("cubes must be an array")?
        .iter()
        .map(|pair| {
            let masks = pair.as_array().ok_or("cube must be a [pos, neg] pair")?;
            if masks.len() != 2 {
                return Err("cube must be a [pos, neg] pair".into());
            }
            Cube::from_masks(num_vars, parse_hex64(&masks[0])?, parse_hex64(&masks[1])?)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    Cover::from_cubes(num_vars, cubes).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Cache records
// ---------------------------------------------------------------------

/// The wire form of a [`CacheKey`] — shared by the cache log and the
/// peer-fill protocol, so a fill request names exactly the entry a log
/// record would store.
pub(crate) fn key_to_json(key: &CacheKey) -> Json {
    object(vec![
        ("num_vars", Json::from(key.num_vars())),
        (
            "words",
            Json::Array(key.words().iter().map(|&w| hex64(w)).collect()),
        ),
        ("strategy", Json::Str(key.strategy().into())),
        (
            "minimize",
            Json::Str(minimize_to_str(key.minimize()).into()),
        ),
    ])
}

/// Rebuilds a [`CacheKey`] from its wire form.
pub(crate) fn key_from_json(key: &Json) -> Result<CacheKey, String> {
    let words: Vec<u64> = field(key, "words")?
        .as_array()
        .ok_or("words must be an array")?
        .iter()
        .map(parse_hex64)
        .collect::<Result<_, String>>()?;
    Ok(CacheKey::from_parts(
        parse_usize(field(key, "num_vars")?, "num_vars")?,
        words,
        field(key, "strategy")?
            .as_str()
            .ok_or("strategy must be a string")?
            .to_string(),
        parse_minimize_mode(field(key, "minimize")?)?,
    ))
}

/// Encodes one result-cache entry as a log payload.
pub fn encode_cache_record(key: &CacheKey, value: &CachedSynthesis) -> Vec<u8> {
    let mut members = vec![
        ("v", Json::Int(RECORD_VERSION)),
        ("key", key_to_json(key)),
        ("realization", realization_to_json(&value.realization)),
    ];
    if let Some(cover) = &value.cover {
        members.push(("cover", cover_to_json(cover)));
    }
    object(members).encode().into_bytes()
}

/// Decodes one result-cache log payload.
///
/// # Errors
///
/// A message for malformed, version-skewed, or structurally invalid
/// payloads (the caller counts these and drops the record).
pub fn decode_cache_record(payload: &[u8]) -> Result<(CacheKey, CachedSynthesis), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    if field(&json, "v")?.as_i64() != Some(RECORD_VERSION) {
        return Err("unsupported cache record version".into());
    }
    let key = key_from_json(field(&json, "key")?)?;
    let realization = Arc::new(realization_from_json(field(&json, "realization")?)?);
    let cover = match json.get("cover") {
        None => None,
        Some(v) => Some(Arc::new(cover_from_json(v)?)),
    };
    // The fingerprint is not on disk or on the wire: recompute it.
    Ok((key, CachedSynthesis::new(realization, cover)))
}

// ---------------------------------------------------------------------
// Session records
// ---------------------------------------------------------------------

fn defects_to_json(defects: &[Defect]) -> Json {
    Json::Array(
        defects
            .iter()
            .map(|&(r, c, health)| {
                Json::Array(vec![
                    Json::from(r),
                    Json::from(c),
                    Json::Str(health_to_str(health).into()),
                ])
            })
            .collect(),
    )
}

fn parse_defects(v: &Json) -> Result<Vec<Defect>, String> {
    v.as_array()
        .ok_or("known_bad must be an array")?
        .iter()
        .map(|triple| {
            let triple = triple.as_array().ok_or("defect must be a triple")?;
            if triple.len() != 3 {
                return Err("defect must be a [row, col, kind] triple".into());
            }
            Ok((
                parse_usize(&triple[0], "defect row")?,
                parse_usize(&triple[1], "defect col")?,
                parse_health(&triple[2])?,
            ))
        })
        .collect()
}

fn snapshot_to_json(snapshot: &MapperSnapshot) -> Json {
    let mut members = vec![
        (
            "rng",
            Json::Array(snapshot.rng.iter().map(|&w| hex64(w)).collect()),
        ),
        ("known_bad", defects_to_json(&snapshot.known_bad)),
        ("attempts", Json::from(snapshot.stats.attempts)),
        ("bist_runs", Json::from(snapshot.stats.bist_runs)),
        ("bisd_runs", Json::from(snapshot.stats.bisd_runs)),
        ("success", Json::Bool(snapshot.stats.success)),
        ("rounds", Json::from(snapshot.rounds)),
        ("done", Json::Bool(snapshot.done)),
    ];
    if let Some(mapping) = &snapshot.mapping {
        members.push((
            "mapping",
            Json::Array(mapping.iter().map(|&r| Json::from(r)).collect()),
        ));
    }
    object(members)
}

fn snapshot_from_json(v: &Json) -> Result<MapperSnapshot, String> {
    let rng_words: Vec<u64> = field(v, "rng")?
        .as_array()
        .ok_or("rng must be an array")?
        .iter()
        .map(parse_hex64)
        .collect::<Result<_, String>>()?;
    let rng: [u64; 4] = rng_words
        .try_into()
        .map_err(|_| "rng must hold four words".to_string())?;
    let mapping = match v.get("mapping") {
        None => None,
        Some(rows) => Some(
            rows.as_array()
                .ok_or("mapping must be an array")?
                .iter()
                .map(|r| parse_usize(r, "mapping row"))
                .collect::<Result<Vec<usize>, String>>()?,
        ),
    };
    Ok(MapperSnapshot {
        rng,
        known_bad: parse_defects(field(v, "known_bad")?)?,
        stats: nanoxbar_engine::BismStats {
            attempts: parse_u64(field(v, "attempts")?, "attempts")?,
            bist_runs: parse_u64(field(v, "bist_runs")?, "bist_runs")?,
            bisd_runs: parse_u64(field(v, "bisd_runs")?, "bisd_runs")?,
            success: field(v, "success")?
                .as_bool()
                .ok_or("success must be a boolean")?,
        },
        rounds: parse_u64(field(v, "rounds")?, "rounds")?,
        done: field(v, "done")?
            .as_bool()
            .ok_or("done must be a boolean")?,
        mapping,
    })
}

/// One decoded session-log payload: an upsert or a tombstone. Replay
/// folds the log down to the **last record per id**.
pub enum SessionRecord {
    /// The session's latest checkpoint.
    Put {
        /// Session id.
        id: String,
        /// Minimise mode of the session's engine.
        minimize: MinimizeMode,
        /// The job spec (JSON object form) the session was created from.
        spec: Json,
        /// The round-boundary mapper checkpoint, if one was taken.
        snapshot: Option<MapperSnapshot>,
    },
    /// The session completed or expired; forget it.
    Drop {
        /// Session id.
        id: String,
    },
}

/// Encodes a session checkpoint as a log payload.
pub fn encode_session_record(
    id: &str,
    minimize: MinimizeMode,
    spec: &Json,
    snapshot: Option<&MapperSnapshot>,
) -> Vec<u8> {
    let mut members = vec![
        ("v", Json::Int(RECORD_VERSION)),
        ("id", Json::Str(id.into())),
        ("minimize", Json::Str(minimize_to_str(minimize).into())),
        ("spec", spec.clone()),
    ];
    if let Some(snapshot) = snapshot {
        members.push(("snapshot", snapshot_to_json(snapshot)));
    }
    object(members).encode().into_bytes()
}

/// Encodes a session tombstone as a log payload.
pub fn encode_session_drop(id: &str) -> Vec<u8> {
    object(vec![
        ("v", Json::Int(RECORD_VERSION)),
        ("id", Json::Str(id.into())),
        ("drop", Json::Bool(true)),
    ])
    .encode()
    .into_bytes()
}

/// Decodes one session-log payload.
///
/// # Errors
///
/// A message for malformed or version-skewed payloads.
pub fn decode_session_record(payload: &[u8]) -> Result<SessionRecord, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    if field(&json, "v")?.as_i64() != Some(RECORD_VERSION) {
        return Err("unsupported session record version".into());
    }
    let id = field(&json, "id")?
        .as_str()
        .ok_or("id must be a string")?
        .to_string();
    if json.get("drop").and_then(Json::as_bool) == Some(true) {
        return Ok(SessionRecord::Drop { id });
    }
    let snapshot = match json.get("snapshot") {
        None => None,
        Some(v) => Some(snapshot_from_json(v)?),
    };
    Ok(SessionRecord::Put {
        id,
        minimize: parse_minimize_mode(field(&json, "minimize")?)?,
        spec: field(&json, "spec")?.clone(),
        snapshot,
    })
}

// ---------------------------------------------------------------------
// Boot-time replay accounting
// ---------------------------------------------------------------------

/// What boot-time replay recovered, reported in `/healthz` and kept for
/// the lifetime of the [`Service`](crate::Service).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryInfo {
    /// Cache records replayed into the result cache.
    pub cache_records_replayed: u64,
    /// Raw session records replayed (before last-per-id folding).
    pub session_records_replayed: u64,
    /// Live sessions materialised after folding.
    pub sessions_recovered: u64,
    /// Torn/corrupt tail bytes truncated across both logs.
    pub bytes_truncated: u64,
    /// CRC-valid records whose payload failed to decode (skipped).
    pub decode_errors: u64,
    /// Cache-log generation (bumped by each compaction).
    pub cache_generation: u32,
    /// Session-log generation.
    pub session_generation: u32,
}

// ---------------------------------------------------------------------
// The background persister
// ---------------------------------------------------------------------

/// A command for the persister thread.
pub(crate) enum PersistCmd {
    /// Append one cache record.
    AppendCache(Vec<u8>),
    /// Append one session record.
    AppendSession(Vec<u8>),
    /// Sync both logs, then acknowledge.
    Flush(SyncSender<()>),
    /// Final sync, acknowledge, and exit.
    Shutdown(SyncSender<()>),
}

/// Handle on the background flusher thread. Appends are enqueued (never
/// block on disk); the thread batches whatever accumulated within one
/// flush interval and pays **one sync per batch**. [`StatePersister::flush`]
/// is the synchronous barrier tests and shutdown use.
pub(crate) struct StatePersister {
    tx: Sender<PersistCmd>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    metrics: Arc<Metrics>,
}

impl StatePersister {
    /// Enqueues one session record.
    pub fn append_session(&self, payload: Vec<u8>) {
        Metrics::bump(&self.metrics.persist_enqueued);
        let _ = self.tx.send(PersistCmd::AppendSession(payload));
    }

    /// A sender for the cache insert listener (which must not borrow
    /// `self`).
    pub fn sender(&self) -> Sender<PersistCmd> {
        self.tx.clone()
    }

    /// Synchronous barrier: everything enqueued before this call is on
    /// disk (or counted as a flush error) when it returns.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = std::sync::mpsc::sync_channel(1);
        if self.tx.send(PersistCmd::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Final flush and thread join; idempotent.
    pub fn shutdown(&self) {
        let (ack_tx, ack_rx) = std::sync::mpsc::sync_channel(1);
        if self.tx.send(PersistCmd::Shutdown(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
        if let Some(thread) = self.thread.lock().expect("persister lock").take() {
            let _ = thread.join();
        }
    }
}

/// One log under the persister's management.
struct ManagedLog {
    name: &'static str,
    writer: LogWriter,
    /// Records currently in the log file (replayed + appended).
    records: u64,
    /// Appends are refused after an unrecoverable write failure.
    disabled: bool,
}

impl ManagedLog {
    fn append(&mut self, payload: &[u8], metrics: &Metrics) -> bool {
        if self.disabled {
            Metrics::bump(&metrics.persist_flush_errors);
            return false;
        }
        match self.writer.append(payload) {
            Ok(()) => {
                self.records += 1;
                Metrics::bump(&metrics.persist_records_appended);
                true
            }
            Err(_) => {
                Metrics::bump(&metrics.persist_flush_errors);
                false
            }
        }
    }

    fn sync(&mut self, metrics: &Metrics) {
        if !self.disabled && self.writer.sync().is_err() {
            Metrics::bump(&metrics.persist_flush_errors);
        }
    }

    /// Rewrites the log from `payloads` (live state only), bumping the
    /// generation. Also the recovery path after a poisoned writer: the
    /// rewrite starts a fresh file, so one bad write does not end
    /// persistence for the process.
    fn rewrite(&mut self, vfs: &dyn Vfs, payloads: &[Vec<u8>], metrics: &Metrics) {
        match rewrite_log(vfs, self.name, self.writer.generation(), payloads) {
            Ok(writer) => {
                self.writer = writer;
                self.records = payloads.len() as u64;
                self.disabled = false;
                Metrics::bump(&metrics.persist_compactions);
            }
            Err(_) => {
                Metrics::bump(&metrics.persist_flush_errors);
                self.disabled = true;
            }
        }
    }

    fn wants_compaction(&self, live: u64) -> bool {
        self.records > live.saturating_mul(2) + COMPACT_SLACK
    }
}

/// Everything the persister thread owns.
pub(crate) struct PersisterState {
    pub vfs: Arc<dyn Vfs>,
    pub cache_writer: LogWriter,
    pub session_writer: LogWriter,
    pub cache_records: u64,
    pub session_records: u64,
    pub cache: Option<Arc<ResultCache>>,
    pub sessions: Arc<SessionTable>,
}

/// Spawns the background flusher thread.
pub(crate) fn spawn_persister(
    state: PersisterState,
    metrics: Arc<Metrics>,
    flush_interval: Duration,
) -> StatePersister {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread_metrics = metrics.clone();
    let thread = std::thread::Builder::new()
        .name("nanoxbar-persist".into())
        .spawn(move || persister_loop(state, rx, &thread_metrics, flush_interval))
        .expect("spawn persister thread");
    StatePersister {
        tx,
        thread: Mutex::new(Some(thread)),
        metrics,
    }
}

fn persister_loop(
    state: PersisterState,
    rx: Receiver<PersistCmd>,
    metrics: &Metrics,
    flush_interval: Duration,
) {
    let mut cache_log = ManagedLog {
        name: CACHE_LOG,
        writer: state.cache_writer,
        records: state.cache_records,
        disabled: false,
    };
    let mut session_log = ManagedLog {
        name: SESSION_LOG,
        writer: state.session_writer,
        records: state.session_records,
        disabled: false,
    };
    let mut shutdown_ack = None;
    'serve: loop {
        let first = match rx.recv_timeout(flush_interval) {
            Ok(cmd) => Some(cmd),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break 'serve,
        };
        let mut batch: Vec<PersistCmd> = first.into_iter().collect();
        while batch.len() < 1024 {
            match rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => break,
            }
        }

        let mut cache_failed = false;
        let mut session_failed = false;
        let mut drained = 0u64;
        let mut acks: Vec<SyncSender<()>> = Vec::new();
        for cmd in batch {
            match cmd {
                PersistCmd::AppendCache(payload) => {
                    cache_failed |= !cache_log.append(&payload, metrics);
                    drained += 1;
                }
                PersistCmd::AppendSession(payload) => {
                    session_failed |= !session_log.append(&payload, metrics);
                    drained += 1;
                }
                PersistCmd::Flush(ack) => acks.push(ack),
                PersistCmd::Shutdown(ack) => {
                    shutdown_ack = Some(ack);
                }
            }
        }
        cache_log.sync(metrics);
        session_log.sync(metrics);
        Metrics::add(&metrics.persist_drained, drained);

        // A failed append leaves the writer poisoned (a torn frame may be
        // on disk); rebuild the log from live state instead of giving up.
        if cache_failed {
            if let Some(cache) = &state.cache {
                let payloads: Vec<Vec<u8>> = cache
                    .snapshot()
                    .iter()
                    .map(|(k, v)| encode_cache_record(k, v))
                    .collect();
                cache_log.rewrite(&*state.vfs, &payloads, metrics);
            }
        }
        if session_failed {
            let payloads = state.sessions.compaction_payloads();
            session_log.rewrite(&*state.vfs, &payloads, metrics);
        }

        // Routine compaction: drop dead weight once it dwarfs live state.
        if let Some(cache) = &state.cache {
            if cache_log.wants_compaction(cache.len() as u64) {
                let payloads: Vec<Vec<u8>> = cache
                    .snapshot()
                    .iter()
                    .map(|(k, v)| encode_cache_record(k, v))
                    .collect();
                cache_log.rewrite(&*state.vfs, &payloads, metrics);
            }
        }
        if session_log.wants_compaction(state.sessions.len() as u64) {
            let payloads = state.sessions.compaction_payloads();
            session_log.rewrite(&*state.vfs, &payloads, metrics);
        }

        for ack in acks {
            let _ = ack.send(());
        }
        if let Some(ack) = shutdown_ack.take() {
            let _ = ack.send(());
            break 'serve;
        }
    }
    // Channel closed or shutdown: one last sync so nothing enqueued is
    // left only in the page cache.
    let mut drained = 0u64;
    while let Ok(cmd) = rx.try_recv() {
        match cmd {
            PersistCmd::AppendCache(payload) => {
                cache_log.append(&payload, metrics);
                drained += 1;
            }
            PersistCmd::AppendSession(payload) => {
                session_log.append(&payload, metrics);
                drained += 1;
            }
            PersistCmd::Flush(ack) | PersistCmd::Shutdown(ack) => {
                let _ = ack.send(());
            }
        }
    }
    Metrics::add(&metrics.persist_drained, drained);
    cache_log.sync(metrics);
    session_log.sync(metrics);
}

/// The two opened logs plus replay accounting, ready for preloading.
pub(crate) struct OpenedState {
    pub cache_records: Vec<Vec<u8>>,
    pub session_records: Vec<Vec<u8>>,
    pub cache_writer: LogWriter,
    pub session_writer: LogWriter,
    pub bytes_truncated: u64,
    pub cache_generation: u32,
    pub session_generation: u32,
}

/// Opens (replaying and tail-truncating) both logs on `vfs`.
pub(crate) fn open_state(vfs: &dyn Vfs) -> io::Result<OpenedState> {
    let cache = open_log(vfs, CACHE_LOG)?;
    let sessions = open_log(vfs, SESSION_LOG)?;
    Ok(OpenedState {
        cache_records: cache.records.into_iter().map(|(_, p)| p).collect(),
        session_records: sessions.records.into_iter().map(|(_, p)| p).collect(),
        cache_writer: cache.writer,
        session_writer: sessions.writer,
        bytes_truncated: cache.stats.bytes_truncated + sessions.stats.bytes_truncated,
        cache_generation: cache.stats.generation,
        session_generation: sessions.stats.generation,
    })
}

/// The current flush lag: records enqueued but not yet written out.
pub(crate) fn flush_lag(metrics: &Metrics) -> u64 {
    metrics
        .persist_enqueued
        .load(Ordering::Relaxed)
        .saturating_sub(metrics.persist_drained.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_engine::{Engine, Job, Strategy};
    use nanoxbar_logic::parse_function;

    fn synthesis_of(expr: &str, strategy: Strategy) -> (CacheKey, CachedSynthesis) {
        let f = parse_function(expr).expect("parse");
        let cache = Arc::new(ResultCache::new(1 << 20));
        let engine = Engine::builder()
            .shared_cache(cache.clone())
            .build()
            .expect("engine");
        engine
            .run(&Job::synthesize(f.clone()).with_strategy(strategy))
            .expect("synthesis");
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.len(), 1);
        snapshot.into_iter().next().expect("one entry")
    }

    #[test]
    fn cache_records_roundtrip_debug_identically_for_every_technology() {
        for strategy in [
            Strategy::Diode,
            Strategy::Fet,
            Strategy::DualLattice,
            Strategy::OptimalLattice,
            Strategy::Bdd,
        ] {
            let (key, value) = synthesis_of("x0 x1 + !x0 !x1 + x2 !x0", strategy);
            let payload = encode_cache_record(&key, &value);
            let (key2, value2) = decode_cache_record(&payload).expect("decode");
            assert_eq!(key, key2, "{strategy:?} key");
            // Debug-identical realizations fingerprint identically, which
            // is what makes warm-started bodies byte-identical.
            assert_eq!(
                format!("{:?}", value.realization),
                format!("{:?}", value2.realization),
                "{strategy:?} realization"
            );
            assert_eq!(
                format!("{:?}", value.cover),
                format!("{:?}", value2.cover),
                "{strategy:?} cover"
            );
            // The fingerprint is recomputed on load, not stored.
            assert_eq!(
                value.realization.fingerprint(),
                value2.realization.fingerprint(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn multi_output_bdd_records_roundtrip() {
        let outputs = vec![
            parse_function("x0 x1 + x2").expect("parse"),
            parse_function("x0 ^ x1 ^ x2").expect("parse"),
        ];
        let cache = Arc::new(ResultCache::new(1 << 20));
        let engine = Engine::builder()
            .shared_cache(cache.clone())
            .build()
            .expect("engine");
        engine
            .run(&Job::synthesize_multi(outputs.clone()).verified(true))
            .expect("multi synthesis");
        let (key, value) = cache.snapshot().into_iter().next().expect("one entry");
        assert_eq!(key.strategy(), "bdd-multi");
        let payload = encode_cache_record(&key, &value);
        let (key2, value2) = decode_cache_record(&payload).expect("decode");
        assert_eq!(key, key2);
        assert_eq!(
            format!("{:?}", value.realization),
            format!("{:?}", value2.realization),
            "recompiled crossbar must be bit-identical"
        );
        assert!(value2.realization.computes_outputs(&outputs));
    }

    #[test]
    fn tampered_records_decode_to_errors_not_panics() {
        let (key, value) = synthesis_of("x0 x1", Strategy::Diode);
        let good = String::from_utf8(encode_cache_record(&key, &value)).expect("utf8");
        for bad in [
            "".to_string(),
            "{}".to_string(),
            "{\"v\":99}".to_string(),
            good.replace("\"strategy\"", "\"strategem\""),
            // A point far outside the grid must be rejected, not set.
            good.replace("\"points\":[[0,0]", "\"points\":[[900,900]"),
        ] {
            assert!(decode_cache_record(bad.as_bytes()).is_err(), "{bad}");
        }
    }

    #[test]
    fn session_records_roundtrip_including_tombstones() {
        let snapshot = MapperSnapshot {
            rng: [u64::MAX, 1, 0x0123_4567_89AB_CDEF, 42],
            known_bad: vec![
                (0, 3, CrosspointHealth::StuckOpen),
                (2, 2, CrosspointHealth::StuckClosed),
            ],
            stats: nanoxbar_engine::BismStats {
                attempts: 7,
                bist_runs: 7,
                bisd_runs: 3,
                success: false,
            },
            rounds: 2,
            done: false,
            mapping: None,
        };
        let spec = Json::parse(
            "{\"expr\":\"x0 x1\",\"chip\":{\"rows\":8,\"cols\":8,\"seed\":1},\"map\":{}}",
        )
        .expect("spec json");
        let payload = encode_session_record("diag-1", MinimizeMode::Exact, &spec, Some(&snapshot));
        match decode_session_record(&payload).expect("decode") {
            SessionRecord::Put {
                id,
                minimize,
                spec: spec2,
                snapshot: Some(snap2),
            } => {
                assert_eq!(id, "diag-1");
                assert_eq!(minimize, MinimizeMode::Exact);
                assert_eq!(spec2, spec);
                assert_eq!(snap2, snapshot);
            }
            _ => panic!("expected a Put with a snapshot"),
        }
        match decode_session_record(&encode_session_drop("diag-1")).expect("decode") {
            SessionRecord::Drop { id } => assert_eq!(id, "diag-1"),
            _ => panic!("expected a Drop"),
        }
    }

    #[test]
    fn hex_codec_is_full_range() {
        for v in [0, 1, u64::MAX, 0x8000_0000_0000_0000, i64::MAX as u64 + 1] {
            assert_eq!(parse_hex64(&hex64(v)).expect("roundtrip"), v);
        }
    }
}
