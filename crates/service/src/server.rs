//! The event-driven server core and the request router.
//!
//! [`Service`] holds one [`Engine`] and one route table: every request,
//! whether a test hands it to [`Service::handle`] or a worker pops it off
//! the reactor queue, goes through the same router, which counts it,
//! times it, and answers unknown paths and methods.
//!
//! The **readiness reactor** (see [`crate::reactor`]) is the one thread
//! that owns sockets: it accepts off the listener, applies the
//! `max_conns` ceiling, parks every connection on non-blocking sockets,
//! parses requests incrementally, and pushes only **complete requests**
//! onto a bounded queue; when the queue is full the request is turned
//! away with `503` instead of piling up unbounded (load-shedding
//! backpressure). A fixed set of worker threads takes
//! requests and computes responses — never touching a socket; response
//! bytes (or, for a `"stream": true` batch, chunks) travel back through
//! the reactor's per-connection write buffers. The workers are the
//! server's one set of compute threads: each serves the queue as a
//! `nanoxbar-par` runner ([`nanoxbar_par::Inbox::serve`]). Every request
//! becomes an [`Engine::run_batch`] call, whose tasks go onto the
//! worker's own deque; the worker runs them itself, and a worker with no
//! request of its own steals them. So under load each request runs
//! whole on one worker, with no hand-offs, while a lone request still
//! spreads across every idle worker. A worker waiting inside a batch
//! never takes another request.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nanoxbar_engine::{
    CacheFillHook, CacheKey, CacheStats, ChipOutcome, Engine, Job, JobOutput, JobResult, Limits,
    Mapper, MapperSnapshot, MinimizeMode, ResultCache,
};
use nanoxbar_store::{StdVfs, Vfs};

use crate::api::{
    parse_limits, parse_minimize, read_batch_request, read_job_request, result_to_json,
    write_bad_slot, write_result, JobSpec, MapRequest, Scope,
};
use crate::http::{Request, Response};
use crate::metrics::{Counter, Endpoint, Latency, Metrics, Scrape};
use crate::peer::{Fleet, NetDialer, PeerTuning, TcpDialer};
use crate::persist::{
    decode_cache_record, decode_session_record, encode_cache_record, encode_session_drop,
    flush_lag, key_from_json, open_state, spawn_persister, PersistCmd, PersisterState,
    RecoveryInfo, SessionRecord, StatePersister,
};
use crate::reactor::{request_queue, Reactor, ReactorHandle, RequestQueue, ToReactor};
use crate::session::{SessionEntry, SessionTable};
use crate::wire::{object, Json, WriteJson};

/// Bound of the parsed-request queue between the reactor and the
/// workers; requests beyond it are rejected with `503`.
const QUEUE_DEPTH: usize = 256;
/// How long an idle mapper session survives before expiry.
const SESSION_TTL: Duration = Duration::from_secs(600);
/// Most live mapper sessions held at once; the least-recently touched
/// are evicted beyond this.
const SESSION_CAPACITY: usize = 1024;
/// Most responses the response memo holds.
const MEMO_ENTRIES: usize = 4096;
/// Most request plus response body bytes the response memo holds.
const MEMO_BYTES: usize = 1 << 20;

/// Server configuration. Start from `ServiceConfig::default()` and
/// override fields.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Compute threads: each takes requests off the reactor's queue and
    /// runs their batch tasks as a `nanoxbar-par` runner, stealing
    /// another worker's tasks when it has no request. They count toward
    /// the pool width (`NANOXBAR_THREADS`), so the pool starts workers of
    /// its own only for the part of that width they leave uncovered.
    pub workers: usize,
    /// Weight budget of the service's [`ResultCache`] (entries weigh
    /// their realization's crosspoint count; both minimise modes share
    /// it, as the mode is part of the key); 0 disables caching.
    pub cache_capacity: usize,
    /// Most connections the reactor holds at once (idle keep-alive
    /// connections park for free, but each still costs a socket and a
    /// parser buffer); connections beyond it are turned away with `503`
    /// at accept time. Connections already being turned away do not
    /// count.
    pub max_conns: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Per-request read deadline: starts when the first byte of a
    /// request arrives and covers the complete head + body (the
    /// slow-loris bound). Connections idle *between* requests park in
    /// the reactor indefinitely at no thread cost.
    pub read_timeout: Duration,
    /// Directory for the durable state logs (`cache.log`,
    /// `sessions.log`); `None` keeps all state in memory.
    pub state_dir: Option<PathBuf>,
    /// How long the background persister sleeps between write-out
    /// batches (each batch pays one fsync per touched log).
    pub flush_interval: Duration,
    /// Fleet peers (`host:port` each). Non-empty enables fleet mode:
    /// the peers plus this replica form a consistent-hash ring; cache
    /// misses owned by a peer are filled from it, and unknown `resume`d
    /// sessions are fetched from whichever peer holds them.
    pub peers: Vec<String>,
    /// The ring address this replica advertises for itself; defaults to
    /// the bound address. Must match what the peers list for this
    /// replica, or the ring views diverge.
    pub advertise: Option<String>,
    /// Per-attempt peer deadline (connect + full exchange).
    pub peer_deadline: Duration,
    /// Peer retries after the first attempt.
    pub peer_retries: u32,
    /// Base backoff before the first peer retry (doubled per retry,
    /// ±50% jitter).
    pub peer_backoff: Duration,
    /// Peer backoff ceiling; also caps an honored `Retry-After`.
    pub peer_backoff_cap: Duration,
    /// Consecutive peer failures that trip its circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker fails fast before its half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:8080".into(),
            workers: 4,
            // Weight units (≈ crosspoints): room for a few thousand
            // typical realizations.
            cache_capacity: 65536,
            max_conns: 4096,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            state_dir: None,
            flush_interval: Duration::from_millis(25),
            peers: Vec::new(),
            advertise: None,
            peer_deadline: Duration::from_secs(1),
            peer_retries: 2,
            peer_backoff: Duration::from_millis(25),
            peer_backoff_cap: Duration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// The socket-free request handler: one engine, metrics, and the
/// router. Split from the socket loop so tests can drive it directly.
pub struct Service {
    /// Serves every job of every request; each request's minimise mode
    /// rides on its jobs ([`Job::minimized`]). In fleet mode it carries
    /// the peer cache-fill hook, and it holds the service's result cache.
    engine: Engine,
    /// Answers repeated synthesize requests on the reactor thread
    /// ([`Service::memo_response`]); present exactly when the engine has
    /// a cache.
    memo: Option<Mutex<ResponseMemo>>,
    metrics: Arc<Metrics>,
    sessions: Arc<SessionTable>,
    persister: Option<StatePersister>,
    recovery: RecoveryInfo,
    fleet: Option<Arc<Fleet>>,
}

impl Service {
    /// Builds the service state for a configuration, replaying the state
    /// logs from `config.state_dir` when one is set.
    ///
    /// # Errors
    ///
    /// Propagates IO failures opening the state directory or its logs
    /// (a torn or corrupt log *tail* is recovery, not an error — it is
    /// truncated and counted in [`Service::recovery`]).
    pub fn new(config: &ServiceConfig) -> std::io::Result<Service> {
        Self::boot_std(config, Arc::new(TcpDialer))
    }

    /// [`Service::new`] over an explicit [`Vfs`] — how the crash tests
    /// run the full service against the fault-injecting in-memory
    /// filesystem.
    ///
    /// # Errors
    ///
    /// As for [`Service::new`].
    pub fn with_vfs(config: &ServiceConfig, vfs: Arc<dyn Vfs>) -> std::io::Result<Service> {
        Self::boot(config, Some(vfs), Arc::new(TcpDialer))
    }

    /// [`Service::new`] over an explicit [`NetDialer`] — how the fleet
    /// tests run full services against the fault-injecting in-memory
    /// network ([`crate::peer::MemNet`]).
    ///
    /// # Errors
    ///
    /// As for [`Service::new`].
    pub fn with_net(
        config: &ServiceConfig,
        dialer: Arc<dyn NetDialer>,
    ) -> std::io::Result<Service> {
        Self::boot_std(config, dialer)
    }

    /// Boot with the state directory's real filesystem (when one is set).
    fn boot_std(config: &ServiceConfig, dialer: Arc<dyn NetDialer>) -> std::io::Result<Service> {
        let vfs: Option<Arc<dyn Vfs>> = match &config.state_dir {
            Some(dir) => Some(Arc::new(StdVfs::new(dir.clone())?)),
            None => None,
        };
        Self::boot(config, vfs, dialer)
    }

    fn boot(
        config: &ServiceConfig,
        vfs: Option<Arc<dyn Vfs>>,
        dialer: Arc<dyn NetDialer>,
    ) -> std::io::Result<Service> {
        let cache =
            (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)));
        let metrics = Arc::new(Metrics::default());
        let fleet = (!config.peers.is_empty()).then(|| {
            Arc::new(Fleet::new(
                self_addr(config),
                config.peers.clone(),
                dialer,
                PeerTuning {
                    deadline: config.peer_deadline,
                    retries: config.peer_retries,
                    backoff: config.peer_backoff,
                    backoff_cap: config.peer_backoff_cap,
                    breaker_threshold: config.breaker_threshold.max(1),
                    breaker_cooldown: config.breaker_cooldown,
                },
                metrics.clone(),
            ))
        });
        let mut builder = Engine::builder();
        if let Some(cache) = &cache {
            builder = builder.shared_cache(cache.clone());
        }
        if let Some(fleet) = &fleet {
            let fleet = fleet.clone();
            builder = builder.cache_fill_hook(CacheFillHook::new(move |key| fleet.fill(key)));
        }
        let engine = builder.build().expect("default strategies are registered");
        let sessions = Arc::new(SessionTable::new(SESSION_TTL, SESSION_CAPACITY));
        let mut recovery = RecoveryInfo::default();
        let mut persister = None;

        if let Some(vfs) = vfs {
            let opened = open_state(&*vfs)?;
            recovery.bytes_truncated = opened.bytes_truncated;
            recovery.cache_generation = opened.cache_generation;
            recovery.session_generation = opened.session_generation;
            recovery.session_records_replayed = opened.session_records.len() as u64;
            metrics.add(Counter::PersistBytesTruncated, opened.bytes_truncated);
            metrics.add(
                Counter::PersistRecordsReplayed,
                (opened.cache_records.len() + opened.session_records.len()) as u64,
            );

            // Preload the cache. The insert listener is registered *after*
            // this loop, so replayed entries are not appended again.
            for payload in &opened.cache_records {
                match decode_cache_record(payload) {
                    Ok((key, value)) => {
                        if let Some(cache) = &cache {
                            cache.insert(key, value);
                        }
                        recovery.cache_records_replayed += 1;
                    }
                    Err(_) => {
                        recovery.decode_errors += 1;
                        metrics.add(Counter::PersistDecodeErrors, 1);
                    }
                }
            }

            // Fold the session log to the last record per id, tombstones
            // applied, keeping first-seen order for deterministic boots.
            let mut order: Vec<String> = Vec::new();
            let mut folded: HashMap<String, (MinimizeMode, Json, Option<MapperSnapshot>)> =
                HashMap::new();
            for payload in &opened.session_records {
                match decode_session_record(payload) {
                    Ok(SessionRecord::Put {
                        id,
                        minimize,
                        spec,
                        snapshot,
                    }) => {
                        if !folded.contains_key(&id) {
                            order.push(id.clone());
                        }
                        folded.insert(id, (minimize, spec, snapshot));
                    }
                    Ok(SessionRecord::Drop { id }) => {
                        folded.remove(&id);
                        order.retain(|o| o != &id);
                    }
                    Err(_) => {
                        recovery.decode_errors += 1;
                        metrics.add(Counter::PersistDecodeErrors, 1);
                    }
                }
            }
            for id in order {
                let Some((minimize, spec_json, snapshot)) = folded.remove(&id) else {
                    continue;
                };
                match materialize_session(&engine, minimize, &spec_json, snapshot) {
                    Ok(entry) => {
                        sessions.insert(id, entry);
                    }
                    Err(_) => {
                        recovery.decode_errors += 1;
                        metrics.add(Counter::PersistDecodeErrors, 1);
                    }
                }
            }
            recovery.sessions_recovered = sessions.len() as u64;

            let state = PersisterState {
                vfs: vfs.clone(),
                cache_writer: opened.cache_writer,
                session_writer: opened.session_writer,
                cache_records: opened.cache_records.len() as u64,
                session_records: opened.session_records.len() as u64,
                cache: cache.clone(),
                sessions: sessions.clone(),
            };
            let spawned = spawn_persister(state, metrics.clone(), config.flush_interval);
            if let Some(cache) = &cache {
                let tx = spawned.sender();
                let listener_metrics = metrics.clone();
                cache.set_insert_listener(Box::new(move |key, value| {
                    listener_metrics.add(Counter::PersistEnqueued, 1);
                    let _ = tx.send(PersistCmd::AppendCache(encode_cache_record(key, value)));
                }));
            }
            persister = Some(spawned);
        }

        Ok(Service {
            engine,
            memo: cache.as_ref().map(|_| Mutex::default()),
            metrics,
            sessions,
            persister,
            recovery,
            fleet,
        })
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Counters of the shared result cache, when caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache_stats()
    }

    /// What boot-time replay recovered (zeroes when persistence is off).
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Synchronous durability barrier: everything admitted to the cache
    /// or checkpointed in a session before this call is on disk when it
    /// returns. A no-op without a state dir.
    pub fn flush_state(&self) {
        if let Some(persister) = &self.persister {
            persister.flush();
        }
    }

    /// Final flush and persister-thread join; idempotent, also run by
    /// `Drop` and [`ServerHandle::shutdown`].
    pub fn shutdown_state(&self) {
        if let Some(persister) = &self.persister {
            persister.shutdown();
        }
    }

    /// Routes one request to a response (the socket layer handles
    /// framing; this is pure request → response). A `"stream": true`
    /// batch is answered buffered here — only a worker streams.
    pub fn handle(&self, request: &Request) -> Response {
        self.route(request, None)
            .expect("without a sink every route answers with one response")
    }

    /// The router: finds the request's route in [`ROUTES`], counts the
    /// request under its endpoint, times it, answers unknown paths with
    /// `404` and wrong methods with `405`, and counts every `4xx`/`5xx`.
    /// With a `sink`, a `"stream": true` batch hands its body to it chunk
    /// by chunk and the router returns `None`; every other request
    /// returns its one response.
    pub(crate) fn route(&self, request: &Request, sink: Option<Sink<'_>>) -> Option<Response> {
        let response = match ROUTES.iter().find(|(_, path, _)| *path == request.path) {
            #[cfg(test)]
            None if request.path.starts_with("/test/panic") => tests::panic_route(request, sink),
            None => Some(error_response(404, "no such endpoint")),
            Some(&(method, _, _)) if method != request.method => {
                Some(error_response(405, "method not allowed for this endpoint"))
            }
            Some(&(_, _, route)) => {
                self.metrics.request(route.endpoint());
                let started = Instant::now();
                let body = &request.body;
                let response = match route {
                    Route::Healthz => Some(self.healthz()),
                    Route::Metrics => Some(self.prometheus()),
                    Route::Synthesize | Route::Map | Route::Mvm => {
                        Some(self.single_job(route, body))
                    }
                    Route::Batch => self.batch_jobs(body, sink),
                    Route::PeerFill => Some(self.peer_fill(body)),
                    Route::PeerSession => Some(self.peer_session(body)),
                };
                if let Some(latency) = route.latency() {
                    self.metrics.latency(latency).observe(started.elapsed());
                }
                response
            }
        };
        if response.as_ref().is_some_and(|r| r.status >= 400) {
            self.metrics.add(Counter::HttpErrors, 1);
        }
        response
    }

    fn prometheus(&self) -> Response {
        let scrape = Scrape {
            cache: self.cache_stats().unwrap_or_default(),
            pool: nanoxbar_par::pool_stats(),
            flush_lag: flush_lag(&self.metrics),
            sessions: self.sessions.len(),
            memo_entries: self.memo_entries(),
            peers: self
                .fleet
                .as_ref()
                .map(|fleet| fleet.statuses())
                .unwrap_or_default(),
        };
        Response::text(200, self.metrics.render_prometheus(&scrape))
    }

    /// Responses resident in the response memo; a poisoned memo lock
    /// reads as empty.
    fn memo_entries(&self) -> usize {
        self.memo
            .as_ref()
            .and_then(|memo| memo.lock().ok())
            .map_or(0, |memo| memo.entries.len())
    }

    fn healthz(&self) -> Response {
        let strategies = self
            .engine
            .strategies()
            .into_iter()
            .map(Json::Str)
            .collect();
        let persist = match &self.persister {
            None => object(vec![("enabled", Json::Bool(false))]),
            Some(_) => object(vec![
                ("enabled", Json::Bool(true)),
                (
                    "cache_records_replayed",
                    Json::from(self.recovery.cache_records_replayed),
                ),
                (
                    "session_records_replayed",
                    Json::from(self.recovery.session_records_replayed),
                ),
                (
                    "sessions_recovered",
                    Json::from(self.recovery.sessions_recovered),
                ),
                ("bytes_truncated", Json::from(self.recovery.bytes_truncated)),
                ("decode_errors", Json::from(self.recovery.decode_errors)),
                (
                    "cache_generation",
                    Json::from(u64::from(self.recovery.cache_generation)),
                ),
                (
                    "session_generation",
                    Json::from(u64::from(self.recovery.session_generation)),
                ),
                ("flush_lag", Json::from(flush_lag(&self.metrics))),
                ("sessions_active", Json::from(self.sessions.len())),
            ]),
        };
        let peers = match &self.fleet {
            None => object(vec![("enabled", Json::Bool(false))]),
            Some(fleet) => {
                let ring = fleet
                    .members()
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect::<Vec<_>>();
                let statuses = fleet
                    .statuses()
                    .into_iter()
                    .map(|status| {
                        object(vec![
                            ("addr", Json::Str(status.addr)),
                            ("state", Json::Str(status.state.as_str().into())),
                            (
                                "consecutive_failures",
                                Json::from(u64::from(status.consecutive_failures)),
                            ),
                            (
                                "last_error",
                                status.last_error.map_or(Json::Null, Json::Str),
                            ),
                            ("fills", Json::from(status.fills)),
                            ("fill_failures", Json::from(status.fill_failures)),
                        ])
                    })
                    .collect::<Vec<_>>();
                object(vec![
                    ("enabled", Json::Bool(true)),
                    ("self", Json::Str(fleet.self_addr().to_string())),
                    ("ring", Json::Array(ring)),
                    ("peers", Json::Array(statuses)),
                ])
            }
        };
        let read = |counter| Json::from(self.metrics.get(counter));
        let reactor = object(vec![
            ("connections", read(Counter::ReactorConnections)),
            ("queue_depth", read(Counter::ReactorQueueDepth)),
            ("wakeups", read(Counter::ReactorWakeups)),
            ("timeouts", read(Counter::ReactorTimeouts)),
            (
                "write_buffer_high_water",
                read(Counter::ReactorWriteHighWater),
            ),
        ]);
        Response::json(
            200,
            object(vec![
                ("status", Json::Str("ok".into())),
                ("strategies", Json::Array(strategies)),
                // The analog in-memory-compute path (`POST /v1/mvm`) is
                // always compiled in; its results report this strategy.
                ("analog_mvm", Json::Str("analog-mvm".into())),
                ("cache_enabled", Json::Bool(self.engine.cache().is_some())),
                ("pool_threads", Json::from(nanoxbar_par::threads())),
                ("reactor", reactor),
                ("persist", persist),
                ("peers", peers),
            ])
            .encode(),
        )
    }

    /// The one-job routes, each one job object next to the optional
    /// top-level `"minimize"`/`"limits"` fields, run through
    /// [`Engine::run_batch`] like every other request so identical
    /// requests give byte-identical bodies at every thread count:
    ///
    /// * `POST /v1/synthesize`: any job;
    /// * `POST /v1/map`: needs a `"chip"`; the BISM `"map"` options
    ///   default when absent. A top-level `"session"` object switches to
    ///   the incremental, resumable protocol ([`Service::map_session`]);
    /// * `POST /v1/mvm`: needs an `"mvm"` object. A semantically bad spec
    ///   (impossible defect probabilities, non-finite noise) is a `400`
    ///   here — the engine's typed `mvm-spec` error is reserved for batch
    ///   slots, where it poisons only its own slot.
    fn single_job(&self, route: Route, body: &[u8]) -> Response {
        let request = match utf8(body).and_then(read_job_request) {
            Ok(request) => request,
            Err(message) => return error_response(400, &message),
        };
        let Scope { minimize, limits } = request.scope;
        if route == Route::Map && request.session {
            // The session protocol works on the request's tree.
            return match request_head(body) {
                Ok((json, minimize, limits)) => self.map_session(json, minimize, limits),
                Err(response) => response,
            };
        }
        let lowered = request.spec.and_then(|spec| match route {
            Route::Map => map_job(spec, minimize, limits).map(|(_, job)| (job, false)),
            _ => {
                if route == Route::Mvm && spec.mvm.is_none() {
                    return Err("mvm requests need an \"mvm\" object".into());
                }
                let chipless = spec.chip.is_none() && spec.mvm.is_none();
                Ok((scoped(spec.to_job()?, minimize, limits), chipless))
            }
        });
        let (job, chipless) = match lowered {
            Ok(lowered) => lowered,
            Err(message) => return error_response(400, &message),
        };
        // A chipless synthesis without a deadline is a pure function of
        // its body bytes (`/v1/synthesize` takes no session). Its answer
        // is memoised only when the engine already held the synthesis
        // before this run, so a request seen once never fills the memo.
        let timed = limits.is_some_and(|l| l.time.is_some());
        let resident = (route == Route::Synthesize && chipless && !timed)
            .then(|| self.engine.cache_key(&job))
            .filter(|key| self.engine.cache().is_some_and(|cache| cache.contains(key)));
        let results = self.engine.run_batch(std::slice::from_ref(&job));
        self.metrics.record(&results, 0);
        let mut rendered = String::new();
        write_result(&results[0], &mut rendered);
        let response = Response::json(200, rendered);
        if let Some(key) = resident.filter(|_| results[0].is_ok()) {
            self.memoise(body, key, &response, results);
        }
        response
    }

    /// Files a synthesize answer in the response memo under its exact
    /// request body. An insert past either bound ([`MEMO_ENTRIES`],
    /// [`MEMO_BYTES`]) clears the memo first.
    fn memoise(
        &self,
        body: &[u8],
        key: CacheKey,
        response: &Response,
        results: Vec<Result<JobResult, nanoxbar_engine::Error>>,
    ) {
        let Some(Ok(mut memo)) = self.memo.as_ref().map(Mutex::lock) else {
            return;
        };
        let bytes = body.len() + response.body.len();
        if bytes > MEMO_BYTES || memo.entries.contains_key(body) {
            return;
        }
        if memo.entries.len() >= MEMO_ENTRIES || memo.bytes + bytes > MEMO_BYTES {
            *memo = ResponseMemo::default();
        }
        memo.bytes += bytes;
        memo.entries.insert(
            body.to_vec(),
            MemoEntry {
                response: response.clone(),
                key,
                results,
            },
        );
    }

    /// Answers a repeated `POST /v1/synthesize` from the response memo,
    /// or returns `None` for the worker path. The reactor calls this
    /// before queueing a request, so a hit costs no worker and no
    /// doorbell; [`Service::handle`] never reads the memo.
    ///
    /// A hit needs the exact body bytes of a memoised request and the
    /// engine cache still holding its synthesis, which
    /// [`ResultCache::touch_hit`] refreshes and counts as the engine
    /// would. The request, its jobs and its latency count as on the
    /// worker path, so `/metrics` reads as it would without the memo
    /// apart from `nanoxbar_response_memo_*`. An entry whose synthesis
    /// was evicted is dropped, and the request goes to a worker, which
    /// counts its one miss. A poisoned memo lock reads as a miss.
    pub(crate) fn memo_response(&self, request: &Request) -> Option<Response> {
        let started = Instant::now();
        if request.method != "POST" || request.path != "/v1/synthesize" {
            return None;
        }
        let cache = self.engine.cache()?;
        let mut memo = self.memo.as_ref()?.lock().ok()?;
        let entry = memo.entries.get(request.body.as_slice())?;
        if !cache.touch_hit(&entry.key) {
            let bytes = request.body.len() + entry.response.body.len();
            memo.entries.remove(request.body.as_slice());
            memo.bytes = memo.bytes.saturating_sub(bytes);
            return None;
        }
        self.metrics.request(Route::Synthesize.endpoint());
        self.metrics.record(&entry.results, 0);
        let response = entry.response.clone();
        drop(memo);
        self.metrics.add(Counter::ResponseMemoHits, 1);
        self.metrics
            .latency(Latency::Request)
            .observe(started.elapsed());
        Some(response)
    }

    /// The incremental `/v1/map` protocol: a `"session": {"id", "rounds"?}`
    /// object creates a named session and runs at most `rounds` BISM
    /// rounds (all of them when absent); `"resume": true` continues an
    /// existing session — in this process or, with a state dir, after a
    /// restart. Interim responses report checkpoint progress; the final
    /// response is the ordinary map result (its `"map"` object is
    /// byte-identical to an uninterrupted `/v1/map` run) plus a
    /// `"session"` trailer.
    fn map_session(
        &self,
        mut json: Json,
        minimize: MinimizeMode,
        limits: Option<Limits>,
    ) -> Response {
        self.sweep_sessions();
        let resume = match json.get("resume") {
            None => false,
            Some(Json::Bool(flag)) => *flag,
            Some(_) => return error_response(400, "\"resume\" must be a boolean"),
        };
        let Some(session) = json.get("session") else {
            return error_response(400, "\"resume\" needs a \"session\" object with an \"id\"");
        };
        let Json::Object(members) = session else {
            return error_response(400, "\"session\" must be an object");
        };
        for (key, _) in members {
            if key != "id" && key != "rounds" {
                return error_response(400, &format!("unknown session field {key:?}"));
            }
        }
        let id = match session.get("id").and_then(Json::as_str) {
            Some(id) if !id.is_empty() && id.len() <= 120 => id.to_string(),
            Some(_) => return error_response(400, "session id must be 1..=120 bytes"),
            None => return error_response(400, "session needs a string \"id\""),
        };
        let rounds = match session.get("rounds") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(n) => Some(n),
                None => {
                    return error_response(400, "session \"rounds\" must be a non-negative integer")
                }
            },
        };

        let mut entry = if resume {
            // Taking the entry makes the session invisible while this
            // request drives it — a concurrent resume loses cleanly here
            // instead of interleaving rounds.
            match self.sessions.take(&id) {
                Some(entry) => {
                    self.metrics.add(Counter::SessionsResumed, 1);
                    entry
                }
                // Fleet mode: a session this replica never saw may live
                // on a peer (clients are free to reconnect anywhere).
                // Adopting its checkpoint makes the resume succeed here
                // bit-identically to resuming on the original replica.
                None => match self.adopt_session(&id) {
                    Some(entry) => {
                        self.metrics.add(Counter::SessionsResumed, 1);
                        self.metrics.add(Counter::SessionsMigrated, 1);
                        entry
                    }
                    None => {
                        return error_response(
                            400,
                            &format!(
                                "no session {id:?} to resume \
                                 (expired, completed, busy, or never created)"
                            ),
                        )
                    }
                },
            }
        } else {
            if self.sessions.contains(&id) {
                return error_response(
                    400,
                    &format!("session {id:?} already exists (pass \"resume\": true to continue)"),
                );
            }
            if let Json::Object(members) = &mut json {
                members.retain(|(key, _)| key != "session" && key != "resume");
            }
            let lowered =
                JobSpec::from_json(&json).and_then(|spec| map_job(spec, minimize, limits));
            let (spec, job) = match lowered {
                Ok(lowered) => lowered,
                Err(message) => return error_response(400, &message),
            };
            self.metrics.add(Counter::Jobs, 1);
            // Synthesis/verification runs once, at creation; request
            // "limits" apply here and are not part of the durable spec.
            let setup = match self.engine.prepare_map(&job) {
                Ok(setup) => setup,
                Err(error) => {
                    self.metrics.add(Counter::JobErrors, 1);
                    return Response::json(200, result_to_json(&Err(error)).encode());
                }
            };
            self.metrics.add(Counter::SessionsCreated, 1);
            SessionEntry {
                minimize,
                spec: json,
                setup,
                label: spec.label,
                verified: spec.verify,
                snapshot: None,
                last_access: Instant::now(),
            }
        };

        let mut mapper = match &entry.snapshot {
            None => Mapper::new(
                entry.setup.app.clone(),
                entry.setup.chip.clone(),
                entry.setup.config,
            ),
            Some(snapshot) => Mapper::resume(
                entry.setup.app.clone(),
                entry.setup.chip.clone(),
                entry.setup.config,
                snapshot,
            ),
        };
        match rounds {
            Some(n) => {
                mapper.run_rounds(n);
            }
            None => {
                mapper.run();
            }
        }

        if mapper.is_done() {
            let report = mapper.report();
            self.metrics.add(Counter::Maps, 1);
            if !report.stats.success {
                self.metrics.add(Counter::MapFailures, 1);
            }
            let total_rounds = report.rounds;
            let result: Result<JobResult, nanoxbar_engine::Error> = Ok(JobResult {
                label: entry.label.clone(),
                strategy: entry.setup.strategy.clone(),
                output: JobOutput::Logic {
                    realization: entry.setup.realization.clone(),
                    verified: entry.verified,
                    chip: Some(ChipOutcome::Map(report)),
                },
                elapsed: Duration::ZERO,
            });
            let mut body = result_to_json(&result);
            if let Json::Object(members) = &mut body {
                members.push((
                    "session".into(),
                    object(vec![
                        ("id", Json::Str(id.clone())),
                        ("done", Json::Bool(true)),
                        ("rounds", Json::from(total_rounds)),
                    ]),
                ));
            }
            // Completed: the session does not go back in the table; a
            // tombstone supersedes its checkpoints in the log.
            self.log_session_drop(&id);
            Response::json(200, body.encode())
        } else {
            let snapshot = mapper.snapshot();
            let progress = object(vec![
                ("id", Json::Str(id.clone())),
                ("done", Json::Bool(false)),
                ("rounds", Json::from(snapshot.rounds)),
                ("attempts", Json::from(snapshot.stats.attempts)),
                ("bist_runs", Json::from(snapshot.stats.bist_runs)),
                ("bisd_runs", Json::from(snapshot.stats.bisd_runs)),
                ("known_bad", Json::from(snapshot.known_bad.len())),
            ]);
            entry.snapshot = Some(snapshot);
            if let Some(persister) = &self.persister {
                persister.append_session(entry.to_payload(&id));
            }
            for evicted in self.sessions.insert(id, entry) {
                self.metrics.add(Counter::SessionsExpired, 1);
                self.log_session_drop(&evicted);
            }
            Response::json(
                200,
                object(vec![("ok", Json::Bool(true)), ("session", progress)]).encode(),
            )
        }
    }

    /// `POST /v1/peer/fill`: a peer asks this replica — the ring owner —
    /// for one cache entry by content address. A hit answers from the
    /// cache; a miss synthesises locally through
    /// [`Engine::run_without_fill`], which also admits the entry for
    /// future requests. Skipping the fill hook makes fill amplification
    /// structurally impossible: even a misconfigured fleet whose replicas
    /// disagree about the ring can never chain fill requests
    /// peer-to-peer-to-peer. The response body is
    /// exactly a cache-log record, so the requester reuses the replay
    /// decoder verbatim.
    fn peer_fill(&self, body: &[u8]) -> Response {
        let Some(cache) = self.engine.cache() else {
            return error_response(404, "caching is disabled on this replica");
        };
        let key = match parse_peer_fill(body) {
            Ok(key) => key,
            Err(message) => return error_response(400, &message),
        };
        if cache.get(&key).is_none() {
            let function =
                nanoxbar_logic::TruthTable::from_words(key.num_vars(), key.words().to_vec());
            let job = Job::synthesize(function)
                .with_strategy_name(key.strategy())
                .minimized(key.minimize());
            // `run_without_fill` (not `run_batch`): the fill is one job on
            // this worker thread, and staying off the pool keeps
            // in-process fleet tests (MemNet dials resolve inside pool
            // workers) from nesting pool scopes.
            let outcome = self.engine.run_without_fill(&job);
            self.metrics.record(std::slice::from_ref(&outcome), 0);
            if outcome.is_err() {
                return error_response(404, "this replica cannot synthesize the requested entry");
            }
        }
        // Re-read instead of trusting the synthesis result: admission is
        // weight-aware and may have refused the entry, and the record
        // must carry the cover the cache holds.
        match cache.get(&key) {
            Some(value) => {
                let record = crate::persist::encode_cache_record(&key, &value);
                Response::json(
                    200,
                    String::from_utf8(record).expect("cache records are JSON"),
                )
            }
            None => error_response(404, "entry was not admitted to the cache"),
        }
    }

    /// `POST /v1/peer/session`: a peer adopting a migrated session asks
    /// for its checkpoint record. Answering **takes the session out of
    /// the table** — ownership transfers wholesale, preserving the
    /// single-writer model (a session is never driven on two replicas) —
    /// and logs a local tombstone.
    fn peer_session(&self, body: &[u8]) -> Response {
        let id = match parse_peer_session(body) {
            Ok(id) => id,
            Err(message) => return error_response(400, &message),
        };
        match self.sessions.take(&id) {
            Some(entry) => {
                let payload = entry.to_payload(&id);
                self.log_session_drop(&id);
                Response::json(
                    200,
                    String::from_utf8(payload).expect("session records are JSON"),
                )
            }
            None => error_response(404, &format!("no session {id:?} on this replica")),
        }
    }

    /// Fleet-mode fallback for a `resume` naming a session this replica
    /// has never seen: fetch its checkpoint from whichever peer holds it
    /// and adopt it. The rebuilt entry is bit-identical to a local
    /// recovery because both go through the same session record codec
    /// and [`materialize_session`].
    fn adopt_session(&self, id: &str) -> Option<SessionEntry> {
        let fleet = self.fleet.as_ref()?;
        let payload = fleet.fetch_session(id)?;
        match decode_session_record(&payload) {
            Ok(SessionRecord::Put {
                id: record_id,
                minimize,
                spec,
                snapshot,
            }) if record_id == id => {
                materialize_session(&self.engine, minimize, &spec, snapshot).ok()
            }
            _ => None,
        }
    }

    /// Expires idle sessions, logging a tombstone for each.
    fn sweep_sessions(&self) {
        for id in self.sessions.sweep() {
            self.metrics.add(Counter::SessionsExpired, 1);
            self.log_session_drop(&id);
        }
    }

    fn log_session_drop(&self, id: &str) {
        if let Some(persister) = &self.persister {
            persister.append_session(encode_session_drop(id));
        }
    }

    /// `POST /v1/batch`: `{"minimize": …, "limits": …, "jobs":
    /// [jobspec, …]}` with per-slot error isolation — a bad spec poisons
    /// its slot, not the request. Map slots (a `"map"` object next to a
    /// `"chip"`), mvm and multi-output slots ride along with synthesis
    /// slots. With a `sink`, a request carrying `"stream": true` streams
    /// ([`Service::batch_stream`]) and returns `None`; otherwise, and for
    /// every request error (errors are never streamed — a client that
    /// asked to stream still gets a plain status it can switch on), it
    /// answers with one buffered body.
    fn batch_jobs(&self, body: &[u8], sink: Option<Sink<'_>>) -> Option<Response> {
        let request = match utf8(body).and_then(read_batch_request) {
            Ok(request) => request,
            Err(message) => return Some(error_response(400, &message)),
        };
        let Scope { minimize, limits } = request.scope;
        // Specs that fail to parse keep their slot (input-ordered
        // responses) but never reach the engine.
        let mut slot_errors: Vec<Option<String>> = Vec::with_capacity(request.slots.len());
        let mut jobs: Vec<Job> = Vec::with_capacity(request.slots.len());
        for slot in request.slots {
            match slot.and_then(|spec| spec.to_job()) {
                Ok(job) => {
                    slot_errors.push(None);
                    jobs.push(scoped(job, minimize, limits));
                }
                Err(message) => slot_errors.push(Some(message)),
            }
        }
        match sink {
            Some(emit) if request.stream => {
                self.batch_stream(&slot_errors, jobs, emit);
                None
            }
            _ => Some(self.batch_buffered(&slot_errors, &jobs)),
        }
    }

    /// The buffered batch body: one engine batch, one JSON body.
    fn batch_buffered(&self, slot_errors: &[Option<String>], jobs: &[Job]) -> Response {
        let results = self.engine.run_batch(jobs);
        let bad = slot_errors.iter().filter(|slot| slot.is_some()).count();
        self.metrics.record(&results, bad);
        let mut results = results.iter();
        let mut body = batch_head(slot_errors.len());
        for (index, slot) in slot_errors.iter().enumerate() {
            if index > 0 {
                body.push(',');
            }
            match slot {
                Some(message) => write_bad_slot("bad-request", message, &mut body),
                None => write_result(
                    results.next().expect("one engine result per valid spec"),
                    &mut body,
                ),
            }
        }
        body.push_str("]}");
        Response::json(200, body)
    }

    /// The streamed batch body: slots are **emitted as they finish**
    /// instead of buffered until the last job completes. The fragments
    /// concatenate to **exactly** the buffered body
    /// (`{"count":N,"results":[...]}`): slots are computed sequentially
    /// in input order through the same [`Engine::run_batch`] entry point,
    /// and engine determinism plus the shared result cache make each slot
    /// byte-identical to what the buffered batch renders.
    fn batch_stream(&self, slot_errors: &[Option<String>], jobs: Vec<Job>, emit: Sink<'_>) {
        let mut jobs = jobs.into_iter();
        let mut fragment = batch_head(slot_errors.len());
        for (index, slot) in slot_errors.iter().enumerate() {
            if index > 0 {
                fragment.push(',');
            }
            match slot {
                Some(message) => {
                    self.metrics.record(&[], 1);
                    write_bad_slot("bad-request", message, &mut fragment);
                }
                None => {
                    let job = [jobs.next().expect("one job per valid spec")];
                    let results = self.engine.run_batch(&job);
                    self.metrics.record(&results, 0);
                    write_result(&results[0], &mut fragment);
                }
            }
            emit(std::mem::take(&mut fragment).into_bytes());
        }
        // With zero slots the prefix never flushed; `]}` completes the
        // body either way.
        fragment.push_str("]}");
        emit(fragment.into_bytes());
    }
}

impl Drop for Service {
    /// Stops the persister (final sync included) so a dropped service —
    /// tests, crash simulations — leaves no thread holding the logs open.
    fn drop(&mut self) {
        self.shutdown_state();
    }
}

/// One memoised `/v1/synthesize` answer.
struct MemoEntry {
    /// The rendered `200` response.
    response: Response,
    /// The engine cache entry the answer was built from: the memo may
    /// serve it only while the cache still holds that entry.
    key: CacheKey,
    /// The job's results, replayed into [`Metrics::record`] on a hit.
    results: Vec<Result<JobResult, nanoxbar_engine::Error>>,
}

/// The response memo: exact request body bytes → [`MemoEntry`], bounded
/// by [`MEMO_ENTRIES`] and [`MEMO_BYTES`].
#[derive(Default)]
struct ResponseMemo {
    entries: HashMap<Vec<u8>, MemoEntry>,
    /// Request plus response body bytes held.
    bytes: usize,
}

/// Where a streaming batch hands its body, fragment by fragment.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(Vec<u8>);

/// What the router dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Healthz,
    Metrics,
    Synthesize,
    Map,
    Batch,
    Mvm,
    PeerFill,
    PeerSession,
}

/// The route table: every path once, with the one method it accepts.
/// Any other method on a listed path is a `405`; an unlisted path is a
/// `404`.
const ROUTES: [(&str, &str, Route); 8] = [
    ("GET", "/healthz", Route::Healthz),
    ("GET", "/metrics", Route::Metrics),
    ("POST", "/v1/synthesize", Route::Synthesize),
    ("POST", "/v1/map", Route::Map),
    ("POST", "/v1/batch", Route::Batch),
    ("POST", "/v1/mvm", Route::Mvm),
    ("POST", "/v1/peer/fill", Route::PeerFill),
    ("POST", "/v1/peer/session", Route::PeerSession),
];

impl Route {
    /// The `nanoxbar_requests_total` label the route counts under.
    fn endpoint(self) -> Endpoint {
        match self {
            Route::Synthesize => Endpoint::Synthesize,
            Route::Map => Endpoint::Map,
            Route::Batch => Endpoint::Batch,
            Route::Mvm => Endpoint::Mvm,
            Route::Healthz | Route::Metrics | Route::PeerFill | Route::PeerSession => {
                Endpoint::Other
            }
        }
    }

    /// The latency histogram the route records into, if any.
    fn latency(self) -> Option<Latency> {
        match self {
            Route::Synthesize | Route::Map | Route::Batch => Some(Latency::Request),
            Route::Mvm => Some(Latency::Mvm),
            Route::Healthz | Route::Metrics | Route::PeerFill | Route::PeerSession => None,
        }
    }
}

/// A job route's body as text.
fn utf8(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())
}

/// The opening of a batch body, `{"count":N,"results":[`: the slots
/// follow, comma-separated, and `]}` closes it.
fn batch_head(count: usize) -> String {
    let mut out = String::from("{\"count\":");
    count.write_json(&mut out);
    out.push_str(",\"results\":[");
    out
}

/// The request preamble of a `/v1/map` session request, on the tree:
/// JSON parse, then the request-scoped `"minimize"` and `"limits"` fields
/// are validated (out-of-range budgets are rejected here, before any
/// engine work) and taken out of the object — they scope the request's
/// jobs, they are not job content.
#[allow(clippy::result_large_err)]
fn request_head(body: &[u8]) -> Result<(Json, MinimizeMode, Option<Limits>), Response> {
    let text = utf8(body).map_err(|message| error_response(400, &message))?;
    let mut json = Json::parse(text).map_err(|e| error_response(400, &e.to_string()))?;
    let minimize = parse_minimize(json.get("minimize")).map_err(|m| error_response(400, &m))?;
    let limits = parse_limits(json.get("limits")).map_err(|m| error_response(400, &m))?;
    if let Json::Object(members) = &mut json {
        members.retain(|(key, _)| key != "minimize" && key != "limits");
    }
    Ok((json, minimize, limits))
}

/// Applies the request-scoped minimise mode and limit overrides to one
/// job.
fn scoped(job: Job, minimize: MinimizeMode, limits: Option<Limits>) -> Job {
    let job = job.minimized(minimize);
    match limits {
        Some(limits) => job.limited(limits),
        None => job,
    }
}

/// Lowers the job of a `/v1/map` request — one-shot, a new session, or
/// a recovered one — to its spec and scoped engine job: it needs a
/// `"chip"`, and the BISM `"map"` options default when absent.
fn map_job(
    mut spec: JobSpec,
    minimize: MinimizeMode,
    limits: Option<Limits>,
) -> Result<(JobSpec, Job), String> {
    if spec.chip.is_none() {
        return Err("map requests need a \"chip\" to map onto".into());
    }
    spec.map.get_or_insert_with(MapRequest::default);
    let job = scoped(spec.to_job()?, minimize, limits);
    Ok((spec, job))
}

/// Rebuilds a recovered session's [`SessionEntry`] by re-running its job
/// spec through [`Engine::prepare_map`] (synthesis is cache-served when
/// the cache log replayed the entry).
fn materialize_session(
    engine: &Engine,
    minimize: MinimizeMode,
    spec_json: &Json,
    snapshot: Option<MapperSnapshot>,
) -> Result<SessionEntry, String> {
    let (spec, job) = map_job(JobSpec::from_json(spec_json)?, minimize, None)?;
    let setup = engine.prepare_map(&job).map_err(|e| e.to_string())?;
    Ok(SessionEntry {
        minimize,
        spec: spec_json.clone(),
        setup,
        label: spec.label,
        verified: spec.verify,
        snapshot,
        last_access: Instant::now(),
    })
}

/// The ring address this replica goes by: the configured advertise
/// address when set, the bind address otherwise.
fn self_addr(config: &ServiceConfig) -> String {
    config
        .advertise
        .clone()
        .unwrap_or_else(|| config.addr.clone())
}

/// Parses a `/v1/peer/fill` body (`{"v":1,"key":{…}}`) into a validated
/// [`nanoxbar_engine::CacheKey`]. Validation here is what lets the
/// handler call `TruthTable::from_words` without a panic path: the word
/// count must match the variable count exactly.
fn parse_peer_fill(body: &[u8]) -> Result<nanoxbar_engine::CacheKey, String> {
    let text = std::str::from_utf8(body).map_err(|_| "fill request is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("fill request is not JSON: {e}"))?;
    if json.get("v").and_then(Json::as_i64) != Some(1) {
        return Err("fill request must carry \"v\": 1".into());
    }
    let key = json
        .get("key")
        .ok_or_else(|| "fill request needs a \"key\" object".to_string())?;
    let key = key_from_json(key)?;
    if key.num_vars() > nanoxbar_logic::MAX_VARS {
        return Err(format!(
            "fill key has {} variables (max {})",
            key.num_vars(),
            nanoxbar_logic::MAX_VARS
        ));
    }
    if key.words().len() != nanoxbar_logic::word_len(key.num_vars()) {
        return Err(format!(
            "fill key carries {} words for {} variables (expected {})",
            key.words().len(),
            key.num_vars(),
            nanoxbar_logic::word_len(key.num_vars())
        ));
    }
    Ok(key)
}

/// Parses a `/v1/peer/session` body (`{"v":1,"id":"…"}`).
fn parse_peer_session(body: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "session request is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("session request is not JSON: {e}"))?;
    if json.get("v").and_then(Json::as_i64) != Some(1) {
        return Err("session request must carry \"v\": 1".into());
    }
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| "session request needs an \"id\" string".to_string())?;
    if id.is_empty() || id.len() > 120 {
        return Err("session id must be 1..=120 bytes".into());
    }
    Ok(id.to_string())
}

pub(crate) fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        object(vec![
            ("ok", Json::Bool(false)),
            ("kind", Json::Str("bad-request".into())),
            ("error", Json::Str(message.into())),
        ])
        .encode(),
    )
}

/// A bound-but-not-yet-serving server (so callers can learn the ephemeral
/// port before starting).
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServiceConfig,
}

impl Server {
    /// Binds the configured address and builds the service (its engine,
    /// cache, and replayed state). With no `advertise` override, the
    /// replica advertises its **resolved** address on the ring (never
    /// `:0`).
    ///
    /// # Errors
    ///
    /// Propagates bind, socket introspection and state-replay failures.
    pub fn bind(mut config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        if config.advertise.is_none() {
            config.advertise = Some(listener.local_addr()?.to_string());
        }
        let service = Arc::new(Service::new(&config)?);
        Ok(Server {
            listener,
            service,
            config,
        })
    }

    /// The actually-bound address (resolves `:0` to the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle on the shared service state (metrics, cache stats).
    pub fn service(&self) -> Arc<Service> {
        self.service.clone()
    }

    /// Starts the reactor and worker threads and returns a handle that
    /// can stop them. Call from a dedicated thread or keep the handle
    /// alive for the server's lifetime; [`ServerHandle::shutdown`] stops
    /// accepting, drains in-flight work, and joins every thread.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let metrics = self.service.metrics.clone();
        let queue = Arc::new(request_queue(QUEUE_DEPTH, metrics.clone()));
        let draining = Arc::new(AtomicBool::new(false));
        let (reactor, handle) = Reactor::new(
            self.listener,
            queue.clone(),
            self.service.clone(),
            metrics,
            &self.config,
        )?;
        let reactor_thread = std::thread::Builder::new()
            .name("nanoxbar-reactor".into())
            .spawn(move || reactor.run())?;

        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for index in 0..self.config.workers.max(1) {
            let queue = queue.clone();
            let reactor = handle.clone();
            let draining = draining.clone();
            let service = self.service.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("nanoxbar-http-{index}"))
                    .spawn(move || {
                        queue.serve(|(conn, request)| {
                            serve_request(&service, &reactor, &draining, conn, &request);
                        });
                    })?,
            );
        }

        Ok(ServerHandle {
            addr,
            queue,
            reactor: handle,
            draining,
            workers,
            reactor_thread: Some(reactor_thread),
            service: self.service,
        })
    }
}

/// A running server; dropping it **without** calling
/// [`ServerHandle::shutdown`] leaves the threads serving for the rest of
/// the process.
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<RequestQueue>,
    reactor: ReactorHandle,
    draining: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
    service: Arc<Service>,
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (metrics, cache stats).
    pub fn service(&self) -> Arc<Service> {
        self.service.clone()
    }

    /// Graceful drain: stops accepting, closes parked keep-alive
    /// connections immediately (no timeout to run out — the reactor owns
    /// them), lets every in-flight request finish its response (sent
    /// with `Connection: close`), serves what was already queued, and
    /// joins all threads.
    pub fn shutdown(mut self) {
        // Order matters. Flag the drain first so workers picking up
        // queued requests already answer `Connection: close`, then tell
        // the reactor: the listener and parked connections close now,
        // in-flight responses complete.
        self.draining.store(true, Ordering::SeqCst);
        self.reactor.send(ToReactor::Drain);
        // Close the queue and let the workers finish what was already
        // dispatched; a request the reactor completes before it sees the
        // drain is refused with `503` by the closed queue, not stranded.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers joined ⇒ every Respond/StreamEnd is already in the
        // reactor inbox ahead of this Shutdown; the reactor flushes
        // those responses (bounded) and exits.
        self.reactor.send(ToReactor::Shutdown);
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
        // Every request that will ever run has now finished: one final
        // synchronous flush puts the last cache admissions and session
        // checkpoints on disk before the process can exit.
        self.service.shutdown_state();
    }
}

/// Computes and ships the response for one dispatched request through
/// [`Service::route`]. A `"stream": true` batch emits its slots as chunks
/// through the sink as they finish; everything else is one buffered
/// response.
///
/// A panic anywhere in the handling is contained here, so the worker
/// lives on and the connection — already handed off by the reactor — is
/// always answered: with a fixed-body `500`, or, when a stream already
/// sent its head, by ending the chunked body and closing.
fn serve_request(
    service: &Service,
    reactor: &ReactorHandle,
    draining: &AtomicBool,
    conn: u64,
    request: &Request,
) {
    let close = request.wants_close() || draining.load(Ordering::SeqCst);
    let mut streaming = false;
    let routed = panic::catch_unwind(AssertUnwindSafe(|| {
        service.route(
            request,
            Some(&mut |bytes| {
                if !streaming {
                    streaming = true;
                    reactor.send(ToReactor::StreamHead { conn, close });
                }
                reactor.send(ToReactor::StreamChunk { conn, bytes });
            }),
        )
    }));
    let response = match routed {
        Ok(Some(response)) => response,
        Ok(None) => return reactor.send(ToReactor::StreamEnd { conn, close: false }),
        Err(_) => {
            service.metrics.add(Counter::WorkerPanics, 1);
            if streaming {
                return reactor.send(ToReactor::StreamEnd { conn, close: true });
            }
            service.metrics.add(Counter::HttpErrors, 1);
            error_response(500, "internal error while handling the request")
        }
    };
    // Re-check the drain after the (possibly long) handling: the
    // response still goes out, but the connection closes.
    reactor.send(ToReactor::Respond {
        conn,
        response,
        close: close || draining.load(Ordering::SeqCst),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MAX_BATCH_JOBS;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// The panic seam [`Service::route`] serves in test builds only:
    /// `/test/panic` panics before answering, `/test/panic-stream` after
    /// streaming the head and one fragment of a batch body.
    pub(super) fn panic_route(request: &Request, sink: Option<Sink<'_>>) -> ! {
        if let (Some(emit), "/test/panic-stream") = (sink, request.path.as_str()) {
            emit(b"{\"count\":1,\"results\":[".to_vec());
        }
        panic!("test route panicked");
    }

    /// Sends one `GET` on a fresh connection and returns everything the
    /// server wrote until it closed the connection.
    fn get_raw(addr: SocketAddr, path: &str, close: bool) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let connection = if close { "Connection: close\r\n" } else { "" };
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\n{connection}\r\n"
        )
        .expect("send");
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .expect("the server closes the connection");
        raw
    }

    #[test]
    fn worker_panics_are_contained() {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.start().expect("start");
        let metrics = handle.service().metrics.clone();

        let raw = get_raw(addr, "/test/panic", true);
        assert!(raw.starts_with("HTTP/1.1 500 "), "{raw}");
        assert!(
            raw.ends_with(
                "{\"ok\":false,\"kind\":\"bad-request\",\
                 \"error\":\"internal error while handling the request\"}"
            ),
            "{raw}"
        );
        assert_eq!(metrics.get(Counter::WorkerPanics), 1);

        // The one worker survived: the next request and /healthz answer.
        let raw = get_raw(addr, "/metrics", true);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        let raw = get_raw(addr, "/healthz", true);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");

        // A stream that already sent its head ends its chunked body and
        // closes, though the client asked for keep-alive.
        let raw = get_raw(addr, "/test/panic-stream", false);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        assert!(raw.contains("{\"count\":1,\"results\":["), "{raw}");
        assert!(raw.ends_with("\r\n0\r\n\r\n"), "{raw}");
        assert_eq!(metrics.get(Counter::WorkerPanics), 2);
        let raw = get_raw(addr, "/healthz", true);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        let text = handle.service().prometheus();
        let text = std::str::from_utf8(&text.body).expect("utf-8");
        assert!(
            text.contains("\nnanoxbar_worker_panics_total 2\n"),
            "{text}"
        );

        handle.shutdown();
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            version_minor: 1,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            version_minor: 1,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body_json(response: &Response) -> Json {
        Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn routing_and_health() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let health = service.handle(&get("/healthz"));
        assert_eq!(health.status, 200);
        let json = body_json(&health);
        assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));
        let strategies = json.get("strategies").unwrap().as_array().unwrap();
        assert_eq!(strategies.len(), 5);
        assert!(
            strategies.contains(&Json::Str("bdd".into())),
            "healthz advertises the multi-output BDD strategy: {strategies:?}"
        );
        assert_eq!(service.handle(&get("/nope")).status, 404);
        assert_eq!(service.handle(&get("/v1/synthesize")).status, 405);
    }

    #[test]
    fn synthesize_endpoint_runs_a_job() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let ok = service.handle(&post(
            "/v1/synthesize",
            "{\"expr\":\"x0 x1 + !x0 !x1\",\"strategy\":\"diode\",\"verify\":true}",
        ));
        assert_eq!(ok.status, 200);
        let json = body_json(&ok);
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("rows").unwrap().as_i64(), Some(2));
        assert_eq!(json.get("cols").unwrap().as_i64(), Some(5));
        assert_eq!(json.get("verified"), Some(&Json::Bool(true)));

        let bad = service.handle(&post("/v1/synthesize", "{\"expr\":\"x0 +\"}"));
        assert_eq!(bad.status, 400);
        assert_eq!(body_json(&bad).get("ok"), Some(&Json::Bool(false)));

        // Engine errors are 200s with ok=false — the HTTP layer worked.
        let constant = service.handle(&post(
            "/v1/synthesize",
            "{\"expr\":\"x0 + !x0\",\"strategy\":\"diode\"}",
        ));
        assert_eq!(constant.status, 200);
        assert_eq!(
            body_json(&constant).get("kind").unwrap().as_str(),
            Some("constant-function")
        );
    }

    #[test]
    fn batch_keeps_slots_ordered_and_isolated() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let response = service.handle(&post(
            "/v1/batch",
            "{\"jobs\":[\
             {\"expr\":\"x0 x1\",\"strategy\":\"fet\"},\
             {\"expr\":\"((\"},\
             {\"expr\":\"x0 + !x0\",\"strategy\":\"diode\"},\
             {\"expr\":\"x0 x1\",\"strategy\":\"fet\"}]}",
        ));
        assert_eq!(response.status, 200);
        let json = body_json(&response);
        let slots = json.get("results").unwrap().as_array().unwrap();
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(slots[1].get("kind").unwrap().as_str(), Some("bad-request"));
        assert_eq!(
            slots[2].get("kind").unwrap().as_str(),
            Some("constant-function")
        );
        // Identical jobs share one synthesis (batch dedupe): fingerprints
        // must agree.
        assert_eq!(
            slots[0].get("fingerprint").unwrap().as_str(),
            slots[3].get("fingerprint").unwrap().as_str()
        );
    }

    #[test]
    fn batch_minimize_mode_and_limits() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let slots = vec!["{\"expr\":\"x0\"}"; MAX_BATCH_JOBS + 1].join(",");
        let over = service.handle(&post("/v1/batch", &format!("{{\"jobs\":[{slots}]}}")));
        assert_eq!(over.status, 400);
        let full = vec!["{\"expr\":\"x0\"}"; MAX_BATCH_JOBS].join(",");
        let at_limit = service.handle(&post("/v1/batch", &format!("{{\"jobs\":[{full}]}}")));
        assert_eq!(at_limit.status, 200);

        let exact = service.handle(&post(
            "/v1/batch",
            "{\"minimize\":\"exact\",\"jobs\":[{\"expr\":\"x0 x1 + x0 !x1 + !x0 x1\",\
             \"strategy\":\"diode\"}]}",
        ));
        let json = body_json(&exact);
        let slot = &json.get("results").unwrap().as_array().unwrap()[0];
        // exact cover of x0+x1 has 2 products -> 2 rows.
        assert_eq!(slot.get("rows").unwrap().as_i64(), Some(2));

        let bad_mode = service.handle(&post("/v1/batch", "{\"minimize\":\"zen\",\"jobs\":[]}"));
        assert_eq!(bad_mode.status, 400);
    }

    #[test]
    fn map_endpoint_runs_the_bism_pipeline() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        // Options default when "map" is absent on /v1/map.
        let body = "{\"expr\":\"x0 x1 + !x0 !x1\",\
                    \"chip\":{\"rows\":16,\"cols\":16,\"seed\":3,\"defect_rate\":0.05}}";
        let ok = service.handle(&post("/v1/map", body));
        assert_eq!(ok.status, 200);
        let json = body_json(&ok);
        let map = json.get("map").expect("map object");
        assert_eq!(map.get("success"), Some(&Json::Bool(true)));
        assert_eq!(map.get("strategy").unwrap().as_str(), Some("hybrid:5"));
        assert_eq!(map.get("speculation").unwrap().as_u64(), Some(4));
        // Byte-identical on repeat — the determinism contract.
        let again = service.handle(&post("/v1/map", body));
        assert_eq!(ok.body, again.body);

        // A chipless map request is a 400.
        let chipless = service.handle(&post("/v1/map", "{\"expr\":\"x0 x1\"}"));
        assert_eq!(chipless.status, 400);
        // A defect-saturated chip maps unsuccessfully but the HTTP and
        // job layers both succeed.
        let saturated = service.handle(&post(
            "/v1/map",
            "{\"expr\":\"x0 x1 + !x0 !x1\",\
             \"chip\":{\"rows\":8,\"cols\":8,\"seed\":1,\"defect_rate\":0.9},\
             \"map\":{\"strategy\":\"greedy\",\"max_attempts\":50}}",
        ));
        assert_eq!(saturated.status, 200);
        let json = body_json(&saturated);
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            json.get("map").unwrap().get("success"),
            Some(&Json::Bool(false))
        );
        assert_eq!(service.metrics().get(Counter::Maps), 3);
        assert_eq!(service.metrics().get(Counter::MapFailures), 1);
    }

    #[test]
    fn per_request_limits_bound_the_work() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        // An out-of-range budget is rejected before any engine work.
        let bad = service.handle(&post(
            "/v1/synthesize",
            "{\"expr\":\"x0\",\"limits\":{\"time_ms\":0}}",
        ));
        assert_eq!(bad.status, 400);
        // A 1-conflict SAT budget deterministically exhausts the optimal
        // search: the slot fails typed, the HTTP layer succeeds.
        let strict = service.handle(&post(
            "/v1/synthesize",
            "{\"expr\":\"x0 x1 + x0 x2 + x1 x2\",\"strategy\":\"optimal-lattice\",\
             \"limits\":{\"sat_conflicts\":1}}",
        ));
        assert_eq!(strict.status, 200);
        let json = body_json(&strict);
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(json.get("kind").unwrap().as_str(), Some("synthesis"));
        // The same expression without the budget synthesises fine, and
        // batches accept the same top-level field.
        let batch = service.handle(&post(
            "/v1/batch",
            "{\"limits\":{\"sat_conflicts\":200000},\"jobs\":[\
             {\"expr\":\"x0 x1 + x0 x2 + x1 x2\",\"strategy\":\"optimal-lattice\"}]}",
        ));
        let json = body_json(&batch);
        let slot = &json.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(slot.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn batch_map_slots_ride_along() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let response = service.handle(&post(
            "/v1/batch",
            "{\"jobs\":[\
             {\"expr\":\"x0 x1\",\"strategy\":\"fet\"},\
             {\"expr\":\"x0 x1 + !x0 !x1\",\
              \"chip\":{\"rows\":16,\"cols\":16,\"seed\":5,\"defect_rate\":0.05},\
              \"map\":{\"strategy\":\"greedy\"}},\
             {\"expr\":\"x0\",\"map\":{}}]}",
        ));
        assert_eq!(response.status, 200);
        let json = body_json(&response);
        let slots = json.get("results").unwrap().as_array().unwrap();
        assert_eq!(slots.len(), 3);
        assert!(slots[0].get("map").is_none());
        assert_eq!(
            slots[1].get("map").unwrap().get("success"),
            Some(&Json::Bool(true))
        );
        // A map without a chip poisons its slot only.
        assert_eq!(slots[2].get("kind").unwrap().as_str(), Some("bad-request"));
    }

    #[test]
    fn mvm_endpoint_runs_an_analog_job() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let body = "{\"mvm\":{\"rows\":2,\"cols\":2,\
                    \"weights\":[0.5,-0.25,0.125,1.0],\"input\":[1.0,0.5],\
                    \"chip_seed\":3,\"p_open\":0.02,\"noise_sigma\":0.05,\"trials\":2}}";
        let ok = service.handle(&post("/v1/mvm", body));
        assert_eq!(ok.status, 200);
        let json = body_json(&ok);
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("strategy").unwrap().as_str(), Some("analog-mvm"));
        assert_eq!(json.get("rows").unwrap().as_i64(), Some(2));
        assert_eq!(json.get("trials").unwrap().as_i64(), Some(2));
        assert_eq!(json.get("output").unwrap().as_array().unwrap().len(), 2);
        // Byte-identical on repeat — the f32 determinism contract.
        let again = service.handle(&post("/v1/mvm", body));
        assert_eq!(ok.body, again.body);

        // The endpoint requires the mvm object; /v1/mvm is in the 405 set.
        let missing = service.handle(&post("/v1/mvm", "{\"expr\":\"x0 x1\"}"));
        assert_eq!(missing.status, 400);
        assert_eq!(service.handle(&get("/v1/mvm")).status, 405);
        // A semantically impossible spec is a 400, never an assert.
        let impossible = service.handle(&post(
            "/v1/mvm",
            "{\"mvm\":{\"rows\":2,\"cols\":2,\
             \"weights\":[0.5,-0.25,0.125,1.0],\"input\":[1.0,0.5],\
             \"p_open\":0.8,\"p_closed\":0.7}}",
        ));
        assert_eq!(impossible.status, 400);
        assert!(
            String::from_utf8_lossy(&impossible.body).contains("p_open + p_closed"),
            "{:?}",
            impossible.body
        );
        assert_eq!(service.metrics().get(Counter::Mvms), 2);
        assert_eq!(service.metrics().get(Counter::MvmTrials), 4);
        assert_eq!(service.metrics().latency(Latency::Mvm).count(), 4);
    }

    #[test]
    fn batch_mvm_slots_ride_along_and_isolate() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let good = "{\"mvm\":{\"rows\":2,\"cols\":2,\
                    \"weights\":[0.5,-0.25,0.125,1.0],\"input\":[1.0,0.5],\
                    \"chip_seed\":7,\"trials\":3},\"label\":\"analog\"}";
        let response = service.handle(&post(
            "/v1/batch",
            &format!(
                "{{\"jobs\":[\
                 {{\"expr\":\"x0 x1\",\"strategy\":\"fet\"}},\
                 {good},\
                 {{\"mvm\":{{\"rows\":2,\"cols\":2,\
                  \"weights\":[0.5,-0.25,0.125,1.0],\"input\":[1.0,0.5],\
                  \"p_open\":0.8,\"p_closed\":0.7}}}},\
                 {good}]}}"
            ),
        ));
        assert_eq!(response.status, 200);
        let json = body_json(&response);
        let slots = json.get("results").unwrap().as_array().unwrap();
        assert_eq!(slots.len(), 4);
        assert!(slots[0].get("mvm").is_none());
        assert_eq!(
            slots[1].get("strategy").unwrap().as_str(),
            Some("analog-mvm")
        );
        assert_eq!(slots[1].get("label").unwrap().as_str(), Some("analog"));
        // The impossible defect model poisons its slot only.
        assert_eq!(slots[2].get("ok"), Some(&Json::Bool(false)));
        // Identical specs dedupe the program step and stay byte-identical.
        assert_eq!(slots[1], slots[3]);
        assert_eq!(service.metrics().get(Counter::Mvms), 2);
    }

    #[test]
    fn multi_output_jobs_serve_end_to_end() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        // One shared-BDD crossbar for a full adder bit: sum + carry.
        let body = "{\"exprs\":[\"x0 ^ x1 ^ x2\",\"x0 x1 + x0 x2 + x1 x2\"],\"verify\":true}";
        let ok = service.handle(&post("/v1/synthesize", body));
        assert_eq!(ok.status, 200);
        let json = body_json(&ok);
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("strategy").unwrap().as_str(), Some("bdd"));
        assert_eq!(json.get("technology").unwrap().as_str(), Some("sneak-path"));
        assert_eq!(json.get("outputs").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("verified"), Some(&Json::Bool(true)));
        // Byte-identical on repeat (second run is cache-served).
        let again = service.handle(&post("/v1/synthesize", body));
        assert_eq!(ok.body, again.body);

        // Multi slots ride along in batches; a multi-output PLA body is
        // the same job, and identical specs dedupe to one fingerprint.
        let pla =
            ".i 3\\n.o 2\\n11- 01\\n1-1 01\\n-11 01\\n100 10\\n010 10\\n001 10\\n111 10\\n.e\\n";
        let batch = service.handle(&post(
            "/v1/batch",
            &format!(
                "{{\"jobs\":[\
                 {{\"exprs\":[\"x0 ^ x1 ^ x2\",\"x0 x1 + x0 x2 + x1 x2\"]}},\
                 {{\"pla\":\"{pla}\"}},\
                 {{\"exprs\":[\"x0 ^ x1 ^ x2\",\"x0 x1 + x0 x2 + x1 x2\"],\
                   \"strategy\":\"fet\"}},\
                 {{\"expr\":\"x0 x1\",\"strategy\":\"fet\"}}]}}"
            ),
        ));
        assert_eq!(batch.status, 200);
        let slots = body_json(&batch);
        let slots = slots.get("results").unwrap().as_array().unwrap();
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].get("outputs").unwrap().as_u64(), Some(2));
        assert_eq!(slots[1].get("strategy").unwrap().as_str(), Some("bdd"));
        // A non-"bdd" strategy on a multi slot poisons that slot only.
        assert_eq!(slots[2].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(slots[2].get("kind").unwrap().as_str(), Some("multi-spec"));
        assert_eq!(slots[3].get("ok"), Some(&Json::Bool(true)));

        // 2 one-shots + 3 batch multi jobs attempted; 4 succeeded with 2
        // outputs each.
        assert_eq!(service.metrics().get(Counter::Multis), 4);
        assert_eq!(service.metrics().get(Counter::MultiOutputs), 8);
    }

    #[test]
    fn metrics_expose_counts_and_cache() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        for _ in 0..2 {
            let ok = service.handle(&post("/v1/synthesize", "{\"expr\":\"x0 x1 + !x0 !x1\"}"));
            assert_eq!(ok.status, 200);
        }
        // Batch slots count individually, and *both* failure kinds (bad
        // spec, typed engine error) land in job_errors.
        let batch = service.handle(&post(
            "/v1/batch",
            "{\"jobs\":[{\"expr\":\"x0\"},{\"expr\":\"((\"},\
             {\"expr\":\"x0 + !x0\",\"strategy\":\"diode\"}]}",
        ));
        assert_eq!(batch.status, 200);
        let metrics = service.handle(&get("/metrics"));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(
            text.contains("nanoxbar_requests_total{endpoint=\"synthesize\"} 2"),
            "{text}"
        );
        assert!(text.contains("nanoxbar_jobs_total 5"), "{text}");
        assert!(text.contains("nanoxbar_job_errors_total 2"), "{text}");
        // Second identical synthesize request hit the shared cache.
        assert!(text.contains("nanoxbar_cache_hits_total 1"), "{text}");

        // Duplicate-heavy load, 20 requests over 4 distinct PLA jobs, is
        // mostly served from the cache: 16 more hits.
        let covers = [
            "11- 1\\n-11 1",
            "1-0 1\\n01- 1",
            "111 1\\n000 1",
            "1-- 1\\n-01 1",
        ];
        for request in 0..20 {
            let cubes = covers[request % covers.len()];
            let body = format!("{{\"pla\":\".i 3\\n.o 1\\n{cubes}\\n.e\\n\",\"verify\":true}}");
            let response = service.handle(&post("/v1/synthesize", &body));
            assert_eq!(body_json(&response).get("ok"), Some(&Json::Bool(true)));
        }
        let text = String::from_utf8(service.handle(&get("/metrics")).body).unwrap();
        let sample = |name: &str| -> f64 {
            let line = text.lines().find_map(|line| line.strip_prefix(name));
            line.and_then(|value| value.trim().parse().ok()).unwrap()
        };
        let hits = sample("nanoxbar_cache_hits_total ");
        let misses = sample("nanoxbar_cache_misses_total ");
        assert_eq!(hits, 17.0, "{text}");
        assert!(hits / (hits + misses) > 0.4, "{hits} hits, {misses} misses");
    }

    #[test]
    fn cached_and_uncached_bodies_are_bit_identical() {
        let cached = Service::new(&ServiceConfig::default()).expect("service boots");
        let uncached = Service::new(&ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .expect("service boots");
        assert!(uncached.cache_stats().is_none());
        // A single-output expression, an analog MVM, and a multi-output
        // BDD job: each must read the same cold, on a hit, and with no
        // cache at all.
        let cases = [
            (
                "/v1/synthesize",
                "{\"expr\":\"x0 x1 x2 + !x0 !x1\",\"verify\":true}",
            ),
            (
                "/v1/mvm",
                "{\"mvm\":{\"rows\":3,\"cols\":4,\
                 \"weights\":[0.5,-0.25,1,0,0.75,-1,0.125,0.25,-0.5,1,0,-0.75],\
                 \"input\":[1,0.5,-0.5,0.25],\"chip_seed\":7,\"p_open\":0.02,\
                 \"p_closed\":0.01,\"noise_sigma\":0.05,\"trials\":4}}",
            ),
            (
                "/v1/synthesize",
                "{\"exprs\":[\"x0 ^ x1 ^ x2\",\"x0 x1 + x0 x2 + x1 x2\"],\"verify\":true}",
            ),
        ];
        for (path, body) in cases {
            let mut bodies = Vec::new();
            for service in [&cached, &cached, &uncached] {
                let response = service.handle(&post(path, body));
                assert_eq!(response.status, 200, "{path} {body}");
                assert_eq!(body_json(&response).get("ok"), Some(&Json::Bool(true)));
                bodies.push(response.body);
            }
            assert_eq!(bodies[0], bodies[1], "cache hit changed the {path} body");
            assert_eq!(bodies[0], bodies[2], "caching changed the {path} body");
        }
        // Both synthesis jobs were served from the cache the second time.
        assert!(cached.cache_stats().expect("cache on").hits >= 2);
    }

    #[test]
    fn response_memo_fills_on_repeats_and_stays_bounded() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let memo_len = || service.memo_entries() as u64;
        let body = |label: usize| {
            format!("{{\"expr\":\"x0 x1 + !x0 !x1\",\"verify\":true,\"label\":\"{label}\"}}")
        };
        // The first run of a function synthesises: nothing is memoised.
        let cold = service.handle(&post("/v1/synthesize", &body(0)));
        assert_eq!(memo_len(), 0);
        assert!(service
            .memo_response(&post("/v1/synthesize", &body(0)))
            .is_none());
        // A run the cache already vouched for fills the memo, and the
        // memo answers the exact bytes, on the synthesize route only.
        let warm = service.handle(&post("/v1/synthesize", &body(0)));
        assert_eq!(cold, warm);
        assert_eq!(memo_len(), 1);
        let memoised = service.memo_response(&post("/v1/synthesize", &body(0)));
        assert_eq!(memoised.as_ref(), Some(&warm));
        assert!(service.memo_response(&post("/v1/map", &body(0))).is_none());
        assert!(service
            .memo_response(&post("/v1/synthesize", &format!("{} ", body(0))))
            .is_none());

        // Chip and deadline jobs never enter the memo.
        for ineligible in [
            "{\"expr\":\"x0 x1 + !x0 !x1\",\"chip\":{\"rows\":16,\"cols\":16,\"seed\":3}}",
            "{\"expr\":\"x0 x1 + !x0 !x1\",\"limits\":{\"time_ms\":60000}}",
        ] {
            for _ in 0..3 {
                service.handle(&post("/v1/synthesize", ineligible));
            }
            assert!(service
                .memo_response(&post("/v1/synthesize", ineligible))
                .is_none());
        }
        assert_eq!(memo_len(), 1);

        // Distinct labels share one cache entry but not one body: the
        // entry bound clears the memo on its 4097th insert.
        for label in 1..MEMO_ENTRIES {
            service.handle(&post("/v1/synthesize", &body(label)));
        }
        assert_eq!(memo_len(), MEMO_ENTRIES as u64);
        service.handle(&post("/v1/synthesize", &body(MEMO_ENTRIES)));
        assert_eq!(memo_len(), 1);
        assert!(service
            .memo_response(&post("/v1/synthesize", &body(0)))
            .is_none());

        // So does the byte bound: a 300 kB label rides in the request and
        // in the response, and two such entries outgrow 1 MiB.
        let big = |tag: char| {
            format!(
                "{{\"expr\":\"x0 x1 + !x0 !x1\",\"label\":\"{}\"}}",
                tag.to_string().repeat(300 << 10)
            )
        };
        for tag in ['a', 'b'] {
            service.handle(&post("/v1/synthesize", &big(tag)));
        }
        assert_eq!(memo_len(), 1);
        assert!(service
            .memo_response(&post("/v1/synthesize", &big('a')))
            .is_none());
        assert!(service
            .memo_response(&post("/v1/synthesize", &big('b')))
            .is_some());
    }

    /// Drives a `/v1/map` session one round at a time until the final
    /// response, returning it.
    fn drive_session(service: &Service, create_body: &str, resume_body: &str) -> Json {
        let mut response = body_json(&service.handle(&post("/v1/map", create_body)));
        for _ in 0..256 {
            let session = response.get("session").expect("session trailer");
            if session.get("done") == Some(&Json::Bool(true)) {
                return response;
            }
            response = body_json(&service.handle(&post("/v1/map", resume_body)));
        }
        panic!("session did not converge in 256 rounds");
    }

    #[test]
    fn map_sessions_match_one_shot_maps_bit_for_bit() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let job = "\"expr\":\"x0 x1 + !x0 !x1\",\
                   \"chip\":{\"rows\":10,\"cols\":10,\"seed\":11,\"defect_rate\":0.2},\
                   \"map\":{\"max_attempts\":60}";
        let one_shot = body_json(&service.handle(&post("/v1/map", &format!("{{{job}}}"))));
        let create = format!("{{{job},\"session\":{{\"id\":\"inc\",\"rounds\":1}}}}");
        let resume =
            format!("{{{job},\"session\":{{\"id\":\"inc\",\"rounds\":1}},\"resume\":true}}");
        let finished = drive_session(&service, &create, &resume);
        // The incremental run's map object is bit-identical to the
        // uninterrupted one — the checkpoint/resume determinism contract.
        assert_eq!(finished.get("map"), one_shot.get("map"));
        assert_eq!(finished.get("fingerprint"), one_shot.get("fingerprint"));
        // The completed session is gone: resuming it again is an error.
        let gone = service.handle(&post("/v1/map", &resume));
        assert_eq!(gone.status, 400);
    }

    #[test]
    fn session_protocol_rejects_bad_requests() {
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let job = "\"expr\":\"x0 x1\",\"chip\":{\"rows\":12,\"cols\":12,\"seed\":2}";
        // Interim state: one round of a fresh session.
        let first = service.handle(&post(
            "/v1/map",
            &format!("{{{job},\"session\":{{\"id\":\"s\",\"rounds\":0}}}}"),
        ));
        assert_eq!(first.status, 200);
        assert_eq!(
            body_json(&first).get("session").and_then(|s| s.get("done")),
            Some(&Json::Bool(false)),
            "zero rounds cannot finish a session"
        );
        // Creating the same id again without resume is refused.
        let duplicate = service.handle(&post(
            "/v1/map",
            &format!("{{{job},\"session\":{{\"id\":\"s\"}}}}"),
        ));
        assert_eq!(duplicate.status, 400);
        // Resume of an unknown id is refused.
        let unknown = service.handle(&post(
            "/v1/map",
            &format!("{{{job},\"session\":{{\"id\":\"nope\"}},\"resume\":true}}"),
        ));
        assert_eq!(unknown.status, 400);
        // Malformed session objects are refused.
        for bad in [
            format!("{{{job},\"resume\":true}}"),
            format!("{{{job},\"session\":{{}}}}"),
            format!("{{{job},\"session\":{{\"id\":\"\"}}}}"),
            format!("{{{job},\"session\":{{\"id\":\"x\",\"rounds\":-1}}}}"),
            format!("{{{job},\"session\":{{\"id\":\"x\",\"surprise\":1}}}}"),
            format!("{{{job},\"session\":{{\"id\":\"x\"}},\"resume\":\"yes\"}}"),
        ] {
            assert_eq!(service.handle(&post("/v1/map", &bad)).status, 400, "{bad}");
        }
        // A chipless session create is refused like a chipless map.
        let chipless = service.handle(&post(
            "/v1/map",
            "{\"expr\":\"x0\",\"session\":{\"id\":\"c\"}}",
        ));
        assert_eq!(chipless.status, 400);
        assert_eq!(service.metrics().get(Counter::SessionsCreated), 1);
    }

    /// A replica answering `/v1/peer/fill` synthesises a miss locally and
    /// never asks another peer, even when its own ring says another
    /// replica owns the key; its ordinary routes do ask.
    #[test]
    fn peer_fills_never_chain() {
        use crate::peer::{MemNet, NetDialer, Ring};
        use nanoxbar_engine::CacheKey;

        let (b, c) = ("replica:b", "replica:c");
        let boot = |net: &MemNet, addr: &str, peer: &str| {
            let config = ServiceConfig {
                addr: addr.into(),
                peers: vec![peer.into()],
                ..ServiceConfig::default()
            };
            let dialer: Arc<dyn NetDialer> = Arc::new(net.clone());
            let service = Arc::new(Service::with_net(&config, dialer).expect("replica boots"));
            net.register(addr, service.clone());
            service
        };
        // A diode job whose key the two-member ring hands to C.
        let ring = Ring::new(vec![b.into(), c.into()]);
        let (expr, key) = (1u64..255)
            .map(|bits| {
                let minterms: Vec<String> = (0..8)
                    .filter(|m| bits >> m & 1 == 1)
                    .map(|m| {
                        let lit = |v: u32| {
                            if m >> v & 1 == 1 {
                                format!("x{v}")
                            } else {
                                format!("!x{v}")
                            }
                        };
                        format!("{} {} {}", lit(0), lit(1), lit(2))
                    })
                    .collect();
                let expr = minterms.join(" + ");
                let f = nanoxbar_logic::parse_function(&expr).unwrap();
                (expr, CacheKey::new(&f, "diode", MinimizeMode::Isop))
            })
            .find(|(_, key)| ring.owner_of_key(key) == c)
            .expect("some key belongs to C");

        let net = MemNet::new();
        let replica_b = boot(&net, b, c);
        boot(&net, c, b);
        let fill = object(vec![
            ("v", Json::Int(1)),
            ("key", crate::persist::key_to_json(&key)),
        ]);
        let response = replica_b.handle(&post("/v1/peer/fill", &fill.encode()));
        assert_eq!(
            response.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&response.body)
        );
        assert_eq!(net.dials(c), 0, "a fill must never chain to another peer");
        assert_eq!(replica_b.metrics().get(Counter::PeerFills), 0);
        assert_eq!(replica_b.metrics().get(Counter::PeerFillFailures), 0);

        // Control: on a fresh B, the same function through an ordinary
        // route does ask its owner C.
        let net = MemNet::new();
        let replica_b = boot(&net, b, c);
        boot(&net, c, b);
        let body = format!("{{\"expr\":\"{expr}\",\"strategy\":\"diode\"}}");
        assert_eq!(replica_b.handle(&post("/v1/synthesize", &body)).status, 200);
        assert_eq!(net.dials(c), 1);
        assert_eq!(replica_b.metrics().get(Counter::PeerFills), 1);
    }
}
