//! The event-driven server core and the request router.
//!
//! The **readiness reactor** (see [`crate::reactor`]) is the one thread
//! that owns sockets: it accepts off the listener, applies the
//! `max_conns` ceiling, parks every connection on non-blocking sockets,
//! parses requests incrementally, and pushes only **complete requests**
//! onto a bounded queue; when the queue is full the request is turned
//! away with `503` instead of piling up unbounded (load-shedding
//! backpressure). A fixed set of worker threads pops
//! requests and computes responses — never touching a socket; response
//! bytes travel back through the reactor's per-connection write buffers.
//! Synthesis itself is *not* done per worker: every request becomes an
//! [`Engine::run_batch`] call, which fans out on the process-wide
//! `nanoxbar-par` work-stealing pool — so one slow request parallelises
//! across cores while cheap requests slip past it on other workers.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nanoxbar_engine::{
    CacheStats, Engine, Job, JobResult, Limits, Mapper, MapperSnapshot, MinimizeMode, ResultCache,
};
use nanoxbar_store::{StdVfs, Vfs};

use crate::api::{bad_slot, parse_limits, parse_minimize, result_to_json, JobSpec, MapRequest};
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::peer::{Fleet, NetDialer, PeerTuning, TcpDialer};
use crate::persist::{
    decode_cache_record, decode_session_record, encode_cache_record, encode_session_drop,
    flush_lag, key_from_json, open_state, spawn_persister, PersistCmd, PersisterState,
    RecoveryInfo, SessionRecord, StatePersister,
};
use crate::reactor::{Reactor, ReactorHandle, RequestQueue, ToReactor};
use crate::session::{SessionEntry, SessionTable};
use crate::wire::{object, Json};

/// Server configuration. Start from `ServiceConfig::default()` and
/// override fields.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads (connection handlers — synthesis parallelism
    /// comes from the `nanoxbar-par` pool, sized by `NANOXBAR_THREADS`).
    pub workers: usize,
    /// Weight budget of the [`ResultCache`] shared by both engines
    /// (entries weigh their realization's crosspoint count); 0 disables
    /// caching.
    pub cache_capacity: usize,
    /// Bound of the parsed-request queue between the reactor and the
    /// workers; requests beyond it are rejected with `503`.
    pub queue_depth: usize,
    /// Most connections the reactor holds at once (idle keep-alive
    /// connections park for free, but each still costs a socket and a
    /// parser buffer); connections beyond it are turned away with `503`
    /// at accept time. Connections already being turned away do not
    /// count.
    pub max_conns: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Most jobs accepted in one `/v1/batch` request.
    pub max_batch_jobs: usize,
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
    /// How long an idle mapper session survives before expiry.
    pub session_ttl: Duration,
    /// Most live mapper sessions held at once; the least-recently
    /// touched are evicted beyond this.
    pub session_capacity: usize,
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
            queue_depth: 256,
            max_conns: 4096,
            max_body_bytes: 1 << 20,
            max_batch_jobs: 1024,
            read_timeout: Duration::from_secs(5),
            state_dir: None,
            flush_interval: Duration::from_millis(25),
            session_ttl: Duration::from_secs(600),
            session_capacity: 1024,
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

/// The socket-free request handler: engines (one per minimise mode,
/// sharing one result cache), metrics, and routing. Split from the
/// socket loop so tests can drive it directly.
pub struct Service {
    /// `engines[0]` = ISOP covers, `engines[1]` = exact minimisation.
    /// In fleet mode these carry the peer cache-fill hook.
    engines: [Engine; 2],
    /// Hook-free twins of `engines` sharing the same cache, used only by
    /// the `/v1/peer/fill` handler. Serving fills through hook-free
    /// engines makes fill amplification structurally impossible: even a
    /// misconfigured fleet whose replicas disagree about the ring can
    /// never chain fill requests peer-to-peer-to-peer.
    fill_engines: [Engine; 2],
    cache: Option<Arc<ResultCache>>,
    metrics: Arc<Metrics>,
    max_batch_jobs: usize,
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
        Self::boot_std(config, Arc::new(TcpDialer), self_addr(config))
    }

    /// [`Service::new`] with an explicit ring address for this replica —
    /// how [`Server::from_listener`] advertises the resolved ephemeral
    /// port instead of the `:0` the config was written with.
    pub(crate) fn with_self_addr(
        config: &ServiceConfig,
        self_addr: String,
    ) -> std::io::Result<Service> {
        Self::boot_std(config, Arc::new(TcpDialer), self_addr)
    }

    /// [`Service::new`] over an explicit [`Vfs`] — how the crash tests
    /// run the full service against the fault-injecting in-memory
    /// filesystem.
    ///
    /// # Errors
    ///
    /// As for [`Service::new`].
    pub fn with_vfs(config: &ServiceConfig, vfs: Arc<dyn Vfs>) -> std::io::Result<Service> {
        Self::boot(config, Some(vfs), Arc::new(TcpDialer), self_addr(config))
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
        Self::boot_std(config, dialer, self_addr(config))
    }

    /// Boot with the state directory's real filesystem (when one is set).
    fn boot_std(
        config: &ServiceConfig,
        dialer: Arc<dyn NetDialer>,
        self_addr: String,
    ) -> std::io::Result<Service> {
        let vfs: Option<Arc<dyn Vfs>> = match &config.state_dir {
            Some(dir) => Some(Arc::new(StdVfs::new(dir.clone())?)),
            None => None,
        };
        Self::boot(config, vfs, dialer, self_addr)
    }

    fn boot(
        config: &ServiceConfig,
        vfs: Option<Arc<dyn Vfs>>,
        dialer: Arc<dyn NetDialer>,
        self_addr: String,
    ) -> std::io::Result<Service> {
        let cache =
            (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)));
        let metrics = Arc::new(Metrics::default());
        let fleet = (!config.peers.is_empty()).then(|| {
            Arc::new(Fleet::new(
                self_addr,
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
        let engine_for = |mode: MinimizeMode, fill: bool| {
            let mut builder = Engine::builder().minimize(mode);
            if let Some(cache) = &cache {
                builder = builder.shared_cache(cache.clone());
            }
            if fill {
                if let Some(fleet) = &fleet {
                    let fleet = fleet.clone();
                    builder =
                        builder.cache_fill_hook(nanoxbar_engine::CacheFillHook::new(move |key| {
                            fleet.fill(key)
                        }));
                }
            }
            builder.build().expect("default strategies are registered")
        };
        let engines = [
            engine_for(MinimizeMode::Isop, true),
            engine_for(MinimizeMode::Exact, true),
        ];
        let fill_engines = [
            engine_for(MinimizeMode::Isop, false),
            engine_for(MinimizeMode::Exact, false),
        ];
        let sessions = Arc::new(SessionTable::new(
            config.session_ttl,
            config.session_capacity,
        ));
        let mut recovery = RecoveryInfo::default();
        let mut persister = None;

        if let Some(vfs) = vfs {
            let opened = open_state(&*vfs)?;
            recovery.bytes_truncated = opened.bytes_truncated;
            recovery.cache_generation = opened.cache_generation;
            recovery.session_generation = opened.session_generation;
            recovery.session_records_replayed = opened.session_records.len() as u64;
            Metrics::add(&metrics.persist_bytes_truncated, opened.bytes_truncated);
            Metrics::add(
                &metrics.persist_records_replayed,
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
                        Metrics::bump(&metrics.persist_decode_errors);
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
                        Metrics::bump(&metrics.persist_decode_errors);
                    }
                }
            }
            for id in order {
                let Some((minimize, spec_json, snapshot)) = folded.remove(&id) else {
                    continue;
                };
                let engine = match minimize {
                    MinimizeMode::Isop => &engines[0],
                    MinimizeMode::Exact => &engines[1],
                };
                match materialize_session(engine, minimize, &spec_json, snapshot) {
                    Ok(entry) => {
                        sessions.insert(id, entry);
                    }
                    Err(_) => {
                        recovery.decode_errors += 1;
                        Metrics::bump(&metrics.persist_decode_errors);
                    }
                }
            }
            recovery.sessions_recovered = sessions.len() as u64;
            metrics
                .sessions_active
                .store(sessions.len() as u64, Ordering::Relaxed);

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
                    Metrics::bump(&listener_metrics.persist_enqueued);
                    let _ = tx.send(PersistCmd::AppendCache(encode_cache_record(key, value)));
                }));
            }
            persister = Some(spawned);
        }

        Ok(Service {
            engines,
            fill_engines,
            cache,
            metrics,
            max_batch_jobs: config.max_batch_jobs,
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
        self.cache.as_ref().map(|c| c.stats())
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

    fn engine(&self, mode: MinimizeMode) -> &Engine {
        match mode {
            MinimizeMode::Isop => &self.engines[0],
            MinimizeMode::Exact => &self.engines[1],
        }
    }

    fn fill_engine(&self, mode: MinimizeMode) -> &Engine {
        match mode {
            MinimizeMode::Isop => &self.fill_engines[0],
            MinimizeMode::Exact => &self.fill_engines[1],
        }
    }

    /// Routes one request to a response (the socket layer handles
    /// framing; this is pure request → response).
    pub fn handle(&self, request: &Request) -> Response {
        let response = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                Metrics::bump(&self.metrics.requests_other);
                self.healthz()
            }
            ("GET", "/metrics") => {
                Metrics::bump(&self.metrics.requests_other);
                let peers = self
                    .fleet
                    .as_ref()
                    .map(|fleet| fleet.statuses())
                    .unwrap_or_default();
                Response::text(
                    200,
                    self.metrics.render_prometheus(
                        self.cache_stats(),
                        nanoxbar_par::pool_stats(),
                        &peers,
                    ),
                )
            }
            ("POST", "/v1/synthesize") => {
                Metrics::bump(&self.metrics.requests_synthesize);
                let started = Instant::now();
                let response = self.synthesize(&request.body);
                self.metrics.latency.observe(started.elapsed());
                response
            }
            ("POST", "/v1/map") => {
                Metrics::bump(&self.metrics.requests_map);
                let started = Instant::now();
                let response = self.map(&request.body);
                self.metrics.latency.observe(started.elapsed());
                response
            }
            ("POST", "/v1/batch") => {
                Metrics::bump(&self.metrics.requests_batch);
                let started = Instant::now();
                let response = self.batch(&request.body);
                self.metrics.latency.observe(started.elapsed());
                response
            }
            ("POST", "/v1/mvm") => {
                Metrics::bump(&self.metrics.requests_mvm);
                let started = Instant::now();
                let response = self.mvm(&request.body);
                self.metrics.mvm_latency.observe(started.elapsed());
                response
            }
            ("POST", "/v1/peer/fill") => {
                Metrics::bump(&self.metrics.requests_other);
                self.peer_fill(&request.body)
            }
            ("POST", "/v1/peer/session") => {
                Metrics::bump(&self.metrics.requests_other);
                self.peer_session(&request.body)
            }
            (
                _,
                "/healthz" | "/metrics" | "/v1/synthesize" | "/v1/map" | "/v1/batch" | "/v1/mvm"
                | "/v1/peer/fill" | "/v1/peer/session",
            ) => error_response(405, "method not allowed for this endpoint"),
            _ => error_response(404, "no such endpoint"),
        };
        if response.status >= 400 {
            Metrics::bump(&self.metrics.http_errors);
        }
        response
    }

    fn healthz(&self) -> Response {
        let strategies = self.engines[0]
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
        let reactor = object(vec![
            (
                "connections",
                Json::from(self.metrics.reactor_connections.load(Ordering::Relaxed)),
            ),
            (
                "queue_depth",
                Json::from(self.metrics.reactor_queue_depth.load(Ordering::Relaxed)),
            ),
            (
                "wakeups",
                Json::from(self.metrics.reactor_wakeups.load(Ordering::Relaxed)),
            ),
            (
                "timeouts",
                Json::from(self.metrics.reactor_timeouts.load(Ordering::Relaxed)),
            ),
            (
                "write_buffer_high_water",
                Json::from(
                    self.metrics
                        .reactor_write_high_water
                        .load(Ordering::Relaxed),
                ),
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
                ("cache_enabled", Json::Bool(self.cache.is_some())),
                ("pool_threads", Json::from(nanoxbar_par::threads())),
                ("reactor", reactor),
                ("persist", persist),
                ("peers", peers),
            ])
            .encode(),
        )
    }

    /// `POST /v1/synthesize`: one job object, with optional top-level
    /// `"minimize"`/`"limits"` fields next to the job fields.
    fn synthesize(&self, body: &[u8]) -> Response {
        let (json, minimize, limits) = match self.parse_request_head(body) {
            Ok(parts) => parts,
            Err(response) => return response,
        };
        self.single_job(&json, minimize, limits, false)
    }

    /// `POST /v1/map`: one job object with a required `"chip"`; the BISM
    /// `"map"` options default when absent. Runs through
    /// [`Engine::run_batch`] like every other request, so identical
    /// requests give byte-identical bodies at every thread count. A
    /// top-level `"session"` object switches to the incremental,
    /// resumable protocol ([`Service::map_session`]).
    fn map(&self, body: &[u8]) -> Response {
        let (json, minimize, limits) = match self.parse_request_head(body) {
            Ok(parts) => parts,
            Err(response) => return response,
        };
        if json.get("session").is_some() || json.get("resume").is_some() {
            return self.map_session(&json, minimize, limits);
        }
        self.single_job(&json, minimize, limits, true)
    }

    /// Shared single-job handler behind `/v1/synthesize` and `/v1/map`.
    fn single_job(
        &self,
        json: &Json,
        minimize: MinimizeMode,
        limits: Option<Limits>,
        mapping: bool,
    ) -> Response {
        // Strip the routing fields ("minimize", "limits") before spec
        // parsing — they are request-scoped, not job content.
        let job_json = strip_fields(json, &["minimize", "limits"]);
        let mut spec = match JobSpec::from_json(&job_json) {
            Ok(spec) => spec,
            Err(message) => return error_response(400, &message),
        };
        if mapping {
            if spec.chip.is_none() {
                return error_response(400, "map requests need a \"chip\" to map onto");
            }
            // The endpoint itself requests mapping; options default.
            spec.map.get_or_insert_with(MapRequest::default);
        }
        let job = match spec.to_job() {
            Ok(job) => apply_limits(job, limits),
            Err(message) => return error_response(400, &message),
        };
        let results = self.engine(minimize).run_batch(std::slice::from_ref(&job));
        self.count_jobs(&results);
        self.count_maps(&results);
        self.count_mvms(&results);
        self.count_multis(&results);
        Response::json(200, result_to_json(&results[0]).encode())
    }

    /// `POST /v1/mvm`: one analog matrix-vector job — an `"mvm"` object
    /// next to the usual top-level `"minimize"`/`"limits"` fields. The
    /// job runs through [`Engine::run_batch`] like every other request,
    /// so the differential-pair program step dedupes and memoises while
    /// the chip-specific Monte-Carlo execution runs per request; fixed
    /// reduction order makes identical requests give byte-identical
    /// bodies at every `NANOXBAR_THREADS`. A semantically bad spec
    /// (impossible defect probabilities, non-finite noise) is a `400`
    /// here — the engine's typed `mvm-spec` error is reserved for batch
    /// slots, where it poisons only its own slot.
    fn mvm(&self, body: &[u8]) -> Response {
        let (json, minimize, limits) = match self.parse_request_head(body) {
            Ok(parts) => parts,
            Err(response) => return response,
        };
        let job_json = strip_fields(&json, &["minimize", "limits"]);
        let spec = match JobSpec::from_json(&job_json) {
            Ok(spec) => spec,
            Err(message) => return error_response(400, &message),
        };
        if spec.mvm.is_none() {
            return error_response(400, "mvm requests need an \"mvm\" object");
        }
        let job = match spec.to_job() {
            Ok(job) => apply_limits(job, limits),
            Err(message) => return error_response(400, &message),
        };
        let results = self.engine(minimize).run_batch(std::slice::from_ref(&job));
        self.count_jobs(&results);
        self.count_mvms(&results);
        Response::json(200, result_to_json(&results[0]).encode())
    }

    /// The incremental `/v1/map` protocol: a `"session": {"id", "rounds"?}`
    /// object creates a named session and runs at most `rounds` BISM
    /// rounds (all of them when absent); `"resume": true` continues an
    /// existing session — in this process or, with a state dir, after a
    /// restart. Interim responses report checkpoint progress; the final
    /// response is the ordinary map result (its `"map"` object is
    /// byte-identical to an uninterrupted `/v1/map` run) plus a
    /// `"session"` trailer.
    fn map_session(&self, json: &Json, minimize: MinimizeMode, limits: Option<Limits>) -> Response {
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
                    Metrics::bump(&self.metrics.sessions_resumed);
                    entry
                }
                // Fleet mode: a session this replica never saw may live
                // on a peer (clients are free to reconnect anywhere).
                // Adopting its checkpoint makes the resume succeed here
                // bit-identically to resuming on the original replica.
                None => match self.adopt_session(&id) {
                    Some(entry) => {
                        Metrics::bump(&self.metrics.sessions_resumed);
                        Metrics::bump(&self.metrics.sessions_migrated);
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
            let job_json = strip_fields(json, &["minimize", "limits", "session", "resume"]);
            let mut spec = match JobSpec::from_json(&job_json) {
                Ok(spec) => spec,
                Err(message) => return error_response(400, &message),
            };
            if spec.chip.is_none() {
                return error_response(400, "map requests need a \"chip\" to map onto");
            }
            spec.map.get_or_insert_with(MapRequest::default);
            let label = spec.label.clone();
            let verified = spec.verify;
            let job = match spec.to_job() {
                Ok(job) => apply_limits(job, limits),
                Err(message) => return error_response(400, &message),
            };
            Metrics::bump(&self.metrics.jobs);
            // Synthesis/verification runs once, at creation; request
            // "limits" apply here and are not part of the durable spec.
            let setup = match self.engine(minimize).prepare_map(&job) {
                Ok(setup) => setup,
                Err(error) => {
                    Metrics::bump(&self.metrics.job_errors);
                    return Response::json(200, result_to_json(&Err(error)).encode());
                }
            };
            Metrics::bump(&self.metrics.sessions_created);
            SessionEntry {
                minimize,
                spec: job_json,
                setup,
                label,
                verified,
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
            Metrics::bump(&self.metrics.maps);
            if !report.stats.success {
                Metrics::bump(&self.metrics.map_failures);
            }
            let total_rounds = report.rounds;
            let result: Result<JobResult, nanoxbar_engine::Error> = Ok(JobResult {
                label: entry.label.clone(),
                strategy: entry.setup.strategy.clone(),
                realization: Some(entry.setup.realization.clone()),
                verified: entry.verified.then_some(true),
                flow: None,
                map: Some(report),
                mvm: None,
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
            self.metrics
                .sessions_active
                .store(self.sessions.len() as u64, Ordering::Relaxed);
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
                Metrics::bump(&self.metrics.sessions_expired);
                self.log_session_drop(&evicted);
            }
            self.metrics
                .sessions_active
                .store(self.sessions.len() as u64, Ordering::Relaxed);
            Response::json(
                200,
                object(vec![("ok", Json::Bool(true)), ("session", progress)]).encode(),
            )
        }
    }

    /// `POST /v1/peer/fill`: a peer asks this replica — the ring owner —
    /// for one cache entry by content address. A hit answers from the
    /// cache; a miss synthesises locally through the hook-free
    /// [`Self::fill_engine`]s (never chaining another peer fill), which
    /// also admits the entry for future requests. The response body is
    /// exactly a cache-log record, so the requester reuses the replay
    /// decoder verbatim.
    fn peer_fill(&self, body: &[u8]) -> Response {
        let Some(cache) = &self.cache else {
            return error_response(404, "caching is disabled on this replica");
        };
        let key = match parse_peer_fill(body) {
            Ok(key) => key,
            Err(message) => return error_response(400, &message),
        };
        if cache.get(&key).is_none() {
            let function =
                nanoxbar_logic::TruthTable::from_words(key.num_vars(), key.words().to_vec());
            let job = Job::synthesize(function).with_strategy_name(key.strategy());
            Metrics::bump(&self.metrics.jobs);
            // `run` (not `run_batch`): the fill is one job on this worker
            // thread, and staying off the pool keeps in-process fleet
            // tests (MemNet dials resolve inside pool workers) from
            // nesting pool scopes.
            if let Err(_e) = self.fill_engine(key.minimize()).run(&job) {
                Metrics::bump(&self.metrics.job_errors);
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
                self.metrics
                    .sessions_active
                    .store(self.sessions.len() as u64, Ordering::Relaxed);
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
                materialize_session(self.engine(minimize), minimize, &spec, snapshot).ok()
            }
            _ => None,
        }
    }

    /// Expires idle sessions, logging a tombstone for each.
    fn sweep_sessions(&self) {
        for id in self.sessions.sweep() {
            Metrics::bump(&self.metrics.sessions_expired);
            self.log_session_drop(&id);
        }
        self.metrics
            .sessions_active
            .store(self.sessions.len() as u64, Ordering::Relaxed);
    }

    fn log_session_drop(&self, id: &str) {
        if let Some(persister) = &self.persister {
            persister.append_session(encode_session_drop(id));
        }
    }

    /// `POST /v1/batch`: `{"minimize": …, "limits": …, "jobs":
    /// [jobspec, …]}` with per-slot error isolation — a bad spec poisons
    /// its slot, not the request. Map slots (a `"map"` object next to a
    /// `"chip"`) ride along with synthesis slots.
    fn batch(&self, body: &[u8]) -> Response {
        let (json, minimize, limits) = match self.parse_request_head(body) {
            Ok(parts) => parts,
            Err(response) => return response,
        };
        self.batch_buffered(&json, minimize, limits)
    }

    /// Shared `/v1/batch` slot validation: specs that fail to parse keep
    /// their slot (input-ordered responses) but never reach the engine;
    /// valid jobs are moved — not cloned — into the engine batch.
    #[allow(clippy::result_large_err)]
    fn batch_slots(
        &self,
        json: &Json,
        limits: Option<Limits>,
    ) -> Result<(Vec<Option<String>>, Vec<Job>), Response> {
        let Some(slots) = json.get("jobs").and_then(Json::as_array) else {
            return Err(error_response(400, "batch needs a \"jobs\" array"));
        };
        if slots.len() > self.max_batch_jobs {
            return Err(error_response(
                400,
                &format!(
                    "batch of {} jobs exceeds the limit of {}",
                    slots.len(),
                    self.max_batch_jobs
                ),
            ));
        }
        let mut slot_errors: Vec<Option<String>> = Vec::with_capacity(slots.len());
        let mut jobs: Vec<Job> = Vec::with_capacity(slots.len());
        for slot in slots {
            match JobSpec::from_json(slot).and_then(|spec| spec.to_job()) {
                Ok(job) => {
                    slot_errors.push(None);
                    jobs.push(apply_limits(job, limits));
                }
                Err(message) => slot_errors.push(Some(message)),
            }
        }
        Ok((slot_errors, jobs))
    }

    /// The buffered (non-streaming) batch path: one engine batch, one
    /// JSON body.
    fn batch_buffered(
        &self,
        json: &Json,
        minimize: MinimizeMode,
        limits: Option<Limits>,
    ) -> Response {
        let (slot_errors, jobs) = match self.batch_slots(json, limits) {
            Ok(parts) => parts,
            Err(response) => return response,
        };
        let engine_results = self.engine(minimize).run_batch(&jobs);
        self.count_maps(&engine_results);
        self.count_mvms(&engine_results);
        self.count_multis(&engine_results);
        // Every slot is one job; failed slots of either kind (unparsable
        // spec, typed engine error) count as job errors.
        Metrics::add(&self.metrics.jobs, slot_errors.len() as u64);
        Metrics::add(
            &self.metrics.job_errors,
            (slot_errors.iter().filter(|s| s.is_some()).count()
                + engine_results.iter().filter(|r| r.is_err()).count()) as u64,
        );

        let mut engine_results = engine_results.into_iter();
        let rendered: Vec<Json> = slot_errors
            .iter()
            .map(|slot| match slot {
                Some(message) => bad_slot("bad-request", message),
                None => result_to_json(
                    &engine_results
                        .next()
                        .expect("one engine result per valid spec"),
                ),
            })
            .collect();
        Response::json(
            200,
            object(vec![
                ("count", Json::from(rendered.len())),
                ("results", Json::Array(rendered)),
            ])
            .encode(),
        )
    }

    /// `/v1/batch` with chunked streaming: a request carrying
    /// `"stream": true` has its result slots **emitted as they finish**
    /// instead of buffered until the last job completes.
    ///
    /// Returns `None` once the body has been fully emitted through
    /// `emit`, or `Some(response)` when the request takes the buffered
    /// path after all: `"stream"` absent or not `true`, or any request
    /// error (errors are never streamed — a client that asked to stream
    /// still gets a plain status it can switch on).
    ///
    /// The emitted fragments concatenate to **exactly** the buffered
    /// body (`{"count":N,"results":[...]}`): slots are computed
    /// sequentially in input order through the same [`Engine::run_batch`]
    /// entry point, and engine determinism plus the shared result cache
    /// make each slot byte-identical to what the one-shot batch renders.
    pub(crate) fn batch_stream(
        &self,
        body: &[u8],
        emit: &mut dyn FnMut(Vec<u8>),
    ) -> Option<Response> {
        let (json, minimize, limits) = match self.parse_request_head(body) {
            Ok(parts) => parts,
            Err(response) => return Some(response),
        };
        if json.get("stream").and_then(Json::as_bool) != Some(true) {
            return Some(self.batch_buffered(&json, minimize, limits));
        }
        let (slot_errors, jobs) = match self.batch_slots(&json, limits) {
            Ok(parts) => parts,
            Err(response) => return Some(response),
        };
        Metrics::add(&self.metrics.jobs, slot_errors.len() as u64);
        let mut jobs = jobs.into_iter();
        let mut fragment = format!("{{\"count\":{},\"results\":[", slot_errors.len()).into_bytes();
        for (index, slot) in slot_errors.iter().enumerate() {
            let rendered = match slot {
                Some(message) => {
                    Metrics::bump(&self.metrics.job_errors);
                    bad_slot("bad-request", message)
                }
                None => {
                    let job = [jobs.next().expect("one job per valid spec")];
                    let results = self.engine(minimize).run_batch(&job);
                    self.count_maps(&results);
                    self.count_mvms(&results);
                    self.count_multis(&results);
                    if results[0].is_err() {
                        Metrics::bump(&self.metrics.job_errors);
                    }
                    result_to_json(&results[0])
                }
            };
            if index > 0 {
                fragment.push(b',');
            }
            fragment.extend_from_slice(rendered.encode().as_bytes());
            emit(std::mem::take(&mut fragment));
        }
        // With zero slots the prefix never flushed; `]}` completes the
        // body either way.
        fragment.extend_from_slice(b"]}");
        emit(fragment);
        None
    }

    /// Shared request preamble: JSON parse + minimise-mode and per-request
    /// limit extraction (out-of-range budgets are rejected here, before
    /// any engine work).
    #[allow(clippy::result_large_err)]
    fn parse_request_head(
        &self,
        body: &[u8],
    ) -> Result<(Json, MinimizeMode, Option<Limits>), Response> {
        let text = std::str::from_utf8(body)
            .map_err(|_| error_response(400, "request body is not UTF-8"))?;
        let json = Json::parse(text).map_err(|e| error_response(400, &e.to_string()))?;
        let minimize = parse_minimize(json.get("minimize")).map_err(|m| error_response(400, &m))?;
        let limits = parse_limits(json.get("limits")).map_err(|m| error_response(400, &m))?;
        Ok((json, minimize, limits))
    }

    fn count_jobs<T>(&self, results: &[Result<T, nanoxbar_engine::Error>]) {
        Metrics::add(&self.metrics.jobs, results.len() as u64);
        Metrics::add(
            &self.metrics.job_errors,
            results.iter().filter(|r| r.is_err()).count() as u64,
        );
    }

    /// Counts mapping outcomes: every completed map job, and those whose
    /// search exhausted its budget without a working placement.
    fn count_maps(&self, results: &[Result<nanoxbar_engine::JobResult, nanoxbar_engine::Error>]) {
        for result in results.iter().flatten() {
            if let Some(map) = &result.map {
                Metrics::bump(&self.metrics.maps);
                if !map.stats.success {
                    Metrics::bump(&self.metrics.map_failures);
                }
            }
        }
    }

    /// Counts analog MVM outcomes: every completed MVM job and the
    /// Monte-Carlo trials it executed.
    fn count_mvms(&self, results: &[Result<nanoxbar_engine::JobResult, nanoxbar_engine::Error>]) {
        for result in results.iter().flatten() {
            if let Some(mvm) = &result.mvm {
                Metrics::bump(&self.metrics.mvms);
                Metrics::add(&self.metrics.mvm_trials, u64::from(mvm.trials));
            }
        }
    }

    /// Counts multi-output outcomes: every completed shared-crossbar BDD
    /// job and the output functions riding on it.
    fn count_multis(&self, results: &[Result<nanoxbar_engine::JobResult, nanoxbar_engine::Error>]) {
        for result in results.iter().flatten() {
            if let Some(realization) = &result.realization {
                let outputs = realization.num_outputs();
                if outputs > 1 {
                    Metrics::bump(&self.metrics.multis);
                    Metrics::add(&self.metrics.multi_outputs, outputs as u64);
                }
            }
        }
    }
}

impl Drop for Service {
    /// Stops the persister (final sync included) so a dropped service —
    /// tests, crash simulations — leaves no thread holding the logs open.
    fn drop(&mut self) {
        self.shutdown_state();
    }
}

/// Applies the request-scoped limit overrides to one job.
fn apply_limits(job: Job, limits: Option<Limits>) -> Job {
    match limits {
        Some(limits) => job.limited(limits),
        None => job,
    }
}

/// A copy of a JSON object without the named request-scoped members.
fn strip_fields(json: &Json, fields: &[&str]) -> Json {
    match json {
        Json::Object(members) => Json::Object(
            members
                .iter()
                .filter(|(k, _)| !fields.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
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
    let mut spec = JobSpec::from_json(spec_json)?;
    if spec.chip.is_none() {
        return Err("recovered session has no chip".into());
    }
    spec.map.get_or_insert_with(MapRequest::default);
    let label = spec.label.clone();
    let verified = spec.verify;
    let job = spec.to_job()?;
    let setup = engine.prepare_map(&job).map_err(|e| e.to_string())?;
    Ok(SessionEntry {
        minimize,
        spec: spec_json.clone(),
        setup,
        label,
        verified,
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
    /// Binds the configured address and builds the engines.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Self::from_listener(listener, config)
    }

    /// Builds a server over an already-bound listener — how a fleet of
    /// ephemeral-port replicas is stood up: bind every listener first,
    /// collect the resolved addresses into each config's `peers`, then
    /// build the servers. With no `advertise` override, the replica
    /// advertises its **resolved** address on the ring (never `:0`).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection and state-replay failures.
    pub fn from_listener(listener: TcpListener, config: ServiceConfig) -> std::io::Result<Server> {
        let advertised = match &config.advertise {
            Some(addr) => addr.clone(),
            None => listener.local_addr()?.to_string(),
        };
        let service = Arc::new(Service::with_self_addr(&config, advertised)?);
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
        let queue = Arc::new(RequestQueue::new(self.config.queue_depth, metrics.clone()));
        let draining = Arc::new(AtomicBool::new(false));
        let (reactor, handle) = Reactor::new(self.listener, queue.clone(), metrics, &self.config)?;
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
                        while let Some((conn, request)) = queue.pop() {
                            serve_request(&service, &reactor, &draining, conn, &request);
                        }
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

/// Computes and ships the response for one dispatched request. `/v1/batch`
/// goes through [`Service::batch_stream`] so `"stream": true` requests
/// emit chunked slots as they finish; everything else is one buffered
/// [`Service::handle`] response.
fn serve_request(
    service: &Service,
    reactor: &ReactorHandle,
    draining: &AtomicBool,
    conn: u64,
    request: &Request,
) {
    if request.method == "POST" && request.path == "/v1/batch" {
        Metrics::bump(&service.metrics.requests_batch);
        let started = Instant::now();
        let close = request.wants_close() || draining.load(Ordering::SeqCst);
        let mut streaming = false;
        let buffered = service.batch_stream(&request.body, &mut |bytes| {
            if !streaming {
                streaming = true;
                reactor.send(ToReactor::StreamHead { conn, close });
            }
            reactor.send(ToReactor::StreamChunk { conn, bytes });
        });
        service.metrics.latency.observe(started.elapsed());
        match buffered {
            None => reactor.send(ToReactor::StreamEnd { conn }),
            Some(response) => {
                if response.status >= 400 {
                    Metrics::bump(&service.metrics.http_errors);
                }
                // Re-check the drain after the (possibly long) handling:
                // the response still goes out, but the connection closes.
                let close = close || draining.load(Ordering::SeqCst);
                reactor.send(ToReactor::Respond {
                    conn,
                    response,
                    close,
                });
            }
        }
        return;
    }
    let response = service.handle(request);
    let close = request.wants_close() || draining.load(Ordering::SeqCst);
    reactor.send(ToReactor::Respond {
        conn,
        response,
        close,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let config = ServiceConfig {
            max_batch_jobs: 2,
            ..ServiceConfig::default()
        };
        let service = Service::new(&config).expect("service boots");
        let over = service.handle(&post(
            "/v1/batch",
            "{\"jobs\":[{\"expr\":\"x0\"},{\"expr\":\"x0\"},{\"expr\":\"x0\"}]}",
        ));
        assert_eq!(over.status, 400);

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
        assert_eq!(service.metrics().maps.load(Ordering::Relaxed), 3);
        assert_eq!(service.metrics().map_failures.load(Ordering::Relaxed), 1);
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
        assert_eq!(service.metrics().mvms.load(Ordering::Relaxed), 2);
        assert_eq!(service.metrics().mvm_trials.load(Ordering::Relaxed), 4);
        assert_eq!(service.metrics().mvm_latency.count(), 4);
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
        assert_eq!(service.metrics().mvms.load(Ordering::Relaxed), 2);
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
        assert_eq!(service.metrics().multis.load(Ordering::Relaxed), 4);
        assert_eq!(service.metrics().multi_outputs.load(Ordering::Relaxed), 8);
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
        let body = "{\"expr\":\"x0 x1 x2 + !x0 !x1\",\"verify\":true}";
        let mut bodies = Vec::new();
        for service in [&cached, &cached, &uncached] {
            let response = service.handle(&post("/v1/synthesize", body));
            assert_eq!(response.status, 200);
            bodies.push(response.body);
        }
        assert_eq!(bodies[0], bodies[1], "cache hit changed the body");
        assert_eq!(bodies[0], bodies[2], "caching changed the body");
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
        assert_eq!(
            service.metrics().sessions_created.load(Ordering::Relaxed),
            1
        );
    }
}
