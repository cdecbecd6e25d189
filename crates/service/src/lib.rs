//! # nanoxbar-service
//!
//! A **dependency-free HTTP/1.1 synthesis service** over the
//! [`nanoxbar_engine`] batch engine: non-blocking sockets driven by a
//! std-only readiness reactor (see *Event-driven core* below), one set of
//! compute threads for request execution, hand-rolled JSON ([`wire`]),
//! and a content-addressed result cache shared across requests
//! ([`nanoxbar_engine::ResultCache`]). Every synthesis request runs as an
//! [`Engine::run_batch`](nanoxbar_engine::Engine::run_batch) call on the
//! worker that took it. The workers are the `nanoxbar-par` pool's
//! runners: a busy worker runs its own batch tasks, and an idle one
//! steals them, so a lone request still uses every core.
//!
//! The service is Linux-only: its reactor is built on epoll(7) with an
//! eventfd(2) doorbell.
//!
//! ## Endpoints
//!
//! | Endpoint              | Meaning                                        |
//! |-----------------------|------------------------------------------------|
//! | `POST /v1/synthesize` | One job: expression or PLA body + options      |
//! | `POST /v1/map`        | One job mapped onto a defective chip with BISM (resumable sessions via `"session"`/`"resume"`) |
//! | `POST /v1/mvm`        | One analog matrix-vector product on a simulated crossbar chip |
//! | `POST /v1/batch`      | Ordered multi-job with per-slot isolation (map and mvm slots welcome); `"stream":true` chunks slots out as they finish |
//! | `GET /healthz`        | Liveness + registered strategies               |
//! | `GET /metrics`        | Prometheus text: requests, latency histograms, map and mvm outcomes, cache hits/misses/weight, pool steals |
//!
//! Every request accepts optional top-level `"minimize"` and `"limits"`
//! fields; `"limits"` (`{"time_ms": 1..=60000, "sat_conflicts":
//! 1..=10^9}`) bounds each job of the request so no accepted request can
//! hold a pool worker indefinitely — out-of-range budgets are a `400`.
//!
//! ## Event-driven core
//!
//! Sockets — the listener and every connection — are owned by a single
//! reactor thread built on the vendored `polling` readiness API
//! (level-triggered epoll(7)). Sockets are non-blocking end to end: the
//! reactor accepts, parks idle keep-alive connections at **zero thread
//! cost**, accumulates request bytes as they arrive, and
//! hands a connection to the worker pool only once a complete request
//! sits in its read buffer. Responses travel back through the reactor
//! as non-blocking writes against a per-connection write buffer, so a
//! slow reader never holds a worker either. A connection's lifecycle:
//!
//! ```text
//!          accept until WouldBlock
//! listener ─────────┬── live conns ≥ --max-conns ──────────────▶ Closing ──▶ 503 + Retry-After,
//! (key 0)           │   (Closing conns don't count)               ▲          half-close, close
//!                   │                                             │          after grace
//!                   │       malformed / too large / queue full    │
//!                   ▼    ┌────────────────────────────────────────┘
//!                 Reading ────── complete request parsed ──────▶ Dispatched
//!                  ▲   │ partial bytes arm a                        │ worker runs the job(s);
//!                  │   │ read-timeout timer;                        │ response (or chunked
//!                  │   │ a parked idle conn                         │ stream) queued to the
//!                  │   │ holds NO timer                             │ reactor
//!                  │   ▼                                            ▼
//!                  │  timeout ──▶ close                   write buffer drains
//!                  │                                      (Streaming: one chunk
//!                  │         keep-alive: back             per finished job)
//!                  └─────────────── to Reading ◀────────────────────┘
//! ```
//!
//! On drain the reactor deregisters and drops the listener, closes
//! parked connections, and lets in-flight responses finish.
//!
//! Read/header timeouts are reactor timers kept in a side map that only
//! holds *active* deadlines, so per-wakeup bookkeeping costs O(active
//! requests), not O(parked connections) — 512 idle keep-alive
//! connections cost a service under load within a few percent of zero.
//! Graceful drain, `--max-body-bytes`, and 503 load-shedding with
//! `Retry-After` all run on the reactor thread. Outbound peer fills run
//! off it, inside the engine job that misses the cache, over blocking
//! sockets: `peer::TcpDialer` bounds each read and write with the
//! socket's own timeout, and the client checks one deadline for the
//! whole exchange.
//!
//! ### Streaming batches
//!
//! `POST /v1/batch` with `"stream":true` answers with
//! `Transfer-Encoding: chunked` and emits each slot **the moment its
//! job finishes**, in input order — time-to-first-result no longer
//! waits for the slowest slot. De-chunked, the bytes are identical to
//! the buffered response for the same jobs:
//!
//! ```console
//! $ curl -sN http://127.0.0.1:8080/v1/batch \
//!     -d '{"stream":true,"jobs":[
//!           {"expr":"x0 x1","strategy":"diode","label":"fast"},
//!           {"expr":"x0 x1 x2 + x3 x4 x5 + x6 x7 x8",
//!            "chip":{"rows":48,"cols":48,"seed":7,"defect_rate":0.6},
//!            "map":{"strategy":"greedy","max_attempts":150000}}]}'
//! {"count":2,"results":[{"ok":true,...,"label":"fast"}     <- arrives immediately
//! ,{"ok":true,...,"map":{...}}                             <- arrives when the slow map finishes
//! ]}
//! ```
//!
//! ### Tuning
//!
//! | Knob               | Default | Meaning                                            |
//! |--------------------|---------|----------------------------------------------------|
//! | `--threads`        | 4       | Compute threads: they *execute* requests and their batch tasks; sizes for CPU work |
//! | `--max-conns`      | 4096    | Open-connection ceiling; beyond it new clients are shed with `503` + `Retry-After` |
//! | `read_timeout`     | 5s      | [`ServiceConfig`] field, no CLI flag: reactor timer on a *partially received* request (slow-loris bound); parked idle connections are exempt |
//! | `--max-body-bytes` | 1 MiB   | Request-body ceiling, enforced while bytes accumulate in the reactor |
//!
//! Workers bound concurrent *execution*; `--max-conns` bounds concurrent
//! *connections*. They are independent: thousands of idle keep-alive
//! clients need no extra workers, while CPU-heavy batch load wants
//! `--threads` near the core count regardless of connection count. The
//! workers are also the synthesis pool's threads: the pool starts
//! `nanoxbar-par-*` threads of its own only when `--threads` is below
//! the pool width (`NANOXBAR_THREADS`, default the core count), and then
//! only enough to make up the width.
//! `GET /healthz` reports the reactor's live connection gauge and
//! `GET /metrics` exports `nanoxbar_reactor_*` families (connections,
//! ready-queue depth, wakeups, timeouts, write-buffer high-water).
//!
//! Responses carry **no wall-clock fields** and use a deterministic
//! encoder, so identical jobs produce byte-identical bodies whether they
//! were synthesised fresh, served from the cache, or deduplicated inside
//! a batch — latency lives in `/metrics`. That includes `/v1/map` (the
//! speculative mapper commits candidates in deterministic
//! order) and `/v1/mvm`: the analog kernels fix every f32 reduction's
//! order (each output row is one left-to-right sum, parallel chunks
//! split at constant boundaries), and f32 values widen exactly to f64
//! on the wire — so even floating-point bodies are byte-identical at
//! every `NANOXBAR_THREADS`.
//!
//! ## Curl session
//!
//! Start the server (`nanoxbar serve --addr 127.0.0.1:8080`), then:
//!
//! ```console
//! $ curl -s http://127.0.0.1:8080/v1/synthesize \
//!     -d '{"expr":"x0 x1 + !x0 !x1","strategy":"diode","verify":true}'
//! {"ok":true,"strategy":"diode","technology":"diode","rows":2,"cols":5,
//!  "area":10,"fingerprint":"9e86b12433c82b5e","verified":true}
//!
//! $ curl -s http://127.0.0.1:8080/v1/batch \
//!     -d '{"minimize":"exact","jobs":[
//!           {"expr":"x0 x1","strategy":"fet","label":"and2"},
//!           {"expr":"x0 + !x0","strategy":"diode"},
//!           {"expr":"x0 ^ x1","chip":{"rows":16,"cols":16,"seed":5,"defect_rate":0.05}}]}'
//! {"count":3,"results":[
//!  {"ok":true,"strategy":"fet",...,"label":"and2"},
//!  {"ok":false,"kind":"constant-function","error":"constant 1-variable function needs no crossbar"},
//!  {"ok":true,"strategy":"dual-lattice",...,"flow":{"bist_passed":true,...}}]}
//!
//! $ curl -s http://127.0.0.1:8080/v1/map \
//!     -d '{"expr":"x0 x1 + !x0 !x1",
//!          "chip":{"rows":32,"cols":32,"seed":7,"defect_rate":0.10},
//!          "map":{"strategy":"greedy","speculation":8,"max_attempts":400,"seed":1}}'
//! {"ok":true,"strategy":"dual-lattice",...,"map":{"success":true,
//!  "strategy":"greedy","speculation":8,"rounds":1,"attempts":1,
//!  "bist_runs":1,"bisd_runs":0,"mapping":[13,26],"known_bad":[]}}
//!
//! $ curl -s http://127.0.0.1:8080/v1/synthesize \
//!     -d '{"expr":"x0 x1 + x0 x2 + x1 x2","strategy":"optimal-lattice",
//!          "limits":{"time_ms":500,"sat_conflicts":100000}}'
//! {"ok":true,"strategy":"optimal-lattice",...}
//!
//! $ curl -s http://127.0.0.1:8080/metrics | grep -E 'cache|maps'
//! nanoxbar_maps_total 1
//! nanoxbar_map_failures_total 0
//! nanoxbar_cache_hits_total 0
//! nanoxbar_cache_misses_total 4
//! nanoxbar_cache_weight 18
//! ...
//! ```
//!
//! ## Analog MVM
//!
//! `POST /v1/mvm` runs one analog in-memory matrix-vector product: the
//! signed weight matrix is programmed as differential conductance pairs
//! onto a simulated crossbar drawn from the request's chip parameters
//! (stuck-open/closed defects, static device variation, first-order IR
//! drop), then `trials` Monte-Carlo programming-noise draws execute
//! `W·x` and are scored against the ideal product:
//!
//! ```console
//! $ curl -s http://127.0.0.1:8080/v1/mvm \
//!     -d '{"mvm":{"rows":2,"cols":3,
//!           "weights":[0.5,-0.25,1,0,0.75,-1],"input":[1,0.5,-0.5],
//!           "chip_seed":7,"p_open":0.02,"p_closed":0.01,
//!           "noise_sigma":0.05,"trials":8}}'
//! {"ok":true,"strategy":"analog-mvm","rows":2,"cols":3,"trials":8,
//!  "defects":0,"ideal":[-0.125,0.875],"output":[-0.149...,0.862...],
//!  "rms_error_mean":0.030...,"rms_error_max":0.064...}
//!
//! # mvm slots ride along in a batch next to synthesis and map slots;
//! # bad chip parameters fail only their slot (kind "mvm-spec").
//! $ curl -s http://127.0.0.1:8080/v1/batch \
//!     -d '{"jobs":[{"expr":"x0 x1","strategy":"diode"},
//!           {"mvm":{"rows":2,"cols":2,"weights":[1,0,0,1],"input":[1,1],
//!             "p_open":0.8,"p_closed":0.7,"trials":4}}]}'
//! {"count":2,"results":[{"ok":true,...},
//!  {"ok":false,"kind":"bad-request","error":"p_open + p_closed must stay below 1, ..."}]}
//! ```
//!
//! The chip draw is deterministic in `(dimensions, chip_seed)` and trial
//! `t`'s noise is seeded from `(chip_seed, t)`, so repeating a request —
//! on any replica, at any thread count — returns the same body byte for
//! byte. Duplicate mvm slots in one batch share their chip-independent
//! programming step (an exact-weight-bits memo, the analog analogue of
//! the result cache), while the chip-specific Monte-Carlo execution
//! always runs per slot.
//!
//! ## Strategies
//!
//! The `"strategy"` field selects a registered synthesis backend
//! (`GET /healthz` lists them):
//!
//! | Strategy          | Technology     | Scope                                       |
//! |-------------------|----------------|---------------------------------------------|
//! | `diode`           | `diode`        | Single-output two-terminal diode arrays     |
//! | `fet`             | `fet`          | Single-output complementary FET columns     |
//! | `dual-lattice`    | `four-terminal`| Single-output dual-based lattices (default) |
//! | `optimal-lattice` | `four-terminal`| Single-output SAT-minimal lattices          |
//! | `bdd`             | `sneak-path`   | 1..=K outputs on one shared BDD crossbar    |
//!
//! ## Multi-output BDD jobs
//!
//! A job carrying `"exprs"` (an array of expressions, one per output;
//! exclusive with `"expr"`/`"pla"`/`"mvm"` and with `"chip"`) compiles
//! all outputs into **one shared sneak-path crossbar** through the
//! `bdd` backend: a single ROBDD with a deterministic sifted variable
//! order, nodes as rows and kept edges as columns, so outputs sharing
//! subgraphs share crosspoints. Outputs of different arity are
//! zero-extended to the widest. A PLA body whose `.o` declares more
//! than one output takes the same route. The response gains an
//! `"outputs"` member when more than one function was realised —
//! single-output bodies keep their historical shape:
//!
//! ```console
//! $ curl -s http://127.0.0.1:8080/v1/synthesize \
//!     -d '{"exprs":["x0 ^ x1 ^ x2","x0 x1 + x0 x2 + x1 x2"],"verify":true}'
//! {"ok":true,"strategy":"bdd","technology":"sneak-path","rows":9,"cols":13,
//!  "area":26,"fingerprint":"f69f0354f27fc117","outputs":2,"verified":true}
//!
//! # Only "bdd" realises multi-output jobs: a misdeclared strategy is a
//! # typed per-slot error, even when batched next to its valid twin.
//! $ curl -s http://127.0.0.1:8080/v1/synthesize \
//!     -d '{"exprs":["x0 ^ x1 ^ x2","x0 x1 + x0 x2 + x1 x2"],"strategy":"fet"}'
//! {"ok":false,"kind":"multi-spec","error":"bad multi-output job: strategy
//!  \"fet\" cannot realise multi-output jobs (use \"bdd\")"}
//!
//! $ curl -s http://127.0.0.1:8080/metrics | grep multi
//! nanoxbar_multi_jobs_total 1
//! nanoxbar_multi_outputs_total 2
//! ```
//!
//! Verification replays **every** output word-parallel through the
//! sneak-path evaluator, and multi-output realizations persist and
//! peer-fill like any other cache entry (the durable record re-runs the
//! deterministic compiler, so replay is bit-identical).
//!
//! ## Incremental mapping sessions
//!
//! A `/v1/map` request carrying a `"session"` object runs the BISM
//! mapper a bounded number of rounds at a time and checkpoints the
//! mapper's state between requests, so a long self-mapping run can be
//! driven incrementally — and, with a state dir, survive a server
//! restart mid-run:
//!
//! ```console
//! $ curl -s http://127.0.0.1:8080/v1/map \
//!     -d '{"expr":"x0 x1 + !x0 !x1",
//!          "chip":{"rows":10,"cols":10,"seed":11,"defect_rate":0.2},
//!          "session":{"id":"inc","rounds":1}}'
//! {"ok":true,"session":{"id":"inc","done":false,"rounds":1,"attempts":8,
//!  "bist_runs":8,"bisd_runs":1,"known_bad":3}}
//!
//! $ curl -s http://127.0.0.1:8080/v1/map \
//!     -d '{"session":{"id":"inc","rounds":1},"resume":true}'
//! {"ok":true,"strategy":"dual-lattice",...,"map":{"success":true,...},
//!  "session":{"id":"inc","done":true,"rounds":2}}
//! ```
//!
//! Omitting `"rounds"` on a resume runs the session to completion. The
//! finished response is **byte-identical** (apart from the `"session"`
//! trailer) to a one-shot `/v1/map` of the same job — checkpointing, and
//! even crash/restart cycles between rounds, never change the result.
//! Sessions are single-writer (a concurrent resume of a busy id gets a
//! `400`), expire after an idle TTL, and are dropped once completed.
//!
//! ## Durability & recovery
//!
//! With `nanoxbar serve --state-dir DIR`, the service persists its
//! result cache and live mapper sessions to two append-only logs
//! (`cache.log`, `sessions.log`) in that directory. Every record is
//! framed as `[len][generation][crc32]` + payload and appended by a
//! background flusher that batches writes and syncs once per batch, so
//! the request path never blocks on `fsync`.
//!
//! On boot the logs are replayed: a torn or corrupt record **tail** —
//! the signature of a crash mid-append — is truncated and counted, never
//! an error, and a tampered record body is skipped as a decode error
//! rather than trusted. The recovered prefix is always valid: a
//! warm-started server answers previously-cached jobs byte-identically
//! and picks checkpointed sessions back up ([`Service::recovery`] and
//! the `"persist"` member of `/healthz` report what replay saw). Logs
//! are compacted in place — rewritten from live state under a bumped
//! generation — once dead records outweigh live ones; IO failures
//! degrade gracefully (counted, then persistence disabled) without
//! taking the service down. The whole stack is exercised against a
//! fault-injecting in-memory filesystem (`nanoxbar-store`): short
//! writes, `ENOSPC`, failing `fsync`, and crash-at-byte-N torn tails.
//!
//! ## Fleet operations
//!
//! `nanoxbar serve --peers HOST:PORT,...` joins N replicas into a fleet:
//! the peers plus the replica itself form a consistent-hash ring over
//! the content-addressed cache key. A cache miss whose key the ring
//! assigns to a peer is first **filled from that peer** over the normal
//! wire format (`POST /v1/peer/fill`); only if the peer cannot answer —
//! down, shedding, slow — does the replica synthesize locally. Because
//! responses are deterministic and byte-identical everywhere, a peer
//! fill and a local synthesis are indistinguishable to clients: **no
//! peer failure is ever client-visible**. Each peer gets per-attempt
//! deadlines, bounded retries with jittered exponential backoff, and a
//! circuit breaker that fails fast after consecutive failures, then
//! re-probes half-open after a cooldown.
//!
//! A three-replica session (each lists the *other two* in `--peers`):
//!
//! ```console
//! $ nanoxbar serve --addr 127.0.0.1:8081 --peers 127.0.0.1:8082,127.0.0.1:8083 &
//! $ nanoxbar serve --addr 127.0.0.1:8082 --peers 127.0.0.1:8081,127.0.0.1:8083 &
//! $ nanoxbar serve --addr 127.0.0.1:8083 --peers 127.0.0.1:8081,127.0.0.1:8082 &
//!
//! # Warm replica 1, then ask replica 2 for the same job: if the ring
//! # assigns the key to replica 1, replica 2 fills from it instead of
//! # re-synthesising — the bodies are byte-identical either way.
//! $ curl -s http://127.0.0.1:8081/v1/synthesize -d '{"expr":"x0 x1 + !x0 !x1"}' > a.json
//! $ curl -s http://127.0.0.1:8082/v1/synthesize -d '{"expr":"x0 x1 + !x0 !x1"}' > b.json
//! $ cmp a.json b.json && curl -s http://127.0.0.1:8082/metrics | grep peer_fills
//! nanoxbar_peer_fills_total 1
//!
//! # Sessions migrate: start an incremental map on replica 1, resume it
//! # on replica 3 — replica 3 fetches the checkpoint record from
//! # replica 1 (which hands off ownership) and continues bit-identically.
//! $ curl -s http://127.0.0.1:8081/v1/map \
//!     -d '{"expr":"x0 x1","chip":{"rows":10,"cols":10,"seed":11,"defect_rate":0.2},
//!          "session":{"id":"mig","rounds":1}}'
//! $ curl -s http://127.0.0.1:8083/v1/map -d '{"session":{"id":"mig"},"resume":true}'
//!
//! # Kill a replica mid-session: the survivors keep serving (the dead
//! # peer's breaker opens after `breaker_threshold` failures, visible
//! # in /healthz "peers" and the nanoxbar_peer_breaker_state gauge),
//! # and every request still succeeds via local synthesis.
//! $ kill -9 %1
//! $ curl -s http://127.0.0.1:8082/v1/synthesize -d '{"expr":"x0 x1 + !x0 !x1"}' | cmp - a.json
//! ```
//!
//! Tuning knobs, all [`ServiceConfig`] fields without a CLI flag:
//!
//! | Knob                | Default | Meaning                                        |
//! |---------------------|---------|------------------------------------------------|
//! | `peer_deadline`     | 1s      | Per-attempt budget for one peer exchange (connect → full response); also defeats slow-loris peers |
//! | `peer_retries`      | 2       | Extra attempts after the first failure          |
//! | `peer_backoff`      | 25ms    | Base retry delay; doubles per attempt, ±50% jitter |
//! | `peer_backoff_cap`  | 250ms   | Ceiling on the delay; also caps an honored `Retry-After` |
//! | `breaker_threshold` | 3       | Consecutive failures that trip a peer's breaker |
//! | `breaker_cooldown`  | 2s      | Fail-fast window before the half-open probe     |
//!
//! A load-shedding replica answers `503` with a `Retry-After` header;
//! peers honor it (capped at `peer_backoff_cap`) before retrying, and a
//! shed does **not** count against the breaker — the peer is alive, just
//! busy. The whole fleet path is testable without real packet loss: the
//! [`peer::NetDialer`] seam accepts [`peer::MemNet`], an in-memory
//! network that injects refused connections, black-hole timeouts,
//! mid-response resets, and slow-loris trickle per scripted fault queues.
//!
//! ## In-process use
//!
//! [`Server::bind`] + [`Server::start`] run the service on background
//! threads; bind `"127.0.0.1:0"` for an ephemeral port (tests, examples,
//! load generators). [`Service`] is the socket-free router, directly
//! drivable with [`http::Request`] values.
//!
//! ```no_run
//! use nanoxbar_service::{Server, ServiceConfig};
//!
//! let server = Server::bind(ServiceConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServiceConfig::default()
//! })?;
//! let handle = server.start()?;
//! println!("serving on http://{}", handle.addr());
//! # handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod metrics;
pub mod peer;
mod persist;
mod reactor;
mod server;
mod session;
pub mod wire;

pub use api::{error_kind, result_to_json, ChipRequest, JobSpec};
pub use metrics::{Endpoint, Histogram, Metrics};
pub use peer::{BreakerState, MemNet, NetDialer, NetFault, PeerStatus, TcpDialer};
pub use persist::RecoveryInfo;
pub use server::{Server, ServerHandle, Service, ServiceConfig};
pub use wire::{Json, WireError};
