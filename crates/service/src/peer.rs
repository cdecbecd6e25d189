//! Fleet networking: the consistent-hash ring, the peer cache-fill /
//! session-migration client, and the fault-injecting in-memory network
//! it is tested against.
//!
//! The design mirrors the paper's defect philosophy at the systems
//! layer: peers are *expected* to be slow, partitioned, or dead, and the
//! client routes around them — per-peer deadlines, bounded retries with
//! jittered exponential backoff, and a circuit breaker per peer
//! (consecutive-failure trip, half-open probe). Every failure degrades
//! to local synthesis; no peer fault is ever a client-visible error.
//!
//! Networking goes through the [`NetDialer`] seam — the socket analog of
//! the store's `Vfs` — so the whole stack runs against [`MemNet`], an
//! in-memory network with scripted [`NetFault`]s: refused connections,
//! black-hole timeouts, mid-response resets, slow-loris byte trickle,
//! and load-shedding 503s with `Retry-After`.
//!
//! Responses are read with the server's own message grammar
//! ([`crate::http`]). The client adds only a deadline, checked between
//! reads, and counts any read or framing error as one failed attempt.
//!
//! Ring placement hashes the *canonical key bytes* with FNV-1a — never
//! `DefaultHasher`, whose seeds differ per process — so every replica
//! computes the same owner for the same content address.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nanoxbar_engine::{CacheKey, CachedSynthesis};

use crate::http::{response_bytes, ParsedResponse, RequestParser, Response};
use crate::metrics::{Counter, Latency, Metrics};
use crate::persist::{decode_cache_record, key_to_json};
use crate::wire::{object, Json};
use crate::Service;

/// A bidirectional byte stream, as much of a socket as the peer client
/// needs. Blanket-implemented for anything `Read + Write + Send`.
pub trait Conn: Read + Write + Send {}

impl<T: Read + Write + Send> Conn for T {}

/// The network seam: how the peer client opens connections. The real
/// implementation is [`TcpDialer`]; tests substitute [`MemNet`] to
/// inject faults deterministically.
pub trait NetDialer: Send + Sync {
    /// Opens a connection to `addr` (a `host:port` string), giving up
    /// after `timeout`. Implementations should also bound individual
    /// reads/writes where the transport allows it; the client enforces
    /// an overall deadline between reads regardless.
    fn dial(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn Conn>>;
}

/// [`NetDialer`] over real TCP sockets.
#[derive(Debug, Clone, Default)]
pub struct TcpDialer;

impl NetDialer for TcpDialer {
    fn dial(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        let target = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no addr: {addr}")))?;
        let stream = TcpStream::connect_timeout(&target, timeout)?;
        // Socket-level timeouts bound each read/write; the client's
        // Instant deadline between reads bounds the whole exchange, so
        // a peer trickling one byte per almost-timeout still fails.
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Box::new(stream))
    }
}

// ---------------------------------------------------------------------
// In-memory fault-injecting network
// ---------------------------------------------------------------------

/// One scripted behaviour for the next connection [`MemNet`] hands out
/// to an address — the network analog of the store's `FaultPlan`.
#[derive(Debug, Clone)]
pub enum NetFault {
    /// The connection is refused outright (peer process dead).
    Refused,
    /// The connection opens but every read times out (black hole:
    /// SYN-accepting middlebox, wedged peer, dropped route).
    Timeout,
    /// The response is cut off after this many bytes, then the
    /// connection resets (peer crashed mid-reply).
    Reset {
        /// Response bytes delivered before the reset.
        after_bytes: usize,
    },
    /// The response arrives one byte per read (slow-loris trickle). The
    /// exchange completes — correctness must survive pathological
    /// pacing, not just clean frames.
    Trickle,
    /// The peer sheds load: a canned 503 with this `Retry-After`
    /// (seconds), without the request ever reaching the service.
    Shed {
        /// `Retry-After` seconds advertised by the shedding peer.
        retry_after: u64,
    },
}

#[derive(Default)]
struct MemNetState {
    services: HashMap<String, Arc<Service>>,
    faults: HashMap<String, VecDeque<NetFault>>,
    dials: HashMap<String, u64>,
}

/// An in-memory network of registered [`Service`]s with scripted
/// per-address fault queues. Cloning shares the network.
///
/// Each dial pops the next fault scripted for that address (fault-free
/// once the queue drains), so a test describes one deterministic
/// failure sequence per peer, exactly like `MemVfs` does for disk.
#[derive(Clone, Default)]
pub struct MemNet {
    state: Arc<Mutex<MemNetState>>,
}

impl MemNet {
    /// An empty fault-free network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `service` as the listener on `addr`. Registration can
    /// happen after the services are built (they each hold a `MemNet`
    /// clone as their dialer), which is how tests break the
    /// service ↔ network construction cycle.
    pub fn register(&self, addr: &str, service: Arc<Service>) {
        self.lock().services.insert(addr.to_string(), service);
    }

    /// Appends faults to `addr`'s script, consumed one per dial.
    pub fn inject(&self, addr: &str, faults: Vec<NetFault>) {
        self.lock()
            .faults
            .entry(addr.to_string())
            .or_default()
            .extend(faults);
    }

    /// How many connections have been dialed to `addr` — the probe for
    /// breaker fail-fast assertions (an open breaker must stop dialing).
    pub fn dials(&self, addr: &str) -> u64 {
        self.lock().dials.get(addr).copied().unwrap_or(0)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemNetState> {
        self.state.lock().expect("mem net lock")
    }
}

impl NetDialer for MemNet {
    fn dial(&self, addr: &str, _timeout: Duration) -> io::Result<Box<dyn Conn>> {
        let (service, fault) = {
            let mut state = self.lock();
            *state.dials.entry(addr.to_string()).or_insert(0) += 1;
            let fault = state.faults.get_mut(addr).and_then(|q| q.pop_front());
            (state.services.get(addr).cloned(), fault)
        };
        if matches!(fault, Some(NetFault::Refused)) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("injected fault: connection to {addr} refused"),
            ));
        }
        if service.is_none() && fault.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("connection to {addr} refused (no service registered)"),
            ));
        }
        Ok(Box::new(MemConn {
            service,
            fault,
            request: Vec::new(),
            response: None,
            served: 0,
        }))
    }
}

/// One in-memory connection: buffers the written request, then serves
/// the registered service's response byte-exactly — warped by the
/// scripted fault, if any.
struct MemConn {
    service: Option<Arc<Service>>,
    fault: Option<NetFault>,
    request: Vec<u8>,
    response: Option<Vec<u8>>,
    served: usize,
}

impl MemConn {
    fn reply_bytes(&mut self) -> io::Result<&[u8]> {
        if self.response.is_none() {
            let bytes = if let Some(NetFault::Shed { retry_after }) = self.fault {
                // Shedding happens at the door: the request never
                // reaches the service, exactly like a full request queue.
                let shed = Response::json(
                    503,
                    "{\"ok\":false,\"kind\":\"bad-request\",\"error\":\"server is at capacity\"}"
                        .to_string(),
                )
                .with_retry_after(retry_after);
                response_bytes(&shed, true)
            } else {
                let service = self.service.as_ref().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::ConnectionReset, "no service behind fault")
                })?;
                let mut parser = RequestParser::new();
                parser.feed(&self.request);
                let request = parser
                    .try_next(usize::MAX >> 1)
                    .map_err(|e| io::Error::other(format!("mem net request: {e}")))?
                    .ok_or_else(|| io::Error::other("mem net request: incomplete"))?;
                response_bytes(&service.handle(&request), true)
            };
            self.response = Some(bytes);
        }
        Ok(self.response.as_deref().expect("response just built"))
    }
}

impl Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if matches!(self.fault, Some(NetFault::Timeout)) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected fault: read timed out (black hole)",
            ));
        }
        let served = self.served;
        let fault = self.fault.clone();
        let bytes = self.reply_bytes()?;
        let mut available = &bytes[served.min(bytes.len())..];
        if let Some(NetFault::Reset { after_bytes }) = fault {
            if served >= after_bytes {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected fault: connection reset mid-response",
                ));
            }
            available = &available[..available.len().min(after_bytes - served)];
        }
        let mut take = available.len().min(buf.len());
        if matches!(fault, Some(NetFault::Trickle)) {
            take = take.min(1);
        }
        buf[..take].copy_from_slice(&available[..take]);
        self.served += take;
        Ok(take)
    }
}

impl Write for MemConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.request.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------

/// Virtual points per ring member — enough for even key spread across a
/// handful of replicas without a large sort.
const VNODES: usize = 64;

/// FNV-1a over `bytes`: a fixed, seedless hash every replica computes
/// identically (`DefaultHasher` is per-process randomised and would
/// shard the fleet differently on every replica).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 finalizer over an FNV digest. Raw FNV-1a of short,
/// near-identical inputs (vnode labels, small truth tables) clusters in
/// the high bits, which skews ring arcs badly; this fixed avalanche step
/// spreads them. Deterministic, so every replica still agrees.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The canonical ring hash of a cache key: arity, packed words, strategy
/// name, and minimise mode, each length-framed so distinct keys cannot
/// collide by concatenation.
fn key_hash(key: &CacheKey) -> u64 {
    let mut bytes = Vec::with_capacity(16 + key.words().len() * 8 + key.strategy().len());
    bytes.extend_from_slice(&(key.num_vars() as u64).to_le_bytes());
    bytes.extend_from_slice(&(key.words().len() as u64).to_le_bytes());
    for &w in key.words() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(key.strategy().as_bytes());
    bytes.push(0xff);
    bytes.push(match key.minimize() {
        nanoxbar_engine::MinimizeMode::Isop => 0,
        nanoxbar_engine::MinimizeMode::Exact => 1,
    });
    mix64(fnv1a(&bytes))
}

/// A consistent-hash ring over the fleet's members (self included).
pub(crate) struct Ring {
    /// Sorted `(point, member index)` pairs, [`VNODES`] per member.
    points: Vec<(u64, usize)>,
    members: Vec<String>,
}

impl Ring {
    /// A ring over `members` (deduplicated and sorted, so every replica
    /// builds the identical ring whatever order its `--peers` listed).
    pub fn new(mut members: Vec<String>) -> Self {
        members.sort();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for (idx, member) in members.iter().enumerate() {
            for v in 0..VNODES {
                points.push((mix64(fnv1a(format!("{member}#{v}").as_bytes())), idx));
            }
        }
        points.sort_unstable();
        Ring { points, members }
    }

    /// The members, sorted — the fleet's view of itself for `/healthz`.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    fn owner_of_hash(&self, hash: u64) -> &str {
        let idx = match self.points.binary_search(&(hash, usize::MAX)) {
            Ok(i) | Err(i) => i % self.points.len(),
        };
        &self.members[self.points[idx].1]
    }

    /// The member owning a cache key.
    pub fn owner_of_key(&self, key: &CacheKey) -> &str {
        self.owner_of_hash(key_hash(key))
    }

    /// The member owning a session id.
    pub fn owner_of_session(&self, id: &str) -> &str {
        self.owner_of_hash(mix64(fnv1a(id.as_bytes())))
    }
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// The observable circuit state of one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Cooling down after tripping: requests fail fast, no dial happens.
    Open,
    /// Cooldown elapsed: the next request is a single probe.
    HalfOpen,
}

impl BreakerState {
    /// The state as a label for `/healthz`.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }

    /// The state as the `nanoxbar_peer_breaker_state` gauge value
    /// (0 closed, 1 half-open, 2 open).
    pub fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// Internal breaker state machine (the `Open` variant remembers when the
/// cooldown ends).
enum Breaker {
    Closed { consecutive: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// A snapshot of one peer's client-side health, for `/healthz` and the
/// Prometheus exposition.
#[derive(Clone, Debug)]
pub struct PeerStatus {
    /// The peer's `host:port`.
    pub addr: String,
    /// Circuit state at snapshot time.
    pub state: BreakerState,
    /// Consecutive failures while closed (resets on success).
    pub consecutive_failures: u32,
    /// The most recent failure, if any.
    pub last_error: Option<String>,
    /// Successful peer cache fills served by this peer.
    pub fills: u64,
    /// Fill attempts against this peer that ended in failure or miss.
    pub fill_failures: u64,
}

/// One peer's client-side state: breaker, counters, and backoff RNG.
struct PeerState {
    addr: String,
    breaker: Mutex<Breaker>,
    last_error: Mutex<Option<String>>,
    fills: AtomicU64,
    fill_failures: AtomicU64,
    /// xorshift64 state for backoff jitter, seeded from the address so
    /// replicas desynchronise their retries deterministically.
    jitter: Mutex<u64>,
}

impl PeerState {
    fn new(addr: String) -> Self {
        let seed = fnv1a(addr.as_bytes()) | 1;
        PeerState {
            addr,
            breaker: Mutex::new(Breaker::Closed { consecutive: 0 }),
            last_error: Mutex::new(None),
            fills: AtomicU64::new(0),
            fill_failures: AtomicU64::new(0),
            jitter: Mutex::new(seed),
        }
    }

    /// Whether a request may proceed: true while closed or as the
    /// half-open probe; false (fail fast, no dial) while cooling down.
    fn admit(&self) -> bool {
        let mut breaker = self.breaker.lock().expect("breaker lock");
        match *breaker {
            Breaker::Closed { .. } | Breaker::HalfOpen => true,
            Breaker::Open { until } => {
                if Instant::now() >= until {
                    *breaker = Breaker::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        *self.breaker.lock().expect("breaker lock") = Breaker::Closed { consecutive: 0 };
        *self.last_error.lock().expect("last error lock") = None;
    }

    /// Counts a failure against the breaker, which `tuning`'s threshold
    /// and cooldown govern.
    fn on_failure(&self, error: &str, tuning: &PeerTuning) {
        let cooldown = tuning.breaker_cooldown;
        let mut breaker = self.breaker.lock().expect("breaker lock");
        *breaker = match *breaker {
            Breaker::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= tuning.breaker_threshold {
                    Breaker::Open {
                        until: Instant::now() + cooldown,
                    }
                } else {
                    Breaker::Closed { consecutive }
                }
            }
            // A failed half-open probe re-opens for a full cooldown.
            Breaker::HalfOpen | Breaker::Open { .. } => Breaker::Open {
                until: Instant::now() + cooldown,
            },
        };
        *self.last_error.lock().expect("last error lock") = Some(error.to_string());
    }

    fn status(&self) -> PeerStatus {
        let (state, consecutive) = match *self.breaker.lock().expect("breaker lock") {
            Breaker::Closed { consecutive } => (BreakerState::Closed, consecutive),
            Breaker::HalfOpen => (BreakerState::HalfOpen, 0),
            Breaker::Open { .. } => (BreakerState::Open, 0),
        };
        PeerStatus {
            addr: self.addr.clone(),
            state,
            consecutive_failures: consecutive,
            last_error: self.last_error.lock().expect("last error lock").clone(),
            fills: self.fills.load(Ordering::Relaxed),
            fill_failures: self.fill_failures.load(Ordering::Relaxed),
        }
    }

    /// The next jitter draw in `[0, 1)` (xorshift64).
    fn jitter_unit(&self) -> f64 {
        let mut state = self.jitter.lock().expect("jitter lock");
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Fleet client
// ---------------------------------------------------------------------

/// The peer client's retry, backoff and breaker knobs
/// ([`crate::ServiceConfig::peer`]).
#[derive(Clone, Copy, Debug)]
pub struct PeerTuning {
    /// Per-attempt deadline (connect + full exchange).
    pub deadline: Duration,
    /// Retries after the first attempt.
    pub retries: u32,
    /// Base backoff before the first retry.
    pub backoff: Duration,
    /// Backoff ceiling; also caps an honored `Retry-After`.
    pub backoff_cap: Duration,
    /// Consecutive failures that trip the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker fails fast before the half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for PeerTuning {
    fn default() -> Self {
        PeerTuning {
            deadline: Duration::from_secs(1),
            retries: 2,
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// The serving replica's view of its fleet: the ring plus one client
/// per peer.
pub(crate) struct Fleet {
    self_addr: String,
    ring: Ring,
    peers: Vec<PeerState>,
    dialer: Arc<dyn NetDialer>,
    tuning: PeerTuning,
    metrics: Arc<Metrics>,
}

impl Fleet {
    /// A fleet of `self_addr` plus `peers`, dialing through `dialer`.
    pub fn new(
        self_addr: String,
        peers: Vec<String>,
        dialer: Arc<dyn NetDialer>,
        tuning: PeerTuning,
        metrics: Arc<Metrics>,
    ) -> Fleet {
        let mut members: Vec<String> = peers.iter().filter(|p| **p != self_addr).cloned().collect();
        let peer_states: Vec<PeerState> = {
            let mut unique = members.clone();
            unique.sort();
            unique.dedup();
            unique.into_iter().map(PeerState::new).collect()
        };
        members.push(self_addr.clone());
        Fleet {
            self_addr,
            ring: Ring::new(members),
            peers: peer_states,
            dialer,
            tuning,
            metrics,
        }
    }

    /// The ring membership (sorted, self included), for `/healthz`.
    pub fn members(&self) -> &[String] {
        self.ring.members()
    }

    /// This replica's own ring address.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// A health snapshot of every peer.
    pub fn statuses(&self) -> Vec<PeerStatus> {
        self.peers.iter().map(|p| p.status()).collect()
    }

    fn peer(&self, addr: &str) -> Option<&PeerState> {
        self.peers.iter().find(|p| p.addr == addr)
    }

    /// Attempts a peer cache fill for `key`. Returns `None` — meaning
    /// "synthesize locally" — when the key is self-owned, the owner is
    /// unreachable or cannot supply the entry, or the decoded record
    /// does not match the requested key.
    pub fn fill(&self, key: &CacheKey) -> Option<CachedSynthesis> {
        let owner = self.ring.owner_of_key(key).to_string();
        if owner == self.self_addr {
            return None;
        }
        let peer = self.peer(&owner)?;
        let started = Instant::now();
        let body = object(vec![("v", Json::Int(1)), ("key", key_to_json(key))]).encode();
        let outcome = self.call(peer, "/v1/peer/fill", body.as_bytes());
        let filled = match outcome {
            Ok(response) if response.status == 200 => {
                match decode_cache_record(&response.body) {
                    // Trust but verify: the record must describe the key
                    // we asked for, or it cannot serve this miss.
                    Ok((decoded, value)) if decoded == *key => Some(value),
                    Ok(_) => {
                        peer.on_failure("fill response for a different key", &self.tuning);
                        None
                    }
                    Err(e) => {
                        peer.on_failure(&format!("undecodable fill response: {e}"), &self.tuning);
                        None
                    }
                }
            }
            // A non-200 from a live peer (e.g. it cannot synthesize the
            // entry either) is a miss, not a peer failure.
            Ok(_) | Err(_) => None,
        };
        self.metrics
            .latency(Latency::PeerFill)
            .observe(started.elapsed());
        match &filled {
            Some(_) => {
                peer.fills.fetch_add(1, Ordering::Relaxed);
                self.metrics.add(Counter::PeerFills, 1);
            }
            None => {
                peer.fill_failures.fetch_add(1, Ordering::Relaxed);
                self.metrics.add(Counter::PeerFillFailures, 1);
            }
        }
        filled
    }

    /// Fetches the checkpoint record of session `id` from the fleet:
    /// the session-ring owner first, then every other peer (the session
    /// may live wherever its client happened to connect). Returns the
    /// raw session-log payload, ownership transferred to the caller.
    pub fn fetch_session(&self, id: &str) -> Option<Vec<u8>> {
        let owner = self.ring.owner_of_session(id).to_string();
        let mut order: Vec<&PeerState> = Vec::with_capacity(self.peers.len());
        if let Some(peer) = self.peer(&owner) {
            order.push(peer);
        }
        for peer in &self.peers {
            if peer.addr != owner {
                order.push(peer);
            }
        }
        let body = object(vec![("v", Json::Int(1)), ("id", Json::Str(id.to_string()))]).encode();
        for peer in order {
            if let Ok(response) = self.call(peer, "/v1/peer/session", body.as_bytes()) {
                if response.status == 200 {
                    return Some(response.body);
                }
            }
        }
        None
    }

    /// One logical peer call: breaker gate, then up to `1 + retries`
    /// attempts, sleeping a jittered exponential backoff between them
    /// (stretched to an advertised `Retry-After`, capped at the backoff
    /// ceiling). Any parsed HTTP response closes the loop with success
    /// semantics for the breaker except a 503 shed, which retries.
    fn call(&self, peer: &PeerState, path: &str, body: &[u8]) -> Result<ParsedResponse, String> {
        if !peer.admit() {
            return Err(format!("circuit open for {}", peer.addr));
        }
        let mut last_error = String::new();
        for attempt in 0..=self.tuning.retries {
            match self.attempt(peer, path, body) {
                Ok(response) if response.status == 503 => {
                    // A shedding peer is alive: not a breaker failure,
                    // but worth waiting out its advertised Retry-After.
                    peer.on_success();
                    last_error = format!("{} is shedding load", peer.addr);
                    if attempt == self.tuning.retries {
                        return Err(last_error);
                    }
                    self.sleep_backoff(peer, attempt, response.retry_after);
                }
                Ok(response) => {
                    peer.on_success();
                    return Ok(response);
                }
                Err(e) => {
                    last_error = e.to_string();
                    peer.on_failure(&last_error, &self.tuning);
                    if attempt == self.tuning.retries || !peer.admit() {
                        return Err(last_error);
                    }
                    self.sleep_backoff(peer, attempt, None);
                }
            }
        }
        Err(last_error)
    }

    /// One dial + request + response exchange under the per-attempt
    /// deadline.
    fn attempt(&self, peer: &PeerState, path: &str, body: &[u8]) -> io::Result<ParsedResponse> {
        let deadline = Instant::now() + self.tuning.deadline;
        let mut conn = self.dialer.dial(&peer.addr, self.tuning.deadline)?;
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n",
            peer.addr,
            body.len()
        );
        conn.write_all(head.as_bytes())?;
        conn.write_all(body)?;
        conn.flush()?;
        // A trickling or black-holed peer becomes a timeout, never a hang.
        let mut parser = RequestParser::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(response) = parser.try_response(usize::MAX).map_err(io::Error::other)? {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline passed"));
            }
            let n = conn.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"));
            }
            parser.feed(&buf[..n]);
        }
    }

    /// Sleeps `base * 2^attempt` ±50% jitter, capped at the ceiling —
    /// stretched to min(`Retry-After`, ceiling) when a shedding peer
    /// advertised one.
    fn sleep_backoff(&self, peer: &PeerState, attempt: u32, retry_after: Option<u64>) {
        let base = self.tuning.backoff.as_secs_f64() * f64::from(1u32 << attempt.min(16));
        let jittered = base * (0.5 + peer.jitter_unit());
        let mut delay = Duration::from_secs_f64(jittered).min(self.tuning.backoff_cap);
        if let Some(seconds) = retry_after {
            let advertised = Duration::from_secs(seconds).min(self.tuning.backoff_cap);
            delay = delay.max(advertised);
        }
        std::thread::sleep(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_engine::MinimizeMode;
    use nanoxbar_logic::TruthTable;

    fn key(bits: u64) -> CacheKey {
        let f = TruthTable::from_fn(3, |m| (bits >> m) & 1 == 1);
        CacheKey::new(&f, "dual-lattice", MinimizeMode::Isop)
    }

    #[test]
    fn ring_is_order_independent_and_covers_every_member() {
        let a = Ring::new(vec!["h1:1".into(), "h2:2".into(), "h3:3".into()]);
        let b = Ring::new(vec!["h3:3".into(), "h1:1".into(), "h2:2".into()]);
        let mut owners = std::collections::HashSet::new();
        for bits in 0..200u64 {
            let k = key(bits);
            assert_eq!(a.owner_of_key(&k), b.owner_of_key(&k));
            owners.insert(a.owner_of_key(&k).to_string());
        }
        assert_eq!(owners.len(), 3, "200 keys must touch all 3 members");
        for id in ["alpha", "beta", "gamma", "delta"] {
            assert_eq!(a.owner_of_session(id), b.owner_of_session(id));
        }
    }

    #[test]
    fn fnv_is_the_fixed_reference_function() {
        // Pinned reference values: the ring hash must never drift, or a
        // mixed-version fleet would shard the same key differently.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn tcp_dialer_times_out_a_silent_peer() {
        // A real listener that takes the request and never answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut request = [0u8; 256];
            let _ = socket.read(&mut request);
            let _ = hold.recv(); // keeps the socket open, silent
        });

        let mut conn = TcpDialer.dial(&addr, Duration::from_millis(100)).unwrap();
        conn.write_all(b"POST /v1/cache/get HTTP/1.1\r\n\r\n")
            .unwrap();
        let started = Instant::now();
        let error = conn.read(&mut [0u8; 64]).unwrap_err();
        assert!(
            matches!(
                error.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "a silent peer must time out, got {error:?}"
        );
        // Proves "no hang", not speed.
        assert!(started.elapsed() < Duration::from_secs(5));
        drop(release);
        peer.join().unwrap();
    }

    fn tuning() -> PeerTuning {
        PeerTuning {
            deadline: Duration::from_millis(200),
            retries: 0,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(30),
        }
    }

    /// A fleet of one local replica and one peer over `net`.
    fn fleet(net: &MemNet, tuning: PeerTuning) -> Fleet {
        Fleet::new(
            "self:1".into(),
            vec!["peer:2".into()],
            Arc::new(net.clone()),
            tuning,
            Arc::new(Metrics::default()),
        )
    }

    /// A key the ring assigns to `owner` within `fleet`.
    fn key_owned_by(fleet: &Fleet, owner: &str) -> CacheKey {
        (0..500u64)
            .map(key)
            .find(|k| fleet.ring.owner_of_key(k) == owner)
            .expect("some key must hash to each of 2 members")
    }

    #[test]
    fn self_owned_keys_never_dial() {
        let net = MemNet::new();
        let f = fleet(&net, tuning());
        let k = key_owned_by(&f, "self:1");
        assert!(f.fill(&k).is_none());
        assert_eq!(net.dials("peer:2"), 0);
    }

    #[test]
    fn breaker_trips_fails_fast_and_recovers_through_half_open() {
        let net = MemNet::new();
        let f = fleet(&net, tuning());
        let k = key_owned_by(&f, "peer:2");
        // One refusal per dial until the half-open probe below.
        net.inject("peer:2", vec![NetFault::Refused; 4]);

        // Three consecutive failures trip the breaker...
        for i in 1..=3u32 {
            assert!(f.fill(&k).is_none());
            assert_eq!(net.dials("peer:2"), u64::from(i));
        }
        let status = &f.statuses()[0];
        assert_eq!(status.state, BreakerState::Open);
        assert!(status.last_error.as_deref().unwrap().contains("refused"));

        // ...after which calls fail fast without dialing.
        assert!(f.fill(&k).is_none());
        assert_eq!(net.dials("peer:2"), 3, "open breaker must not dial");

        // Cooldown elapses: one half-open probe goes out; it fails
        // (faults still queued), re-opening for a full cooldown.
        std::thread::sleep(Duration::from_millis(35));
        assert!(f.fill(&k).is_none());
        assert_eq!(net.dials("peer:2"), 4, "half-open sends one probe");
        assert_eq!(f.statuses()[0].state, BreakerState::Open);

        // Next cooldown: the probe succeeds (the script is spent, a real
        // service answers) and the breaker closes.
        let service = Arc::new(
            Service::new(&crate::ServiceConfig {
                addr: "peer:2".into(),
                ..crate::ServiceConfig::default()
            })
            .expect("boot peer service"),
        );
        net.register("peer:2", service);
        std::thread::sleep(Duration::from_millis(35));
        let filled = f.fill(&k).expect("probe succeeds and fills");
        assert_eq!(f.statuses()[0].state, BreakerState::Closed);
        assert_eq!(f.statuses()[0].fills, 1);
        assert!(filled.realization.area() >= 1);
    }

    #[test]
    fn timeouts_resets_and_trickle_are_survivable() {
        let net = MemNet::new();
        let config = crate::ServiceConfig {
            addr: "peer:2".into(),
            ..crate::ServiceConfig::default()
        };
        net.register("peer:2", Arc::new(Service::new(&config).expect("boot")));
        let f = fleet(
            &net,
            PeerTuning {
                retries: 1,
                ..tuning()
            },
        );
        let k = key_owned_by(&f, "peer:2");

        // Black hole then clean: the retry lands.
        net.inject("peer:2", vec![NetFault::Timeout]);
        assert!(f.fill(&k).is_some(), "retry after black hole");
        // Mid-response reset then clean.
        net.inject("peer:2", vec![NetFault::Reset { after_bytes: 40 }]);
        assert!(f.fill(&k).is_some(), "retry after reset");
        // Trickle completes without any retry at all.
        let dials = net.dials("peer:2");
        net.inject("peer:2", vec![NetFault::Trickle]);
        assert!(f.fill(&k).is_some(), "trickle still completes");
        assert_eq!(net.dials("peer:2"), dials + 1);
    }

    /// A connection that answers with scripted reads, each after a pause,
    /// then EOF. Writes are swallowed.
    struct Scripted {
        reads: VecDeque<Vec<u8>>,
        pause: Duration,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(self.pause);
            let Some(mut chunk) = self.reads.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.reads.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Hands out one scripted connection, then refuses.
    struct ScriptedDialer(Mutex<Option<Scripted>>);

    impl NetDialer for ScriptedDialer {
        fn dial(&self, _addr: &str, _timeout: Duration) -> io::Result<Box<dyn Conn>> {
            match self.0.lock().expect("script lock").take() {
                Some(conn) => Ok(Box::new(conn)),
                None => Err(io::ErrorKind::ConnectionRefused.into()),
            }
        }
    }

    /// One peer exchange whose response arrives as `reads`, each read
    /// after `pause`.
    fn exchange(reads: &[&[u8]], pause: Duration) -> io::Result<ParsedResponse> {
        let conn = Scripted {
            reads: reads.iter().map(|r| r.to_vec()).collect(),
            pause,
        };
        let f = Fleet::new(
            "self:1".into(),
            vec!["peer:2".into()],
            Arc::new(ScriptedDialer(Mutex::new(Some(conn)))),
            tuning(),
            Arc::new(Metrics::default()),
        );
        f.attempt(&f.peers[0], "/v1/peer/fill", b"{}")
    }

    #[test]
    fn responses_split_anywhere_across_reads_parse_whole() {
        let response = exchange(
            &[
                b"HTTP/1.1 200 OK\r\ncontent-le",
                b"ngth: 5\r\n",
                b"\r\nhe",
                b"l",
                b"lo",
            ],
            Duration::ZERO,
        )
        .expect("a whole response");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"hello");
        assert_eq!(response.retry_after, None);
    }

    #[test]
    fn retry_after_is_read_and_a_missing_length_is_an_empty_body() {
        let response = exchange(
            &[b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 7\r\n\r\nunframed"],
            Duration::ZERO,
        )
        .expect("a whole response");
        assert_eq!(response.status, 503);
        assert_eq!(response.retry_after, Some(7));
        assert!(response.body.is_empty(), "no content-length, no body");
    }

    #[test]
    fn an_endless_header_line_fails_the_attempt() {
        let mut line = b"HTTP/1.1 200 OK\r\nx-long: ".to_vec();
        line.resize(70 * 1024, b'a');
        assert!(exchange(&[&line], Duration::ZERO).is_err());
    }

    #[test]
    fn framing_the_request_grammar_refuses_fails_the_attempt() {
        // The peer client reads with the server's own grammar, so a
        // duplicate Content-Length and a header line without a colon
        // fail the attempt instead of being guessed around.
        for head in [
            &b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nabc"[..],
            b"HTTP/1.1 200 OK\r\nno colon here\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
        ] {
            let error = exchange(&[head], Duration::ZERO).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::Other, "{error}");
        }
    }

    #[test]
    fn eof_mid_body_fails_the_attempt() {
        let error = exchange(
            &[b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc"],
            Duration::ZERO,
        )
        .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof, "{error}");
        // A length no body can reach waits for bytes like any other.
        let error = exchange(
            &[b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nabc"],
            Duration::ZERO,
        )
        .unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof, "{error}");
    }

    #[test]
    fn a_trickle_past_the_deadline_times_out() {
        // One byte per 20 ms against tuning()'s 200 ms deadline: the
        // 38-byte response cannot finish in time.
        let bytes = b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n";
        let reads: Vec<&[u8]> = bytes.chunks(1).collect();
        let error = exchange(&reads, Duration::from_millis(20)).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::TimedOut, "{error}");
    }

    #[test]
    fn shed_peers_are_waited_out_per_retry_after() {
        let net = MemNet::new();
        let config = crate::ServiceConfig {
            addr: "peer:2".into(),
            ..crate::ServiceConfig::default()
        };
        net.register("peer:2", Arc::new(Service::new(&config).expect("boot")));
        // Cap at 40ms; the shed advertises 10s, so the honored wait is
        // exactly the cap — measurably longer than the 1ms base backoff.
        let f = fleet(
            &net,
            PeerTuning {
                retries: 1,
                backoff_cap: Duration::from_millis(40),
                ..tuning()
            },
        );
        let k = key_owned_by(&f, "peer:2");
        net.inject("peer:2", vec![NetFault::Shed { retry_after: 10 }]);
        let started = Instant::now();
        assert!(f.fill(&k).is_some(), "retry after shed succeeds");
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "must wait out the capped Retry-After, waited {:?}",
            started.elapsed()
        );
        // Shedding is not a breaker failure: the peer stayed closed.
        assert_eq!(f.statuses()[0].state, BreakerState::Closed);
    }
}
