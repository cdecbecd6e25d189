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

use crate::http::{response_bytes, RequestParser, Response};
use crate::metrics::Metrics;
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
        // The socket goes non-blocking: each read/write polls for
        // readiness with `timeout` as its bound (the poll-based analog
        // of SO_RCVTIMEO), and the client's Instant deadline between
        // reads bounds the whole exchange, so a peer trickling one byte
        // per almost-timeout still fails.
        stream.set_nonblocking(true)?;
        Ok(Box::new(PollingStream { stream, timeout }))
    }
}

/// A non-blocking [`TcpStream`] whose reads and writes wait for
/// readiness via `poll(2)` with a per-operation timeout — blocking-IO
/// ergonomics for [`read_peer_response`] without tying up a thread in
/// the kernel's socket timeout machinery, and immune to the
/// `SO_RCVTIMEO` rounding quirks some platforms have.
#[derive(Debug)]
struct PollingStream {
    stream: TcpStream,
    timeout: Duration,
}

impl PollingStream {
    fn timed_out() -> io::Error {
        io::Error::new(io::ErrorKind::TimedOut, "peer io timed out")
    }
}

impl Read for PollingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let ready = polling::wait_one(
                &self.stream,
                polling::Event::readable(0),
                Some(self.timeout),
            )?;
            if !ready.readable {
                return Err(Self::timed_out());
            }
            match self.stream.read(buf) {
                // Spurious wakeup (readiness raced another consumer or a
                // checksum-failed datagram): wait again.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

impl Write for PollingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            let ready = polling::wait_one(
                &self.stream,
                polling::Event::writable(0),
                Some(self.timeout),
            )?;
            if !ready.writable {
                return Err(Self::timed_out());
            }
            match self.stream.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
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

    /// Discards any unconsumed faults scripted for `addr`.
    pub fn clear_faults(&self, addr: &str) {
        self.lock().faults.remove(addr);
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

    fn on_failure(&self, error: &str, threshold: u32, cooldown: Duration) {
        let mut breaker = self.breaker.lock().expect("breaker lock");
        *breaker = match *breaker {
            Breaker::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= threshold {
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

/// The retry/backoff/breaker knobs, lifted from `ServiceConfig`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PeerTuning {
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

/// One parsed peer HTTP response.
struct PeerResponse {
    status: u16,
    retry_after: Option<u64>,
    body: Vec<u8>,
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
                        peer.on_failure(
                            "fill response for a different key",
                            self.tuning.breaker_threshold,
                            self.tuning.breaker_cooldown,
                        );
                        None
                    }
                    Err(e) => {
                        peer.on_failure(
                            &format!("undecodable fill response: {e}"),
                            self.tuning.breaker_threshold,
                            self.tuning.breaker_cooldown,
                        );
                        None
                    }
                }
            }
            // A non-200 from a live peer (e.g. it cannot synthesize the
            // entry either) is a miss, not a peer failure.
            Ok(_) | Err(_) => None,
        };
        self.metrics.peer_fill_latency.observe(started.elapsed());
        match &filled {
            Some(_) => {
                peer.fills.fetch_add(1, Ordering::Relaxed);
                Metrics::bump(&self.metrics.peer_fills);
            }
            None => {
                peer.fill_failures.fetch_add(1, Ordering::Relaxed);
                Metrics::bump(&self.metrics.peer_fill_failures);
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
    fn call(&self, peer: &PeerState, path: &str, body: &[u8]) -> Result<PeerResponse, String> {
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
                    peer.on_failure(
                        &last_error,
                        self.tuning.breaker_threshold,
                        self.tuning.breaker_cooldown,
                    );
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
    fn attempt(&self, peer: &PeerState, path: &str, body: &[u8]) -> io::Result<PeerResponse> {
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
        read_peer_response(conn.as_mut(), deadline)
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

/// Reads one `connection: close` HTTP/1.1 response off `conn`, enforcing
/// `deadline` between reads — a trickling or black-holed peer becomes a
/// timeout, never a hang.
fn read_peer_response(conn: &mut dyn Conn, deadline: Instant) -> io::Result<PeerResponse> {
    let mut raw = Vec::with_capacity(1024);
    let mut head_end = None;
    let mut buf = [0u8; 4096];
    // Head: read until the blank line.
    while head_end.is_none() {
        check_deadline(deadline)?;
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed before response head",
            ));
        }
        raw.extend_from_slice(&buf[..n]);
        head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
        if raw.len() > 64 * 1024 && head_end.is_none() {
            return Err(io::Error::other("peer response head too large"));
        }
    }
    let head_end = head_end.expect("loop exits with a head");
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| io::Error::other("non-utf8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| io::Error::other("bad content-length from peer"))?;
            } else if name == "retry-after" {
                retry_after = value.parse().ok();
            }
        }
    }
    // Body: the remainder of the head read plus whatever is still due.
    let mut body = raw[head_end..].to_vec();
    while body.len() < content_length {
        check_deadline(deadline)?;
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-body",
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(PeerResponse {
        status,
        retry_after,
        body,
    })
}

fn check_deadline(deadline: Instant) -> io::Result<()> {
    if Instant::now() >= deadline {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "peer deadline exceeded",
        ));
    }
    Ok(())
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
        net.inject("peer:2", vec![NetFault::Refused; 8]);

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

        // Next cooldown: the probe succeeds (faults cleared, a real
        // service answers) and the breaker closes.
        net.clear_faults("peer:2");
        let service = Arc::new(
            Service::new(&crate::ServiceConfig {
                addr: "peer:2".into(),
                workers: 1,
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
            workers: 1,
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

    #[test]
    fn shed_peers_are_waited_out_per_retry_after() {
        let net = MemNet::new();
        let config = crate::ServiceConfig {
            addr: "peer:2".into(),
            workers: 1,
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
