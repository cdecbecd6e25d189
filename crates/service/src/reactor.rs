//! The readiness reactor: one thread that owns every socket — the
//! listener and each connection — over non-blocking descriptors and the
//! vendored `polling` poller (epoll(7)).
//!
//! The listener is registered under key 0 (connection ids start at 1).
//! When it turns readable the reactor accepts until `WouldBlock` and
//! checks the `max_conns` ceiling against its own connection map;
//! connections beyond it are refused through the same non-blocking
//! [`Phase::Closing`] path as every other refusal, so shedding never
//! stalls the loop. Connections cost a registry entry and nothing else
//! while idle: the reactor reads whatever bytes readiness delivers into
//! an incremental [`RequestParser`], and hands only **complete
//! requests** to the worker pool through the bounded [`RequestQueue`].
//! Responses travel back as [`ToReactor`] messages and leave through
//! per-connection write buffers drained by non-blocking writes — a
//! worker never touches a socket and so can never be stalled by a slow
//! peer.
//!
//! One kind of request never reaches a worker: a repeated
//! `/v1/synthesize` whose answer [`Service::memo_response`] holds. The
//! reactor writes that answer itself, with no queue hop and no doorbell,
//! and counts it exactly as a worker would. It is still the only thread
//! that touches a socket, and the memo path cannot panic it.
//!
//! Timers live here too. An idle connection between requests has **no
//! deadline** (parking is free, so parking is unlimited); the configured
//! `read_timeout` starts ticking when the first byte of a request
//! arrives and is cleared when the request completes — which is exactly
//! the slow-loris defence: a client dribbling header bytes holds a
//! parser buffer, never a worker, and is closed at the deadline.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nanoxbar_par::Inbox;
use polling::{Event, Poller};

use crate::http::{
    chunked_head, write_chunk, write_response, HttpError, Request, RequestParser, Response,
    CHUNKED_TAIL,
};
use crate::metrics::{Counter, Metrics};
use crate::server::{error_response, Service, ServiceConfig};

/// The listener's poller key and timer slot; connection ids start at 1.
const LISTENER: u64 = 0;

/// How long the listener stays muted after a failed `accept` (EMFILE
/// under fd exhaustion): readiness is level-triggered, so leaving the
/// interest on would spin the loop on the same error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a connection being turned away (`503`, `400`, `413`) gets to
/// take its response before the socket is dropped: covers the flush plus
/// a short read-drain, so stacks with unread request bytes don't RST the
/// in-flight status away.
const CLOSING_GRACE: Duration = Duration::from_millis(250);

/// Largest write buffer a connection keeps for its next response once
/// the buffer has drained.
const OUT_KEEP_BYTES: usize = 64 * 1024;

/// How long shutdown waits for buffered responses to drain to slow
/// clients before force-closing.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Messages into the reactor thread; [`ReactorHandle::send`] rings the
/// poller's eventfd doorbell after each one so a blocked `wait` picks it
/// up.
pub(crate) enum ToReactor {
    /// A complete response for a dispatched request.
    Respond {
        /// Connection ticket the request came in on.
        conn: u64,
        /// The response to serialise into the write buffer.
        response: Response,
        /// Close after flushing (client asked, or drain in progress).
        close: bool,
    },
    /// Open a chunked streaming response (`200`, JSON).
    StreamHead {
        /// Connection ticket.
        conn: u64,
        /// Close after the stream completes.
        close: bool,
    },
    /// One body fragment of the streaming response. Chunk framing is
    /// applied here, so the de-chunked payload stays byte-identical to
    /// the buffered encoding.
    StreamChunk {
        /// Connection ticket.
        conn: u64,
        /// Raw body bytes for this fragment.
        bytes: Vec<u8>,
    },
    /// The streaming response is complete; emit the terminating chunk.
    StreamEnd {
        /// Connection ticket.
        conn: u64,
        /// Close after flushing even if the head promised keep-alive
        /// (the stream was cut short by a panic).
        close: bool,
    },
    /// Graceful drain: close the listener and parked connections now,
    /// let in-flight responses finish (with `Connection: close`).
    Drain,
    /// Final stop: flush what remains (bounded) and exit the thread.
    Shutdown,
}

/// The sending side of the reactor: an mpsc sender plus the poller
/// doorbell that interrupts a blocked `wait`.
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    tx: Sender<ToReactor>,
    poller: Arc<Poller>,
}

impl ReactorHandle {
    /// Sends a message and wakes the reactor by ringing the poller's
    /// eventfd doorbell. Sends after the reactor exited are silently
    /// dropped (shutdown races are benign).
    pub(crate) fn send(&self, msg: ToReactor) {
        let _ = self.tx.send(msg);
        self.poller.notify();
    }
}

/// The bounded hand-off of **parsed requests** between the reactor and
/// the workers, which serve it as `nanoxbar-par` runners. Full means the
/// server is saturated: the reactor answers `503 Retry-After` itself
/// instead of queueing unboundedly.
pub(crate) type RequestQueue = Inbox<(u64, Request)>;

/// A request queue of `depth` that keeps the `ReactorQueueDepth` gauge.
pub(crate) fn request_queue(depth: usize, metrics: Arc<Metrics>) -> RequestQueue {
    Inbox::new(depth, move |len| {
        metrics.set(Counter::ReactorQueueDepth, len as u64);
    })
}

/// Where a connection is in its request/response lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Parsing the next request (possibly still flushing the previous
    /// response — parse only proceeds once the write buffer is empty, so
    /// responses on one connection can never interleave).
    Reading,
    /// A request is with the workers; bytes that arrive meanwhile are
    /// buffered (pipelining) but not parsed.
    Dispatched,
    /// A chunked streaming response is in flight; `done` once the
    /// terminating chunk is buffered.
    Streaming {
        /// Whether [`ToReactor::StreamEnd`] has been buffered.
        done: bool,
    },
    /// Being turned away: flush the refusal, half-close, read-drain
    /// briefly, drop.
    Closing,
}

/// Reactor-side connection state.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending outbound bytes; `out_pos` is how far the socket got.
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Close once the write buffer drains.
    close_after_flush: bool,
    /// The interest registered with the poller for this connection.
    interest: Event,
}

impl Conn {
    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

enum FlushOutcome {
    /// Buffer fully drained.
    Flushed,
    /// Socket saturated; wait for writability.
    Blocked,
    /// Socket failed — close the connection.
    Broken,
}

/// Non-blocking flush of a connection's write buffer.
fn flush(conn: &mut Conn) -> FlushOutcome {
    while conn.has_pending_out() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushOutcome::Broken,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Broken,
        }
    }
    // A connection keeps its write buffer between responses, unless a
    // large one grew it past the bound.
    if conn.out.capacity() > OUT_KEEP_BYTES {
        conn.out = Vec::new();
    } else {
        conn.out.clear();
    }
    conn.out_pos = 0;
    FlushOutcome::Flushed
}

/// The interest a connection needs in `phase`: read while `Reading` or
/// `Closing`, write while bytes are pending, nothing while the workers
/// own the request (errors and hangups still wake the poller
/// unconditionally). `None` when that is the `registered` interest, so
/// the poller is asked to change nothing: it is level-triggered, and an
/// identical re-registration would only cost a syscall.
fn interest_update(registered: Event, phase: Phase, pending_out: bool) -> Option<Event> {
    let wanted = Event {
        key: registered.key,
        readable: matches!(phase, Phase::Reading | Phase::Closing),
        writable: pending_out,
    };
    (wanted != registered).then_some(wanted)
}

/// Everything the reactor thread owns.
pub(crate) struct Reactor {
    poller: Arc<Poller>,
    rx: Receiver<ToReactor>,
    queue: Arc<RequestQueue>,
    /// Consulted for memoised answers before a request is queued.
    service: Arc<Service>,
    metrics: Arc<Metrics>,
    read_timeout: Duration,
    max_body: usize,
    max_conns: usize,
    /// The listening socket; `None` once draining.
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// How many of `conns` are `Closing`: on their way out, so they do
    /// not count toward `max_conns`.
    closing: usize,
    /// Deadlines, keyed by connection id: an entry exists only while a
    /// request is partially received (or while `Closing`). Parked-idle
    /// connections have no entry, so the per-wakeup timer scans cost
    /// O(active), not O(registered) — the bookkeeping that keeps
    /// thousands of parked connections off the hot path. Key
    /// [`LISTENER`] holds the end of an accept back-off.
    timers: HashMap<u64, Instant>,
    next_id: u64,
    draining: bool,
    shutdown_at: Option<Instant>,
}

impl Reactor {
    /// Builds the reactor around `listener` and returns it with its
    /// sending handle.
    pub(crate) fn new(
        listener: TcpListener,
        queue: Arc<RequestQueue>,
        service: Arc<Service>,
        metrics: Arc<Metrics>,
        config: &ServiceConfig,
    ) -> io::Result<(Reactor, ReactorHandle)> {
        let poller = Arc::new(Poller::new()?);
        listener.set_nonblocking(true)?;
        poller.add(&listener, Event::readable(LISTENER as usize))?;
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = ReactorHandle {
            tx,
            poller: poller.clone(),
        };
        Ok((
            Reactor {
                poller,
                rx,
                queue,
                service,
                metrics,
                read_timeout: config.read_timeout,
                max_body: config.max_body_bytes,
                max_conns: config.max_conns.max(1),
                listener: Some(listener),
                conns: HashMap::new(),
                closing: 0,
                timers: HashMap::new(),
                next_id: LISTENER + 1,
                draining: false,
                shutdown_at: None,
            },
            handle,
        ))
    }

    /// The event loop; returns once [`ToReactor::Shutdown`] has been
    /// processed and every connection is flushed or out of grace.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            while let Ok(msg) = self.rx.try_recv() {
                self.on_message(msg);
            }
            if let Some(at) = self.shutdown_at {
                // Post-shutdown the only work left is flushing buffered
                // responses; everything else closes immediately.
                let now = Instant::now();
                let done: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.has_pending_out() || now >= at)
                    .map(|(&id, _)| id)
                    .collect();
                for id in done {
                    self.close(id);
                }
                if self.conns.is_empty() {
                    return;
                }
            }
            let timeout = self.nearest_deadline();
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poll would spin; drop every connection and
                // exit rather than burn the core.
                return;
            }
            self.metrics.add(Counter::ReactorWakeups, 1);
            for &event in &events {
                self.on_event(event);
            }
            // Accept last, so a slot a hangup freed in this same wakeup
            // is already available to the newcomer.
            if events.iter().any(|e| e.key == LISTENER as usize) {
                self.accept();
            }
            self.expire_deadlines();
        }
    }

    /// The poll timeout: soonest of the per-connection deadlines and the
    /// shutdown grace. `None` (block until the doorbell rings) when
    /// nothing is timed — the parked-idle steady state.
    fn nearest_deadline(&self) -> Option<Duration> {
        let soonest = self
            .timers
            .values()
            .copied()
            .chain(self.shutdown_at)
            .min()?;
        Some(soonest.saturating_duration_since(Instant::now()))
    }

    fn on_message(&mut self, msg: ToReactor) {
        match msg {
            ToReactor::Respond {
                conn,
                response,
                close,
            } => {
                if self.respond(conn, &response, close) {
                    self.try_dispatch(conn);
                }
            }
            ToReactor::StreamHead { conn, close } => {
                let close = close || self.draining;
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                c.out
                    .extend_from_slice(&chunked_head(200, "application/json", close));
                c.close_after_flush = close;
                c.phase = Phase::Streaming { done: false };
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::StreamChunk { conn, bytes } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                write_chunk(&mut c.out, &bytes);
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::StreamEnd { conn, close } => {
                let close = close || self.draining;
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                c.out.extend_from_slice(CHUNKED_TAIL);
                c.phase = Phase::Streaming { done: true };
                c.close_after_flush = c.close_after_flush || close;
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::Drain => {
                self.draining = true;
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.delete(&listener);
                }
                self.timers.remove(&LISTENER);
                // Parked and mid-parse connections close now; dispatched
                // and streaming ones finish their response first (their
                // Respond/StreamEnd arrives with the drain flag set).
                let parked: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.phase == Phase::Reading && !c.has_pending_out())
                    .map(|(&id, _)| id)
                    .collect();
                for id in parked {
                    self.close(id);
                }
                for c in self.conns.values_mut() {
                    c.close_after_flush = true;
                }
            }
            ToReactor::Shutdown => {
                self.draining = true;
                self.shutdown_at = Some(Instant::now() + SHUTDOWN_GRACE);
            }
        }
    }

    /// Accepts until the listener would block. A newcomer beyond
    /// `max_conns` live connections is adopted only to be refused with
    /// `503` through [`Phase::Closing`], so it costs one non-blocking
    /// write here and nothing more.
    fn accept(&mut self) {
        while let Some(listener) = &self.listener {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let _ = self.poller.modify(listener, Event::none(LISTENER as usize));
                    self.timers
                        .insert(LISTENER, Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            };
            self.metrics.add(Counter::Connections, 1);
            let full = self.conns.len() - self.closing >= self.max_conns;
            let Some(id) = self.adopt(stream) else {
                continue;
            };
            if full {
                self.metrics.add(Counter::Rejected, 1);
                self.refuse(
                    id,
                    &error_response(503, "server is at capacity").with_retry_after(1),
                );
            }
        }
    }

    /// Adopts a fresh connection: non-blocking, no Nagle, parked with no
    /// deadline until its first request byte arrives. `None` if it could
    /// not be set up (dropping the stream closes it).
    fn adopt(&mut self, stream: TcpStream) -> Option<u64> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let id = self.next_id;
        self.next_id += 1;
        let interest = Event::readable(id as usize);
        self.poller.add(&stream, interest).ok()?;
        self.conns.insert(
            id,
            Conn {
                stream,
                parser: RequestParser::new(),
                out: Vec::new(),
                out_pos: 0,
                phase: Phase::Reading,
                close_after_flush: false,
                interest,
            },
        );
        self.metrics
            .set(Counter::ReactorConnections, self.conns.len() as u64);
        Some(id)
    }

    fn on_event(&mut self, ev: Event) {
        let id = ev.key as u64;
        let Some(phase) = self.conns.get(&id).map(|c| c.phase) else {
            return;
        };
        if ev.readable {
            let alive = match phase {
                Phase::Reading | Phase::Closing => self.read_some(id),
                // No read interest is registered in these phases, so a
                // "readable" wake means the socket errored or hung up
                // (poll reports those unconditionally). Probe it: data
                // means a benign race, EOF/error means the client is
                // gone and the in-flight response would bounce anyway.
                Phase::Dispatched | Phase::Streaming { .. } => self.probe(id),
            };
            if !alive {
                return;
            }
        }
        if ev.writable {
            self.pump(id);
        }
    }

    /// Reads whatever is available. In `Reading` the bytes feed the
    /// parser; in `Closing` they are discarded (the post-refusal drain).
    /// Returns `false` if the connection was closed.
    fn read_some(&mut self, id: u64) -> bool {
        enum Step {
            Close,
            Retry,
            Parse,
            Block,
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                match conn.stream.read(&mut buf) {
                    // EOF: mid-request the client gave up and is closed
                    // silently; between requests it's the clean
                    // keep-alive hangup. Either way nothing to flush.
                    Ok(0) => Step::Close,
                    Ok(n) => {
                        if conn.phase == Phase::Closing {
                            Step::Retry // discard: post-refusal drain
                        } else {
                            conn.parser.feed(&buf[..n]);
                            // First byte of a request: the read timeout
                            // starts here, not at idle.
                            let deadline = Instant::now() + self.read_timeout;
                            self.timers.entry(id).or_insert(deadline);
                            Step::Parse
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => Step::Block,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => Step::Retry,
                    Err(_) => Step::Close,
                }
            };
            match step {
                Step::Close => {
                    self.close(id);
                    return false;
                }
                Step::Retry => continue,
                Step::Block => {
                    self.refresh_interest(id);
                    return true;
                }
                Step::Parse => {
                    if !self.try_dispatch(id) {
                        return false;
                    }
                    match self.conns.get(&id).map(|c| c.phase) {
                        // Keep draining the socket while we still parse
                        // (or discard, post-refusal).
                        Some(Phase::Reading | Phase::Closing) => continue,
                        // Dispatched/streaming: stop reading for now.
                        Some(_) => return true,
                        None => return false,
                    }
                }
            }
        }
    }

    /// One probe read for a connection that should not be readable (see
    /// [`Reactor::on_event`]). Returns `false` if it closed.
    fn probe(&mut self, id: u64) -> bool {
        let mut buf = [0u8; 4096];
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                self.close(id);
                false
            }
            Ok(n) => {
                conn.parser.feed(&buf[..n]);
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                true
            }
            Err(_) => {
                self.close(id);
                false
            }
        }
    }

    /// Parses as much as the buffer allows and hands at most one request
    /// to the workers (responses on one connection stay ordered by
    /// construction: nothing more is parsed until the response flushes).
    /// A request the response memo answers is written here instead, and
    /// once its bytes are flushed the loop parses the next pipelined
    /// request — iteratively, so a deep pipeline cannot deepen the stack.
    /// Returns `false` if the connection was closed.
    fn try_dispatch(&mut self, id: u64) -> bool {
        enum Next {
            Settle,
            Dispatch(Request),
            Fail(HttpError),
        }
        loop {
            let next = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                if conn.phase != Phase::Reading || conn.has_pending_out() {
                    return true;
                }
                match conn.parser.try_next(self.max_body) {
                    Ok(None) => {
                        if conn.parser.buffered() == 0 {
                            self.timers.remove(&id); // back to parked-idle
                        }
                        Next::Settle
                    }
                    Ok(Some(request)) => {
                        self.timers.remove(&id);
                        conn.phase = Phase::Dispatched;
                        Next::Dispatch(request)
                    }
                    Err(error) => Next::Fail(error),
                }
            };
            match next {
                Next::Settle => {
                    self.refresh_interest(id);
                    return true;
                }
                Next::Dispatch(request) => {
                    if let Some(response) = self.service.memo_response(&request) {
                        if self.respond(id, &response, request.wants_close()) {
                            continue;
                        }
                    } else if self.queue.push((id, request)).is_err() {
                        // Saturated: shed this one request; the client is
                        // told how to come back.
                        self.metrics.add(Counter::Rejected, 1);
                        self.refuse(
                            id,
                            &error_response(503, "server is at capacity").with_retry_after(1),
                        );
                    } else {
                        self.refresh_interest(id);
                    }
                    return self.conns.contains_key(&id);
                }
                Next::Fail(error) => {
                    self.metrics.add(Counter::HttpErrors, 1);
                    let response = match error {
                        HttpError::BodyTooLarge { declared, limit } => error_response(
                            413,
                            &format!("body of {declared} bytes exceeds {limit}"),
                        ),
                        HttpError::Malformed(what) => error_response(400, what),
                    };
                    self.refuse(id, &response);
                    return self.conns.contains_key(&id);
                }
            }
        }
    }

    /// Writes one complete response, a worker's or a memoised one, and
    /// flushes what the socket takes. Returns `true` when the bytes are
    /// out and the connection stays open, so the caller parses its next
    /// request; otherwise the connection closed, or it waits for
    /// writability and resumes in [`Reactor::after_flush`]. Never parses
    /// itself, so answering a pipeline cannot recurse.
    fn respond(&mut self, id: u64, response: &Response, close: bool) -> bool {
        let close = close || self.draining;
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        write_response(&mut conn.out, response, close);
        conn.close_after_flush = close;
        conn.phase = Phase::Reading;
        self.note_high_water(id);
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        match flush(conn) {
            FlushOutcome::Flushed if !close => {
                if conn.parser.buffered() > 0 {
                    // A pipelined successor gets a fresh request deadline.
                    self.timers.insert(id, Instant::now() + self.read_timeout);
                }
                true
            }
            FlushOutcome::Flushed | FlushOutcome::Broken => {
                self.close(id);
                false
            }
            FlushOutcome::Blocked => {
                self.refresh_interest(id);
                false
            }
        }
    }

    /// Loads a refusal response and switches to `Closing`: flush, then
    /// half-close, then a short read-drain so the refusal survives
    /// RST-on-close client stacks.
    fn refuse(&mut self, id: u64, response: &Response) {
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.phase != Phase::Closing {
                self.closing += 1;
            }
            write_response(&mut conn.out, response, true);
            conn.phase = Phase::Closing;
            conn.close_after_flush = true;
            self.timers.insert(id, Instant::now() + CLOSING_GRACE);
        }
        self.note_high_water(id);
        self.pump(id);
    }

    /// Drives the write buffer as far as the socket allows and applies
    /// the flush-completion transition.
    fn pump(&mut self, id: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            flush(conn)
        };
        match outcome {
            FlushOutcome::Broken => self.close(id),
            FlushOutcome::Blocked => self.refresh_interest(id),
            FlushOutcome::Flushed => self.after_flush(id),
        }
    }

    /// State transition once a connection's write buffer drains.
    fn after_flush(&mut self, id: u64) {
        let Some((phase, close_after)) =
            self.conns.get(&id).map(|c| (c.phase, c.close_after_flush))
        else {
            return;
        };
        match phase {
            Phase::Closing => {
                // Refusal is out; half-close and let the read-drain run
                // until the grace deadline closes the socket.
                if let Some(conn) = self.conns.get_mut(&id) {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                }
                self.refresh_interest(id);
            }
            Phase::Dispatched | Phase::Streaming { done: false } => {
                self.refresh_interest(id);
            }
            Phase::Reading | Phase::Streaming { done: true } => {
                if close_after {
                    self.close(id);
                    return;
                }
                let buffered = {
                    let conn = self.conns.get_mut(&id).expect("present above");
                    conn.phase = Phase::Reading;
                    conn.parser.buffered()
                };
                if buffered > 0 {
                    // Pipelined successor already buffered: it gets a
                    // fresh request deadline and parses immediately.
                    self.timers.insert(id, Instant::now() + self.read_timeout);
                    if !self.try_dispatch(id) {
                        return;
                    }
                }
                self.refresh_interest(id);
            }
        }
    }

    /// Re-registers the poller interest to match the connection's phase
    /// ([`interest_update`]), when it differs from what is registered.
    fn refresh_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(event) = interest_update(conn.interest, conn.phase, conn.has_pending_out()) else {
            return;
        };
        if self.poller.modify(&conn.stream, event).is_ok() {
            conn.interest = event;
        } else {
            self.close(id);
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .timers
            .iter()
            .filter(|(_, &deadline)| now >= deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            if id == LISTENER {
                // Accept back-off over: listen again.
                self.timers.remove(&LISTENER);
                if let Some(listener) = &self.listener {
                    let _ = self
                        .poller
                        .modify(listener, Event::readable(LISTENER as usize));
                }
                continue;
            }
            if self
                .conns
                .get(&id)
                .is_some_and(|c| c.phase != Phase::Closing)
            {
                // A request started arriving and never completed within
                // read_timeout: the slow-loris (or stalled-client) path.
                self.metrics.add(Counter::ReactorTimeouts, 1);
            }
            self.close(id);
        }
    }

    fn close(&mut self, id: u64) {
        self.timers.remove(&id);
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.delete(&conn.stream);
            if conn.phase == Phase::Closing {
                self.closing -= 1;
            }
        }
        self.metrics
            .set(Counter::ReactorConnections, self.conns.len() as u64);
    }

    /// Records the deepest write buffer seen (bytes awaiting the socket)
    /// — the signal that a reader is slower than the engine.
    fn note_high_water(&self, id: u64) {
        if let Some(conn) = self.conns.get(&id) {
            let depth = (conn.out.len() - conn.out_pos) as u64;
            self.metrics.raise(Counter::ReactorWriteHighWater, depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            version_minor: 1,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn interest_changes_only_when_the_phase_asks_for_it() {
        let reading = Event::readable(7);
        // A keep-alive memo hit: read interest after the parse and again
        // after the read that would block; neither changes anything.
        assert_eq!(interest_update(reading, Phase::Reading, false), None);
        assert_eq!(interest_update(reading, Phase::Closing, false), None);
        // Dispatched: no interest at all, and only once.
        let idle = Event::none(7);
        assert_eq!(
            interest_update(reading, Phase::Dispatched, false),
            Some(idle)
        );
        assert_eq!(interest_update(idle, Phase::Dispatched, false), None);
        assert_eq!(
            interest_update(idle, Phase::Streaming { done: false }, false),
            None
        );
        // A blocked write adds write interest; its flush takes it away.
        assert_eq!(
            interest_update(idle, Phase::Dispatched, true),
            Some(Event::writable(7))
        );
        assert_eq!(
            interest_update(reading, Phase::Reading, true),
            Some(Event::all(7))
        );
        assert_eq!(
            interest_update(Event::all(7), Phase::Reading, false),
            Some(reading)
        );
        assert_eq!(interest_update(idle, Phase::Reading, false), Some(reading));
    }

    #[test]
    fn request_queue_bounds_and_drains() {
        let metrics = Arc::new(Metrics::default());
        let queue = Arc::new(request_queue(2, metrics.clone()));
        assert!(queue.push((1, get("/a"))).is_ok());
        assert!(queue.push((2, get("/b"))).is_ok());
        assert_eq!(metrics.get(Counter::ReactorQueueDepth), 2);
        // Full: the third request is handed back for the reactor's 503.
        let (_, refused) = queue.push((3, get("/c"))).expect_err("the queue is full");
        assert_eq!(refused.path, "/c");

        queue.close();
        let (_, refused) = queue.push((4, get("/d"))).expect_err("the queue is closed");
        assert_eq!(refused.path, "/d");
        // What was queued before the close is still served, and then the
        // closed, drained queue lets its runners go.
        let served = Arc::new(Mutex::new(Vec::new()));
        let log = served.clone();
        let runners = queue
            .spawn_runners("queue-test", move |(conn, request)| {
                log.lock().expect("log").push((conn, request.path));
            })
            .expect("start the runners");
        for runner in runners {
            runner.join().expect("the runner did not panic");
        }
        let mut served = served.lock().expect("log").clone();
        served.sort();
        assert_eq!(served, [(1, "/a".to_string()), (2, "/b".to_string())]);
        assert_eq!(metrics.get(Counter::ReactorQueueDepth), 0);
    }
}
