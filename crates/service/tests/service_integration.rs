//! Full-stack integration: bind the service on an ephemeral port, drive
//! it with concurrent clients over real sockets (mixed valid / invalid /
//! constant-function jobs), and assert the responses are input-ordered,
//! per-slot isolated, and **bit-identical** to rendering a direct
//! `Engine::run_batch` of the same jobs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nanoxbar_engine::{Engine, Job};
use nanoxbar_service::{result_to_json, JobSpec, Json, Server, ServiceConfig};

/// Sends `request` raw and returns `(status, body)`.
fn exchange(addr: &str, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut reader = BufReader::new(stream);
    read_one_response(&mut reader)
}

fn read_one_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().expect("length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// Reads one `Transfer-Encoding: chunked` response and returns the
/// status plus every chunk payload stamped with its arrival time.
/// Asserts the chunked framing itself: the header must be present, a
/// `content-length` must not be, and the stream must end with the
/// zero-size terminator.
fn read_chunked_response<R: BufRead>(reader: &mut R) -> (u16, Vec<(Instant, Vec<u8>)>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        assert!(
            !lower.starts_with("content-length:"),
            "chunked response must not declare a content-length: {line}"
        );
        if lower == "transfer-encoding: chunked" {
            chunked = true;
        }
    }
    assert!(chunked, "response must be transfer-encoding: chunked");
    let mut chunks = Vec::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim_end(), 16)
            .unwrap_or_else(|e| panic!("bad chunk size {size_line:?}: {e}"));
        if size == 0 {
            let mut crlf = String::new();
            reader.read_line(&mut crlf).expect("terminator crlf");
            assert_eq!(crlf, "\r\n", "terminator chunk must end with bare CRLF");
            break;
        }
        let mut payload = vec![0u8; size];
        reader.read_exact(&mut payload).expect("chunk payload");
        chunks.push((Instant::now(), payload));
        let mut crlf = String::new();
        reader.read_line(&mut crlf).expect("chunk crlf");
        assert_eq!(crlf, "\r\n", "chunk payload must end with CRLF");
    }
    (status, chunks)
}

fn post_body(addr: &str, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// The shared workload: slot-labelled specs mixing every outcome class.
/// Returns `(request body, slot specs)`.
fn workload() -> (String, Vec<Json>) {
    let slots: Vec<Json> = vec![
        // Valid, default strategy.
        Json::parse("{\"expr\":\"x0 x1 + !x0 !x1\",\"label\":\"slot-0\",\"verify\":true}").unwrap(),
        // Valid, explicit strategies.
        Json::parse("{\"expr\":\"x0 x1 + x1 x2\",\"strategy\":\"diode\",\"label\":\"slot-1\"}")
            .unwrap(),
        // Invalid expression: spec error, must stay in its slot.
        Json::parse("{\"expr\":\"((\",\"label\":\"slot-2\"}").unwrap(),
        // Constant on a two-terminal technology: typed engine error.
        Json::parse("{\"expr\":\"x0 + !x0\",\"strategy\":\"diode\",\"label\":\"slot-3\"}").unwrap(),
        // Unknown backend: typed engine error.
        Json::parse("{\"expr\":\"x0\",\"strategy\":\"quantum\",\"label\":\"slot-4\"}").unwrap(),
        // Valid with a chip mapping (deterministic seed + rate).
        Json::parse(
            "{\"expr\":\"x0 ^ x1\",\"label\":\"slot-5\",\
             \"chip\":{\"rows\":16,\"cols\":16,\"seed\":5,\"defect_rate\":0.05}}",
        )
        .unwrap(),
        // Duplicate of slot 1: exercises intra-batch dedupe + the cache.
        Json::parse("{\"expr\":\"x0 x1 + x1 x2\",\"strategy\":\"diode\",\"label\":\"slot-6\"}")
            .unwrap(),
        // Valid FET.
        Json::parse("{\"expr\":\"!x0 x1 + x2\",\"strategy\":\"fet\",\"label\":\"slot-7\"}")
            .unwrap(),
    ];
    let body = Json::Object(vec![("jobs".into(), Json::Array(slots.clone()))]).encode();
    (body, slots)
}

/// What the service *must* produce: parse each spec like the server does,
/// run the valid ones through a plain engine batch, and render with the
/// same wire code.
fn expected_slots(slots: &[Json]) -> Vec<Json> {
    let specs: Vec<Result<Job, String>> = slots
        .iter()
        .map(|slot| JobSpec::from_json(slot).and_then(|s| s.to_job()))
        .collect();
    let jobs: Vec<Job> = specs
        .iter()
        .filter_map(|s| s.as_ref().ok().cloned())
        .collect();
    // No cache here: cached and uncached engines must be bit-identical,
    // so the reference can be the plain one.
    let mut results = Engine::new().run_batch(&jobs).into_iter();
    specs
        .iter()
        .map(|spec| match spec {
            Err(message) => Json::parse(
                &Json::Object(vec![
                    ("ok".into(), Json::Bool(false)),
                    ("kind".into(), Json::Str("bad-request".into())),
                    ("error".into(), Json::Str(message.clone())),
                ])
                .encode(),
            )
            .unwrap(),
            Ok(_) => result_to_json(&results.next().expect("result per valid job")),
        })
        .collect()
}

#[test]
fn concurrent_batches_are_ordered_isolated_and_match_direct_engine() {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    let (body, slots) = workload();
    let expected = expected_slots(&slots);

    // 6 concurrent clients, 3 sequential batches each, all identical.
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 3;
    let responses: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (addr, body) = (&addr, &body);
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|_| {
                            let (status, text) = post_body(addr, "/v1/batch", body);
                            assert_eq!(status, 200, "{text}");
                            text
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Every response from every client and round is byte-identical (the
    // cache warms up during the run and must not change a single byte).
    let reference = &responses[0][0];
    for (c, client) in responses.iter().enumerate() {
        for (r, text) in client.iter().enumerate() {
            assert_eq!(text, reference, "client {c} round {r} diverged");
        }
    }

    // And the slots line up, in input order, with the direct engine run.
    let parsed = Json::parse(reference).expect("valid response JSON");
    let got = parsed.get("results").unwrap().as_array().unwrap();
    assert_eq!(got.len(), expected.len());
    for (i, (actual, wanted)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(actual, wanted, "slot {i}");
    }
    // Outcome classes land where the workload put them.
    for (i, ok) in [true, true, false, false, false, true, true, true]
        .into_iter()
        .enumerate()
    {
        assert_eq!(got[i].get("ok"), Some(&Json::Bool(ok)), "slot {i}");
    }
    assert_eq!(got[2].get("kind").unwrap().as_str(), Some("bad-request"));
    assert_eq!(
        got[3].get("kind").unwrap().as_str(),
        Some("constant-function")
    );
    assert_eq!(
        got[4].get("kind").unwrap().as_str(),
        Some("unknown-strategy")
    );
    assert_eq!(
        got[1].get("fingerprint"),
        got[6].get("fingerprint"),
        "duplicate slots share one synthesis"
    );
    assert!(got[5].get("flow").is_some(), "chip slot carries its flow");
    // Ordered labels echo back.
    for (i, slot) in got.iter().enumerate() {
        if slot.get("ok") == Some(&Json::Bool(true)) {
            assert_eq!(
                slot.get("label").unwrap().as_str(),
                Some(format!("slot-{i}").as_str())
            );
        }
    }

    // Single-job endpoint agrees with its batch slot, byte for byte.
    let single = slots[0].encode();
    let (status, text) = post_body(&addr, "/v1/synthesize", &single);
    assert_eq!(status, 200);
    assert_eq!(Json::parse(&text).unwrap(), expected[0]);

    handle.shutdown();
}

#[test]
fn map_requests_round_trip_through_run_batch() {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    // Mixed map slots: mappable chip, defect-saturated chip (search
    // exhausts), invalid spec (map without chip).
    let slots: Vec<Json> = vec![
        Json::parse(
            "{\"expr\":\"x0 x1 + !x0 !x1\",\"label\":\"mappable\",\
             \"chip\":{\"rows\":16,\"cols\":16,\"seed\":5,\"defect_rate\":0.05},\
             \"map\":{\"strategy\":\"greedy\",\"speculation\":4,\"seed\":2}}",
        )
        .unwrap(),
        Json::parse(
            "{\"expr\":\"x0 x1 + !x0 !x1\",\"label\":\"saturated\",\
             \"chip\":{\"rows\":8,\"cols\":8,\"seed\":1,\"defect_rate\":0.9},\
             \"map\":{\"strategy\":\"greedy\",\"max_attempts\":40}}",
        )
        .unwrap(),
        Json::parse("{\"expr\":\"x0 x1\",\"label\":\"chipless\",\"map\":{}}").unwrap(),
    ];
    let body = Json::Object(vec![("jobs".into(), Json::Array(slots.clone()))]).encode();
    let expected = expected_slots(&slots);

    let (status, text) = post_body(&addr, "/v1/batch", &body);
    assert_eq!(status, 200, "{text}");
    let parsed = Json::parse(&text).unwrap();
    let got = parsed.get("results").unwrap().as_array().unwrap();
    for (i, (actual, wanted)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(actual, wanted, "slot {i}");
    }
    let map = got[0].get("map").expect("mappable slot carries its map");
    assert_eq!(map.get("success"), Some(&Json::Bool(true)));
    assert_eq!(
        got[1].get("map").unwrap().get("success"),
        Some(&Json::Bool(false)),
        "saturated chip exhausts the search as data, not an error"
    );
    assert_eq!(got[2].get("kind").unwrap().as_str(), Some("bad-request"));

    // The dedicated endpoint returns the batch slot's body, byte for
    // byte, and repeats are byte-identical (the acceptance contract).
    let single = slots[0].encode();
    let (status, first) = post_body(&addr, "/v1/map", &single);
    assert_eq!(status, 200);
    assert_eq!(Json::parse(&first).unwrap(), expected[0]);
    let (_, second) = post_body(&addr, "/v1/map", &single);
    assert_eq!(
        first, second,
        "identical map requests must be byte-identical"
    );

    handle.shutdown();
}

#[test]
fn shutdown_drains_keepalive_connections() {
    let read_timeout = std::time::Duration::from_secs(5);
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    // Connection A: one completed request, then idle keep-alive — its
    // worker is now blocked in a read with 5s left on the clock.
    let mut idle = TcpStream::connect(&addr).expect("connect idle");
    idle.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone"));
    let (status, _) = read_one_response(&mut idle_reader);
    assert_eq!(status, 200);

    // Connection B: a request in flight while the shutdown begins.
    let body = "{\"expr\":\"x0 x1 + !x0 !x1\",\"verify\":true}";
    let mut busy = TcpStream::connect(&addr).expect("connect busy");
    busy.write_all(
        format!(
            "POST /v1/synthesize HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send");
    std::thread::sleep(std::time::Duration::from_millis(100));

    let started = std::time::Instant::now();
    handle.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < read_timeout / 2,
        "drain took {elapsed:?}; idle keep-alive must not run out its {read_timeout:?} timeout"
    );

    // B's response was completed, not dropped.
    let mut busy_reader = BufReader::new(busy.try_clone().expect("clone"));
    let (status, text) = read_one_response(&mut busy_reader);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"ok\":true"), "{text}");

    // Both connections are closed (EOF), so clients re-resolve instead
    // of hanging on a dead socket.
    for (name, reader) in [("idle", &mut idle_reader), ("busy", &mut busy_reader)] {
        let mut rest = String::new();
        std::io::Read::read_to_string(reader, &mut rest).expect("read to EOF");
        assert!(
            rest.is_empty(),
            "{name} connection left extra bytes: {rest:?}"
        );
    }
}

#[test]
fn http_edges_over_real_sockets() {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_body_bytes: 512,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    // Keep-alive: two requests on one connection.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .expect("send");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..2 {
        let (status, body) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
    }
    drop(reader);
    drop(stream);

    // Unknown path, wrong method, malformed JSON, oversized body.
    let (status, _) = exchange(
        &addr,
        b"GET /nope HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 404);
    let (status, _) = exchange(
        &addr,
        b"PUT /v1/batch HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    let (status, text) = post_body(&addr, "/v1/synthesize", "{not json");
    assert_eq!(status, 400, "{text}");
    let big = format!("{{\"expr\":\"{}\"}}", "x".repeat(600));
    let (status, _) = post_body(&addr, "/v1/synthesize", &big);
    assert_eq!(status, 413);

    // Metrics reflect the traffic that just happened.
    let (status, text) = exchange(
        &addr,
        b"GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(text.contains("nanoxbar_requests_total"), "{text}");
    assert!(text.contains("nanoxbar_http_errors_total"), "{text}");

    handle.shutdown();
}

#[test]
fn streaming_batch_delivers_first_slot_before_the_last_job_completes() {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    // Slot 0 is a cheap synthesis; slot 1 burns a large mapping-attempt
    // budget on a defect-saturated chip, so the batch's total latency is
    // dominated by its *last* job. A buffered client sees nothing until
    // that job finishes; a streaming client must hold slot 0 long before.
    let cheap = "{\"expr\":\"x0 x1 + !x0 !x1\",\"label\":\"fast\"}";
    let heavy = "{\"expr\":\"x0 x1 x2 + x3 x4 x5 + x6 x7 x8 + x9 x10 x11\",\"label\":\"slow\",\
                 \"chip\":{\"rows\":192,\"cols\":192,\"seed\":7,\"defect_rate\":0.6},\
                 \"map\":{\"strategy\":\"greedy\",\"max_attempts\":150000}}";

    // The streaming pass goes FIRST, against a cold cache — a warmed
    // cache would make the heavy slot instant and prove nothing. The
    // buffered pass afterwards must be byte-identical anyway; that is
    // the service's determinism contract.
    let body = format!("{{\"stream\":true,\"jobs\":[{cheap},{heavy}]}}");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let started = Instant::now();
    stream
        .write_all(
            format!(
                "POST /v1/batch HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
    let mut reader = BufReader::new(stream);
    let (status, chunks) = read_chunked_response(&mut reader);
    assert_eq!(status, 200);

    // One fragment per slot (the first carries the envelope prefix) plus
    // the closing `]}` — slot-at-a-time emission, not one big flush.
    assert_eq!(chunks.len(), 3, "expected prefix+slot0, slot1, tail");
    let first_text = String::from_utf8(chunks[0].1.clone()).expect("utf8 first fragment");
    assert!(
        first_text.starts_with("{\"count\":2,\"results\":["),
        "first fragment must open the envelope and carry slot 0: {first_text}"
    );
    assert!(first_text.contains("\"label\":\"fast\""), "{first_text}");

    // The timing proof: the first fragment landed while the heavy job
    // was still running. The heavy tail must dominate the exchange for
    // the assertion to mean anything, so check that too.
    let first_at = chunks[0].0 - started;
    let last_at = chunks.last().expect("tail chunk").0 - started;
    assert!(
        last_at >= Duration::from_millis(15),
        "workload too light to demonstrate streaming: whole batch in {last_at:?}"
    );
    assert!(
        first_at * 4 < last_at,
        "first slot must arrive early: first at {first_at:?}, last at {last_at:?}"
    );

    // De-chunked, the streamed body is byte-identical to the buffered
    // response for the very same jobs.
    let (status, buffered) = post_body(
        &addr,
        "/v1/batch",
        &format!("{{\"jobs\":[{cheap},{heavy}]}}"),
    );
    assert_eq!(status, 200, "{buffered}");
    let streamed: Vec<u8> = chunks
        .into_iter()
        .flat_map(|(_, payload)| payload)
        .collect();
    assert_eq!(
        String::from_utf8(streamed).expect("utf8 body"),
        buffered,
        "streamed body must be byte-identical to the buffered body"
    );

    handle.shutdown();
}

#[test]
fn slow_loris_dribble_is_reaped_by_the_reactor_not_a_worker() {
    let read_timeout = Duration::from_millis(500);
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        // One worker: if the dribbling connection occupied it, the
        // healthy client below could not be served until the timeout.
        workers: 1,
        read_timeout,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    // The loris: one header byte every 25ms, forever (from the server's
    // point of view). The request-read deadline starts at the first byte
    // and is *not* refreshed per byte, so the connection must die at
    // ~read_timeout no matter how lively the trickle looks.
    let mut loris = TcpStream::connect(&addr).expect("connect loris");
    let started = Instant::now();
    let dribbler = std::thread::spawn(move || {
        let head = b"GET /healthz HTTP/1.1\r\nhost: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
        for &byte in head.iter() {
            if loris.write_all(&[byte]).is_err() {
                break; // server reset us — expected, stop dribbling
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        loris
    });

    // While the dribble is in flight, the singleton worker serves other
    // clients: the half-request never reaches the queue. Finishing all
    // three exchanges before the loris deadline proves the overlap.
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..3 {
        let (status, _) = exchange(
            &addr,
            b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
    }
    assert!(
        started.elapsed() < read_timeout,
        "healthy clients must be served while the loris still dribbles"
    );

    // The loris is reaped: reads return EOF (or a reset), promptly.
    let loris = dribbler.join().expect("dribbler");
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut rest = Vec::new();
    let outcome = (&loris).read_to_end(&mut rest);
    assert!(
        outcome.is_err() || rest.is_empty(),
        "timed-out dribble gets no response bytes, just a close: {rest:?}"
    );
    let lifetime = started.elapsed();
    assert!(
        lifetime < read_timeout * 4,
        "loris must die near its deadline, lived {lifetime:?}"
    );

    // And the reaping is visible in the metrics.
    let (status, text) = exchange(
        &addr,
        b"GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let timeouts: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("nanoxbar_reactor_timeouts_total "))
        .expect("timeouts family present")
        .trim()
        .parse()
        .expect("counter value");
    assert!(timeouts >= 1, "reactor must count the reaped dribble");

    handle.shutdown();
}

#[test]
fn idle_keepalive_parks_past_read_timeout_and_still_serves() {
    let read_timeout = Duration::from_millis(250);
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        read_timeout,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    let (status, body) = read_one_response(&mut reader);
    assert_eq!(status, 200);

    // The health body exposes the reactor: this very connection is
    // registered, parked at zero worker cost.
    let health = Json::parse(&body).expect("health json");
    let reactor = health.get("reactor").expect("reactor section");
    assert!(
        reactor.get("connections").and_then(Json::as_u64) >= Some(1),
        "parked connection must show in the gauge: {body}"
    );

    // Park well past the request-read timeout. The deadline only arms
    // on the first byte of a request, so an idle keep-alive outlives it.
    std::thread::sleep(read_timeout * 4);

    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("send after parking");
    let (status, _) = read_one_response(&mut reader);
    assert_eq!(
        status, 200,
        "an idle keep-alive connection must survive the read timeout"
    );

    handle.shutdown();
}

#[test]
fn max_conns_sheds_a_silent_flood_without_stalling_later_accepts() {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_conns: 1,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");

    // The one allowed connection, proven registered by a keep-alive
    // exchange, then parked.
    let mut held = TcpStream::connect(&addr).expect("connect held");
    let mut held_reader = BufReader::new(held.try_clone().expect("clone"));
    held.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    assert_eq!(read_one_response(&mut held_reader).0, 200);

    // A flood of excess connections that never send, read, or close.
    // Each must be turned away without holding up the accept path.
    let flood = Instant::now();
    let excess: Vec<TcpStream> = (0..10)
        .map(|_| TcpStream::connect(&addr).expect("connect excess"))
        .collect();
    // Wait (without consuming anything) until the server has answered
    // every one, so none of them is still queued behind the listener
    // when the held slot frees up below.
    for stream in &excess {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut probe = [0u8; 1];
        assert_eq!(stream.peek(&mut probe).expect("refusal arrives"), 1);
    }

    // Free the slot and reconnect: the shed sockets are still in their
    // refusal grace, but they must not count toward the ceiling.
    drop(held_reader);
    drop(held);
    let (status, _) = exchange(
        &addr,
        b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    let elapsed = flood.elapsed();
    assert_eq!(status, 200, "the freed slot must admit a new client");
    assert!(
        elapsed < Duration::from_millis(300),
        "shedding 10 silent connections must not delay the next accept: {elapsed:?}"
    );

    for mut stream in excess {
        let mut refusal = Vec::new();
        stream
            .read_to_end(&mut refusal)
            .expect("refusal then close");
        let text = String::from_utf8_lossy(&refusal);
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
    }

    handle.shutdown();
}
