//! Parked keep-alive connections cost the active clients nothing: a
//! wall-clock throughput floor over real sockets. It is a test binary of
//! its own so that no other test of this crate runs beside it and skews
//! the clock (cargo runs test binaries one at a time).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nanoxbar_service::{Server, ServiceConfig};

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

fn get(addr: &str, path: &str) -> (u16, String) {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

/// The value of one unlabelled-or-labelled sample line (`name value`) in
/// a Prometheus exposition.
fn sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {name}:\n{text}"))
        .parse()
        .unwrap_or_else(|_| panic!("sample {name} is not an integer:\n{text}"))
}

/// One closed-loop pass: `clients` keep-alive clients each send
/// `requests` POSTs to `/v1/synthesize`, each after the last response.
/// The job schedule is fixed, so every pass sends the same requests.
/// Returns the throughput in requests per second and every body, per
/// client in send order.
fn closed_loop_pass(
    addr: &str,
    jobs: &[String],
    clients: usize,
    requests: usize,
) -> (f64, Vec<Vec<String>>) {
    let started = Instant::now();
    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    (0..requests)
                        .map(|request| {
                            let body = &jobs[(client * 31 + request * 17) % jobs.len()];
                            // One write per request: a request split over
                            // several segments would stall on Nagle's
                            // algorithm and time the network, not the server.
                            let request = format!(
                                "POST /v1/synthesize HTTP/1.1\r\nhost: t\r\n\
                                 content-length: {}\r\n\r\n{body}",
                                body.len()
                            );
                            stream.write_all(request.as_bytes()).expect("send");
                            let (status, text) = read_one_response(&mut reader);
                            assert_eq!(status, 200, "{text}");
                            assert!(text.starts_with("{\"ok\":true,"), "{text}");
                            text
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let throughput = (clients * requests) as f64 / started.elapsed().as_secs_f64();
    (throughput, bodies)
}

#[test]
fn parked_keepalive_connections_leave_active_throughput_and_bodies_alone() {
    const CLIENTS: usize = 2;
    const REQUESTS: usize = 50;
    const IDLE: usize = 512;
    const ROUNDS: usize = 5;
    let jobs: Vec<String> = [
        "11-- 1\\n--11 1",
        "1-0- 1\\n01-1 1",
        "111- 1\\n000- 1",
        "1--0 1\\n-01- 1",
        "0-1- 1\\n1-01 1\\n-110 1",
        "11-0 1\\n0--1 1",
        "-1-1 1\\n10-0 1",
        "1111 1\\n0000 1\\n1-0- 1",
    ]
    .iter()
    .zip(["diode", "fet", "dual-lattice"].iter().cycle())
    .map(|(cubes, strategy)| {
        format!(
            "{{\"pla\":\".i 4\\n.o 1\\n{cubes}\\n.e\\n\",\"strategy\":\"{strategy}\",\"verify\":true}}"
        )
    })
    .collect();

    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.start().expect("start");
    let registered = || sample(&get(&addr, "/metrics").1, "nanoxbar_reactor_connections");

    // Warm the cache, so every timed pass is pure hits, and record the
    // reference bodies.
    let (_, reference) = closed_loop_pass(&addr, &jobs, CLIENTS, REQUESTS);

    // Each round times an idle-free pass and then a parked pass right
    // after it, and the floor applies to the median round. A CPU burst
    // from a test running alongside skews one round, not the median; a
    // real per-connection cost slows every parked pass.
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (idle_free, bodies) = closed_loop_pass(&addr, &jobs, CLIENTS, REQUESTS);
        assert_eq!(bodies, reference);

        // Park IDLE keep-alive connections, each after one completed
        // `/healthz`: the reactor holds them, no worker and no timer does.
        let parked: Vec<(TcpStream, BufReader<TcpStream>)> = (0..IDLE)
            .map(|_| {
                let mut stream = TcpStream::connect(&addr).expect("connect idle");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                    .expect("send");
                assert_eq!(read_one_response(&mut reader).0, 200);
                (stream, reader)
            })
            .collect();
        let (loaded, bodies) = closed_loop_pass(&addr, &jobs, CLIENTS, REQUESTS);
        assert_eq!(
            bodies, reference,
            "parked connections must not change a single response byte"
        );
        ratios.push(loaded / idle_free);
        let connections = registered();
        assert!(
            connections >= IDLE as u64,
            "the reactor gauge must count every parked connection: {connections}"
        );

        // Let the reactor close them before the next idle-free pass.
        drop(parked);
        let deadline = Instant::now() + Duration::from_secs(10);
        while registered() > CLIENTS as u64 + 1 {
            assert!(Instant::now() < deadline, "parked connections never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ROUNDS / 2];
    assert!(
        ratio >= 0.5,
        "throughput collapsed under {IDLE} parked connections: median {ratio:.2}x \
         of idle-free over {ROUNDS} rounds ({ratios:.2?})"
    );

    handle.shutdown();
}
