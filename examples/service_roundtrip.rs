//! In-process tour of the HTTP synthesis service: start a server on an
//! ephemeral port, speak HTTP/1.1 to it over a plain `TcpStream`, and
//! read the cache counters back out of `/metrics`.
//!
//! Run with: `cargo run --example service_roundtrip`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use nanoxbar::service::{Json, Server, ServiceConfig};

/// Sends one request and returns `(status, body)` — a deliberately tiny
/// HTTP client; real deployments would sit curl or a proxy in front.
fn exchange(addr: &str, request: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = value.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
             connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ephemeral port, one worker per unit of pool width: everything in
    // this process.
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        ..ServiceConfig::default()
    })?;
    let handle = server.start()?;
    let addr = handle.addr().to_string();
    println!("serving on http://{addr}\n");

    let (status, body) = get(&addr, "/healthz")?;
    println!("GET /healthz -> {status}\n  {body}\n");

    // One job, synthesised and verified. The same request again is served
    // from the content-addressed cache — byte-identical body.
    let request = "{\"expr\":\"x0 x1 + !x0 !x1\",\"strategy\":\"diode\",\"verify\":true}";
    let (status, first) = post(&addr, "/v1/synthesize", request)?;
    println!("POST /v1/synthesize -> {status}\n  {first}");
    let (_, second) = post(&addr, "/v1/synthesize", request)?;
    println!("  cached replay is bit-identical: {}\n", first == second);

    // A batch: ordered slots, per-slot isolation (the constant function
    // fails its slot without touching the others), intra-batch dedupe
    // (slots 0 and 3 share one synthesis — same fingerprint).
    let batch = "{\"jobs\":[\
                 {\"expr\":\"x0 x1 + x1 x2\",\"label\":\"first\"},\
                 {\"expr\":\"x0 + !x0\",\"strategy\":\"diode\"},\
                 {\"expr\":\"x0 ^ x1\",\"chip\":{\"rows\":16,\"cols\":16,\"seed\":5}},\
                 {\"expr\":\"x0 x1 + x1 x2\",\"label\":\"dup-of-first\"}]}";
    let (status, body) = post(&addr, "/v1/batch", batch)?;
    println!("POST /v1/batch -> {status}");
    let json = Json::parse(&body)?;
    for (i, slot) in json
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .enumerate()
    {
        println!("  slot {i}: {slot}");
    }

    let (_, metrics) = get(&addr, "/metrics")?;
    println!("\nGET /metrics (cache + pool excerpts):");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("nanoxbar_cache") || l.starts_with("nanoxbar_pool"))
    {
        println!("  {line}");
    }

    handle.shutdown();
    println!("\nserver stopped.");
    Ok(())
}
