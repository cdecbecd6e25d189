//! The served side: the `nanoxbar serve` child process, keep-alive
//! connections to it, and the closed-loop clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::fnv64;
use crate::workload::{Generator, Request};

/// Closed-loop clients, each with one keep-alive connection.
pub const CLIENTS: u64 = 2;
/// The server's `--threads` (HTTP workers).
pub const SERVER_THREADS: usize = 2;

/// A running `nanoxbar serve`, killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    /// Held open so the server's later log lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProcess {
    /// Starts the server on an ephemeral port and waits for its first
    /// `/healthz` 200.
    pub fn start(binary: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(SERVER_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let server_addr = match (read, addr) {
            (Ok(_), Some(addr)) => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce its address: {line:?}"));
            }
        };
        let server = ServerProcess {
            child,
            _stdout: stdout,
            addr: server_addr,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match server.get("/healthz") {
                Ok((200, _)) => return Ok(server),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("server never became healthy: {other:?}")),
            }
        }
    }

    /// One GET on a fresh connection: `(status, body)`.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let mut conn = Conn::open(&self.addr)?;
        let wire = format!("GET {path} HTTP/1.1\r\nhost: 127.0.0.1\r\nconnection: close\r\n\r\n");
        let mut body = Vec::new();
        let status = conn.exchange(wire.as_bytes(), &mut body)?;
        Ok((status, body))
    }

    /// Scrapes `/metrics`.
    pub fn counters(&self) -> Result<Counters, String> {
        let (status, body) = self.get("/metrics").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(Counters(String::from_utf8_lossy(&body).into_owned()))
    }

    /// User plus system CPU time, in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("cannot read server stat: {e}"))?;
        // Fields after the parenthesised command name start at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |n: usize| fields.get(n - 3).and_then(|v| v.parse::<u64>().ok());
        match (field(14), field(15)) {
            (Some(user), Some(system)) => Ok(user + system),
            _ => Err("malformed /proc stat".into()),
        }
    }

    /// Peak resident set (`VmHWM`), in kB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `/metrics` exposition.
pub struct Counters(String);

impl Counters {
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request and reads its `Content-Length` response into
    /// `body`; returns the status.
    pub fn exchange(&mut self, wire: &[u8], body: &mut Vec<u8>) -> std::io::Result<u16> {
        self.stream.write_all(wire)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed inside a response head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| invalid("response without content-length".into()))?;
        body.clear();
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Sends `requests` in order on one connection; every answer must be 200.
pub fn send_all(addr: &str, requests: &[Request]) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut body = Vec::new();
    for request in requests {
        match conn.exchange(&request.wire(), &mut body) {
            Ok(200) => {}
            Ok(status) => {
                return Err(format!(
                    "warm-up request answered {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
            Err(e) => return Err(format!("warm-up request failed: {e}")),
        }
    }
    Ok(())
}

/// One completed (or failed) exchange of the measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Stream index of the request.
    pub index: u64,
    /// Completion time since the phase started.
    pub done_ns: u64,
    pub latency_ns: u64,
    /// 0 when the connection failed.
    pub status: u16,
    pub body_len: usize,
    pub body_hash: u64,
}

/// Runs the closed loop: client `c` sends requests `c, c + 2, …` and
/// waits for each answer, until `seconds` have passed. A failed exchange
/// is recorded (status 0) and the client reconnects; the run goes on.
pub fn drive(addr: &str, generator: &Generator, seconds: f64) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut conn = Conn::open(addr).ok();
                    let mut body = Vec::new();
                    let mut index = client;
                    while started.elapsed() < limit && index < generator.stream_len() {
                        let wire = generator.request(index).wire();
                        let sent = Instant::now();
                        let outcome = match conn.as_mut() {
                            Some(c) => c.exchange(&wire, &mut body),
                            None => Err(invalid("not connected".into())),
                        };
                        let now = Instant::now();
                        let (status, body_len, body_hash) = match outcome {
                            Ok(status) => (status, body.len(), fnv64(&body)),
                            Err(_) => {
                                // Back off so a dead server costs a bounded
                                // number of failed samples.
                                std::thread::sleep(Duration::from_millis(1));
                                conn = Conn::open(addr).ok();
                                (0, 0, 0)
                            }
                        };
                        samples.push(Sample {
                            index,
                            done_ns: (now - started).as_nanos() as u64,
                            latency_ns: (now - sent).as_nanos() as u64,
                            status,
                            body_len,
                            body_hash,
                        });
                        index += CLIENTS;
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_unstable_by_key(|s| s.index);
    (samples, started.elapsed().as_secs_f64())
}
