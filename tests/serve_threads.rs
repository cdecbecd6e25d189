//! `nanoxbar serve` has one compute-thread count: the pool width. Its
//! request runners (`nanoxbar-http-*`) number `NANOXBAR_THREADS`, else
//! the core count, unless `--threads` sets the width; and no pool worker
//! (`nanoxbar-par-*`) starts, not even once a batch has run its tasks or
//! a recovered session has been resumed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// A batch of two jobs, so the request opens a pool scope.
const BATCH: &str = r#"{"jobs":[{"expr":"x0 x1 + x2 x3","strategy":"diode"},{"expr":"x0 ^ x1 ^ x2","strategy":"lattice"}]}"#;

/// A `/v1/map` session checkpointed after one round, on a function of
/// ten variables: 16 truth-table words, so verifying it on its first
/// resume after a restart fans out.
const WIDE_SESSION: &str = r#"{"expr":"x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 + !x0 !x9 + x3 !x5","verify":true,"chip":{"rows":14,"cols":14,"seed":11,"defect_rate":0.3},"map":{"strategy":"greedy","speculation":1,"max_attempts":60},"session":{"id":"wide","rounds":1}}"#;

fn cores() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Starts `nanoxbar serve` with `threads_env` as its `NANOXBAR_THREADS`
/// (unset for `None`) and `args` after the address, and returns the
/// child with the address it announced.
fn start(threads_env: Option<&str>, args: &[&str]) -> (Child, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_nanoxbar"));
    command
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match threads_env {
        Some(width) => command.env("NANOXBAR_THREADS", width),
        None => command.env_remove("NANOXBAR_THREADS"),
    };
    let mut child = command.spawn().expect("start nanoxbar serve");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout is piped"))
        .read_line(&mut line)
        .expect("read the banner");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in the banner {line:?}"))
        .to_string();
    (child, addr)
}

/// Sends one request and returns the response, checking it was answered
/// with `200`.
fn send(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("the server closes the connection");
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    response
}

/// The names of the process's threads.
fn thread_names(pid: u32) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("list the server's threads")
        .map(|task| {
            let comm = task.expect("a task entry").path().join("comm");
            std::fs::read_to_string(comm)
                .expect("read a thread name")
                .trim_end()
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Drains the server with SIGTERM and waits for it to exit.
fn stop(mut child: Child) {
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll the server").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve did not exit within 30 s of SIGTERM");
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// The server's thread names once `expected` runners have named
/// themselves, or at a 5 s deadline. A runner names itself once it runs,
/// so the count may lag the start-up by a moment.
fn settled_names(child: &Child, expected: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut names = thread_names(child.id());
    while runners(&names) != expected && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        names = thread_names(child.id());
    }
    names
}

fn runners(names: &[String]) -> usize {
    names
        .iter()
        .filter(|name| name.starts_with("nanoxbar-http-"))
        .count()
}

/// Checks `names` hold `expected` runners and no pool worker.
fn assert_one_count(names: &[String], expected: usize, shape: &str) {
    assert_eq!(runners(names), expected, "{shape}: {names:?}");
    assert!(
        !names.iter().any(|name| name.starts_with("nanoxbar-par-")),
        "{shape}: a pool worker started: {names:?}"
    );
}

/// Serves one batch and checks the server's threads: `expected` runners
/// and no pool worker.
fn check_runners(threads_env: Option<&str>, args: &[&str], expected: usize) {
    let (child, addr) = start(threads_env, args);
    send(&addr, "POST", "/v1/batch", BATCH);
    let names = settled_names(&child, expected);
    stop(child);
    assert_one_count(
        &names,
        expected,
        &format!("NANOXBAR_THREADS={threads_env:?} {args:?}"),
    );
}

#[test]
fn serve_has_the_pool_width_in_runners_and_no_pool_worker() {
    check_runners(None, &[], cores());
    check_runners(Some("1"), &[], 1);
    // The flag wins over the environment.
    check_runners(Some("1"), &["--threads", "3"], 3);
}

#[test]
fn recovering_a_wide_session_at_boot_starts_no_pool_worker() {
    let state = std::env::temp_dir().join(format!("nanoxbar-serve-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let args = ["--state-dir", state.to_str().expect("a UTF-8 temp path")];
    let (child, addr) = start(None, &args);
    let created = send(&addr, "POST", "/v1/map", WIDE_SESSION);
    assert!(created.contains(r#""done":false"#), "{created}");
    stop(child);

    // The restart holds the session as its record; its first resume
    // prepares it on a request runner.
    let (child, addr) = start(None, &args);
    let health = send(&addr, "GET", "/healthz", "");
    let resumed = send(
        &addr,
        "POST",
        "/v1/map",
        r#"{"session":{"id":"wide","rounds":1},"resume":true}"#,
    );
    let names = settled_names(&child, cores());
    stop(child);
    let _ = std::fs::remove_dir_all(&state);
    assert!(health.contains(r#""sessions_recovered":1"#), "{health}");
    assert!(resumed.contains(r#""id":"wide""#), "{resumed}");
    assert!(resumed.contains(r#""rounds":2"#), "{resumed}");
    assert_one_count(&names, cores(), "after resuming a recovered wide session");
}
