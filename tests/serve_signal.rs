//! `nanoxbar serve` as a process: SIGTERM drains it to exit status 0 even
//! when nobody reads its stdout any more.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn serve_drains_on_sigterm_with_stdout_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nanoxbar"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start nanoxbar serve");
    // Read the start-up banner through its last line, then close the
    // reader: every later write to stdout fails with a broken pipe.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    while !line.starts_with("endpoints:") {
        line.clear();
        let read = stdout.read_line(&mut line).expect("read the banner");
        assert!(read > 0, "serve closed stdout before its banner ended");
    }
    drop(stdout);

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the server") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve did not exit within 30 s of SIGTERM");
        }
        thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited with {status} after SIGTERM");
}
