//! How many threads a scope opened by an inbox runner gets: the pool
//! width, counting the runner itself. Pool workers never exit, so this
//! runs in its own test binary, where no other test has started one.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use nanoxbar_par::{self as par, Inbox};

/// How long any step may take before the test fails.
const DEADLINE: Duration = Duration::from_secs(10);

type Item = Box<dyn FnOnce() + Send>;

/// Polls `done` until it holds or the deadline passes.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let until = Instant::now() + DEADLINE;
    while !done() {
        assert!(Instant::now() < until, "timed out waiting until {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Starts `n` threads serving a fresh inbox and waits until each is
/// registered.
fn serve(n: usize) -> (Arc<Inbox<Item>>, Vec<JoinHandle<()>>) {
    let inbox: Arc<Inbox<Item>> = Arc::new(Inbox::new(4, |_| {}));
    let before = par::runners();
    let handles = (0..n)
        .map(|_| {
            let inbox = inbox.clone();
            thread::spawn(move || inbox.serve(|item| item()))
        })
        .collect();
    eventually("the runners registered", || par::runners() >= before + n);
    (inbox, handles)
}

/// Runs a scope of two tasks that must run at once on one of `inbox`'s
/// runners, and returns the registered runner count seen inside it.
fn rendezvous_on(inbox: &Inbox<Item>) -> usize {
    let (done, finished) = mpsc::channel();
    let item: Item = Box::new(move || {
        let barrier = Barrier::new(2);
        par::scope(|s| {
            for _ in 0..2 {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                });
            }
        });
        done.send(par::runners()).expect("the test is waiting");
    });
    assert!(inbox.push(item).is_ok(), "the inbox took the item");
    finished
        .recv_timeout(DEADLINE)
        .expect("a second thread ran the other task and met the barrier")
}

fn stop(inbox: &Inbox<Item>, runners: Vec<JoinHandle<()>>) {
    inbox.close();
    eventually("the runners returned", || {
        runners.iter().all(JoinHandle::is_finished)
    });
    for runner in runners {
        runner.join().expect("the runner did not panic");
    }
}

#[test]
fn an_inbox_runner_counts_itself_toward_the_width() {
    par::set_threads(2);

    // Two inbox runners cover a width of 2: no pool worker starts.
    let (inbox, runners) = serve(2);
    assert_eq!(rendezvous_on(&inbox), 2, "no pool worker started");
    stop(&inbox, runners);
    assert_eq!(par::runners(), 0);

    // A lone inbox runner gets one pool worker, so its scope still runs
    // two tasks at once.
    let (inbox, runners) = serve(1);
    assert_eq!(rendezvous_on(&inbox), 2, "one pool worker started");
    stop(&inbox, runners);
    assert_eq!(par::runners(), 1, "the pool worker stays");
}
