//! The runner rules of [`Inbox::serve`]: a lone scope on a runner with an
//! idle sibling fans out, a runner waiting inside a scope never starts an
//! inbox item, and a runner that exits leaves the registry.
//!
//! Every wait here has a deadline, so a broken rule fails its test
//! instead of hanging it. The tests count registered runners, so they run
//! one at a time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use nanoxbar_par::{self as par, Inbox};

/// How long any step may take before its test fails.
const DEADLINE: Duration = Duration::from_secs(10);

/// An inbox item: work to run on whichever runner takes it.
type Item = Box<dyn FnOnce() + Send>;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Polls `done` until it holds or the deadline passes.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let until = Instant::now() + DEADLINE;
    while !done() {
        assert!(Instant::now() < until, "timed out waiting until {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Starts `n` threads serving `inbox` and waits until each is registered.
fn start_runners(inbox: &Arc<Inbox<Item>>, n: usize) -> Vec<JoinHandle<()>> {
    let before = par::runners();
    let handles = (0..n)
        .map(|_| {
            let inbox = inbox.clone();
            thread::spawn(move || inbox.serve(|item| item()))
        })
        .collect();
    eventually("the runners registered", || par::runners() >= before + n);
    handles
}

/// Closes `inbox` and joins its runners, failing at the deadline.
fn stop(inbox: &Inbox<Item>, runners: Vec<JoinHandle<()>>) -> Vec<thread::Result<()>> {
    inbox.close();
    eventually("the runners returned", || {
        runners.iter().all(JoinHandle::is_finished)
    });
    runners.into_iter().map(JoinHandle::join).collect()
}

fn push(inbox: &Inbox<Item>, item: impl FnOnce() + Send + 'static) {
    assert!(
        inbox.push(Box::new(item)).is_ok(),
        "the inbox took the item"
    );
}

#[test]
fn a_lone_scope_fans_out_to_an_idle_sibling() {
    let _serial = serial();
    par::set_threads(2);
    let inbox = Arc::new(Inbox::new(4, |_| {}));
    let runners = start_runners(&inbox, 2);
    let (done, finished) = mpsc::channel();
    push(&inbox, move || {
        // Both tasks must be running at once to pass the barrier: the
        // runner took one of its own, so its idle sibling stole the other.
        let barrier = Barrier::new(2);
        par::scope(|s| {
            for _ in 0..2 {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                });
            }
        });
        done.send(()).expect("the test is waiting");
    });
    finished
        .recv_timeout(DEADLINE)
        .expect("the idle sibling stole a task and met the barrier");
    assert!(stop(&inbox, runners).iter().all(Result::is_ok));
}

#[test]
fn a_runner_inside_a_scope_never_starts_an_inbox_item() {
    let _serial = serial();
    par::set_threads(2);
    let inbox: Arc<Inbox<Item>> = Arc::new(Inbox::new(4, |_| {}));
    let runners = start_runners(&inbox, 2);
    // Where the second item ran: on the first item's thread while its
    // scope was still open is what the rule forbids.
    let (ran, second_ran) = mpsc::channel::<bool>();
    let first_inbox = inbox.clone();
    push(&inbox, move || {
        let first = thread::current().id();
        let scope_open = Arc::new(AtomicBool::new(true));
        let (stolen, was_stolen) = mpsc::channel();
        let (started, second_started) = mpsc::channel::<()>();
        par::scope(|s| {
            s.spawn(move || {
                stolen.send(()).expect("the scope is waiting");
                // Hold the sibling until the second item starts anywhere,
                // or long enough that a runner waiting in this scope
                // would have taken it.
                let _ = second_started.recv_timeout(Duration::from_millis(300));
            });
            was_stolen
                .recv_timeout(DEADLINE)
                .expect("the idle sibling stole the task");
            // Queue the second item now, so this runner finds it while it
            // waits for the stolen task in `scope`.
            let open = scope_open.clone();
            push(&first_inbox, move || {
                let _ = started.send(());
                let nested = thread::current().id() == first && open.load(Ordering::SeqCst);
                ran.send(nested).expect("the test is waiting");
            });
        });
        scope_open.store(false, Ordering::SeqCst);
    });
    let nested = second_ran
        .recv_timeout(DEADLINE)
        .expect("the second item ran");
    assert!(
        !nested,
        "a runner waiting inside a scope took an inbox item"
    );
    assert!(stop(&inbox, runners).iter().all(Result::is_ok));
}

#[test]
fn a_runner_that_exits_leaves_the_registry() {
    let _serial = serial();
    let before = par::runners();
    let inbox = Arc::new(Inbox::new(1, |_| {}));
    let runners = start_runners(&inbox, 1);
    assert_eq!(par::runners(), before + 1);
    assert!(stop(&inbox, runners).iter().all(Result::is_ok));
    assert_eq!(par::runners(), before, "a closed inbox's runner left");

    // A runner whose handler panics leaves too, and the panic surfaces.
    let inbox = Arc::new(Inbox::new(1, |_| {}));
    let runners = start_runners(&inbox, 1);
    push(&inbox, || panic!("handler exploded"));
    eventually("the panicking runner returned", || {
        runners.iter().all(JoinHandle::is_finished)
    });
    assert!(stop(&inbox, runners).iter().all(Result::is_err));
    assert_eq!(par::runners(), before, "a panicked runner left");
}
