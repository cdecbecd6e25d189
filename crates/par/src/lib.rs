//! # nanoxbar-par
//!
//! A dependency-free, process-global **work-stealing thread pool** with
//! structured-concurrency primitives ([`scope`], [`par_chunks`],
//! [`par_chunks_mut`], [`par_map_reduce`]) built purely on `std`
//! (`std::thread`, [`Mutex`]/[`Condvar`], atomics).
//!
//! ## Why vendored
//!
//! The build environment has **no crates.io access** (see ROADMAP:
//! vendored stand-ins), so the workspace cannot depend on `rayon`. This
//! crate implements the small slice of that design space the word-parallel
//! engines need: a lazily-started global pool, scoped borrowing spawns,
//! and deterministic chunked map/reduce helpers. It is a first-class
//! workspace crate rather than a `vendor/` stand-in because it exposes its
//! own API, not a re-implementation of an upstream one.
//!
//! ## Thread count
//!
//! The pool size is decided once, at first use, from the
//! **`NANOXBAR_THREADS`** environment variable; when unset (or unparsable
//! or `0`) it defaults to [`std::thread::available_parallelism`]. Tests
//! and benchmarks may override it at runtime with [`set_threads`].
//! With an effective count of 1 every primitive runs inline on the calling
//! thread — no worker threads are ever started — which is the serial
//! fallback path CI exercises via `NANOXBAR_THREADS=1`.
//!
//! A width of `n` means `n` threads can run one scope's jobs: the thread
//! that opens the scope (it helps while it waits) and `n - 1` other
//! **runners**. A runner is any registered thread: the pool's own
//! `nanoxbar-par-*` workers, and every thread serving an [`Inbox`]. A
//! scope opened outside the registry asks for `n - 1` runners; one opened
//! by an inbox runner asks for `n`, because its caller is one of them.
//! Inbox runners count, so a server with at least `n` request threads
//! starts no pool worker and has one set of compute threads, and one
//! with fewer gets pool workers for the rest of the width. The pool's
//! own workers never exit; an inbox runner leaves the registry when its
//! [`Inbox::serve`] returns.
//!
//! ## Determinism
//!
//! All primitives are **deterministic by construction** regardless of the
//! thread count or scheduling: chunks are fixed slices of the input,
//! per-chunk results land in per-chunk slots, and reductions fold the
//! slots in chunk order on the calling thread. Callers must only supply
//! pure per-chunk work (the workspace's equivalence suites verify
//! bit-identical results across `NANOXBAR_THREADS` ∈ {1, 2, 8}).
//!
//! ## Work stealing
//!
//! Each runner owns a deque: jobs spawned *from* a runner push onto its
//! own deque, and it pops them back itself from the hot (LIFO) end —
//! the help-first rule of Blumofe & Leiserson (JACM 1999): a busy runner
//! runs its own tasks, and only an idle one steals. At the top of its
//! loop a runner takes, in order: a job of its own, the next item of its
//! [`Inbox`], a job from the global injector (jobs submitted from
//! threads outside the pool), and a job stolen from the cold (FIFO) end
//! of a sibling's deque. Only then does it park. A thread blocked in
//! [`scope`] helps run its own, injected and stolen jobs instead of
//! sleeping, so nested scopes cannot deadlock the pool — but it never
//! takes an inbox item, so one request never runs nested inside another.
//!
//! Runners park one at a time on their own thread handle, for jobs and
//! inbox items alike. A push wakes a parked runner only when the pool
//! counts one, so a busy pool spawns and pushes without a syscall.
//!
//! ## Example
//!
//! ```
//! let mut squares = vec![0u64; 1000];
//! nanoxbar_par::par_chunks_mut(&mut squares, 64, |ci, chunk| {
//!     for (k, x) in chunk.iter_mut().enumerate() {
//!         let i = (ci * 64 + k) as u64;
//!         *x = i * i;
//!     }
//! });
//! assert_eq!(squares[999], 999 * 999);
//!
//! let total = nanoxbar_par::par_map_reduce(
//!     &squares,
//!     128,
//!     |_ci, chunk| chunk.iter().sum::<u64>(),
//!     |a, b| a + b,
//! );
//! assert_eq!(total, Some(squares.iter().sum()));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::Thread;

/// Jobs executed by the pool (including inline serial execution).
static STAT_TASKS: AtomicU64 = AtomicU64::new(0);
/// Jobs stolen from a sibling runner's deque.
static STAT_STEALS: AtomicU64 = AtomicU64::new(0);
/// Jobs popped from the global injector (submitted from outside the pool).
static STAT_INJECTOR_POPS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool's lifetime counters (process-global, relaxed —
/// cheap enough to leave on permanently; intended for `/metrics` exports
/// and load generators, not for synchronisation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs the pool has executed, counting inline serial execution when
    /// the effective thread count is 1.
    pub tasks_executed: u64,
    /// Jobs a runner stole from a sibling's deque (cold FIFO end).
    pub steals: u64,
    /// Jobs popped from the global injector.
    pub injector_pops: u64,
}

/// Reads the pool's lifetime counters. Counters are monotone and
/// process-global; diff two snapshots to measure an interval.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        tasks_executed: STAT_TASKS.load(Ordering::Relaxed),
        steals: STAT_STEALS.load(Ordering::Relaxed),
        injector_pops: STAT_INJECTOR_POPS.load(Ordering::Relaxed),
    }
}

/// Threads registered as runners right now: the pool's own workers plus
/// every thread inside [`Inbox::serve`].
pub fn runners() -> usize {
    Pool::global().shared.runners().len()
}

/// A queued unit of work. Lifetimes are erased by [`Scope::spawn`]; the
/// scope's completion latch guarantees the closure never outlives the
/// borrows it captures.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One registered runner: its stealable deque and its parking slot.
struct Runner {
    jobs: Mutex<VecDeque<Job>>,
    /// Serves an [`Inbox`], as opposed to being one of the pool's own
    /// workers.
    serves_inbox: bool,
    /// Set while the runner is parked or about to park. A waker that
    /// flips it back owns the wake-up and unparks the thread.
    sleeping: AtomicBool,
    /// The runner's thread, recorded before it first parks.
    thread: OnceLock<Thread>,
}

impl Runner {
    fn new(serves_inbox: bool) -> Arc<Runner> {
        Arc::new(Runner {
            jobs: Mutex::new(VecDeque::new()),
            serves_inbox,
            sleeping: AtomicBool::new(false),
            thread: OnceLock::new(),
        })
    }

    /// Wakes the runner if it is parked; `false` if it was not.
    fn wake(&self) -> bool {
        let claimed = self
            .sleeping
            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if claimed {
            self.thread
                .get()
                .expect("a parked runner knows its thread")
                .unpark();
        }
        claimed
    }
}

thread_local! {
    /// The runner registered on this thread, if any.
    static RUNNER: RefCell<Option<Arc<Runner>>> = const { RefCell::new(None) };
}

/// State shared between runners, submitters, and scope waiters.
struct Shared {
    /// Every registered runner. A stealer snapshots the list with one
    /// reference-count bump; registration and exit copy it on write.
    registry: Mutex<Arc<Vec<Arc<Runner>>>>,
    /// Jobs submitted from threads outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Number of queued-but-not-yet-started jobs; guards parking against
    /// lost wakeups (incremented *after* a push, decremented on a
    /// successful pop).
    queued: AtomicUsize,
    /// Runners parked or about to park; a push with none skips the wake.
    sleepers: AtomicUsize,
}

impl Shared {
    fn runners(&self) -> Arc<Vec<Arc<Runner>>> {
        self.registry.lock().expect("registry poisoned").clone()
    }

    /// Enqueues a job: onto the current runner's own deque when called
    /// from inside the pool, onto the global injector otherwise. Wakes a
    /// parked runner only if one is parked.
    fn push(&self, job: Job) {
        let leftover = RUNNER.with(|r| match &*r.borrow() {
            Some(me) => {
                me.jobs.lock().expect("queue poisoned").push_back(job);
                None
            }
            None => Some(job),
        });
        if let Some(job) = leftover {
            self.injector
                .lock()
                .expect("injector poisoned")
                .push_back(job);
        }
        // Pairs with `park`: a runner counts itself a sleeper before it
        // reads `queued`, a pusher bumps `queued` before it reads the
        // sleepers, so at least one of them sees the other.
        self.queued.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.runners().iter().any(|runner| runner.wake());
        }
    }

    /// Pops a job from `me`'s own deque (hot LIFO end).
    fn pop_own(&self, me: &Runner) -> Option<Job> {
        let job = me.jobs.lock().expect("queue poisoned").pop_back()?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        STAT_TASKS.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }

    /// Pops a job that is not `me`'s own: the injector first, then a
    /// steal from the cold FIFO end of a sibling's deque.
    fn pop_other(&self, me: Option<&Arc<Runner>>) -> Option<Job> {
        // Nothing queued anywhere: an idle runner checks this before
        // every park, so spare it a lock per sibling.
        if self.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Some(job) = self.injector.lock().expect("injector poisoned").pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            STAT_TASKS.fetch_add(1, Ordering::Relaxed);
            STAT_INJECTOR_POPS.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        for victim in self.runners().iter() {
            if me.is_some_and(|mine| Arc::ptr_eq(mine, victim)) {
                continue;
            }
            if let Some(job) = victim.jobs.lock().expect("queue poisoned").pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                STAT_TASKS.fetch_add(1, Ordering::Relaxed);
                STAT_STEALS.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Parks `me` until a push or `ready`'s owner wakes it; returns at
    /// once if a job is queued or `ready` holds after `me` counted itself
    /// a sleeper (so neither kind of wakeup can be lost).
    fn park(&self, me: &Runner, ready: impl FnOnce() -> bool) {
        me.thread.get_or_init(std::thread::current);
        me.sleeping.store(true, Ordering::SeqCst);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.queued.load(Ordering::SeqCst) > 0 || ready() {
            me.sleeping.store(false, Ordering::SeqCst);
        }
        while me.sleeping.load(Ordering::SeqCst) {
            std::thread::park();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The loop of every runner: its own jobs, then `take` (the inbox's
    /// next item, run to completion), then the injector and steals, then
    /// park. Returns once `take` reports the inbox closed and drained.
    fn run(&self, me: &Arc<Runner>, mut take: impl FnMut() -> Take, ready: impl Fn() -> bool) {
        loop {
            if let Some(job) = self.pop_own(me) {
                job();
                continue;
            }
            match take() {
                Take::Ran => continue,
                Take::Closed => return,
                Take::Empty => {}
            }
            if let Some(job) = self.pop_other(Some(me)) {
                job();
                continue;
            }
            self.park(me, &ready);
        }
    }
}

/// What a runner found in its inbox at the top of its loop.
enum Take {
    /// It took an item and ran it.
    Ran,
    /// Nothing queued.
    Empty,
    /// Closed, and nothing left to run.
    Closed,
}

/// The process-global pool.
struct Pool {
    shared: Shared,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            shared: Shared {
                registry: Mutex::new(Arc::new(Vec::new())),
                injector: Mutex::new(VecDeque::new()),
                queued: AtomicUsize::new(0),
                sleepers: AtomicUsize::new(0),
            },
        })
    }

    /// Starts pool workers until at least `n` runners are registered.
    /// Inbox runners count, so a process whose request threads cover
    /// `n` starts none.
    fn ensure_workers(&'static self, n: usize) {
        let mut registry = self.shared.registry.lock().expect("registry poisoned");
        while registry.len() < n {
            let me = Runner::new(false);
            Arc::make_mut(&mut registry).push(me.clone());
            let workers = registry.iter().filter(|r| !r.serves_inbox).count();
            let shared = &self.shared;
            std::thread::Builder::new()
                .name(format!("nanoxbar-par-{workers}"))
                .spawn(move || {
                    RUNNER.with(|r| *r.borrow_mut() = Some(me.clone()));
                    shared.run(&me, || Take::Empty, || false);
                })
                .expect("failed to spawn pool worker");
        }
    }

    /// Runs queued jobs until the scope's latch reaches zero, sleeping on
    /// the latch only when nothing is runnable (the remaining jobs are
    /// then executing on other threads). Never takes an inbox item.
    fn wait_scope(&self, data: &ScopeData) {
        let me = RUNNER.with(|r| r.borrow().clone());
        loop {
            {
                let pending = data.pending.lock().expect("latch poisoned");
                if *pending == 0 {
                    return;
                }
            }
            let job = match &me {
                Some(runner) => self.shared.pop_own(runner),
                None => None,
            };
            if let Some(job) = job.or_else(|| self.shared.pop_other(me.as_ref())) {
                job();
                continue;
            }
            let pending = data.pending.lock().expect("latch poisoned");
            if *pending > 0 {
                // Completion decrements under this mutex and notifies, so
                // the wakeup cannot be lost.
                drop(data.done.wait(pending).expect("latch poisoned"));
            }
        }
    }
}

/// A bounded FIFO of request-level items, served by the threads that call
/// [`Inbox::serve`]. Those threads are pool runners: while an item runs,
/// the scopes it opens push onto the serving thread's own deque, and an
/// idle runner steals from it. A runner takes the next item only at the
/// top of its loop, never while it waits inside a [`scope`].
pub struct Inbox<T> {
    state: Mutex<InboxState<T>>,
    depth: usize,
    on_depth: Box<dyn Fn(usize) + Send + Sync>,
}

struct InboxState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// The runners serving this inbox; `push` and `close` wake them.
    runners: Vec<Arc<Runner>>,
}

impl<T> Inbox<T> {
    /// An open inbox holding at most `depth` items (at least 1).
    /// `on_depth` is called with the number of queued items after every
    /// push and take, under the inbox's lock, so a gauge it feeds is
    /// never left stale by a race.
    pub fn new(depth: usize, on_depth: impl Fn(usize) + Send + Sync + 'static) -> Inbox<T> {
        Inbox {
            state: Mutex::new(InboxState {
                items: VecDeque::new(),
                closed: false,
                runners: Vec::new(),
            }),
            depth: depth.max(1),
            on_depth: Box::new(on_depth),
        }
    }

    /// Queues an item and wakes one parked runner of this inbox, if any
    /// is parked. Gives the item back when the inbox is full or closed.
    ///
    /// # Errors
    ///
    /// Returns the item when the inbox holds `depth` items or is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("inbox poisoned");
        if state.items.len() >= self.depth || state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        (self.on_depth)(state.items.len());
        // The runner checks for items under this lock after it counted
        // itself asleep, so either it sees the item or this sees it parked.
        state.runners.iter().any(|runner| runner.wake());
        Ok(())
    }

    /// Refuses further pushes and wakes every runner; they drain what is
    /// queued and then return from [`Inbox::serve`].
    pub fn close(&self) {
        let mut state = self.state.lock().expect("inbox poisoned");
        state.closed = true;
        for runner in &state.runners {
            runner.wake();
        }
    }

    /// Runs the calling thread as a pool runner serving this inbox:
    /// `handle` gets each item in FIFO order, and between items the
    /// thread runs its own jobs and steals from its siblings. Returns
    /// once the inbox is closed and drained; the thread then leaves the
    /// pool's registry.
    ///
    /// # Panics
    ///
    /// Panics if the thread is already a runner, and re-throws a panic
    /// of `handle` (after leaving the registry).
    pub fn serve(&self, mut handle: impl FnMut(T)) {
        let shared = &Pool::global().shared;
        let serving = Serving::enter(shared, self);
        shared.run(
            &serving.me,
            || {
                let mut state = self.lock();
                match state.items.pop_front() {
                    Some(item) => {
                        (self.on_depth)(state.items.len());
                        drop(state);
                        handle(item);
                        Take::Ran
                    }
                    None if state.closed => Take::Closed,
                    None => Take::Empty,
                }
            },
            || {
                let state = self.lock();
                state.closed || !state.items.is_empty()
            },
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InboxState<T>> {
        self.state.lock().expect("inbox poisoned")
    }
}

/// The current thread's membership as a runner of one inbox: registered
/// in the pool and listed by the inbox until dropped, also when the
/// inbox's handler panics.
struct Serving<'a, T> {
    shared: &'static Shared,
    inbox: &'a Inbox<T>,
    me: Arc<Runner>,
}

impl<'a, T> Serving<'a, T> {
    fn enter(shared: &'static Shared, inbox: &'a Inbox<T>) -> Serving<'a, T> {
        let me = Runner::new(true);
        RUNNER.with(|r| {
            let mut slot = r.borrow_mut();
            assert!(slot.is_none(), "this thread is already a pool runner");
            *slot = Some(me.clone());
        });
        let mut registry = shared.registry.lock().expect("registry poisoned");
        Arc::make_mut(&mut registry).push(me.clone());
        drop(registry);
        inbox.lock().runners.push(me.clone());
        Serving { shared, inbox, me }
    }
}

impl<T> Drop for Serving<'_, T> {
    fn drop(&mut self) {
        let others = |runner: &Arc<Runner>| !Arc::ptr_eq(runner, &self.me);
        let mut state = self
            .inbox
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.runners.retain(others);
        drop(state);
        let mut registry = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::make_mut(&mut registry).retain(others);
        drop(registry);
        RUNNER.with(|r| r.borrow_mut().take());
    }
}

/// Effective thread count override; 0 = not yet initialised.
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn threads_from_env() -> usize {
    std::env::var("NANOXBAR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// The effective thread count: `NANOXBAR_THREADS` (or available
/// parallelism) at first use, unless overridden by [`set_threads`].
/// Every parallel primitive splits work assuming this many runners;
/// `1` means strictly inline serial execution.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => {
            let n = threads_from_env();
            // Racing initialisers compute the same value, so a plain
            // store is fine; respect a concurrent set_threads though.
            let _ = THREADS.compare_exchange(0, n, Ordering::SeqCst, Ordering::SeqCst);
            THREADS.load(Ordering::SeqCst)
        }
        n => n,
    }
}

/// Overrides the effective thread count (clamped to ≥ 1). Intended for
/// tests and benchmarks that sweep thread counts; results of the
/// primitives are bit-identical for every value, so concurrent callers
/// are unaffected beyond scheduling. Pool workers start at the next
/// [`scope`], not here, so runners registered meanwhile count.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::SeqCst);
}

/// Deterministic chunk length splitting `len` items into roughly
/// `4 × threads()` chunks of at least `min_chunk` items (and at least 1).
/// Purely advisory — any chunk size yields identical results.
pub fn chunk_len(len: usize, min_chunk: usize) -> usize {
    let target = threads() * 4;
    len.div_ceil(target.max(1)).max(min_chunk).max(1)
}

/// Completion latch + panic slot for one [`scope`].
struct ScopeData {
    /// Spawned-but-unfinished job count.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload from any spawned job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeData {
    fn new() -> Self {
        ScopeData {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("panic slot poisoned");
        slot.get_or_insert(payload);
    }
}

/// A structured-concurrency scope handed to the closure of [`scope`];
/// spawned jobs may borrow anything that outlives the `scope` call.
pub struct Scope<'scope> {
    pool: &'static Pool,
    data: Arc<ScopeData>,
    /// Invariant over `'scope`, like `std::thread::Scope`.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Schedules `f` on the pool (or runs it inline when the pool is
    /// serial). The closure may borrow data outliving the enclosing
    /// [`scope`] call; panics are captured and re-thrown from `scope`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if threads() == 1 {
            STAT_TASKS.fetch_add(1, Ordering::Relaxed);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                self.data.store_panic(payload);
            }
            return;
        }
        *self.data.pending.lock().expect("latch poisoned") += 1;
        let data = self.data.clone();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                data.store_panic(payload);
            }
            let mut pending = data.pending.lock().expect("latch poisoned");
            *pending -= 1;
            if *pending == 0 {
                data.done.notify_all();
            }
        });
        // SAFETY: `scope` does not return before the latch reaches zero
        // (`Pool::wait_scope` runs even when the scope body panics), so
        // the job — and every `'scope` borrow it captures — is consumed
        // strictly within `'scope`. The transmute only erases that
        // lifetime; the layout of `Box<dyn FnOnce() + Send>` is lifetime-
        // independent.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool.shared.push(job);
    }
}

/// Runs `op` with a [`Scope`] on the global pool and blocks until every
/// spawned job has finished (helping to execute queued jobs while
/// waiting). The first panic from `op` or any job is resumed here after
/// all jobs complete.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let pool = Pool::global();
    if threads() > 1 {
        // The caller helps while it waits, so it needs n - 1 other
        // runners. An inbox runner is itself registered, so it asks for
        // n runners, counting itself.
        let caller_serves = RUNNER.with(|r| r.borrow().as_ref().is_some_and(|me| me.serves_inbox));
        pool.ensure_workers(threads() - 1 + usize::from(caller_serves));
    }
    let s = Scope {
        pool,
        data: Arc::new(ScopeData::new()),
        _marker: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| op(&s)));
    pool.wait_scope(&s.data);
    let job_panic = s.data.panic.lock().expect("panic slot poisoned").take();
    match (result, job_panic) {
        (Ok(value), None) => value,
        (_, Some(payload)) | (Err(payload), None) => panic::resume_unwind(payload),
    }
}

/// Calls `f(chunk_index, chunk)` on every `chunk`-sized slice of `data`,
/// chunks running in parallel. Equivalent to the serial
/// `data.chunks(chunk).enumerate().for_each(...)` — and literally that
/// when the pool is serial or there is only one chunk.
///
/// # Panics
///
/// Panics if `chunk == 0`, or re-throws the first panic from `f`.
pub fn par_chunks<T, F>(data: &[T], chunk: usize, f: F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if threads() == 1 || data.len() <= chunk {
        for (i, ch) in data.chunks(chunk).enumerate() {
            f(i, ch);
        }
        return;
    }
    scope(|s| {
        for (i, ch) in data.chunks(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i, ch));
        }
    });
}

/// Calls `f(chunk_index, chunk)` on every `chunk`-sized mutable slice of
/// `data`, chunks running in parallel on disjoint slices.
///
/// # Panics
///
/// Panics if `chunk == 0`, or re-throws the first panic from `f`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if threads() == 1 || data.len() <= chunk {
        for (i, ch) in data.chunks_mut(chunk).enumerate() {
            f(i, ch);
        }
        return;
    }
    scope(|s| {
        for (i, ch) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i, ch));
        }
    });
}

/// Maps every `chunk`-sized slice of `items` through `map` in parallel,
/// then folds the per-chunk results **in chunk order** on the calling
/// thread — so the result is identical for every thread count whenever
/// `map` is pure (no associativity/commutativity demands on `reduce`).
/// Returns `None` iff `items` is empty.
///
/// # Panics
///
/// Panics if `chunk == 0`, or re-throws the first panic from `map`.
pub fn par_map_reduce<T, U, M, R>(items: &[T], chunk: usize, map: M, reduce: R) -> Option<U>
where
    T: Sync,
    U: Send,
    M: Fn(usize, &[T]) -> U + Sync,
    R: Fn(U, U) -> U,
{
    assert!(chunk > 0, "chunk size must be positive");
    if items.is_empty() {
        return None;
    }
    let n_chunks = items.len().div_ceil(chunk);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    if threads() == 1 || n_chunks == 1 {
        for (i, ch) in items.chunks(chunk).enumerate() {
            slots[i] = Some(map(i, ch));
        }
    } else {
        scope(|s| {
            for (slot, (i, ch)) in slots.iter_mut().zip(items.chunks(chunk).enumerate()) {
                let map = &map;
                s.spawn(move || *slot = Some(map(i, ch)));
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("all chunks completed"))
        .reduce(reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_len_is_sane() {
        assert_eq!(chunk_len(0, 1), 1);
        assert!(chunk_len(1000, 1) >= 1);
        assert_eq!(chunk_len(10, 64), 64);
    }

    #[test]
    fn serial_and_parallel_results_agree() {
        let data: Vec<u64> = (0..10_000).collect();
        let expect: u64 = data.iter().map(|x| x * 3).sum();
        for t in [1usize, 2, 8] {
            set_threads(t);
            let got = par_map_reduce(
                &data,
                97,
                |_i, ch| ch.iter().map(|x| x * 3).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(got, Some(expect), "threads={t}");
        }
        set_threads(1);
    }

    #[test]
    fn pool_stats_count_executed_jobs() {
        let before = pool_stats();
        set_threads(2);
        let data: Vec<u64> = (0..1000).collect();
        let total = par_map_reduce(&data, 10, |_i, ch| ch.iter().sum::<u64>(), |a, b| a + b);
        assert_eq!(total, Some(data.iter().sum()));
        let after = pool_stats();
        // 100 chunks were scheduled; every one of them executed somewhere
        // (worker queue, injector, or stolen) and was counted.
        assert!(
            after.tasks_executed >= before.tasks_executed + 100,
            "{before:?} -> {after:?}"
        );
        assert!(after.steals >= before.steals);
        assert!(after.injector_pops >= before.injector_pops);
        set_threads(1);
    }

    #[test]
    fn scope_spawn_counts_every_job() {
        set_threads(4);
        let counter = AtomicU64::new(0);
        scope(|s| {
            for i in 0..100u64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 99 * 100 / 2);
        set_threads(1);
    }
}
