//! Index-ordered fan-out over persistent worker threads.
//!
//! The one data-parallel mechanism of the workspace: the board / module /
//! chip walk of the simulated machine, the f64 direct kernels, the
//! diagnostics and the tree traversal all call [`map`] (one task per
//! item) or [`map_range`] (contiguous index chunks).  Both return the
//! results **in index order**: task `k` writes slot `k` of a vector the
//! caller allocated, and the caller reads the slots `0, 1, 2, …` only
//! after every task has finished.  Whatever the caller then does with
//! them — merge block-FP partial forces, add f64 partials, pick the first
//! `Err` — it does in sequential order on its own thread, so the bits of
//! the result cannot depend on which thread ran which task, on the order
//! the tasks completed in, or on how many workers there are.
//!
//! # Scheduling: three rules
//!
//! 1. A fan-out of **≤ 1 item** runs on its caller without taking the
//!    pool (a 1-board array falls through to its board's own fan-out).
//! 2. A fan-out that finds the pool **busy** — it is nested inside a task,
//!    or another thread is fanning out right now — runs sequentially on
//!    its caller.  Nothing ever waits *for* the pool.
//! 3. The caller takes a share of the work and returns only after **every
//!    worker that joined the job has left it**.
//!
//! Workers wait for nothing but the next job and a task never waits for
//! the pool (rule 2), so the caller's wait in rule 3 is for tasks that are
//! already running: no deadlock is possible.  A panicking task is caught,
//! the indices not yet claimed are dropped, and the panic is resumed on
//! the caller once rule 3 holds — the pool stays usable.
//!
//! # Workers
//!
//! `available_parallelism() − 1` of them at most (the caller is the last
//! thread), never more than a job has items to spare, started lazily by
//! the first fan-out that can use them; a process that never fans out over
//! two items never spawns a thread.  `GRAPE6_THREADS=<n>`, read once,
//! overrides the total thread count (`1` = no workers, everything runs on
//! the caller).  Workers live as long as the process and are not joined;
//! they run every task under `catch_unwind`, so none can die with a panic
//! nobody sees.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle worker polls for the next job before it parks on the
/// condvar: a little over two full chip passes (`chip.pass.full_ns` ≈
/// 170 µs for 48 i × 256 j).  The passes of one engine call follow each
/// other within a few µs (the caller's reduction) and the host work between
/// two calls of a blockstep loop is shorter than a pass, so inside a burst
/// the worker is still polling when the next pass is published and the
/// hand-off costs a cache line.  A parked worker costs the publisher a
/// futex wake (≈ 10 µs on the reference VM) and joins too late to help a
/// pass shorter than ≈ 100 µs, so parking after every pass would forfeit
/// the small-pass workloads (EXPERIMENTS.md "PR 23").  A gap of more than
/// two passes means the burst is over; the core is handed back.
const SPIN: Duration = Duration::from_micros(400);

/// Worker stack size.  The deepest task is a chip pass (lane registers
/// and per-chunk scratch, a few KiB); 256 KiB leaves two orders of
/// magnitude for debug builds and keeps the reservation small.
const WORKER_STACK: usize = 256 * 1024;

/// Indices per task in [`map_range`]: large enough that claiming a chunk
/// (one contended atomic update, two slots) is noise beside 16 items of
/// ≥ 1 µs each, small enough that N = 513 still splits 33 ways.
const CHUNK: usize = 16;

/// `f(k, item)` for every item, results in item order.  See the module
/// docs for the schedule; `f` runs exactly once per item.
pub fn map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool::new(worker_limit(
            std::env::var("GRAPE6_THREADS").ok().as_deref(),
            cores,
        ))
    })
    .map(items, f)
}

/// `f(k)` for every `k` in `0..n`, results in index order; tasks are
/// contiguous chunks of indices, for items too cheap to claim one by one.
pub fn map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunks = (0..n).step_by(CHUNK).map(|a| a..(a + CHUNK).min(n));
    let parts = map(chunks, |_, chunk| chunk.map(&f).collect::<Vec<R>>());
    parts.into_iter().flatten().collect()
}

/// Workers allowed beside the caller: `GRAPE6_THREADS − 1` if the variable
/// holds a positive integer, else `cores − 1`.
fn worker_limit(env: Option<&str>, cores: usize) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(cores)
        - 1
}

/// One fan-out in flight.  Lives on the caller's stack.
struct Job<'a> {
    task: &'a (dyn Fn(usize) + Sync),
    /// The unclaimed indices `lo..hi`, packed `lo << 32 | hi`.  The caller
    /// claims from the front and workers from the back, so from one pass
    /// to the next an item tends to stay on the thread — cache, malloc
    /// arena — that ran it last, while the meeting point still moves with
    /// the load.
    span: AtomicU64,
    /// First panic a task raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claim indices — the lowest left if `front`, else the highest — and
    /// run them until none are left.
    fn work(&self, front: bool) {
        const HI: u64 = u32::MAX as u64;
        // Relaxed: a claim publishes nothing, it only has to hand every
        // index out once; items and results travel through the slots.
        while let Ok(span) = self
            .span
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s >> 32 < s & HI).then(|| if front { s + (1 << 32) } else { s - 1 })
            })
        {
            let k = if front { span >> 32 } else { (span & HI) - 1 } as usize;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(k))) {
                // Drain: no index is handed out after a panic.
                self.span.store(0, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

struct State {
    /// The open job; `Some` exactly while workers may still join it.
    job: Option<&'static Job<'static>>,
    spawned: usize,
    parked: usize,
}

struct Pool {
    limit: usize,
    /// A caller owns the pool (rule 2).
    busy: AtomicBool,
    state: Mutex<State>,
    wake: Condvar,
    /// Bumped (under `state`) with every published job.  Idle workers
    /// poll it without the lock; it only tells them to go and look — the
    /// job itself is read under the lock.
    epoch: AtomicU64,
    /// Workers inside the open job: incremented under `state` while
    /// `State::job` is `Some`, decremented (Release) after the worker's
    /// last use of the job; the caller's Acquire load of 0 therefore
    /// happens after every such use.
    active: AtomicUsize,
}

/// Every update of the guarded data is a single field store and nothing
/// that can panic runs under these locks, so a poisoned guard is still
/// valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resets [`Pool::busy`] when the owning fan-out ends, unwinding or not.
struct Owner<'p>(&'p Pool);

impl Drop for Owner<'_> {
    fn drop(&mut self) {
        self.0.busy.store(false, Ordering::Release);
    }
}

/// Closes the open job and waits until every worker has left it (rule 3).
struct Close<'p>(&'p Pool);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).job = None;
        // Bounded by the task the slowest worker is in.  A few µs of
        // spinning cover a worker that is about to finish on another core;
        // after that the core is offered to whoever can use it, in case
        // that is the worker.
        let mut spins = 0u32;
        while self.0.active.load(Ordering::Acquire) != 0 {
            if spins < 128 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Pool {
    fn new(limit: usize) -> Self {
        Self {
            limit,
            busy: AtomicBool::new(false),
            state: Mutex::new(State {
                job: None,
                spawned: 0,
                parked: 0,
            }),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        }
    }

    fn map<I, R, F>(&'static self, items: I, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        R: Send,
        F: Fn(usize, I::Item) -> R + Sync,
    {
        let items = items.into_iter();
        let n = items.len();
        // Rules 1 and 2.  The plain load keeps nested calls, which always
        // find the pool busy, from bouncing the flag's cache line between
        // cores; Acquire pairs with the Release in `Owner::drop`.  (More
        // items than `Job::span` can count also stay on the caller.)
        if n <= 1
            || u32::try_from(n).is_err()
            || self.limit == 0
            || self.busy.load(Ordering::Relaxed)
            || self.busy.swap(true, Ordering::Acquire)
        {
            return items.enumerate().map(|(k, item)| f(k, item)).collect();
        }
        let owner = Owner(self);
        // Slot k of `ins` holds item k until its task takes it; slot k of
        // `outs` receives that task's result.
        let ins: Vec<Mutex<Option<I::Item>>> = items.map(|item| Mutex::new(Some(item))).collect();
        let outs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(owner, n, &|k| {
            let item = lock(&ins[k]).take().expect("an index is claimed once");
            let out = f(k, item);
            *lock(&outs[k]) = Some(out);
        });
        outs.into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("run returns only after every index ran")
            })
            .collect()
    }

    /// Run `task(k)` once for every `k < n` on the caller and the workers.
    fn run(&'static self, owner: Owner<'_>, n: usize, task: &(dyn Fn(usize) + Sync)) {
        let job = Job {
            task,
            span: AtomicU64::new(n as u64),
            panic: Mutex::new(None),
        };
        {
            let _close = Close(self);
            // SAFETY: the transmute only lengthens lifetimes, so what must
            // hold is that no worker touches `job` (or `task`, which it
            // borrows) once this function has returned.  A worker gets the
            // reference in one place, `next_job`, under the `state` lock
            // while `State::job` is `Some`, and counts itself into `active`
            // in that same critical section; it uses the reference only
            // inside `Job::work` and decrements `active` after `work`
            // returns.  `_close` is dropped before `job` on every path out
            // of this block, unwinding included: it takes the lock, sets
            // `State::job = None` — after which nobody can join — and then
            // waits for `active == 0`.  Every worker that ever held the
            // reference has by then finished with it (Release / Acquire on
            // `active`), which is the `std::thread::scope` argument.
            let shared = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
            let parked = {
                let mut st = lock(&self.state);
                self.grow(&mut st, n - 1);
                st.job = Some(shared);
                self.epoch.fetch_add(1, Ordering::Release);
                st.parked
            };
            if parked > 0 {
                self.wake.notify_all();
            }
            job.work(true);
        }
        drop(owner);
        if let Some(payload) = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
    }

    /// Start workers until there are `want` (at most `limit`).  A spawn
    /// the OS refuses is not an error: the job runs on the threads there
    /// are, and the next job asks again.
    fn grow(&'static self, st: &mut State, want: usize) {
        while st.spawned < want.min(self.limit) {
            let spawned = std::thread::Builder::new()
                .name("grape6-fanout".into())
                .stack_size(WORKER_STACK)
                .spawn(move || self.worker());
            if spawned.is_err() {
                return;
            }
            st.spawned += 1;
        }
    }

    fn worker(&'static self) -> ! {
        let mut seen = 0;
        loop {
            self.next_job(&mut seen).work(false);
            self.active.fetch_sub(1, Ordering::Release);
        }
    }

    /// Wait — polling for [`SPIN`], then parked — for a job published
    /// after epoch `seen`, and join it.
    fn next_job(&self, seen: &mut u64) -> &'static Job<'static> {
        loop {
            // Poll politely: `yield_now` returns at once on a core this
            // worker has to itself, and hands the core over if the thread
            // that will publish the next job is waiting for it — when the
            // host has fewer free cores than the pool has threads, a pure
            // spin would burn exactly the time the caller needs.
            let idle_since = Instant::now();
            while self.epoch.load(Ordering::Acquire) == *seen && idle_since.elapsed() < SPIN {
                std::thread::yield_now();
            }
            let mut st = lock(&self.state);
            // `epoch` moves only under this lock, so checking it here and
            // waiting in the same critical section cannot miss a wake-up.
            while self.epoch.load(Ordering::Acquire) == *seen {
                st.parked += 1;
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.parked -= 1;
            }
            *seen = self.epoch.load(Ordering::Acquire);
            // `None`: the job that bumped the epoch is already closed.
            if let Some(job) = st.job {
                self.active.fetch_add(1, Ordering::Relaxed);
                return job;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// A pool of its own, so the test decides who else uses it.
    fn pool(limit: usize) -> &'static Pool {
        Box::leak(Box::new(Pool::new(limit)))
    }

    fn spawned(p: &Pool) -> usize {
        lock(&p.state).spawned
    }

    #[test]
    fn results_come_back_in_index_order_whatever_finishes_first() {
        let p = pool(3);
        let n = 8usize;
        // Task k sleeps (n − k) ms: completion order is the reverse of
        // index order on every thread that takes more than one.
        let out = p.map(0..n, |k, v| {
            std::thread::sleep(Duration::from_millis((n - v) as u64));
            (k, v * v)
        });
        assert_eq!(out, (0..n).map(|v| (v, v * v)).collect::<Vec<_>>());
        assert_eq!(spawned(p), 3);
        // Mutable items, one task each, every one visited exactly once.
        let mut cells = vec![0u32; 5];
        let idx = p.map(cells.iter_mut(), |k, c| {
            *c += 1 + k as u32;
            k
        });
        assert_eq!(idx, [0, 1, 2, 3, 4]);
        assert_eq!(cells, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn caller_claims_from_the_front_and_workers_from_the_back() {
        for (front, want) in [(true, [0, 1, 2, 3, 4]), (false, [4, 3, 2, 1, 0])] {
            let order = Mutex::new(Vec::new());
            let task = |k: usize| lock(&order).push(k);
            let job = Job {
                task: &task,
                span: AtomicU64::new(5),
                panic: Mutex::new(None),
            };
            job.work(front);
            job.work(!front);
            assert_eq!(*lock(&order), want);
        }
    }

    #[test]
    fn nested_fan_out_runs_on_the_thread_of_its_task() {
        let p = pool(2);
        let out = p.map(0..4usize, |_, a| {
            let here = std::thread::current().id();
            let inner: Vec<(ThreadId, usize)> =
                p.map(0..3usize, |_, b| (std::thread::current().id(), 10 * a + b));
            assert!(inner.iter().all(|&(id, _)| id == here));
            // … and finding the pool busy must leave it the outer job's.
            assert!(p.busy.load(Ordering::Acquire));
            inner.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        let want: Vec<Vec<usize>> = (0..4)
            .map(|a| (0..3).map(|b| 10 * a + b).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn two_callers_at_once_both_finish_and_one_runs_inline() {
        let p = pool(1);
        // Both callers are inside a task at the same moment (the barrier
        // needs them both), so exactly one of them owned the pool and the
        // other found it busy.
        let meet = Barrier::new(2);
        let call = |tag: usize| {
            let me = std::thread::current().id();
            let out = p.map(0..6usize, |k, v| {
                if k == 0 {
                    meet.wait();
                }
                (std::thread::current().id(), tag + v)
            });
            let vals: Vec<usize> = out.iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, (0..6).map(|v| tag + v).collect::<Vec<_>>());
            out.iter().all(|&(id, _)| id == me)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| call(100));
            let b = s.spawn(|| call(200));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a || b, "one caller must have run everything itself");
        assert!(spawned(p) <= 1);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_pool_survives() {
        let p = pool(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            p.map(0..8usize, |_, v| {
                if v == 3 {
                    panic!("task three");
                }
                v
            })
        }))
        .expect_err("the panic must reach the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"task three"));
        assert!(!p.busy.load(Ordering::Acquire));
        assert_eq!(p.active.load(Ordering::Acquire), 0);
        assert_eq!(p.map(0..8usize, |_, v| v + 1), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn one_thread_means_no_worker() {
        assert_eq!(worker_limit(Some("1"), 8), 0);
        assert_eq!(worker_limit(Some("2"), 8), 1);
        assert_eq!(worker_limit(Some(" 4 "), 1), 3);
        assert_eq!(worker_limit(None, 8), 7);
        assert_eq!(worker_limit(None, 1), 0);
        // Not a positive integer: the variable is ignored.
        assert_eq!(worker_limit(Some("0"), 2), 1);
        assert_eq!(worker_limit(Some("many"), 2), 1);
        let p = pool(0);
        let me = std::thread::current().id();
        let ids = p.map(0..16, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
        assert_eq!(spawned(p), 0);
        // Neither does a fan-out of one item on a pool that has workers
        // to give, and workers are capped at the items to spare.
        let p = pool(4);
        assert_eq!(p.map(0..1, |k, _| k), [0]);
        assert_eq!(spawned(p), 0);
        assert_eq!(p.map(0..3, |k, _| k), [0, 1, 2]);
        assert_eq!(spawned(p), 2);
    }

    #[test]
    fn chunked_range_is_in_index_order_with_a_ragged_tail() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3] {
            assert_eq!(
                map_range(n, |k| 3 * k),
                (0..n).map(|k| 3 * k).collect::<Vec<_>>()
            );
        }
    }
}
