//! The workspace's single worker pool: per-worker queues with work
//! stealing, shared by every parallel consumer in the tree.
//!
//! Two frontends drive one scheduler ([`StealQueues`]):
//!
//! * [`WorkerPool`] — persistent threads for long-lived engines (the
//!   fleet runner submits one batch of shard ticks per virtual tick;
//!   respawning threads per tick would dwarf the work). Tasks are
//!   `'static` closures; [`WorkerPool::run_batch`] blocks until the
//!   whole batch finished and returns results in submission order.
//! * [`par_map`] — a scoped one-shot map for borrowing closures (figure
//!   sweeps map over hundreds of independent simulations). Threads live
//!   for the call only, so `f` may borrow from the caller's stack.
//!
//! Work items are deterministic simulations, so parallel and serial
//! execution produce identical numbers; stealing only changes *which
//! thread* runs an item, never its result.

use crate::sync::{lock, wait};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Per-worker FIFO queues with stealing: a worker drains its own queue
/// first and, when empty, takes work from the *back* of a sibling's
/// queue (classic steal-from-the-cold-end discipline, which keeps the
/// owner's cache-warm front intact).
///
/// Queue slots hold whole items; a poisoned mutex therefore carries no
/// torn state and poison recovery is safe throughout.
pub struct StealQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    next: AtomicUsize,
    steals: AtomicU64,
}

impl<T> StealQueues<T> {
    /// `nr` empty queues (at least one).
    pub fn new(nr: usize) -> StealQueues<T> {
        let nr = nr.max(1);
        StealQueues {
            queues: (0..nr).map(|_| Mutex::new(VecDeque::new())).collect(),
            next: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Push an item onto the next queue, round-robin, so a batch starts
    /// out evenly spread and stealing only handles imbalance.
    pub fn push(&self, item: T) {
        // ordering: Relaxed — the counter only spreads items across
        // queues; the queue mutex publishes the item itself.
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        lock(&self.queues[i]).push_back(item);
    }

    /// Pop work for `worker`: its own queue's front, else steal from the
    /// back of the first non-empty sibling (scanning from `worker + 1`
    /// so contention spreads).
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.queues.len();
        let own = worker % n;
        if let Some(item) = lock(&self.queues[own]).pop_front() {
            return Some(item);
        }
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(item) = lock(&self.queues[victim]).pop_back() {
                // ordering: Relaxed — a statistics counter, read only
                // after the batch completes.
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(item);
            }
        }
        None
    }

    /// Steals observed so far.
    pub fn steals(&self) -> u64 {
        // ordering: Relaxed — statistics only.
        self.steals.load(Ordering::Relaxed)
    }
}

/// Scheduler statistics of a [`WorkerPool`], for fleet summaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed per worker, by worker index.
    pub executed: Vec<u64>,
    /// Tasks a worker took from a sibling's queue.
    pub steals: u64,
}

type Task = Box<dyn FnOnce() + Send>;

struct PoolShared {
    queues: StealQueues<Task>,
    /// Signals "work may be available" to sleeping workers; the guarded
    /// counter increments per push so a wake-up between check and wait
    /// is never lost.
    signal: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
    executed: Vec<AtomicU64>,
}

impl PoolShared {
    fn notify(&self, all: bool) {
        *lock(&self.signal) += 1;
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }
}

/// A shared pool of persistent worker threads draining [`StealQueues`].
///
/// Construction spawns the threads once; [`run_batch`](Self::run_batch)
/// distributes a batch and blocks until every task ran. Dropping the
/// pool shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `nr` workers (0 = [`default_parallelism`]).
    ///
    /// [`default_parallelism`]: Self::default_parallelism
    pub fn new(nr: usize) -> WorkerPool {
        let nr = if nr == 0 { Self::default_parallelism() } else { nr };
        let shared = Arc::new(PoolShared {
            queues: StealQueues::new(nr),
            signal: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executed: (0..nr).map(|_| AtomicU64::new(0)).collect(),
        });
        let workers = (0..nr)
            .map(|id| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(id, &shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The machine's available parallelism (at least 1).
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }

    /// Number of worker threads.
    pub fn nr_workers(&self) -> usize {
        self.workers.len()
    }

    /// Scheduler statistics so far (cumulative over all batches).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self
                .shared
                .executed
                .iter()
                // ordering: Relaxed — statistics only.
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: self.shared.queues.steals(),
        }
    }

    /// Run `tasks` to completion across the workers and return their
    /// results in submission order. The caller blocks until the whole
    /// batch finished; worker threads and queues are reused, so a tick
    /// loop can call this once per tick without respawn cost.
    pub fn run_batch<R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let outputs: Arc<Vec<Mutex<Option<R>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for (i, task) in tasks.into_iter().enumerate() {
            let outputs = outputs.clone();
            let done = done.clone();
            self.shared.queues.push(Box::new(move || {
                // `CompletionGuard` signals even if the task panics, so
                // the waiting caller never deadlocks; it observes the
                // missing output and panics itself.
                let _guard = CompletionGuard(&done);
                let r = task();
                *lock(&outputs[i]) = Some(r);
            }));
            self.shared.notify(false);
        }
        // One extra broadcast after the last push: with more workers
        // than tasks, notify_one may have woken the same worker twice.
        self.shared.notify(true);
        let (count, cv) = &*done;
        let mut finished = lock(count);
        while *finished < n {
            finished = wait(cv, finished);
        }
        // The slots are mutexes too: give `count` back first.
        drop(finished);
        // Take results out of the slots rather than unwrapping the Arc:
        // a worker's clone may outlive its completion signal by an
        // instant, but every slot is already written (or provably never
        // will be, if the task panicked).
        outputs
            .iter()
            .map(|m| {
                lock(m)
                    .take()
                    // lint: allow(panic, a worker task died before writing its slot — surface it)
                    .expect("pool worker panicked while running a batch task")
            })
            .collect()
    }
}

/// Bumps the batch completion count on drop — panic-safe signalling.
struct CompletionGuard<'a>(&'a (Mutex<usize>, Condvar));

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let (count, cv) = self.0;
        *lock(count) += 1;
        cv.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // ordering: Release pairs with the Acquire load in worker_loop —
        // a worker that sees the flag also sees every task pushed first.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify(true);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(id: usize, shared: &PoolShared) {
    loop {
        // Read the signal counter *before* draining: a push that lands
        // after this read bumps the counter, so the wait below is
        // skipped and the task is found on the next loop — no lost
        // wake-ups.
        let seen = *lock(&shared.signal);
        while let Some(task) = shared.queues.pop(id) {
            // Count *before* running: the bump then happens-before the
            // task's completion signal, so a caller that returned from
            // `run_batch` reads fully-accounted stats.
            // ordering: Relaxed — statistics only.
            shared.executed[id].fetch_add(1, Ordering::Relaxed);
            // A panicking task unwinds through the box; the batch's
            // completion guard still fires (Drop), and the caller
            // reports the dead slot. Swallowing the unwind here keeps
            // the worker alive for later batches.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        }
        // ordering: Acquire pairs with the Release store in Drop.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut seq = lock(&shared.signal);
        while *seq == seen {
            // ordering: Acquire pairs with the Release store in Drop.
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            seq = wait(&shared.wake, seq);
        }
    }
}

/// Map `f` over `items` in parallel, preserving order of results — the
/// scoped frontend of the pool for borrowing closures. Degrades to a
/// serial map on a single-core box or a tiny batch.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let nr_threads = WorkerPool::default_parallelism().min(n);
    if nr_threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queues: StealQueues<usize> = StealQueues::new(nr_threads);
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    for i in 0..n {
        queues.push(i);
    }

    // A worker panic propagates out of the scope when its JoinHandle is
    // detached-joined at scope exit, so no explicit error plumbing is
    // needed; slot mutexes carry no torn state (each slot is written
    // whole, once), so poison recovery is safe everywhere.
    std::thread::scope(|scope| {
        for id in 0..nr_threads {
            let queues = &queues;
            let inputs = &inputs;
            let outputs = &outputs;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = queues.pop(id) {
                    let item = lock(&inputs[i])
                        .take()
                        // lint: allow(panic, each index is queued exactly once)
                        .expect("each index claimed once");
                    *lock(&outputs[i]) = Some(f(item));
                }
            });
        }
    });

    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lint: allow(panic, a worker panic would have propagated at scope exit)
                .expect("all indices processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = par_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![41], |x: i32| x + 1), vec![42]);
    }

    #[test]
    fn non_copy_items() {
        let items: Vec<String> = (0..20).map(|i| format!("s{i}")).collect();
        let out = par_map(items, |s| s.len());
        assert_eq!(out.len(), 20);
        assert_eq!(out[0], 2);
        assert_eq!(out[10], 3);
    }

    #[test]
    fn parallel_matches_serial_for_deterministic_work() {
        let serial: Vec<u64> = (0..64u64).map(|x| x.wrapping_mul(x) ^ 0xDA05).collect();
        let parallel = par_map((0..64u64).collect(), |x| x.wrapping_mul(x) ^ 0xDA05);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn steal_queues_hand_out_every_item_once() {
        let q: StealQueues<usize> = StealQueues::new(4);
        for i in 0..100 {
            q.push(i);
        }
        let mut got: Vec<usize> = Vec::new();
        // Worker 3 drains everything: 1/4 owned, 3/4 stolen.
        while let Some(i) = q.pop(3) {
            got.push(i);
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(q.steals(), 75);
    }

    #[test]
    fn pool_batch_preserves_order_and_reuses_workers() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.nr_workers(), 3);
        for round in 0..5u64 {
            let tasks: Vec<_> = (0..20u64)
                .map(|i| move || i.wrapping_mul(i) ^ round)
                .collect();
            let out = pool.run_batch(tasks);
            let want: Vec<u64> = (0..20u64).map(|i| i.wrapping_mul(i) ^ round).collect();
            assert_eq!(out, want);
        }
        let stats = pool.stats();
        assert_eq!(stats.executed.len(), 3);
        assert_eq!(stats.executed.iter().sum::<u64>(), 100);
    }

    #[test]
    fn pool_empty_batch_returns_immediately() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.run_batch(Vec::<fn() -> u64>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn pool_with_more_workers_than_tasks() {
        let pool = WorkerPool::new(8);
        let out = pool.run_batch(vec![|| 7u64]);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn pool_zero_workers_means_auto() {
        let pool = WorkerPool::new(0);
        assert!(pool.nr_workers() >= 1);
        let out = pool.run_batch((0..4).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn uneven_batches_keep_results_deterministic() {
        // Tasks with wildly different costs: stealing rebalances, the
        // result vector is identical to the 1-worker pool's.
        let slowload = |i: u64| {
            let mut acc = i;
            for _ in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = WorkerPool::new(1)
            .run_batch((0..64u64).map(|i| move || slowload(i)).collect::<Vec<_>>());
        let parallel = WorkerPool::new(4)
            .run_batch((0..64u64).map(|i| move || slowload(i)).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }
}
