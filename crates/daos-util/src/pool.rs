//! The workspace's single worker pool: threads pulling from one shared
//! queue, used by every parallel consumer in the tree.
//!
//! Two frontends:
//!
//! * [`WorkerPool`] — persistent threads for long-lived engines (the
//!   fleet runner submits one batch of shard tasks per span; respawning
//!   threads per span would dwarf the work of a watched fleet's
//!   one-tick spans). Tasks are `'static` closures;
//!   [`WorkerPool::run_batch`] blocks until the whole batch finished and
//!   returns results in submission order.
//! * [`par_map`] — a scoped one-shot map for borrowing closures (figure
//!   sweeps map over hundreds of independent simulations). Threads live
//!   for the call only, so `f` may borrow from the caller's stack.
//!
//! Both hand out work dynamically — an idle thread takes the next item,
//! whatever its neighbours are still busy with — so uneven items balance
//! without a scheduler. Work items are deterministic simulations, so
//! parallel and serial execution produce identical numbers; the queue
//! only changes *which thread* runs an item, never its result.

use crate::sync::{lock, wait};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send>;

/// What the workers share, under one mutex. Tasks move in and out
/// whole, so a poisoned lock carries no torn state.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled when `queue` gains tasks or `shutdown` is set. Workers
    /// check both under the lock before they wait, so no wake-up is lost.
    wake: Condvar,
}

/// A pool of persistent worker threads draining one task queue.
///
/// Construction spawns the threads once; [`run_batch`](Self::run_batch)
/// queues a batch and blocks until every task ran. Dropping the pool
/// shuts the workers down and joins them.
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
        let shared = Arc::new(PoolShared::default());
        let workers = (0..nr)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
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

    /// Run `tasks` to completion across the workers and return their
    /// results in submission order. The caller blocks until the whole
    /// batch finished; worker threads and the queue are reused, so a
    /// tick loop can call this once per tick without respawn cost.
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
        let boxed = tasks.into_iter().enumerate().map(|(i, task)| {
            let outputs = outputs.clone();
            let done = done.clone();
            Box::new(move || {
                // `CompletionGuard` signals even if the task panics, so
                // the waiting caller never deadlocks; it observes the
                // missing output and panics itself.
                let _guard = CompletionGuard(&done);
                let r = task();
                *lock(&outputs[i]) = Some(r);
            }) as Task
        });
        lock(&self.shared.queue).tasks.extend(boxed);
        self.shared.wake.notify_all();
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
            .map(
                #[expect(clippy::expect_used, reason = "a worker task died before writing its slot — surface it")]
                |m| lock(m).take().expect("pool worker panicked while running a batch task"),
            )
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
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                // Checked only on an empty queue: tasks queued before
                // the pool dropped still run.
                if queue.shutdown {
                    return;
                }
                queue = wait(&shared.wake, queue);
            }
        };
        // A panicking task unwinds through the box; the batch's
        // completion guard still fires (Drop), and the caller reports
        // the dead slot. Swallowing the unwind here keeps the worker
        // alive for later batches.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
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
    let nr_threads = WorkerPool::default_parallelism().min(items.len());
    if nr_threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // The iterator's `next` moves one item out whole, so poison
    // recovery is safe; `f` runs outside the lock.
    let work = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..nr_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // A statement of its own: the guard is gone
                        // before `f` runs.
                        let next = lock(&work).next();
                        let Some((i, item)) = next else { break mine };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of a caught panic, whichever payload type `panic!` chose.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(other) => other.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

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
    fn par_map_propagates_a_worker_panic() {
        let died = std::panic::catch_unwind(|| {
            par_map((0..16).collect(), |x: i32| {
                assert!(x != 5, "item five is poison");
                x
            })
        });
        let message = panic_message(died.expect_err("the panic reaches the caller"));
        assert!(message.contains("item five is poison"), "the worker's own payload: {message}");
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
        // Tasks with wildly different costs: whichever worker is free
        // takes the next one, and the result vector is identical to the
        // 1-worker pool's.
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

    /// A task that panics costs its batch, not the pool: the caller gets
    /// the panic instead of a hang, every other task of the batch still
    /// ran, and the same workers complete the next batch.
    #[test]
    fn a_panicking_task_fails_its_batch_and_spares_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let ran = Arc::new(Mutex::new(0usize));
        let tasks: Vec<_> = (0..8usize)
            .map(|i| {
                let ran = ran.clone();
                move || {
                    assert!(i != 3, "task three is poison");
                    *lock(&ran) += 1;
                    i
                }
            })
            .collect();
        // On a thread of its own, so a lost completion signal fails the
        // test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.run_batch(tasks)
                }));
                let _ = tx.send(died.map_err(panic_message));
            })
        };
        let died = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_batch returns although a task panicked");
        caller.join().expect("the caller caught the panic");
        let message = died.expect_err("the batch's failure is the caller's panic");
        assert!(message.contains("pool worker panicked"), "{message}");
        assert_eq!(*lock(&ran), 7, "the rest of the batch ran");

        let out = pool.run_batch((0..8usize).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }
}
