//! The workspace's one lock funnel, and the **leaf-lock rule** it
//! checks: no workspace mutex is taken while this thread holds another.
//!
//! Every mutex in the tree guards state whose updates are each
//! self-contained (a queue slot moved whole, an `Arc` swapped, a
//! counter bumped, an append), so a panicking holder leaves it valid
//! and [`lock`] recovers from poison instead of stacking a second
//! panic on the first. And every mutex is a *leaf*: nothing else is
//! acquired under it, so there is no lock order to get wrong. Debug
//! builds assert that on every acquisition, lockdep-style, with a
//! thread-local count of live [`Guard`]s; release builds compile the
//! funnel down to `m.lock().unwrap_or_else(PoisonError::into_inner)`.
//! Clippy's `disallowed_methods` (clippy.toml) keeps [`lock`] the only
//! place that calls `Mutex::lock` (DESIGN.md §11, §16).

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
thread_local!(static HELD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });

/// One counted acquisition: taken before the mutex is (so re-locking
/// the mutex already held panics instead of deadlocking), given back
/// on drop. Zero-sized, and nothing but a constructor in release.
struct Held;

impl Held {
    fn take() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|h| {
            assert!(h.get() == 0, "leaf-lock rule: mutex taken while this thread holds another");
            h.set(1);
        });
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

/// A `MutexGuard` that carries its [`lock`]'s leaf-rule token.
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    held: Held,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Acquire `m`, recovering from poison.
#[expect(clippy::disallowed_methods, reason = "the funnel: the one raw acquisition")]
pub fn lock<T>(m: &Mutex<T>) -> Guard<'_, T> {
    let held = Held::take();
    Guard { inner: m.lock().unwrap_or_else(PoisonError::into_inner), held }
}

/// `Condvar::wait` on the guard's own mutex, recovering from poison.
/// The token stays counted across the wait: a parked thread acquires
/// nothing, and it wakes holding the same mutex.
pub fn wait<'a, T>(cv: &Condvar, g: Guard<'a, T>) -> Guard<'a, T> {
    let Guard { inner, held } = g;
    Guard { inner: cv.wait(inner).unwrap_or_else(PoisonError::into_inner), held }
}

/// [`wait`] with a timeout; whether it timed out is the caller's loop
/// condition to re-check, so only the guard comes back.
pub fn wait_timeout<'a, T>(cv: &Condvar, g: Guard<'a, T>, dur: Duration) -> Guard<'a, T> {
    let Guard { inner, held } = g;
    Guard { inner: cv.wait_timeout(inner, dur).unwrap_or_else(PoisonError::into_inner).0, held }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[cfg(debug_assertions)]
    fn held() -> u32 {
        HELD.with(|h| h.get())
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "leaf-lock rule")]
    fn nested_acquisition_panics_in_debug() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let ga = lock(&a);
        let _gb = lock(&b);
        drop(ga);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let died = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison the mutex");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn waits_leave_the_held_count_balanced() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let g = wait_timeout(&pair.1, lock(&pair.0), Duration::from_millis(1));
        assert!(!*g);
        #[cfg(debug_assertions)]
        assert_eq!(held(), 1);
        drop(g);
        #[cfg(debug_assertions)]
        assert_eq!(held(), 0);

        let setter = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                *lock(&pair.0) = true;
                pair.1.notify_all();
            })
        };
        let mut g = lock(&pair.0);
        while !*g {
            g = wait(&pair.1, g);
        }
        drop(g);
        setter.join().expect("setter thread");
        #[cfg(debug_assertions)]
        assert_eq!(held(), 0);
        // Balanced means the next acquisition is a leaf again.
        assert!(*lock(&pair.0));
    }

    #[test]
    fn two_threads_each_holding_one_lock_do_not_trip_each_other() {
        let locks = Arc::new((Mutex::new(0u32), Mutex::new(0u32)));
        let both_held = Arc::new(Barrier::new(2));
        let other = {
            let (locks, both_held) = (locks.clone(), both_held.clone());
            std::thread::spawn(move || {
                let mut g = lock(&locks.1);
                both_held.wait();
                *g += 1;
            })
        };
        let mut g = lock(&locks.0);
        both_held.wait();
        *g += 1;
        drop(g);
        other.join().expect("the count is per thread");
        assert_eq!(*lock(&locks.0), 1);
        assert_eq!(*lock(&locks.1), 1);
    }
}
