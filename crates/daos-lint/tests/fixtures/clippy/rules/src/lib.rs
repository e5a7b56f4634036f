//! Fixture: a library crate, not a simulation crate. For each rule, the
//! sites the gate must report and one it must not.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// no-print: reported, stdout and stderr.
pub fn prints() {
    println!("out");
    eprintln!("err");
}

/// panic: each form reported.
pub fn panics(x: Option<u8>, r: Result<u8, ()>, n: u8) -> u8 {
    match n {
        0 => x.unwrap(),
        1 => r.expect("ok"),
        2 => panic!("two"),
        3 => unreachable!("three"),
        4 => todo!(),
        5 => unimplemented!(),
        _ => n,
    }
}

/// panic: silent where the site says why it may panic…
#[expect(clippy::unwrap_used, reason = "the caller checked `x`")]
pub fn checked(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// …and reported once it no longer does.
#[expect(clippy::unwrap_used, reason = "nothing here unwraps any more")]
pub fn stale(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

/// guard: each raw acquisition reported.
pub fn raw(m: &Mutex<u8>, rw: &RwLock<u8>) -> u8 {
    let a = *m.lock().unwrap_or_else(PoisonError::into_inner);
    let b = *rw.read().unwrap_or_else(PoisonError::into_inner);
    let c = *rw.write().unwrap_or_else(PoisonError::into_inner);
    a ^ b ^ c
}

/// guard: silent in the funnel.
#[expect(clippy::disallowed_methods, reason = "the funnel: the one raw acquisition")]
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// determinism: silent outside the simulation crates.
pub fn wall() -> Instant {
    Instant::now()
}

/// MSRV: reported, `is_multiple_of` is newer than this crate's 1.80.
pub fn even(n: u64) -> bool {
    n.is_multiple_of(2)
}

#[cfg(test)]
mod tests {
    /// panic: silent in test code…
    #[test]
    fn may_panic() {
        assert_eq!(super::checked(Some(1)).checked_add(1).unwrap(), 2);
        assert_eq!("1".parse::<u8>().expect("a digit"), 1);
        if super::panics(None, Ok(9), 9) != 9 {
            panic!("not 9");
        }
    }

    /// no-print: …but reported there too.
    #[test]
    fn may_not_print() {
        println!("test output");
    }
}
