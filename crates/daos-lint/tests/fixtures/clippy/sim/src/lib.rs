//! Fixture: a simulation crate, which denies wall-clock types.

#![deny(clippy::disallowed_types, reason = "a simulation crate reads virtual time only")]

/// determinism: reported.
pub fn wall_ns() -> u128 {
    std::time::SystemTime::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos())
}

/// MSRV: silent at the workspace's 1.87.
pub fn even(n: u64) -> bool {
    n.is_multiple_of(2)
}

#[cfg(test)]
mod tests {
    /// determinism: reported in test code too.
    #[test]
    fn reads_the_wall_clock() {
        let _ = std::time::Instant::now();
    }
}
