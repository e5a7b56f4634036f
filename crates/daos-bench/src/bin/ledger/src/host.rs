//! What the ledger reads about the machine it runs on.

use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Busy threads a workload may use: `min(nproc, 2)`.
pub fn thread_cap() -> usize {
    nproc().min(2)
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// OS threads of this process right now.
pub fn threads_now() -> f64 {
    status_field("Threads:").unwrap_or(1) as f64
}

/// The frozen reference walk: 1.5 M xorshift steps, each a dependent
/// read-modify-write somewhere in a 32 MiB table; `samples` walks over
/// one table, each timed. It normalises nothing; two ledger runs whose
/// `host.ref_ms` differ did not see the same machine, and `--compare`
/// says so instead of giving a verdict.
pub fn ref_walk_ms(samples: usize) -> Vec<f64> {
    const WORDS: usize = (32 << 20) / 8;
    const STEPS: usize = 1_500_000;
    let mut table = vec![1u64; WORDS];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x % WORDS as u64) as usize];
            *slot = slot.wrapping_add(x);
            x ^= *slot;
        }
        out.push(start.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box((x, table));
    out
}
