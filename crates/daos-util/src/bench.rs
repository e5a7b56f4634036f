//! A minimal wall-clock timing harness — the in-tree replacement for
//! criterion in the `daos-bench` gated bench binaries.
//!
//! Each benchmark runs `samples` timed samples of `iters` iterations
//! each and reports the min, median and max ns/iteration. The gate
//! compares the **min** (it moves only with a systematic slowdown, not
//! with scheduler noise); the median and max show the spread.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// One benchmark's timing summary, all in ns/iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median over the samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Iterations per sample actually used.
    pub iters: u64,
}

impl Timing {
    /// `"  123.4 ns/iter (min 120.0, max 130.9, 1000 iters × N)"`.
    pub fn render(&self) -> String {
        format!(
            "{:>12.1} ns/iter (min {:.1}, max {:.1}, {} iters/sample)",
            self.median_ns, self.min_ns, self.max_ns, self.iters
        )
    }
}

/// A named group of benchmarks. Silent by default — attach a sink with
/// [`Harness::progress_to`] to stream results as they complete (bench
/// binaries pass stdout; library users and tests stay quiet).
pub struct Harness {
    group: String,
    samples: usize,
    results: Vec<(String, Timing)>,
    sink: Box<dyn Write>,
}

impl Harness {
    /// New harness for `group`, `samples` timed samples per benchmark.
    /// Progress is discarded until a sink is
    /// attached with [`Harness::progress_to`].
    pub fn new(group: &str, samples: usize) -> Self {
        assert!(samples >= 1);
        Self {
            group: group.to_string(),
            samples,
            results: Vec::new(),
            sink: Box::new(std::io::sink()),
        }
    }

    /// Stream per-benchmark results to `w` as they complete.
    pub fn progress_to(mut self, mut w: Box<dyn Write>) -> Self {
        let _ = writeln!(w, "# bench group: {}", self.group);
        self.sink = w;
        self
    }

    /// Time `f` with an explicit per-sample iteration count (for
    /// stateful benchmarks where iterations are not interchangeable).
    pub fn bench_iters<R>(
        &mut self,
        name: &str,
        iters: u64,
        mut f: impl FnMut() -> R,
    ) -> Timing {
        assert!(iters >= 1);
        let per_iter = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        self.record(name, iters, per_iter)
    }

    /// [`Self::bench_iters`] per unit of work rather than per call: each
    /// call of `f` returns how many units it did (regions swept, pages
    /// walked), and a sample's time is divided by their sum.
    pub fn bench_units(&mut self, name: &str, iters: u64, mut f: impl FnMut() -> u64) -> Timing {
        assert!(iters >= 1);
        let per_unit = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                let units: u64 = (0..iters).map(|_| black_box(f())).sum();
                t.elapsed().as_nanos() as f64 / units.max(1) as f64
            })
            .collect();
        self.record(name, iters, per_unit)
    }

    /// Time one call of `f` per sample on what an untimed `setup` made
    /// for it; what `f` returns is dropped untimed too.
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> Timing {
        let per_iter = (0..self.samples)
            .map(|_| {
                let input = setup();
                let t = Instant::now();
                let out = black_box(f(input));
                let ns = t.elapsed().as_nanos() as f64;
                drop(out);
                ns
            })
            .collect();
        self.record(name, 1, per_iter)
    }

    fn record(&mut self, name: &str, iters: u64, mut per_iter: Vec<f64>) -> Timing {
        per_iter.sort_by(f64::total_cmp);
        let timing = Timing {
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            iters,
        };
        let _ = writeln!(self.sink, "{}/{name}: {}", self.group, timing.render());
        self.results.push((name.to_string(), timing));
        timing
    }

    /// All results recorded so far, in run order.
    pub fn results(&self) -> &[(String, Timing)] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_ordered_and_recorded() {
        let mut h = Harness::new("test", 5);
        let t = h.bench_iters("noop_sum", 1000, || (0..100u64).sum::<u64>());
        assert!(t.min_ns <= t.median_ns && t.median_ns <= t.max_ns);
        assert_eq!(t.iters, 1000);
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].0, "noop_sum");
    }
}
