//! The workload trait and the spec-driven synthetic workload.

use daos_mm::access::AccessBatch;
use daos_mm::addr::{AddrRange, PAGE_SIZE};
use daos_mm::clock::Ns;
use daos_mm::error::MmResult;
use daos_mm::process::{Pid, STACK_BASE};
use daos_mm::system::MemorySystem;
use daos_mm::vma::ThpMode;
use daos_util::rng::SmallRng;

use crate::spec::{Behavior, WorkloadSpec};

/// A driver-facing workload: maps its memory, then produces one epoch of
/// access behaviour at a time.
pub trait Workload {
    /// Display name (e.g. `parsec3/blackscholes`).
    fn name(&self) -> String;

    /// Create the process and its mappings; `thp` is the system THP mode
    /// the run configuration dictates. Returns the workload's pid.
    fn setup(&mut self, sys: &mut MemorySystem, thp: ThpMode) -> MmResult<Pid>;

    /// Total epochs in the run.
    fn nr_epochs(&self) -> u64;

    /// Produce epoch `idx` at virtual time `now`: push access batches to
    /// `out` and return the epoch's pure-compute nanoseconds (reference
    /// clock). Behaviour phases progress with *work done* (the epoch
    /// index), not wall time: a run slowed down by refault storms sweeps
    /// and phase-shifts over proportionally more wall time, exactly as a
    /// real program would — it cannot skip its own work.
    fn epoch(&mut self, idx: u64, now: Ns, out: &mut Vec<AccessBatch>) -> Ns;

    /// Ground truth: the ranges the workload considers hot during epoch
    /// `idx` (for monitoring-accuracy validation).
    fn hot_ranges(&self, idx: u64) -> Vec<AddrRange>;

    /// The workload's process id (valid after `setup`).
    fn pid(&self) -> Pid;
}

/// Snap `range.start` down onto the stride grid anchored at `base`.
fn stride_align(range: AddrRange, base: u64, stride: u32) -> AddrRange {
    let step = stride.max(1) as u64 * PAGE_SIZE;
    if range.is_empty() || step == PAGE_SIZE {
        return range;
    }
    let off = (range.start - base) % step;
    AddrRange::new(range.start - off, range.end)
}

/// Clip a fraction pair of `range` to page-aligned addresses.
fn sub_range(range: AddrRange, lo_frac: f64, hi_frac: f64) -> AddrRange {
    let len = range.len() as f64;
    let lo = range.start + ((len * lo_frac) as u64 / PAGE_SIZE) * PAGE_SIZE;
    let hi = range.start + ((len * hi_frac) as u64 / PAGE_SIZE) * PAGE_SIZE;
    AddrRange::new(lo.min(range.end), hi.min(range.end))
}

/// A [`WorkloadSpec`] interpreter.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    pid: Pid,
    region: AddrRange,
    rng: SmallRng,
    /// Highest built byte offset (Growing behaviour).
    built_end: u64,
}

impl SyntheticWorkload {
    /// Instantiate a spec with a deterministic seed.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        Self {
            spec,
            pid: 0,
            region: AddrRange::empty(),
            rng: Self::stream(&spec, seed),
            built_end: 0,
        }
    }

    /// The random stream of a workload instantiated with `seed`.
    fn stream(spec: &WorkloadSpec, seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ spec.footprint)
    }

    /// Replace the random stream of a workload that has not drawn from it
    /// yet (set-up draws nothing): a copy of `new(spec, built_with)` after
    /// `setup` becomes what `new(spec, seed)` after the same `setup` is.
    pub fn reseed(&mut self, built_with: u64, seed: u64) {
        debug_assert!(
            self.rng == Self::stream(&self.spec, built_with),
            "set-up drew from the workload stream: a copy would replay the draw"
        );
        self.rng = Self::stream(&self.spec, seed);
    }

    /// The main data mapping (valid after setup).
    pub fn region(&self) -> AddrRange {
        self.region
    }

    /// Position in a cyclic sweep, in [0, 1), driven by epoch index with
    /// the cycle length interpreted at the nominal epoch quantum.
    fn cycle_pos(idx: u64, period: Ns) -> f64 {
        let period_epochs = (period / crate::spec::EPOCH_TARGET).max(1);
        (idx % period_epochs) as f64 / period_epochs as f64
    }

    /// Current phase number for a phase-shifting behaviour.
    fn phase_idx(idx: u64, phase_len: Ns, nr_phases: u32) -> u64 {
        let phase_epochs = (phase_len / crate::spec::EPOCH_TARGET).max(1);
        (idx / phase_epochs) % nr_phases as u64
    }

    /// Expected page touches in one nominal epoch (cost-budget sanity).
    pub fn expected_touches_per_epoch(&self) -> f64 {
        let pages = (self.spec.footprint / PAGE_SIZE) as f64;
        match self.spec.behavior {
            Behavior::CompactHot { hot_frac, cold_touch_prob, .. } => {
                pages * hot_frac + pages * (1.0 - hot_frac) * cold_touch_prob as f64
            }
            Behavior::PointerChase { random_touches, core_frac, .. } => {
                random_touches as f64 + pages * core_frac
            }
            Behavior::Streaming { window_frac, stride, .. } => {
                pages * window_frac / stride.max(1) as f64
            }
            Behavior::PhaseShift { hot_frac, .. } => pages * hot_frac,
            Behavior::Growing { hot_tail_frac, .. } => pages * hot_tail_frac,
            Behavior::MostlyIdle { active_frac, .. } => pages * active_frac,
        }
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> String {
        self.spec.path_name()
    }

    fn setup(&mut self, sys: &mut MemorySystem, thp: ThpMode) -> MmResult<Pid> {
        let pid = sys.spawn();
        self.pid = pid;
        self.region = sys.mmap(pid, self.spec.footprint, thp)?;
        // A small far-away stack area, giving the address space the big
        // gap the three-regions targeting heuristic expects.
        sys.mmap_at(pid, STACK_BASE, 64 * PAGE_SIZE, ThpMode::Never)?;

        // Initialisation pass: most benchmarks build their data set up
        // front, making the whole footprint resident. Growing workloads
        // build theirs during the run instead.
        let init = match self.spec.behavior {
            Behavior::Growing { .. } => {
                self.built_end = self.region.start;
                None
            }
            Behavior::Streaming { stride, .. } if stride > 1 => {
                // Non-contiguous layouts only ever materialise their own
                // stride of pages.
                Some(AccessBatch::stride(self.region, stride, 1.0))
            }
            _ => Some(AccessBatch::all(self.region, 1.0)),
        };
        if let Some(batch) = init {
            sys.apply_access(pid, &batch)?;
        }
        Ok(pid)
    }

    fn nr_epochs(&self) -> u64 {
        self.spec.nr_epochs
    }

    fn epoch(&mut self, idx: u64, _now: Ns, out: &mut Vec<AccessBatch>) -> Ns {
        let r = self.region;
        match self.spec.behavior {
            Behavior::CompactHot { hot_frac, apc, cold_touch_prob } => {
                out.push(AccessBatch::all(sub_range(r, 0.0, hot_frac), apc));
                let cold = sub_range(r, hot_frac, 1.0);
                let expect = cold.nr_pages() as f64 * cold_touch_prob as f64;
                let count = poisson_ish(&mut self.rng, expect);
                if count > 0 {
                    out.push(AccessBatch::random(cold, count, 1.0));
                }
            }
            Behavior::PointerChase { random_touches, core_frac, apc } => {
                out.push(AccessBatch::all(sub_range(r, 0.0, core_frac), apc));
                out.push(AccessBatch::random(r, random_touches, 1.5));
            }
            Behavior::Streaming { window_frac, stride, apc, sweep_period } => {
                let pos = Self::cycle_pos(idx, sweep_period);
                let win_lo = pos;
                let win_hi = pos + window_frac;
                // Keep the window start on a stride boundary so a strided
                // (non-contiguous) layout touches the same page class on
                // every pass, as the real codes do.
                out.push(AccessBatch::stride(
                    stride_align(sub_range(r, win_lo, win_hi.min(1.0)), r.start, stride),
                    stride,
                    apc,
                ));
                if win_hi > 1.0 {
                    // Wrap around the footprint.
                    out.push(AccessBatch::stride(sub_range(r, 0.0, win_hi - 1.0), stride, apc));
                }
            }
            Behavior::PhaseShift { nr_phases, hot_frac, apc, phase_len } => {
                let phase = Self::phase_idx(idx, phase_len, nr_phases) as f64;
                let start = phase / nr_phases as f64 * (1.0 - hot_frac);
                out.push(AccessBatch::all(sub_range(r, start, start + hot_frac), apc));
            }
            Behavior::Growing { built_by_frac, hot_tail_frac, apc } => {
                let progress =
                    (idx as f64 / self.spec.nr_epochs as f64 / built_by_frac).min(1.0);
                let target_end = sub_range(r, 0.0, progress).end;
                if target_end > self.built_end {
                    out.push(AccessBatch::all(
                        AddrRange::new(self.built_end, target_end),
                        1.0,
                    ));
                    self.built_end = target_end;
                }
                let built_frac = (self.built_end - r.start) as f64 / r.len().max(1) as f64;
                let tail_lo = (built_frac - hot_tail_frac * built_frac).max(0.0);
                if self.built_end > r.start {
                    out.push(AccessBatch::all(sub_range(r, tail_lo, built_frac), apc));
                }
            }
            Behavior::MostlyIdle { active_frac, apc, stray_prob } => {
                out.push(AccessBatch::all(sub_range(r, 0.0, active_frac), apc));
                if self.rng.random::<f32>() < stray_prob {
                    out.push(AccessBatch::random(sub_range(r, active_frac, 1.0), 1, 1.0));
                }
            }
        }
        self.spec.compute_ns
    }

    fn hot_ranges(&self, idx: u64) -> Vec<AddrRange> {
        let r = self.region;
        match self.spec.behavior {
            Behavior::CompactHot { hot_frac, .. } => vec![sub_range(r, 0.0, hot_frac)],
            Behavior::PointerChase { core_frac, .. } => vec![sub_range(r, 0.0, core_frac)],
            Behavior::Streaming { window_frac, sweep_period, .. } => {
                let pos = Self::cycle_pos(idx, sweep_period);
                vec![sub_range(r, pos, (pos + window_frac).min(1.0))]
            }
            Behavior::PhaseShift { nr_phases, hot_frac, phase_len, .. } => {
                let phase = Self::phase_idx(idx, phase_len, nr_phases) as f64;
                let start = phase / nr_phases as f64 * (1.0 - hot_frac);
                vec![sub_range(r, start, start + hot_frac)]
            }
            Behavior::Growing { hot_tail_frac, .. } => {
                let built_frac = (self.built_end.saturating_sub(r.start)) as f64
                    / r.len().max(1) as f64;
                let tail_lo = (built_frac - hot_tail_frac * built_frac).max(0.0);
                vec![sub_range(r, tail_lo, built_frac)]
            }
            Behavior::MostlyIdle { active_frac, .. } => vec![sub_range(r, 0.0, active_frac)],
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }
}

/// Integer draw with the right expectation for a small mean.
fn poisson_ish(rng: &mut SmallRng, expect: f64) -> u32 {
    let base = expect.floor();
    let frac = expect - base;
    base as u32 + if rng.random::<f64>() < frac { 1 } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Suite;
    use daos_mm::machine::MachineProfile;
    use daos_mm::swap::SwapConfig;

    fn sys() -> MemorySystem {
        let mut m = MachineProfile::test_tiny();
        m.dram_bytes = 256 << 20;
        MemorySystem::new(m, SwapConfig::paper_zram(), 5)
    }

    fn spec(behavior: Behavior) -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            suite: Suite::Parsec3,
            footprint: 32 << 20,
            nr_epochs: 100,
            compute_ns: 1_000_000,
            behavior,
        }
    }

    #[test]
    fn setup_builds_full_footprint_for_static_behaviours() {
        let mut sys = sys();
        let mut w = SyntheticWorkload::new(
            spec(Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.001 }),
            1,
        );
        let pid = w.setup(&mut sys, ThpMode::Never).unwrap();
        assert_eq!(sys.rss_bytes(pid), (32 << 20) + 64 * PAGE_SIZE * 0); // stack unfaulted
        assert!(sys.vma_ranges(pid).len() >= 2, "data + stack VMAs");
    }

    #[test]
    fn compact_hot_epochs_touch_hot_prefix() {
        let mut sys = sys();
        let mut w = SyntheticWorkload::new(
            spec(Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.0 }),
            1,
        );
        let pid = w.setup(&mut sys, ThpMode::Never).unwrap();
        // Drop the accessed bits the init pass left behind.
        for p in w.region().pages() {
            sys.check_accessed_clear(pid, p);
        }
        let mut batches = Vec::new();
        let compute = w.epoch(0, 0, &mut batches);
        assert_eq!(compute, 1_000_000);
        assert!(!batches.is_empty());
        let hot = w.hot_ranges(0)[0];
        assert_eq!(hot.len(), 8 << 20);
        for b in &batches {
            sys.apply_access(pid, b).unwrap();
        }
        // Hot pages have accessed bits; a far cold page does not.
        assert_eq!(sys.peek_accessed(pid, hot.start), Some(true));
        let cold_addr = w.region().end - PAGE_SIZE;
        assert_eq!(sys.peek_accessed(pid, cold_addr), Some(false));
    }

    #[test]
    fn streaming_window_moves_with_time() {
        let mut w = SyntheticWorkload::new(
            spec(Behavior::Streaming {
                window_frac: 0.1,
                stride: 1,
                apc: 8.0,
                sweep_period: daos_mm::clock::sec(10),
            }),
            1,
        );
        let mut sys = sys();
        w.setup(&mut sys, ThpMode::Never).unwrap();
        // 10 s sweep at the 5 ms nominal quantum = 2000 epochs/cycle.
        let h0 = w.hot_ranges(0)[0];
        let h5 = w.hot_ranges(1000)[0];
        assert_ne!(h0, h5);
        assert!(h5.start > h0.start);
        // After one full period the window is back.
        let h10 = w.hot_ranges(2000)[0];
        assert_eq!(h0, h10);
    }

    #[test]
    fn streaming_stride_materialises_half_the_pages() {
        let mut sys = sys();
        let mut w = SyntheticWorkload::new(
            spec(Behavior::Streaming {
                window_frac: 0.1,
                stride: 2,
                apc: 8.0,
                sweep_period: daos_mm::clock::sec(10),
            }),
            1,
        );
        let pid = w.setup(&mut sys, ThpMode::Never).unwrap();
        assert_eq!(sys.rss_bytes(pid), 16 << 20, "stride-2 init = half footprint");
    }

    #[test]
    fn phase_shift_cycles_locations() {
        let phase_len = daos_mm::clock::sec(2);
        let mut w = SyntheticWorkload::new(
            spec(Behavior::PhaseShift { nr_phases: 4, hot_frac: 0.2, apc: 4.0, phase_len }),
            1,
        );
        let mut sys = sys();
        w.setup(&mut sys, ThpMode::Never).unwrap();
        // 2 s phases = 400 epochs each.
        let locations: Vec<AddrRange> = (0..4).map(|p| w.hot_ranges(p * 400)[0]).collect();
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(locations[i], locations[j], "phases {i} and {j} overlap");
            }
        }
        assert_eq!(w.hot_ranges(4 * 400)[0], locations[0], "cycles back");
    }

    #[test]
    fn growing_footprint_builds_up() {
        let mut sys = sys();
        let mut w = SyntheticWorkload::new(
            spec(Behavior::Growing { built_by_frac: 0.5, hot_tail_frac: 0.2, apc: 4.0 }),
            1,
        );
        let pid = w.setup(&mut sys, ThpMode::Never).unwrap();
        assert_eq!(sys.rss_bytes(pid), 0, "growing workloads start empty");
        let mut batches = Vec::new();
        for idx in 0..50 {
            batches.clear();
            w.epoch(idx, idx * 5_000_000, &mut batches);
            for b in &batches {
                sys.apply_access(pid, b).unwrap();
            }
        }
        // At idx 50 of 100 epochs with built_by 0.5 → fully built.
        assert!(sys.rss_bytes(pid) >= (31 << 20), "fully built: {}", sys.rss_bytes(pid));
    }

    #[test]
    fn mostly_idle_touches_only_active_fraction() {
        let mut sys = sys();
        let mut w = SyntheticWorkload::new(
            spec(Behavior::MostlyIdle { active_frac: 0.1, apc: 4.0, stray_prob: 0.0 }),
            1,
        );
        let pid = w.setup(&mut sys, ThpMode::Never).unwrap();
        // Clear all accessed bits, run an epoch, check only 10% accessed.
        let region = w.region();
        for p in region.pages() {
            sys.check_accessed_clear(pid, p);
        }
        let mut batches = Vec::new();
        w.epoch(0, 0, &mut batches);
        let mut cost = 0;
        for b in &batches {
            cost += sys.apply_access(pid, b).unwrap().touched_pages;
        }
        let total_pages = region.nr_pages();
        assert!(cost <= total_pages / 9, "touched {cost} of {total_pages}");
    }

    #[test]
    fn expected_touches_sane() {
        let w = SyntheticWorkload::new(
            spec(Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.01 }),
            1,
        );
        let pages = (32 << 20) / PAGE_SIZE;
        let expect = w.expected_touches_per_epoch();
        assert!(expect > pages as f64 * 0.25);
        assert!(expect < pages as f64 * 0.27);
    }

    #[test]
    fn pointer_chase_hits_random_pages() {
        let mut sys = sys();
        let mut w = SyntheticWorkload::new(
            spec(Behavior::PointerChase { random_touches: 64, core_frac: 0.05, apc: 8.0 }),
            1,
        );
        let pid = w.setup(&mut sys, ThpMode::Never).unwrap();
        let mut batches = Vec::new();
        w.epoch(0, 0, &mut batches);
        let mut touched = 0;
        for b in &batches {
            touched += sys.apply_access(pid, b).unwrap().touched_pages;
        }
        let core_pages = ((32 << 20) as f64 * 0.05 / PAGE_SIZE as f64) as u64;
        assert!(touched >= core_pages);
        assert!(touched <= core_pages + 64);
    }
}
