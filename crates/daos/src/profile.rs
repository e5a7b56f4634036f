//! Host wall time per engine phase: where a run's real seconds go.
//!
//! The engine's own lane (`daos run|fleet --profile-wall`,
//! [`crate::Session::profile_wall`]): every call the engine makes on the
//! host side belongs to one [`Phase`], and a profiled run adds up the
//! wall time of each. Off — the default — every timed site is one
//! `Option` test and nothing else: no clock read, no atomic, no
//! allocation. Shard phases are lapped into a per-advance `Laps` that
//! travels home with its slot, so worker threads share nothing while
//! they time.
//!
//! A lap ends where the next begins: the clock is read once per phase
//! boundary, and each reading closes the lap since the one before. So
//! inside a shard's advance — stamp, every tick's phases, retire — the
//! glue between phases (the tick loop, the trace-drop meter, the
//! collector check) is booked to the phase it leads into, not lost
//! between a stop and the next start. Only the driver's own phases start
//! afresh (`timed`): what runs between them — an observer, the session
//! around the engine — is not the engine's.
//!
//! One structure, three readers: the CLI table ([`WallProfile::render`]),
//! the `daos_engine_phase_wall_ns{phase}` family on `/metrics` (through
//! [`crate::FleetProgress::profile`]), and [`crate::SessionResult::profile`].

use std::time::Instant;

/// One kind of host-side work the engine does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the shard images: the first shard's in `FleetEngine::new`,
    /// a remainder shard's when its slot first advances.
    Build,
    /// Turning an image into a shard, the image copy included.
    Stamp,
    /// The processes' epoch quanta.
    Workload,
    /// The monitors' steps: sampling, aggregation, regions updates, and
    /// charging their work.
    Monitor,
    /// What a plane does with each completed window: the schemes
    /// engine's pass over it, and recording it.
    Schemes,
    /// The khugepaged scans.
    Khugepaged,
    /// The driver thread waiting at the worker pool's batch barrier.
    Barrier,
    /// Folding fleet progress for an observer.
    Progress,
    /// Retiring shards into their results.
    Retire,
    /// Dropping retired machines and the engine's pool.
    Drop,
}

impl Phase {
    /// Every phase, in table order.
    pub const ALL: [Phase; 10] = [
        Phase::Build,
        Phase::Stamp,
        Phase::Workload,
        Phase::Monitor,
        Phase::Schemes,
        Phase::Khugepaged,
        Phase::Barrier,
        Phase::Progress,
        Phase::Retire,
        Phase::Drop,
    ];

    /// The phase's row name and `phase` label value.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Stamp => "stamp",
            Phase::Workload => "workload",
            Phase::Monitor => "monitor",
            Phase::Schemes => "schemes",
            Phase::Khugepaged => "khugepaged",
            Phase::Barrier => "barrier",
            Phase::Progress => "progress",
            Phase::Retire => "retire",
            Phase::Drop => "drop",
        }
    }

    /// Whether the phase runs (at least partly) inside a slot's advance
    /// — on a worker thread when the fleet has a pool.
    fn in_shard(self) -> bool {
        !matches!(self, Phase::Barrier | Phase::Progress)
    }
}

/// Wall nanoseconds and calls per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Laps {
    ns: [u64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
}

impl Laps {
    pub(crate) fn add(&mut self, other: &Laps) {
        for i in 0..Phase::ALL.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// One thread's laps in progress: the totals so far, and the instant the
/// last lap ended, where the next one starts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch {
    pub(crate) laps: Laps,
    mark: Instant,
}

impl Stopwatch {
    /// A stopwatch started now when `on`; `None`, and no clock read, off.
    pub(crate) fn start(on: bool) -> Option<Stopwatch> {
        on.then(|| Stopwatch { laps: Laps::default(), mark: Instant::now() })
    }
}

/// End the current lap here and book it to `phase`: everything since the
/// last boundary. The same clock reading starts the next lap.
#[inline]
pub(crate) fn lap(watch: &mut Option<Stopwatch>, phase: Phase) {
    if let Some(w) = watch {
        let now = Instant::now();
        w.laps.ns[phase as usize] += (now - w.mark).as_nanos() as u64;
        w.laps.calls[phase as usize] += 1;
        w.mark = now;
    }
}

/// Start the next lap now: what ran since the last boundary belongs to no
/// phase.
#[inline]
pub(crate) fn restart(watch: &mut Option<Stopwatch>) {
    if let Some(w) = watch {
        w.mark = Instant::now();
    }
}

/// Run `f` as one lap of `phase`, starting now.
#[inline]
pub(crate) fn timed<R>(watch: &mut Option<Stopwatch>, phase: Phase, f: impl FnOnce() -> R) -> R {
    restart(watch);
    let out = f();
    lap(watch, phase);
    out
}

/// A profiled run's wall time by [`Phase`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallProfile {
    /// Host wall time of the whole session, ns; 0 while it still runs.
    pub wall_ns: u64,
    /// Worker threads the shard phases ran on (1 = inline on the driver).
    pub nr_workers: usize,
    /// Laps of the driver thread.
    pub(crate) driver: Laps,
    /// Laps of the shards' advances, on whichever thread ran them.
    pub(crate) shards: Laps,
}

impl WallProfile {
    /// Wall ns spent in `phase`, summed over threads.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.driver.ns[phase as usize] + self.shards.ns[phase as usize]
    }

    /// Calls of `phase`, summed over threads.
    pub(crate) fn calls(&self, phase: Phase) -> u64 {
        self.driver.calls[phase as usize] + self.shards.calls[phase as usize]
    }

    /// Wall ns of the driver thread that some phase accounts for: every
    /// phase inline, and with a pool the driver's own phases (the shard
    /// phases then run on workers, inside `barrier`).
    pub fn attributed_ns(&self) -> u64 {
        let pooled = self.nr_workers > 1;
        let shards: u64 = if pooled { 0 } else { self.shards.ns.iter().sum() };
        self.driver.ns.iter().sum::<u64>() + shards
    }

    /// The `--profile-wall` table: one row per phase, then how much of
    /// the wall the rows account for.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pct = |ns: u64| 100.0 * ns as f64 / self.wall_ns.max(1) as f64;
        let pooled = self.nr_workers > 1;
        let mut out = format!("{:<12} {:>10} {:>7} {:>8}\n", "phase", "wall ms", "% wall", "calls");
        for phase in Phase::ALL {
            let ns = self.phase_ns(phase);
            let mark = if pooled && phase.in_shard() { "*" } else { "" };
            out.push_str(&format!(
                "{:<12} {:>10.3} {:>7.1} {:>8}\n",
                format!("{}{mark}", phase.name()),
                ms(ns),
                pct(ns),
                self.calls(phase)
            ));
        }
        let attributed = self.attributed_ns();
        out.push_str(&format!(
            "attributed {:.3} of {:.3} ms wall: {:.1} %\n",
            ms(attributed),
            ms(self.wall_ns),
            pct(attributed)
        ));
        if pooled {
            out.push_str(&format!(
                "* includes shard time summed over {} workers, inside barrier: not attributed\n",
                self.nr_workers
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_books_nothing_and_on_books_each_lap() {
        let mut off = Stopwatch::start(false);
        assert_eq!(timed(&mut off, Phase::Stamp, || 7), 7);
        lap(&mut off, Phase::Workload);
        assert!(off.is_none());
        let mut on = Stopwatch::start(true);
        timed(&mut on, Phase::Stamp, || std::thread::sleep(std::time::Duration::from_millis(1)));
        timed(&mut on, Phase::Stamp, || ());
        let laps = on.unwrap().laps;
        assert_eq!(laps.calls[Phase::Stamp as usize], 2);
        assert!(laps.ns[Phase::Stamp as usize] >= 1_000_000);
        assert_eq!(laps.ns.iter().sum::<u64>(), laps.ns[Phase::Stamp as usize]);
    }

    /// Back-to-back laps share their boundary's clock reading: together
    /// they book exactly the time from the start to the last boundary,
    /// with nothing lost between one lap and the next.
    #[test]
    fn back_to_back_laps_leave_no_gap() {
        let mut on = Stopwatch::start(true);
        let started = on.unwrap().mark;
        for phase in [Phase::Workload, Phase::Monitor, Phase::Schemes, Phase::Workload] {
            std::thread::sleep(std::time::Duration::from_micros(200));
            lap(&mut on, phase);
        }
        let Stopwatch { laps, mark } = on.unwrap();
        assert_eq!(laps.ns.iter().sum::<u64>(), (mark - started).as_nanos() as u64);
        assert_eq!(laps.calls[Phase::Workload as usize], 2);
        assert!(laps.ns[Phase::Monitor as usize] >= 200_000);
    }

    #[test]
    fn pooled_shard_phases_are_not_attributed_twice() {
        let mut driver = Laps::default();
        driver.ns[Phase::Barrier as usize] = 90;
        driver.ns[Phase::Build as usize] = 5;
        let mut shards = Laps::default();
        shards.ns[Phase::Workload as usize] = 150;
        let inline = WallProfile { wall_ns: 100, nr_workers: 1, driver, shards };
        assert_eq!(inline.attributed_ns(), 245);
        let pooled = WallProfile { nr_workers: 2, ..inline };
        assert_eq!(pooled.attributed_ns(), 95);
        let table = pooled.render();
        assert_eq!(table.lines().count(), 1 + Phase::ALL.len() + 2, "{table}");
        assert!(table.contains("workload*"), "{table}");
        assert!(table.contains(": 95.0 %"), "{table}");
    }
}
