//! The simulated machine: processes + frames + swap + LRU + cost model.
//!
//! [`MemorySystem`] is the single entry point the rest of the stack talks
//! to. Workloads drive it with [`AccessBatch`]es; the monitor reads and
//! clears PTE accessed bits through it; the schemes engine applies memory
//! operations (pageout, THP promotion/demotion, ...) through it.

use daos_util::rng::SmallRng;

use crate::access::{AccessBatch, AccessOutcome, TouchPattern};
use crate::addr::{huge_align_down, AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use crate::clock::{Clock, Ns};
use crate::error::{AuditError, MmError, MmResult};
use crate::frame::{FrameAllocator, FrameId};
use crate::lru::{Lru, LruEntry, LruList};
use crate::machine::MachineProfile;
use crate::process::{Pid, Process, PteCursor};
use crate::stats::KernelStats;
use crate::swap::{SwapConfig, SwapDevice};
use crate::tlb::access_costs;
use crate::vma::{PteState, Reclaimed, ThpMode, Vma};

/// How many pages one pressure-reclaim pass tries to free.
const RECLAIM_BATCH: u64 = 32;

/// Entries the LRU lists may queue beyond twice the resident pages
/// before the machine drops their stale ones ([`lru_within_bound`]).
pub(crate) const LRU_SLACK: usize = 4096;

/// The LRU bound (DESIGN §5): the two lists together queue at most
/// `2 × resident + LRU_SLACK` entries. A live entry names a resident page
/// and no page has two, so a compaction to the live entries leaves at most
/// `resident`, and the lists then grow by at least `resident + LRU_SLACK`
/// before the next: amortised O(1) per insert.
fn lru_within_bound(queued: usize, resident: usize) -> bool {
    queued <= 2 * resident + LRU_SLACK
}

/// The VMA an LRU entry's page is in, if its process and mapping exist.
fn entry_vma<'a>(procs: &'a [Process], e: &LruEntry) -> Option<&'a Vma> {
    procs.get(e.pid as usize)?.find_vma(e.addr)
}

/// Whether an LRU entry is live: its page is resident at the generation it
/// was queued under. Reclaim judges exactly these and passes over the
/// rest, so dropping every other entry changes nothing a run does.
fn is_live(procs: &[Process], e: &LruEntry) -> bool {
    entry_vma(procs, e).is_some_and(|vma| vma.is_resident_at(e.addr, e.gen))
}

/// The whole simulated machine. `Clone` copies it with everything it
/// has mapped — the fleet engine stamps shards from one built image,
/// which it first [`freeze`](Self::freeze)s so that the copies share
/// what they rarely write. Two machines are equal when their state is,
/// frozen or not.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    machine: MachineProfile,
    clock: Clock,
    frames: FrameAllocator,
    swap: SwapDevice,
    procs: Vec<Process>,
    lru: Lru,
    rng: SmallRng,
    /// Kernel-side accounting (monitor, schemes, reclaim CPU time).
    pub kstats: KernelStats,
    fault_scratch: Vec<u64>,
    /// A pageout's `(addr, frame)` evictions, empty between calls.
    evicted: Vec<(u64, FrameId)>,
}

impl MemorySystem {
    /// Build a machine with the given hardware profile and swap device.
    /// `seed` drives every stochastic decision, making runs reproducible.
    pub fn new(machine: MachineProfile, swap: SwapConfig, seed: u64) -> Self {
        let frames = FrameAllocator::new(machine.dram_bytes);
        Self {
            machine,
            clock: Clock::new(),
            frames,
            swap: SwapDevice::new(swap),
            procs: Vec::new(),
            lru: Lru::new(),
            rng: SmallRng::seed_from_u64(seed),
            kstats: KernelStats::default(),
            fault_scratch: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// Replace the random stream of a machine that has not drawn from it
    /// yet — a copy of an image built with `built_with` becomes the machine
    /// `MemorySystem::new(.., seed)` followed by the same set-up would be.
    pub fn reseed(&mut self, built_with: u64, seed: u64) {
        debug_assert!(
            self.rng == SmallRng::seed_from_u64(built_with),
            "the image drew from the machine stream: a copy would replay the draw"
        );
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// Make copies of this machine share its frame metadata and LRU
    /// lists instead of copying them: each copy copies a frame slab on
    /// its first write to it, and consumes the lists' shared bases from
    /// the tail while queueing its own pushes beside them. The page
    /// tables stay each copy's own: a shard writes most of them. For a
    /// machine that will be copied more than once; nothing else changes.
    pub fn freeze(&mut self) {
        self.frames.freeze();
        self.lru.freeze();
    }

    /// Whether this machine still holds blocks shared with a frozen one.
    pub fn is_shared(&self) -> bool {
        self.frames.is_shared() || self.lru.is_shared()
    }

    // ---- introspection ---------------------------------------------

    /// The hardware profile.
    pub fn machine(&self) -> &MachineProfile {
        &self.machine
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.clock.now()
    }

    /// The swap device (read-only).
    pub fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    /// Resident-set size of a process in bytes.
    pub fn rss_bytes(&self, pid: Pid) -> u64 {
        self.procs.get(pid as usize).map(|p| p.rss_bytes()).unwrap_or(0)
    }

    /// Lifetime statistics of a process, as of now: reading them settles
    /// the RSS integral [`Self::advance`] no longer maintains.
    pub fn proc_stats(&mut self, pid: Pid) -> Option<&crate::stats::ProcStats> {
        self.proc_stats_mut(pid).map(|st| &*st)
    }

    /// Mutable statistics of a process (the runner charges compute time),
    /// settled like [`Self::proc_stats`].
    pub fn proc_stats_mut(&mut self, pid: Pid) -> Option<&mut crate::stats::ProcStats> {
        let now = self.now();
        let proc = self.procs.get_mut(pid as usize)?;
        proc.settle(now);
        Some(&mut proc.stats)
    }

    /// Total bytes of physical memory in use.
    pub fn used_dram_bytes(&self) -> u64 {
        self.frames.used_bytes()
    }

    /// Sorted VMA ranges of a process — the virtual-address monitoring
    /// primitive's view of the target.
    pub fn vma_ranges(&self, pid: Pid) -> Vec<AddrRange> {
        self.procs
            .get(pid as usize)
            .map(|p| p.vma_ranges())
            .unwrap_or_default()
    }

    /// The physical address space `[0, dram_bytes)` — the physical
    /// monitoring primitive's target.
    pub fn phys_space(&self) -> AddrRange {
        AddrRange::new(0, self.machine.dram_bytes)
    }

    /// rmap lookup: which `(pid, vaddr)` owns the frame backing physical
    /// address `paddr`, if any.
    pub fn phys_owner(&self, paddr: u64) -> Option<(Pid, u64)> {
        let frame = (paddr / PAGE_SIZE) as u32;
        self.frames.owner(frame)
    }

    /// Live process ids.
    pub fn live_pids(&self) -> Vec<Pid> {
        self.procs
            .iter()
            .filter(|p| !p.exited)
            .map(|p| p.pid)
            .collect()
    }

    /// Recount what the substrate maintains incrementally, on the live
    /// machine: every VMA's chunk and VMA counters and canonical form
    /// ([`Vma::check_counters`]); each process's RSS against its VMAs'
    /// resident pages; each resident page's frame owned, in the rmap, by
    /// exactly that `(pid, addr)` — so no frame backs two pages; the
    /// frames in use against the sum of RSS; the frame allocator's books
    /// ([`FrameAllocator::audit`]: nothing free is owned); and the LRU
    /// (DESIGN §5: every live entry on a resident page, one per page, and
    /// the lists within their bound). O(mapped pages + queued entries):
    /// for debug builds and tests, not for a hot path.
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut rss_pages = 0;
        for proc in &self.procs {
            let pid = proc.pid;
            let mut resident = 0;
            for vma in proc.vmas() {
                vma.check_counters()
                    .map_err(|detail| AuditError::VmaCounters { pid, vma: vma.range, detail })?;
                resident += vma.nr_resident() as u64;
                for (addr, pte) in vma.iter_mapped() {
                    let PteState::Resident(frame) = pte.state else { continue };
                    let owner = self.frames.owner(frame);
                    if owner != Some((pid, addr)) {
                        return Err(AuditError::RmapOwner { pid, addr, frame, owner });
                    }
                }
            }
            if proc.rss_bytes() != resident * PAGE_SIZE {
                let rss_pages = proc.rss_bytes() / PAGE_SIZE;
                return Err(AuditError::Rss { pid, rss_pages, resident_pages: resident });
            }
            rss_pages += resident;
        }
        if self.frames.nr_used() as u64 != rss_pages {
            return Err(AuditError::FramesInUse { used: self.frames.nr_used(), rss_pages });
        }
        self.frames.audit()?;
        self.audit_lru()
    }

    /// The LRU invariant (DESIGN §5): an entry stamped with its page's
    /// current generation names a resident page — it is live
    /// ([`is_live`]) — which has no other live entry on either list; and
    /// the lists are within their bound ([`lru_within_bound`]). (A resident
    /// page may have no entry: a huge page's filler subpages and a victim a
    /// full swap device left behind are resident off the lists.)
    fn audit_lru(&self) -> Result<(), AuditError> {
        let mut live = std::collections::HashSet::new();
        for (list, e) in self.lru.entries() {
            let (pid, addr) = (e.pid, e.addr);
            if is_live(&self.procs, &e) {
                if !live.insert((pid, addr)) {
                    return Err(AuditError::TwoLiveEntries { pid, addr });
                }
            } else if entry_vma(&self.procs, &e).is_some_and(|vma| vma.pte(addr).lru_gen == e.gen) {
                return Err(AuditError::StampedNotResident { list, pid, addr });
            }
        }
        let (queued, resident) = (self.lru.len(), self.frames.nr_used());
        if !lru_within_bound(queued, resident) {
            return Err(AuditError::LruUnbounded { queued, resident });
        }
        Ok(())
    }

    /// Hold the LRU to its bound: once the lists outgrow it, drop every
    /// stale entry, keeping the live ones in order. Called by every op
    /// that queued entries or freed frames; nothing a run does moves.
    fn bound_lru(&mut self) {
        if !lru_within_bound(self.lru.len(), self.frames.nr_used()) {
            self.compact_lru();
        }
    }

    /// Drop every stale LRU entry ([`is_live`]), keeping the live ones in
    /// order. Out of line: the common case is one comparison.
    #[cold]
    #[inline(never)]
    fn compact_lru(&mut self) {
        let Self { lru, procs, .. } = self;
        lru.retain(|e| is_live(procs, e));
    }

    // ---- process lifecycle -----------------------------------------

    /// Create a new (empty) process.
    pub fn spawn(&mut self) -> Pid {
        let pid = self.procs.len() as Pid;
        self.procs.push(Process::new(pid));
        pid
    }

    /// Tear a process down, releasing all frames and swap slots.
    pub fn exit(&mut self, pid: Pid) -> MmResult<()> {
        let proc = self
            .procs
            .get_mut(pid as usize)
            .ok_or(MmError::NoSuchProcess(pid))?;
        proc.exited = true;
        let ranges = proc.vma_ranges();
        for r in ranges {
            self.munmap(pid, r)?;
        }
        Ok(())
    }

    /// Map anonymous memory for `pid`.
    pub fn mmap(&mut self, pid: Pid, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        self.proc_mut(pid)?.mmap(len, thp)
    }

    /// Map anonymous memory at a fixed address.
    pub fn mmap_at(&mut self, pid: Pid, start: u64, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        self.proc_mut(pid)?.mmap_at(start, len, thp)
    }

    /// Unmap the VMA exactly covering `range`, releasing its resources.
    pub fn munmap(&mut self, pid: Pid, range: AddrRange) -> MmResult<()> {
        let vma = self.proc_mut(pid)?.take_vma(range)?;
        let mut freed_pages = 0u64;
        for (_addr, pte) in vma.iter_mapped() {
            match pte.state {
                PteState::Resident(f) => {
                    self.frames.free(f);
                    freed_pages += 1;
                }
                PteState::Swapped(slot) => self.swap.discard(slot),
                PteState::None => {}
            }
        }
        let now = self.now();
        self.proc_mut(pid)?.unmap_pages(now, freed_pages);
        if freed_pages > 0 {
            self.bound_lru();
        }
        Ok(())
    }

    fn proc_mut(&mut self, pid: Pid) -> MmResult<&mut Process> {
        self.procs
            .get_mut(pid as usize)
            .ok_or(MmError::NoSuchProcess(pid))
    }

    fn proc(&self, pid: Pid) -> MmResult<&Process> {
        self.procs
            .get(pid as usize)
            .ok_or(MmError::NoSuchProcess(pid))
    }

    // ---- time -------------------------------------------------------

    /// Advance virtual time. O(1): the time-weighted RSS integral behind
    /// the average-RSS metric is settled per process, when its RSS changes
    /// and when its statistics are read (`Process::settle`).
    pub fn advance(&mut self, delta: Ns) {
        self.clock.advance(delta);
    }

    // ---- the workload-facing access path ---------------------------

    /// Apply one access batch for `pid`, servicing faults and charging the
    /// cost model. Returns what happened; `outcome.cost_ns` is the time
    /// the workload spent (the caller advances the clock with it).
    pub fn apply_access(&mut self, pid: Pid, batch: &AccessBatch) -> MmResult<AccessOutcome> {
        let mut out = AccessOutcome::default();
        let mut faults = std::mem::take(&mut self.fault_scratch);
        faults.clear();

        // Pass 1: touch resident pages in place, queue the rest.
        {
            let Self { procs, rng, .. } = self;
            let proc = procs
                .get_mut(pid as usize)
                .ok_or(MmError::NoSuchProcess(pid))?;
            for vma in proc.vmas_mut() {
                let Some(isect) = vma.range.intersect(&batch.range) else {
                    continue;
                };
                match batch.pattern {
                    TouchPattern::All => vma.touch_run(&isect, 1, &mut faults, &mut out),
                    TouchPattern::Stride(n) => vma.touch_run(&isect, n, &mut faults, &mut out),
                    TouchPattern::Random { count } => {
                        let nr = isect.nr_pages();
                        if nr > 0 {
                            let base = isect.page_aligned().start;
                            for _ in 0..count {
                                let addr = base + rng.random_range(0..nr) * PAGE_SIZE;
                                if vma.touch_resident(addr) {
                                    out.touched_pages += 1;
                                    out.touched_huge += vma.is_huge(addr) as u64;
                                } else {
                                    faults.push(addr);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Pass 2: service the faults (may trigger reclaim).
        let stall_ns = self.service_faults(pid, &faults, &mut out)?;
        if !faults.is_empty() {
            self.bound_lru();
        }
        self.fault_scratch = faults;

        // Cost model: DRAM latency + TLB walks, per logical access.
        let pages_4k = out.touched_pages - out.touched_huge;
        let ws_4k = pages_4k * PAGE_SIZE;
        let ws_2m = out.touched_huge * PAGE_SIZE;
        let (c4, c2) = access_costs(&self.machine, ws_4k, ws_2m);
        let apc = batch.accesses_per_page.max(0.0) as f64;
        let access_ns =
            ((pages_4k as f64 * c4 + out.touched_huge as f64 * c2) * apc) as Ns;

        let proc = self.proc_mut(pid)?;
        proc.stats.access_ns += access_ns;
        proc.stats.stall_ns += stall_ns;
        out.cost_ns = access_ns + stall_ns;
        Ok(out)
    }

    /// Service the faults pass 1 queued, in order, one (VMA, 2 MiB chunk)
    /// run at a time: minor (first touch) or major (swap-in) each, with
    /// pressure reclaim whenever DRAM is full. Returns the stall charged.
    ///
    /// Process, VMA and huge flag are resolved once per run (whether
    /// anyone is tracing, once per batch), and the run's RSS and fault
    /// counters are folded into one update. What stays per page is what a
    /// page decides: its state, read when its turn comes (an address a
    /// `Random` batch drew twice is resident by its second turn, and is
    /// skipped), the swap load, the frame, the page-table write and the
    /// LRU push. Reclaim may evict the faulting process's own pages, so
    /// the run is folded *before* it: peak RSS is then the per-page peak,
    /// and the swap device sees the page's load ahead of reclaim's stores,
    /// as a per-page loop would issue them.
    fn service_faults(
        &mut self,
        pid: Pid,
        faults: &[u64],
        out: &mut AccessOutcome,
    ) -> MmResult<Ns> {
        use daos_trace::Event;
        let (now, tracing) = (self.now(), daos_trace::enabled());
        let mut stall: Ns = 0;
        // Set while `faults[i]` has had its swap-in (if it was one: the
        // flag) and waits for reclaim to free it a frame.
        let mut waiting: Option<bool> = None;
        let mut i = 0;
        while i < faults.len() {
            let Self { procs, frames, swap, lru, machine, .. } = self;
            let proc = procs.get_mut(pid as usize).ok_or(MmError::NoSuchProcess(pid))?;
            let vma = proc.find_vma_mut(faults[i]).ok_or(MmError::Unmapped(faults[i]))?;
            let chunk = huge_align_down(faults[i]);
            let run_end = (chunk + HUGE_PAGE_SIZE).min(vma.range.end);
            let run = AddrRange::new(chunk.max(vma.range.start), run_end);
            let huge = vma.is_huge(chunk);
            let (mut mapped, mut major) = (0u64, 0u64);
            while let Some(&addr) = faults.get(i).filter(|a| run.contains(**a)) {
                let swapped_in = match waiting.take() {
                    Some(swapped_in) => swapped_in,
                    None => match vma.pte(addr).state {
                        PteState::Resident(_) => {
                            i += 1;
                            continue;
                        }
                        PteState::None => {
                            stall += machine.minor_fault_ns;
                            false
                        }
                        PteState::Swapped(slot) => {
                            stall += swap.load(slot, machine) + machine.major_fault_extra_ns;
                            true
                        }
                    },
                };
                let Some(frame) = frames.alloc(pid, addr) else {
                    waiting = Some(swapped_in);
                    break;
                };
                let gen = vma.map_page(addr, frame, true);
                lru.insert(LruList::Inactive, pid, addr, gen);
                mapped += 1;
                major += swapped_in as u64;
                if tracing {
                    if swapped_in {
                        daos_trace::emit(now, Event::SwapIn { pid, addr });
                    }
                    daos_trace::emit(now, Event::PageFault { pid, addr, major: swapped_in });
                }
                i += 1;
            }
            if mapped > 0 {
                proc.map_pages(now, mapped);
                proc.stats.minor_faults += mapped - major;
                proc.stats.major_faults += major;
                proc.stats.swapins += major;
                out.minor_faults += mapped - major;
                out.major_faults += major;
                out.touched_pages += mapped;
                out.touched_huge += if huge { mapped } else { 0 };
            }
            if waiting.is_some() {
                // DRAM is full: direct reclaim, charged to the faulter.
                stall += self.shrink(RECLAIM_BATCH);
                if self.frames.nr_free() == 0 {
                    return Err(MmError::OutOfMemory);
                }
            }
        }
        Ok(stall)
    }

    /// Pressure reclaim: evict up to `target` cold pages from the LRU
    /// lists to swap. Returns the CPU time spent (charged to the caller
    /// as direct-reclaim stall).
    fn shrink(&mut self, target: u64) -> Ns {
        let mut freed = 0u64;
        let mut cost: Ns = 0;
        // Budget prevents livelock when every queued entry is referenced.
        // It counts the entries the pass judges: a stale pop costs nothing
        // (and still removes an entry, so the loop ends), which leaves what
        // the pass does independent of how many stale entries are queued.
        let mut budget = (self.frames.capacity() as u64 * 4).max(1024);
        let budget_start = budget;
        // Neighbours on the lists were mostly mapped one after the other.
        let mut at = 0;

        while freed < target && budget > 0 {
            let Some(e) = self.lru.pop_inactive() else {
                // Refill inactive from the active list's cold tail.
                let Some(a) = self.lru.pop_active() else { break };
                if let Some(gen) = self.bump_resident(&mut at, a.pid, a.addr, Some(a.gen), false) {
                    budget -= 1;
                    self.lru.insert(LruList::Inactive, a.pid, a.addr, gen);
                }
                continue;
            };
            let verdict = self.reclaim_page(&mut at, e.pid, e.addr, Some(e.gen));
            budget -= !matches!(verdict, Ok(Reclaimed::Stale)) as u64;
            match verdict {
                Ok(Reclaimed::Stale) => {}
                // Second chance: promote to active.
                Ok(Reclaimed::Referenced(gen)) => {
                    self.lru.insert(LruList::Active, e.pid, e.addr, gen);
                }
                Ok(Reclaimed::Evicted(_)) => {
                    cost += self.machine.pageout_page_ns;
                    freed += 1;
                    self.kstats.pressure_reclaims += 1;
                }
                // Swap full: anonymous pages become unreclaimable.
                Err(MmError::SwapFull) => break,
                Err(e) => {
                    debug_assert!(false, "reclaim can only fail on a full swap device: {e}");
                    break;
                }
            }
        }
        self.kstats.reclaim_ns += cost;
        daos_trace::trace!(
            self.now(),
            Reclaim { freed_pages: freed, scanned: budget_start - budget, cost_ns: cost }
        );
        cost
    }

    /// [`Vma::bump_resident`] on the page at `(pid, addr)`; a page that is
    /// gone (process, mapping or residency) is `None`.
    fn bump_resident(
        &mut self,
        at: &mut usize,
        pid: Pid,
        addr: u64,
        queued_gen: Option<u32>,
        clear_accessed: bool,
    ) -> Option<u32> {
        let vma = self.procs.get_mut(pid as usize)?.vma_near(at, addr)?;
        vma.bump_resident(addr, queued_gen, clear_accessed)
    }

    /// Judge one reclaim candidate — an LRU entry queued under
    /// `Some(lru_gen)`, or with `None` a page a scheme found resident —
    /// and evict it to swap if it is cold, all in one resolve of
    /// [`Vma::reclaim_page`], whose verdict this returns with the frame
    /// already freed. A page that is gone is `Stale`; the only error is
    /// the swap device's [`MmError::SwapFull`], which leaves the page
    /// resident. An eviction costs the caller `pageout_page_ns` of
    /// synchronous kernel CPU; the device write itself is asynchronous
    /// (writeback) and only tracked in [`KernelStats::swap_write_ns`].
    fn reclaim_page(
        &mut self,
        at: &mut usize,
        pid: Pid,
        addr: u64,
        lru_gen: Option<u32>,
    ) -> MmResult<Reclaimed> {
        let Self { procs, swap, machine, kstats, frames, clock, .. } = self;
        let Some(proc) = procs.get_mut(pid as usize) else { return Ok(Reclaimed::Stale) };
        let Some(vma) = proc.vma_near(at, addr) else { return Ok(Reclaimed::Stale) };
        let verdict = vma.reclaim_page(addr, lru_gen, || {
            let (slot, store_ns) = swap.store(machine)?;
            kstats.swap_write_ns += store_ns;
            Ok(slot)
        })?;
        if let Reclaimed::Evicted(frame) = verdict {
            let now = clock.now();
            proc.unmap_pages(now, 1);
            proc.stats.swapouts += 1;
            frames.free(frame);
            daos_trace::trace!(now, SwapOut { pid, addr });
        }
        Ok(verdict)
    }

    // ---- monitoring hooks (the "Monitoring Primitives" substrate) ---

    /// A forward cursor over `pid`'s page tables for a sweep of
    /// accessed-bit checks (an unknown `pid` has nothing mapped).
    pub fn pte_cursor(&mut self, pid: Pid) -> PteCursor<&mut [Vma]> {
        PteCursor::new(self.procs.get_mut(pid as usize).map(Process::vmas_mut).unwrap_or_default())
    }

    /// The physical-space cursor, [`PteCursor::access`] by frame address:
    /// `cursor(old, new)` says whether the page backed by the frame at `old`
    /// was accessed, then clears the bit of the page backed by `new`;
    /// unowned frames read `false`. Two frames of one region may belong to
    /// two processes, so each goes through rmap to its owner's
    /// [`PteCursor`] on its own, started at the VMA index the last one
    /// hit — processes are laid out alike, so it mostly hits.
    pub fn paddr_cursor(&mut self) -> impl FnMut(Option<u64>, Option<u64>) -> bool + '_ {
        let mut at = 0;
        move |old, new| {
            let mut was = false;
            for (paddr, clear) in [(old, false), (new, true)] {
                let Some((pid, vaddr)) = paddr.and_then(|p| self.phys_owner(p)) else { continue };
                let mut cur = self.pte_cursor(pid);
                cur.at = at;
                was |= cur.access((!clear).then_some(vaddr), clear.then_some(vaddr));
                at = cur.at;
            }
            was
        }
    }

    /// Read **and clear** the accessed bit of the page at `addr`.
    /// `None` when the address is unmapped. This is the PTE-based access
    /// check of §3.1, as a one-shot cursor lookup.
    pub fn check_accessed_clear(&mut self, pid: Pid, addr: u64) -> Option<bool> {
        self.pte_cursor(pid).clear_accessed(addr)
    }

    /// Peek at the accessed bit without clearing (ground-truth checks).
    pub fn peek_accessed(&self, pid: Pid, addr: u64) -> Option<bool> {
        PteCursor::new(self.procs.get(pid as usize)?.vmas()).accessed(addr)
    }

    /// Physical-space access check via rmap: translate the frame at
    /// `paddr` to its owner mapping and check that PTE. Unowned frames
    /// read as "not accessed".
    pub fn check_paddr_accessed_clear(&mut self, paddr: u64) -> bool {
        self.paddr_cursor()(Some(paddr), Some(paddr))
    }

    /// Record monitor CPU work; returns the interference to charge the
    /// running workload (shared-resource slowdown).
    pub fn charge_monitor(&mut self, ns: Ns) -> Ns {
        self.kstats.monitor_ns += ns;
        (ns as f64 * self.machine.monitor_interference) as Ns
    }

    /// Record schemes-engine CPU work; returns workload interference.
    pub fn charge_schemes(&mut self, ns: Ns) -> Ns {
        self.kstats.schemes_ns += ns;
        (ns as f64 * self.machine.monitor_interference) as Ns
    }

    // ---- scheme actions (what DAMOS applies) ------------------------

    /// Page out resident pages of `pid` within `range`.
    ///
    /// As in the kernel's reclaim path (`shrink_folio_list`'s reference
    /// check), pages whose accessed bit is set get a second chance: the
    /// bit is cleared and the page is skipped, so actively-used pages
    /// inside a matched region survive and only pages idle across two
    /// pageout attempts are evicted. Returns `(bytes_paged_out,
    /// kernel_cost_ns)`; stops early when swap fills up.
    ///
    /// One [`Vma::pageout_in`] per VMA, a word of pages at a time, then the
    /// evictions' bookkeeping in address order — each frame freed and its
    /// `SwapOut` traced — and one RSS update: what a loop of
    /// [`Vma::reclaim_page`] over the resident pages did, page by page.
    pub fn pageout(&mut self, pid: Pid, range: AddrRange) -> MmResult<(u64, Ns)> {
        let Self { procs, swap, machine, kstats, frames, clock, evicted, .. } = self;
        let proc = procs.get_mut(pid as usize).ok_or(MmError::NoSuchProcess(pid))?;
        let mut stored = Ok(());
        for vma in proc.vmas_mut() {
            stored = vma.pageout_in(&range, evicted, || {
                let (slot, store_ns) = swap.store(machine)?;
                kstats.swap_write_ns += store_ns;
                Ok(slot)
            });
            if stored.is_err() {
                break;
            }
        }
        if let Err(e) = stored {
            debug_assert_eq!(e, MmError::SwapFull, "reclaim can only fail on a full swap device");
        }
        let nr = evicted.len() as u64;
        if nr > 0 {
            let (now, tracing) = (clock.now(), daos_trace::enabled());
            for (addr, frame) in evicted.drain(..) {
                frames.free(frame);
                if tracing {
                    daos_trace::emit(now, daos_trace::Event::SwapOut { pid, addr });
                }
            }
            proc.unmap_pages(now, nr);
            proc.stats.swapouts += nr;
            kstats.damos_pageouts += nr;
            self.bound_lru();
        }
        Ok((nr * PAGE_SIZE, nr * self.machine.pageout_page_ns))
    }

    /// Page out by *physical* address range, via rmap (prec-style targets):
    /// each owned frame's page judged and, if cold, evicted on its own
    /// ([`Vma::reclaim_page`]), until swap is full.
    pub fn pageout_paddr(&mut self, range: AddrRange) -> (u64, Ns) {
        let (mut nr, mut at, dram) = (0u64, 0, self.machine.dram_bytes);
        for paddr in range.pages().take_while(|&p| p < dram) {
            let Some((pid, vaddr)) = self.phys_owner(paddr) else { continue };
            match self.reclaim_page(&mut at, pid, vaddr, None) {
                Ok(Reclaimed::Evicted(_)) => nr += 1,
                Ok(Reclaimed::Stale | Reclaimed::Referenced(_)) => {}
                Err(e) => {
                    debug_assert_eq!(e, MmError::SwapFull, "reclaim can only fail on a full swap device");
                    break;
                }
            }
        }
        self.kstats.damos_pageouts += nr;
        if nr > 0 {
            self.bound_lru();
        }
        (nr * PAGE_SIZE, nr * self.machine.pageout_page_ns)
    }

    fn resident_addrs_in(&self, pid: Pid, range: AddrRange) -> MmResult<Vec<u64>> {
        let proc = self.proc(pid)?;
        let mut addrs = Vec::new();
        for vma in proc.vmas() {
            vma.collect_resident_in(&range, &mut addrs);
        }
        Ok(addrs)
    }

    /// Promote every fully-mapped, swap-free, 2 MiB-aligned chunk in
    /// `range` to a huge page, allocating backing frames for not-yet-
    /// faulted subpages (this is the THP *bloat* of Kwon et al.).
    /// Returns `(chunks_promoted, kernel_cost_ns)`.
    pub fn promote_huge(&mut self, pid: Pid, range: AddrRange) -> MmResult<(u64, Ns)> {
        let Self { procs, frames, machine, clock, .. } = self;
        let proc = procs.get_mut(pid as usize).ok_or(MmError::NoSuchProcess(pid))?;
        if range.len() < HUGE_PAGE_SIZE {
            return Ok((0, 0));
        }
        // The chunks not yet huge, found before anything is allocated
        // (promoting one chunk changes no other chunk's flag). A scheme
        // mostly tries ranges holding none — most of what ethp tries is
        // under 2 MiB, where no aligned chunk fits at all.
        let chunk_addrs: Vec<u64> = proc
            .vmas()
            .iter()
            .filter(|v| v.thp != ThpMode::Never)
            .flat_map(|v| v.chunks_in(&range).filter(|&c| !v.is_huge(c)))
            .collect();
        let (mut promoted, mut at, mut filled) = (0u64, 0, Vec::new());
        for chunk in chunk_addrs {
            let vma = proc.vma_near(&mut at, chunk).ok_or(MmError::Unmapped(chunk))?;
            // khugepaged does not collapse over swap entries.
            if vma.chunk_nr_swapped(chunk) > 0 {
                continue;
            }
            // A frame per hole, ascending. If DRAM runs out mid-chunk,
            // abandon the chunk (the kernel's fast path also refuses to
            // reclaim for THP).
            filled.clear();
            let complete = vma
                .chunk_holes(chunk)
                .all(|addr| frames.alloc(pid, addr).map(|f| filled.push((addr, f))).is_some());
            if !complete {
                filled.iter().for_each(|&(_, f)| frames.free(f));
                continue;
            }
            // Filler is mapped neither accessed nor touched, and off the
            // LRU — the bloat `demote_huge` gives back.
            for &(addr, frame) in &filled {
                vma.map_page(addr, frame, false);
            }
            vma.set_huge(chunk, true);
            proc.map_pages(clock.now(), filled.len() as u64);
            proc.stats.thp_promotions += 1;
            promoted += 1;
        }
        if promoted > 0 {
            daos_trace::trace!(clock.now(), ThpPromote { pid, chunks: promoted });
        }
        Ok((promoted, promoted * machine.huge_alloc_ns))
    }

    /// One khugepaged pass: promote every aligned chunk of `pid`'s
    /// THP-eligible VMAs that has at least `min_resident` resident pages
    /// (Linux's "always" THP mode promotes aggressively — the behaviour
    /// whose bloat the paper's `ethp` scheme fixes). Returns
    /// `(chunks_promoted, kernel_cost_ns)`.
    pub fn khugepaged_scan(&mut self, pid: Pid, min_resident: u64) -> MmResult<(u64, Ns)> {
        let candidates: Vec<u64> = self
            .proc(pid)?
            .vmas()
            .iter()
            .filter(|v| v.thp != ThpMode::Never)
            .flat_map(|v| {
                let eligible = |&c: &u64| !v.is_huge(c) && v.chunk_nr_resident(c) >= min_resident;
                v.chunks_in(&v.range).filter(eligible)
            })
            .collect();
        candidates.into_iter().try_fold((0, 0), |(promoted, cost), chunk| {
            let (p, ns) = self.promote_huge(pid, AddrRange::new(chunk, chunk + HUGE_PAGE_SIZE))?;
            Ok((promoted + p, cost + ns))
        })
    }

    /// Demote (split) huge chunks in `range` back to base pages, freeing
    /// subpages that were allocated by promotion but never touched.
    /// Returns `(bytes_freed, kernel_cost_ns)`.
    pub fn demote_huge(&mut self, pid: Pid, range: AddrRange) -> MmResult<(u64, Ns)> {
        let Self { procs, frames, machine, clock, .. } = self;
        let proc = procs.get_mut(pid as usize).ok_or(MmError::NoSuchProcess(pid))?;
        if range.len() < HUGE_PAGE_SIZE {
            return Ok((0, 0));
        }
        // The huge chunks, found before any is split, as in `promote_huge`.
        let chunk_addrs: Vec<u64> = proc
            .vmas()
            .iter()
            .flat_map(|v| v.chunks_in(&range).filter(|&c| v.is_huge(c)))
            .collect();
        let (mut freed_pages, mut cost, mut at, mut freed) = (0u64, 0 as Ns, 0, Vec::new());
        for chunk in chunk_addrs {
            let vma = proc.vma_near(&mut at, chunk).ok_or(MmError::Unmapped(chunk))?;
            freed.clear();
            vma.split_huge(chunk, &mut freed);
            freed.iter().for_each(|&f| frames.free(f));
            let nr_freed = freed.len() as u64;
            proc.unmap_pages(clock.now(), nr_freed);
            proc.stats.thp_demotions += 1;
            freed_pages += nr_freed;
            cost += machine.pageout_page_ns * nr_freed.max(1);
        }
        let freed_bytes = freed_pages * PAGE_SIZE;
        if freed_bytes > 0 {
            daos_trace::trace!(clock.now(), ThpDemote { pid, freed_bytes });
            self.bound_lru();
        }
        Ok((freed_bytes, cost))
    }

    /// `MADV_COLD`-style deactivation: move resident pages of `range` to
    /// the inactive LRU tail (next reclaim victims) and age them.
    pub fn mark_cold(&mut self, pid: Pid, range: AddrRange) -> MmResult<u64> {
        let addrs = self.resident_addrs_in(pid, range)?;
        let (mut nr, mut at) = (0u64, 0);
        for addr in addrs {
            // Aged whatever its prior queue state: the bit is cleared too.
            if let Some(gen) = self.bump_resident(&mut at, pid, addr, None, true) {
                self.lru.deactivate_to_tail(pid, addr, gen);
                nr += 1;
            }
        }
        if nr > 0 {
            self.bound_lru();
        }
        Ok(nr)
    }

    /// LRU-activate resident pages of `range` (the DAMON_LRU_SORT
    /// "prioritise hot pages" operation): they move to the active list's
    /// head, making them the last candidates for pressure reclaim.
    pub fn mark_hot(&mut self, pid: Pid, range: AddrRange) -> MmResult<u64> {
        let addrs = self.resident_addrs_in(pid, range)?;
        let (mut nr, mut at) = (0u64, 0);
        for addr in addrs {
            // Activation must not erase reference information.
            if let Some(gen) = self.bump_resident(&mut at, pid, addr, None, false) {
                self.lru.insert(LruList::Active, pid, addr, gen);
                nr += 1;
            }
        }
        if nr > 0 {
            self.bound_lru();
        }
        Ok(nr)
    }

    /// `MADV_WILLNEED`-style prefetch: swap swapped pages of `range` back
    /// in (without charging the owning process a fault). Returns
    /// `(bytes_brought_in, kernel_cost_ns)`.
    pub fn willneed(&mut self, pid: Pid, range: AddrRange) -> MmResult<(u64, Ns)> {
        let swapped: Vec<u64> = {
            let proc = self.proc(pid)?;
            let mut v = Vec::new();
            for vma in proc.vmas() {
                vma.collect_swapped_in(&range, &mut v);
            }
            v
        };
        let mut bytes = 0u64;
        let mut cost: Ns = 0;
        for addr in swapped {
            let Self { procs, frames, swap, lru, machine, clock, .. } = self;
            let proc = procs.get_mut(pid as usize).ok_or(MmError::NoSuchProcess(pid))?;
            let vma = proc.find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
            let PteState::Swapped(slot) = vma.pte(addr).state else { continue };
            let Some(frame) = frames.alloc(pid, addr) else { break };
            cost += swap.load(slot, machine);
            // Prefetched, not used: mapped neither accessed nor touched.
            let gen = vma.map_page(addr, frame, false);
            proc.map_pages(clock.now(), 1);
            proc.stats.swapins += 1;
            lru.insert(LruList::Active, pid, addr, gen);
            bytes += PAGE_SIZE;
        }
        if bytes > 0 {
            self.bound_lru();
        }
        Ok((bytes, cost))
    }

    // ---- test/diagnostic helpers ------------------------------------

    /// Number of resident pages of `pid` within `range`.
    pub fn nr_resident_in(&self, pid: Pid, range: AddrRange) -> u64 {
        self.resident_addrs_in(pid, range)
            .map(|v| v.len() as u64)
            .unwrap_or(0)
    }

    /// Number of swapped pages of `pid` within `range`.
    pub fn nr_swapped_in(&self, pid: Pid, range: AddrRange) -> u64 {
        let Ok(proc) = self.proc(pid) else { return 0 };
        let mut v = Vec::new();
        for vma in proc.vmas() {
            vma.collect_swapped_in(&range, &mut v);
        }
        v.len() as u64
    }

    /// Bytes of `pid`'s address space currently huge-mapped.
    pub fn huge_bytes(&self, pid: Pid) -> u64 {
        self.proc(pid)
            .map(|p| p.vmas().iter().map(|v| v.huge_bytes()).sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessBatch;

    fn sys_with_dram(bytes: u64, swap: SwapConfig) -> MemorySystem {
        let mut m = MachineProfile::test_tiny();
        m.dram_bytes = bytes;
        MemorySystem::new(m, swap, 42)
    }

    fn small_sys() -> (MemorySystem, Pid, AddrRange) {
        let mut sys = sys_with_dram(64 << 20, SwapConfig::paper_zram());
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap(); // 256 pages
        (sys, pid, range)
    }

    #[test]
    fn first_touch_minor_faults_and_builds_rss() {
        let (mut sys, pid, range) = small_sys();
        let out = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(out.touched_pages, 256);
        assert_eq!(out.minor_faults, 256);
        assert_eq!(out.major_faults, 0);
        assert_eq!(sys.rss_bytes(pid), 1 << 20);
        assert!(out.cost_ns > 0);
        // Second touch: no faults, cheaper.
        let out2 = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(out2.minor_faults, 0);
        assert!(out2.cost_ns < out.cost_ns);
    }

    #[test]
    fn accessed_bit_set_and_cleared_by_monitor_check() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(sys.peek_accessed(pid, range.start), Some(true));
        assert_eq!(sys.check_accessed_clear(pid, range.start), Some(true));
        assert_eq!(sys.check_accessed_clear(pid, range.start), Some(false));
        assert_eq!(sys.check_accessed_clear(pid, 0xdead_0000), None);
    }

    #[test]
    fn pageout_then_reaccess_major_faults() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        // First pass clears the reference bits (second chance)…
        let (bytes, _cost) = sys.pageout(pid, range).unwrap();
        assert_eq!(bytes, 0, "referenced pages survive the first pass");
        // …the second pass evicts the now-unreferenced pages.
        let (bytes, _cost) = sys.pageout(pid, range).unwrap();
        assert_eq!(bytes, 1 << 20);
        assert_eq!(sys.rss_bytes(pid), 0);
        assert_eq!(sys.nr_swapped_in(pid, range), 256);
        let out = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(out.major_faults, 256);
        assert_eq!(sys.rss_bytes(pid), 1 << 20);
        // Major faults cost more than the original minor-fault pass.
        let st = sys.proc_stats(pid).unwrap();
        assert_eq!(st.swapins, 256);
        assert_eq!(st.swapouts, 256);
    }

    #[test]
    fn pressure_reclaim_keeps_system_under_dram_cap() {
        // 1 MiB DRAM, 2 MiB workload: must swap to survive.
        let mut sys = sys_with_dram(1 << 20, SwapConfig::paper_zram());
        let pid = sys.spawn();
        let range = sys.mmap(pid, 2 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert!(sys.used_dram_bytes() <= 1 << 20);
        assert!(sys.kstats.pressure_reclaims > 0);
        assert!(sys.rss_bytes(pid) <= 1 << 20);
        assert_eq!(
            sys.rss_bytes(pid) + sys.nr_swapped_in(pid, range) * PAGE_SIZE,
            2 << 20
        );
    }

    /// Swap filling up in the middle of a reclaim pass ends the pass — the
    /// one error reclaim can meet. The victim it was judging stays
    /// resident, off the lists, with the verdict's one generation bump.
    #[test]
    fn swap_full_mid_shrink_leaves_the_victim_resident() {
        let swap = SwapConfig::File { capacity_bytes: 3 * PAGE_SIZE };
        let mut sys = sys_with_dram(64 * PAGE_SIZE, swap);
        let pid = sys.spawn();
        let range = sys.mmap(pid, 64 * PAGE_SIZE, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        // Every page is on the inactive list under generation 1; make
        // them cold, so that the pass evicts from the oldest on.
        for addr in range.pages() {
            sys.check_accessed_clear(pid, addr);
        }
        let pte = |sys: &MemorySystem, i: u64| {
            sys.procs[pid as usize].vmas()[0].pte(range.start + i * PAGE_SIZE)
        };
        let victim_before = pte(&sys, 3);
        assert_eq!(victim_before.lru_gen, 1);

        let cost = sys.shrink(RECLAIM_BATCH);
        assert_eq!(cost, 3 * sys.machine.pageout_page_ns);
        assert_eq!(sys.kstats.pressure_reclaims, 3);
        assert!(!sys.swap.has_room());
        for evicted in 0..3 {
            let pte = pte(&sys, evicted);
            assert!(matches!(pte.state, PteState::Swapped(_)) && pte.lru_gen == 3, "{pte:?}");
        }
        let victim = crate::vma::Pte { lru_gen: 2, ..victim_before };
        assert_eq!(pte(&sys, 3), victim, "resident in its frame, touched, bumped once");
        assert_eq!(pte(&sys, 4).lru_gen, 1, "the pass ended at the victim");
        assert_eq!(sys.rss_bytes(pid), 61 * PAGE_SIZE);
        assert_eq!(sys.audit(), Ok(()));
    }

    #[test]
    fn no_swap_oom_when_dram_exhausted() {
        let mut sys = sys_with_dram(1 << 20, SwapConfig::None);
        let pid = sys.spawn();
        let range = sys.mmap(pid, 2 << 20, ThpMode::Never).unwrap();
        let err = sys.apply_access(pid, &AccessBatch::all(range, 1.0));
        assert_eq!(err.unwrap_err(), MmError::OutOfMemory);
    }

    #[test]
    fn thp_promotion_bloats_and_demotion_recovers() {
        let mut sys = sys_with_dram(64 << 20, SwapConfig::paper_zram());
        let pid = sys.spawn();
        // 4 MiB aligned at a huge boundary → two aligned chunks.
        let range = sys.mmap_at(pid, 4 * HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE, ThpMode::Always).unwrap();
        // Touch only the first 16 pages of each chunk.
        let (c0, c1) = (range.start, range.start + HUGE_PAGE_SIZE);
        for chunk in [c0, c1] {
            let head = AddrRange::new(chunk, chunk + 16 * PAGE_SIZE);
            sys.apply_access(pid, &AccessBatch::all(head, 1.0)).unwrap();
        }
        let page = |chunk: u64, i: u64| {
            AddrRange::new(chunk + i * PAGE_SIZE, chunk + (i + 1) * PAGE_SIZE)
        };
        // Two of them leave and come back before the promotion: one
        // prefetched and never used again, one faulted back in.
        let (prefetched, refaulted) = (page(c1, 3), page(c1, 5));
        for r in [prefetched, refaulted] {
            sys.pageout(pid, r).unwrap(); // clears the reference bit
            sys.pageout(pid, r).unwrap(); // evicts
        }
        assert_eq!(sys.nr_swapped_in(pid, range), 2);
        sys.willneed(pid, prefetched).unwrap();
        let out = sys.apply_access(pid, &AccessBatch::all(refaulted, 1.0)).unwrap();
        assert_eq!(out.major_faults, 1);
        let rss_before = sys.rss_bytes(pid);
        assert_eq!(rss_before, 32 * PAGE_SIZE);
        let (promoted, _) = sys.promote_huge(pid, range).unwrap();
        assert_eq!(promoted, 2);
        assert_eq!(sys.rss_bytes(pid), 2 * HUGE_PAGE_SIZE, "bloat: full chunks resident");
        assert_eq!(sys.huge_bytes(pid), 2 * HUGE_PAGE_SIZE);
        // A filler subpage the workload gets round to using is data now.
        let used_filler = page(c0, 100);
        let out = sys.apply_access(pid, &AccessBatch::all(used_filler, 1.0)).unwrap();
        assert_eq!((out.touched_pages, out.touched_huge, out.minor_faults), (1, 1, 0));
        // Demote: untouched pages are freed again — the filler, and the
        // prefetched page the chunk was promoted over.
        let (freed, _) = sys.demote_huge(pid, range).unwrap();
        assert_eq!(freed, 2 * HUGE_PAGE_SIZE - 32 * PAGE_SIZE);
        assert_eq!(sys.rss_bytes(pid), 32 * PAGE_SIZE);
        assert_eq!(sys.huge_bytes(pid), 0);
        assert_eq!(sys.nr_resident_in(pid, used_filler), 1, "touched after promotion: kept");
        assert_eq!(sys.nr_resident_in(pid, prefetched), 0, "willneed maps untouched: freed");
        assert_eq!(sys.nr_resident_in(pid, refaulted), 1, "a swap-in fault maps touched: kept");
    }

    /// The touched bit belongs to the mapping: it does not survive the
    /// page leaving DRAM, whoever maps it next.
    #[test]
    fn touched_resets_on_remap() {
        let (mut sys, pid, range) = small_sys();
        let first = AddrRange::new(range.start, range.start + PAGE_SIZE);
        let pte = |sys: &MemorySystem| sys.procs[pid as usize].vmas()[0].pte(first.start);
        sys.apply_access(pid, &AccessBatch::all(first, 1.0)).unwrap();
        assert!(pte(&sys).touched, "a fault maps a touched page");
        sys.pageout(pid, first).unwrap();
        sys.pageout(pid, first).unwrap();
        assert!(!pte(&sys).is_resident() && !pte(&sys).touched);
        sys.willneed(pid, first).unwrap();
        assert!(pte(&sys).is_resident() && !pte(&sys).touched, "touch state must not leak");
        sys.apply_access(pid, &AccessBatch::all(first, 1.0)).unwrap();
        assert!(pte(&sys).touched);
    }

    #[test]
    fn promotion_skips_chunks_with_swapped_pages() {
        let mut sys = sys_with_dram(64 << 20, SwapConfig::paper_zram());
        let pid = sys.spawn();
        let range = sys.mmap_at(pid, 4 * HUGE_PAGE_SIZE, HUGE_PAGE_SIZE, ThpMode::Always).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let first_page = AddrRange::new(range.start, range.start + PAGE_SIZE);
        sys.pageout(pid, first_page).unwrap(); // clears the reference bit
        sys.pageout(pid, first_page).unwrap(); // evicts
        let (promoted, _) = sys.promote_huge(pid, range).unwrap();
        assert_eq!(promoted, 0);
    }

    #[test]
    fn promotion_respects_thp_never() {
        let mut sys = sys_with_dram(64 << 20, SwapConfig::paper_zram());
        let pid = sys.spawn();
        let range = sys.mmap_at(pid, 4 * HUGE_PAGE_SIZE, HUGE_PAGE_SIZE, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let (promoted, _) = sys.promote_huge(pid, range).unwrap();
        assert_eq!(promoted, 0);
    }

    #[test]
    fn willneed_prefetches_swapped_pages() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        sys.pageout(pid, range).unwrap(); // reference-clearing pass
        sys.pageout(pid, range).unwrap(); // eviction pass
        let (bytes, _) = sys.willneed(pid, range).unwrap();
        assert_eq!(bytes, 1 << 20);
        assert_eq!(sys.rss_bytes(pid), 1 << 20);
        // Re-access takes no major faults now.
        let out = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(out.major_faults, 0);
    }

    #[test]
    fn mark_cold_makes_pages_first_victims() {
        // DRAM fits exactly 512 pages; map two 1 MiB areas.
        let mut sys = sys_with_dram(2 << 20, SwapConfig::paper_zram());
        let pid = sys.spawn();
        let a = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        let b = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(a, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::all(b, 1.0)).unwrap();
        // Mark `a` cold, then map+touch a third area to force reclaim.
        sys.mark_cold(pid, a).unwrap();
        let c = sys.mmap(pid, 512 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(c, 1.0)).unwrap();
        let evicted_a = sys.nr_swapped_in(pid, a);
        let evicted_b = sys.nr_swapped_in(pid, b);
        assert!(evicted_a > 0, "cold pages must be evicted");
        assert!(
            evicted_a >= evicted_b * 4,
            "cold area should absorb evictions: a={evicted_a} b={evicted_b}"
        );
    }

    #[test]
    fn munmap_releases_everything() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let head = AddrRange::new(range.start, range.start + 4 * PAGE_SIZE);
        sys.pageout(pid, head).unwrap();
        sys.pageout(pid, head).unwrap();
        assert!(sys.swap().used_bytes() > 0);
        let used_before = sys.used_dram_bytes();
        assert!(used_before > 0);
        sys.munmap(pid, range).unwrap();
        assert_eq!(sys.used_dram_bytes(), 0);
        assert_eq!(sys.rss_bytes(pid), 0);
        assert_eq!(sys.swap().used_bytes(), 0);
    }

    #[test]
    fn exit_tears_down() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        sys.exit(pid).unwrap();
        assert_eq!(sys.used_dram_bytes(), 0);
        assert!(sys.live_pids().is_empty());
    }

    /// `advance` only moves the clock; the integral is settled where RSS
    /// changes and where statistics are read. The oracle is the loop
    /// `advance` used to run: every live process, on every call.
    #[test]
    fn advance_integrates_rss() {
        let mut sys = sys_with_dram(64 << 20, SwapConfig::paper_zram());
        let (p, q) = (sys.spawn(), sys.spawn());
        let a = sys.mmap(p, 1 << 20, ThpMode::Never).unwrap();
        let b = sys.mmap(q, 2 << 20, ThpMode::Never).unwrap();
        let mut eager = [0u128; 2];
        let mut advance = |sys: &mut MemorySystem, delta: Ns| {
            for pid in sys.live_pids() {
                eager[pid as usize] += sys.rss_bytes(pid) as u128 * delta as u128;
            }
            sys.advance(delta);
            eager
        };
        let integral = |sys: &mut MemorySystem, pid| sys.proc_stats(pid).unwrap().rss_time_integral;

        sys.apply_access(p, &AccessBatch::all(a, 1.0)).unwrap();
        advance(&mut sys, 1000);
        assert_eq!(sys.proc_stats(p).unwrap().avg_rss_bytes(1000), 1 << 20);
        sys.apply_access(q, &AccessBatch::all(b, 1.0)).unwrap();
        advance(&mut sys, 500);
        // RSS changes mid-run: half of `a` leaves (second-chance, then out).
        let half = AddrRange::new(a.start, a.start + a.len() / 2);
        sys.pageout(p, half).unwrap();
        advance(&mut sys, 40);
        sys.pageout(p, half).unwrap();
        assert_eq!(sys.rss_bytes(p), 512 << 10);
        let want = advance(&mut sys, 700);
        // A read between two changes settles without disturbing the sum.
        assert_eq!(integral(&mut sys, p), want[0]);
        advance(&mut sys, 60);
        sys.willneed(p, half).unwrap();
        advance(&mut sys, 300);
        sys.exit(q).unwrap();
        let want = advance(&mut sys, 900);
        assert_eq!([integral(&mut sys, p), integral(&mut sys, q)], want);
        assert_eq!(integral(&mut sys, q), (2u128 << 20) * (500 + 40 + 700 + 60 + 300));
        // Reading twice at one instant adds nothing.
        assert_eq!(integral(&mut sys, p), want[0]);
    }

    #[test]
    fn audit_names_what_is_wrong() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(sys.audit(), Ok(()));
        // Two pages in one frame.
        let mut broken = sys.clone();
        let second = range.start + PAGE_SIZE;
        let first_frame = broken.procs[pid as usize].vmas()[0].pte(range.start).state;
        broken.procs[pid as usize].vmas_mut()[0].with_pte(second, |pte| pte.state = first_frame);
        let PteState::Resident(frame) = first_frame else { unreachable!() };
        let owner = Some((pid, range.start));
        let err = broken.audit().unwrap_err();
        assert_eq!(err, AuditError::RmapOwner { pid, addr: second, frame, owner });
        assert!(err.to_string().contains(&format!("page {second:#x} is in frame")), "{err}");
        // A frame nobody maps.
        let mut broken = sys.clone();
        broken.frames.alloc(pid, range.end);
        let err = broken.audit().unwrap_err();
        assert_eq!(err, AuditError::FramesInUse { used: 257, rss_pages: 256 });
        assert_eq!(err.to_string(), "257 frames in use, the processes' RSS sums to 256");
        // A page queued live twice.
        let mut broken = sys.clone();
        let gen = broken.procs[pid as usize].vmas()[0].pte(range.start).lru_gen;
        broken.lru.insert(LruList::Active, pid, range.start, gen);
        let err = broken.audit().unwrap_err();
        assert_eq!(err, AuditError::TwoLiveEntries { pid, addr: range.start });
        // Stale entries past the bound.
        let mut broken = sys.clone();
        let queued = 2 * 256 + LRU_SLACK + 1;
        for _ in sys.lru.len()..queued {
            broken.lru.insert(LruList::Inactive, pid, range.start, gen.wrapping_sub(1));
        }
        let err = broken.audit().unwrap_err();
        assert_eq!(err, AuditError::LruUnbounded { queued, resident: 256 });
        // RSS drifting from the page tables.
        sys.procs[pid as usize].map_pages(0, 1);
        let err = sys.audit().unwrap_err();
        assert_eq!(err, AuditError::Rss { pid, rss_pages: 257, resident_pages: 256 });
        assert!(err.to_string().contains("RSS 257 pages, its VMAs hold 256"), "{err}");
    }

    /// Compaction keeps exactly the live entries, each list in its order,
    /// and a frozen image's lists are let go, not written.
    #[test]
    fn compaction_keeps_the_live_entries_in_order() {
        let (mut sys, pid, range) = small_sys();
        let part = |from: u64, to: u64| {
            AddrRange::new(range.start + from * PAGE_SIZE, range.start + to * PAGE_SIZE)
        };
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        sys.mark_hot(pid, part(0, 96)).unwrap();
        sys.mark_cold(pid, part(64, 128)).unwrap();
        for _ in 0..2 {
            sys.pageout(pid, part(32, 80)).unwrap();
        }
        sys.apply_access(pid, &AccessBatch::stride(part(32, 80), 3, 1.0)).unwrap();
        let entries: Vec<(LruList, LruEntry)> = sys.lru.entries().collect();
        let live: Vec<(LruList, LruEntry)> =
            entries.iter().copied().filter(|(_, e)| is_live(&sys.procs, e)).collect();
        assert!(live.len() < entries.len(), "some entries are stale");
        for list in [LruList::Active, LruList::Inactive] {
            assert!(live.iter().any(|(l, _)| *l == list), "{list:?} holds live entries");
        }
        let mut image = sys.clone();
        image.freeze();
        let mut copy = image.clone();
        sys.compact_lru();
        assert_eq!(sys.lru.entries().collect::<Vec<_>>(), live);
        assert_eq!(sys.audit(), Ok(()));
        copy.compact_lru();
        assert_eq!(copy.lru, sys.lru);
        assert!(!copy.lru.is_shared(), "a copy compacts into lists of its own");
        assert!(image.lru.entries().eq(entries), "the frozen image did not move");
    }

    /// A reclaim pass's budget counts the entries it judges: stale ones,
    /// however many are queued ahead of the live ones, cost it nothing.
    #[test]
    fn stale_entries_cost_a_reclaim_pass_nothing() {
        // 64 frames: a budget of 1024 entries, and an LRU bound above 4096.
        let mut sys = sys_with_dram(64 * PAGE_SIZE, SwapConfig::paper_zram());
        let pid = sys.spawn();
        let range = sys.mmap(pid, 64 * PAGE_SIZE, ThpMode::Never).unwrap();
        for _ in 0..20 {
            sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
            sys.pageout(pid, range).unwrap(); // clears the reference bits
            sys.pageout(pid, range).unwrap(); // evicts: the entries go stale
        }
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(sys.lru.len(), 21 * 64, "1280 stale entries, then 64 live ones");
        let cost = sys.shrink(RECLAIM_BATCH);
        assert_eq!(cost, RECLAIM_BATCH * sys.machine.pageout_page_ns);
        assert_eq!(sys.rss_bytes(pid), (64 - RECLAIM_BATCH) * PAGE_SIZE);
        assert_eq!(sys.audit(), Ok(()));
    }

    #[test]
    fn phys_owner_roundtrip() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        // Find some owned frame.
        let mut found = false;
        for paddr in sys.phys_space().pages().take(4096) {
            if let Some((p, vaddr)) = sys.phys_owner(paddr) {
                assert_eq!(p, pid);
                assert!(range.contains(vaddr));
                found = true;
                break;
            }
        }
        assert!(found);
    }

    #[test]
    fn paddr_check_clears_underlying_pte() {
        let (mut sys, pid, range) = small_sys();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let paddr = sys
            .phys_space()
            .pages()
            .find(|p| sys.phys_owner(*p).is_some())
            .unwrap();
        assert!(sys.check_paddr_accessed_clear(paddr));
        assert!(!sys.check_paddr_accessed_clear(paddr), "bit cleared");
    }

    #[test]
    fn random_pattern_touches_subset() {
        let (mut sys, pid, range) = small_sys();
        let out = sys.apply_access(pid, &AccessBatch::random(range, 32, 1.0)).unwrap();
        assert!(out.touched_pages <= 32);
        assert!(out.touched_pages > 0);
    }

    #[test]
    fn stride_pattern_touch_count() {
        let (mut sys, pid, range) = small_sys();
        let out = sys.apply_access(pid, &AccessBatch::stride(range, 4, 1.0)).unwrap();
        assert_eq!(out.touched_pages, 64); // 256 pages / 4
    }

    #[test]
    fn monitor_charge_returns_interference() {
        let (mut sys, _pid, _range) = small_sys();
        let inter = sys.charge_monitor(1000);
        assert!(inter > 0 && inter < 1000);
        assert_eq!(sys.kstats.monitor_ns, 1000);
    }
}
