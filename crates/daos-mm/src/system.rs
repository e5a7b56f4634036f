//! The simulated machine: processes + frames + swap + LRU + cost model.
//!
//! [`MemorySystem`] is the single entry point the rest of the stack talks
//! to. Workloads drive it with [`AccessBatch`]es; the monitor reads and
//! clears PTE accessed bits through it; the schemes engine applies memory
//! operations (pageout, THP promotion/demotion, ...) through it.

use daos_util::rng::SmallRng;

use crate::access::{AccessBatch, AccessOutcome, TouchPattern};
use crate::addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use crate::clock::{Clock, Ns};
use crate::error::{MmError, MmResult};
use crate::frame::FrameAllocator;
use crate::lru::{Lru, LruList};
use crate::machine::MachineProfile;
use crate::process::{Pid, Process, PteCursor};
use crate::stats::KernelStats;
use crate::swap::{SwapConfig, SwapDevice};
use crate::tlb::access_costs;
use crate::vma::{PteState, ThpMode, Vma};

/// How many pages one pressure-reclaim pass tries to free.
const RECLAIM_BATCH: u64 = 32;

/// The whole simulated machine. `Clone` copies it with everything it
/// has mapped, keeping the LRU lists' and the frame recycle list's
/// growth headroom — the fleet engine stamps shards from one built image.
#[derive(Debug, Clone)]
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
            let touch = |vma: &mut crate::vma::Vma,
                         faults: &mut Vec<u64>,
                         out: &mut AccessOutcome,
                         addr: u64| {
                if vma.touch_resident(addr) {
                    out.touched_pages += 1;
                    out.touched_huge += vma.is_huge(addr) as u64;
                } else {
                    faults.push(addr);
                }
            };
            for vma in proc.vmas_mut() {
                let Some(isect) = vma.range.intersect(&batch.range) else {
                    continue;
                };
                match batch.pattern {
                    TouchPattern::All => vma.touch_run(&isect, 1, &mut faults, &mut out),
                    TouchPattern::Stride(n) => vma.touch_run(&isect, n, &mut faults, &mut out),
                    TouchPattern::Prob(p) => {
                        for addr in isect.pages() {
                            if rng.random::<f32>() < p {
                                touch(vma, &mut faults, &mut out, addr);
                            }
                        }
                    }
                    TouchPattern::Random { count } => {
                        let nr = isect.nr_pages();
                        if nr > 0 {
                            let base = isect.page_aligned().start;
                            for _ in 0..count {
                                let page = rng.random_range(0..nr);
                                touch(vma, &mut faults, &mut out, base + page * PAGE_SIZE);
                            }
                        }
                    }
                }
            }
        }

        // Pass 2: service the faults (may trigger reclaim).
        let mut stall_ns: Ns = 0;
        for &addr in &faults {
            stall_ns += self.handle_fault(pid, addr, &mut out)?;
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

    /// Handle a fault on `addr`: minor (first touch) or major (swap-in).
    fn handle_fault(&mut self, pid: Pid, addr: u64, out: &mut AccessOutcome) -> MmResult<Ns> {
        // Read the PTE state without holding the borrow.
        let (state, huge) = {
            let proc = self.proc(pid)?;
            let vma = proc.find_vma(addr).ok_or(MmError::Unmapped(addr))?;
            (vma.pte(addr).state, vma.is_huge(addr))
        };
        let mut cost: Ns = 0;
        let load_cost = match state {
            PteState::Resident(_) => return Ok(0), // raced with ourselves; nothing to do
            PteState::None => {
                cost += self.machine.minor_fault_ns;
                None
            }
            PteState::Swapped(slot) => {
                let ns = self.swap.load(slot, &self.machine);
                cost += ns + self.machine.major_fault_extra_ns;
                Some(())
            }
        };

        let (frame, reclaim_ns) = self.get_frame(pid, addr)?;
        cost += reclaim_ns;

        let now = self.now();
        let proc = self.proc_mut(pid)?;
        let vma = proc.find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
        let gen = vma.with_pte(addr, |pte| {
            pte.state = PteState::Resident(frame);
            pte.accessed = true;
            pte.touched = true;
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            pte.lru_gen
        });
        proc.map_pages(now, 1);
        if load_cost.is_some() {
            proc.stats.major_faults += 1;
            proc.stats.swapins += 1;
            out.major_faults += 1;
        } else {
            proc.stats.minor_faults += 1;
            out.minor_faults += 1;
        }
        out.touched_pages += 1;
        out.touched_huge += huge as u64;
        self.lru.insert(LruList::Inactive, pid, addr, gen);
        let major = load_cost.is_some();
        if major {
            daos_trace::trace!(now, SwapIn { pid, addr });
        }
        daos_trace::trace!(now, PageFault { pid, addr, major });
        Ok(cost)
    }

    /// Allocate a frame, running pressure reclaim when DRAM is full.
    /// Returns the frame and the direct-reclaim stall charged.
    fn get_frame(&mut self, pid: Pid, addr: u64) -> MmResult<(u32, Ns)> {
        if let Some(f) = self.frames.alloc(pid, addr) {
            return Ok((f, 0));
        }
        let stall = self.shrink(RECLAIM_BATCH);
        self.frames
            .alloc(pid, addr)
            .map(|f| (f, stall))
            .ok_or(MmError::OutOfMemory)
    }

    /// Pressure reclaim: evict up to `target` cold pages from the LRU
    /// lists to swap. Returns the CPU time spent (charged to the caller
    /// as direct-reclaim stall).
    fn shrink(&mut self, target: u64) -> Ns {
        let mut freed = 0u64;
        let mut cost: Ns = 0;
        // Budget prevents livelock when every queued entry is stale or
        // referenced.
        let mut budget = (self.frames.capacity() as u64 * 4).max(1024);
        let budget_start = budget;

        while freed < target && budget > 0 {
            budget -= 1;
            let Some(e) = self.lru.pop_inactive() else {
                // Refill inactive from the active list's cold tail.
                let Some(a) = self.lru.pop_active() else { break };
                if let Some(gen) = self.revalidate_bump(a.pid, a.addr, a.gen, false) {
                    self.lru.insert(LruList::Inactive, a.pid, a.addr, gen);
                }
                continue;
            };

            // Validate and check the accessed bit in one borrow.
            let verdict = {
                let Some(proc) = self.procs.get_mut(e.pid as usize) else { continue };
                let Some(vma) = proc.find_vma_mut(e.addr) else { continue };
                vma.with_pte(e.addr, |pte| {
                    if pte.lru_gen != e.gen || !pte.is_resident() {
                        None // stale
                    } else if pte.accessed {
                        // Second chance: clear and promote to active.
                        pte.accessed = false;
                        pte.lru_gen = pte.lru_gen.wrapping_add(1);
                        Some((true, pte.lru_gen))
                    } else {
                        pte.lru_gen = pte.lru_gen.wrapping_add(1);
                        Some((false, pte.lru_gen))
                    }
                })
            };
            match verdict {
                None => continue,
                Some((true, gen)) => {
                    self.lru.insert(LruList::Active, e.pid, e.addr, gen);
                }
                Some((false, _gen)) => {
                    match self.unmap_to_swap(e.pid, e.addr) {
                        Ok(ns) => {
                            cost += ns;
                            freed += 1;
                            self.kstats.pressure_reclaims += 1;
                        }
                        // Swap full: anonymous pages become unreclaimable.
                        Err(_) => break,
                    }
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

    /// Re-validate a queued LRU entry and bump its generation; returns the
    /// new generation if still live. When `clear_accessed` is set the
    /// accessed bit is also cleared (deactivation ages the page).
    fn revalidate_bump(&mut self, pid: Pid, addr: u64, gen: u32, clear_accessed: bool) -> Option<u32> {
        let proc = self.procs.get_mut(pid as usize)?;
        let vma = proc.find_vma_mut(addr)?;
        vma.with_pte(addr, |pte| {
            if pte.lru_gen != gen || !pte.is_resident() {
                return None;
            }
            if clear_accessed {
                pte.accessed = false;
            }
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            Some(pte.lru_gen)
        })
    }

    /// Unmap one resident page to swap. Returns the *synchronous* kernel
    /// CPU cost; the device write itself is asynchronous (writeback) and
    /// only tracked in [`KernelStats::swap_write_ns`].
    fn unmap_to_swap(&mut self, pid: Pid, addr: u64) -> MmResult<Ns> {
        let (slot, store_ns) = self.swap.store(&self.machine)?;
        self.kstats.swap_write_ns += store_ns;
        let now = self.now();
        let proc = self.proc_mut(pid)?;
        let vma = proc.find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
        let frame = vma.with_pte(addr, |pte| {
            let PteState::Resident(frame) = pte.state else { return None };
            pte.state = PteState::Swapped(slot);
            pte.accessed = false;
            pte.touched = false;
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            Some(frame)
        });
        let Some(frame) = frame else {
            // Caller validated residency; losing the race is a bug.
            self.swap.discard(slot);
            return Err(MmError::Unmapped(addr));
        };
        proc.unmap_pages(now, 1);
        proc.stats.swapouts += 1;
        self.frames.free(frame);
        daos_trace::trace!(now, SwapOut { pid, addr });
        Ok(self.machine.pageout_page_ns)
    }

    // ---- monitoring hooks (the "Monitoring Primitives" substrate) ---

    /// A forward cursor over `pid`'s page tables for a sweep of
    /// accessed-bit checks (an unknown `pid` has nothing mapped).
    pub fn pte_cursor(&mut self, pid: Pid) -> PteCursor<&mut [Vma]> {
        PteCursor::new(self.procs.get_mut(pid as usize).map(Process::vmas_mut).unwrap_or_default())
    }

    /// The physical-space cursor: `cursor(paddr, clear)` says whether the
    /// page backed by the frame at `paddr` was accessed, clearing the bit
    /// when `clear`; unowned frames read `false`. Each check goes through
    /// rmap to the owner's [`PteCursor`], started at the VMA index the
    /// last check hit — processes are laid out alike, so it mostly hits.
    pub fn paddr_cursor(&mut self) -> impl FnMut(u64, bool) -> bool + '_ {
        let mut at = 0;
        move |paddr, clear| {
            let Some((pid, vaddr)) = self.phys_owner(paddr) else { return false };
            let mut cur = self.pte_cursor(pid);
            cur.at = at;
            let was = if clear { cur.clear_accessed(vaddr) } else { cur.accessed(vaddr) };
            at = cur.at;
            was.unwrap_or(false)
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
        self.paddr_cursor()(paddr, true)
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
    pub fn pageout(&mut self, pid: Pid, range: AddrRange) -> MmResult<(u64, Ns)> {
        let addrs = self.resident_addrs_in(pid, range)?;
        let mut bytes = 0u64;
        let mut cost: Ns = 0;
        for addr in addrs {
            if self.reference_check(pid, addr) {
                continue;
            }
            match self.unmap_to_swap(pid, addr) {
                Ok(ns) => {
                    bytes += PAGE_SIZE;
                    cost += ns;
                    self.kstats.damos_pageouts += 1;
                }
                Err(MmError::SwapFull) => break,
                Err(e) => return Err(e),
            }
        }
        Ok((bytes, cost))
    }

    /// The reclaim reference check: if the page was referenced since the
    /// last check, clear the bit and report `true` (skip this round).
    fn reference_check(&mut self, pid: Pid, addr: u64) -> bool {
        let Some(proc) = self.procs.get_mut(pid as usize) else { return false };
        let Some(vma) = proc.find_vma_mut(addr) else { return false };
        vma.with_pte(addr, |pte| {
            if pte.accessed {
                pte.accessed = false;
                true
            } else {
                false
            }
        })
    }

    /// Page out by *physical* address range, via rmap (prec-style targets).
    pub fn pageout_paddr(&mut self, range: AddrRange) -> (u64, Ns) {
        let mut bytes = 0u64;
        let mut cost: Ns = 0;
        for paddr in range.pages() {
            if paddr >= self.machine.dram_bytes {
                break;
            }
            if let Some((pid, vaddr)) = self.phys_owner(paddr) {
                if self.reference_check(pid, vaddr) {
                    continue;
                }
                match self.unmap_to_swap(pid, vaddr) {
                    Ok(ns) => {
                        bytes += PAGE_SIZE;
                        cost += ns;
                        self.kstats.damos_pageouts += 1;
                    }
                    Err(_) => break,
                }
            }
        }
        (bytes, cost)
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
        let chunk_addrs: Vec<u64> = {
            let proc = self.proc(pid)?;
            proc.vmas()
                .iter()
                .filter(|v| v.thp != ThpMode::Never)
                .flat_map(|v| v.chunks_in(&range).collect::<Vec<_>>())
                .collect()
        };
        let mut promoted = 0u64;
        let mut cost: Ns = 0;
        'chunks: for chunk in chunk_addrs {
            // Skip chunks that are already huge or contain swapped pages
            // (khugepaged does not collapse over swap entries).
            let chunk_range = AddrRange::new(chunk, chunk + HUGE_PAGE_SIZE);
            {
                let proc = self.proc(pid)?;
                let vma = proc.find_vma(chunk).ok_or(MmError::Unmapped(chunk))?;
                if vma.is_huge(chunk) {
                    continue;
                }
                if vma.chunk_nr_swapped(chunk) > 0 {
                    continue 'chunks;
                }
            }
            // Fill holes. If DRAM runs out mid-chunk, abandon the chunk
            // (the kernel's fast path also refuses to reclaim for THP).
            let mut allocated: Vec<(u64, u32)> = Vec::new();
            let mut failed = false;
            // Fully-resident chunks (no swap, checked above) have no holes.
            let has_holes = {
                let proc = self.proc(pid)?;
                let vma = proc.find_vma(chunk).ok_or(MmError::Unmapped(chunk))?;
                vma.chunk_nr_resident(chunk) < crate::addr::PAGES_PER_HUGE
            };
            if has_holes {
                for addr in chunk_range.pages() {
                    let is_hole = {
                        let proc = self.proc(pid)?;
                        let vma = proc.find_vma(addr).ok_or(MmError::Unmapped(addr))?;
                        matches!(vma.pte(addr).state, PteState::None)
                    };
                    if !is_hole {
                        continue;
                    }
                    match self.frames.alloc(pid, addr) {
                        Some(f) => allocated.push((addr, f)),
                        None => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            if failed {
                for (_, f) in allocated {
                    self.frames.free(f);
                }
                continue;
            }
            let nr_filled = allocated.len() as u64;
            let now = self.now();
            let proc = self.proc_mut(pid)?;
            for (addr, frame) in allocated {
                let vma = proc.find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
                vma.with_pte(addr, |pte| {
                    pte.state = PteState::Resident(frame);
                    // Filled subpages are neither accessed nor touched —
                    // that is the bloat `demote_huge` gives back.
                    pte.accessed = false;
                    pte.touched = false;
                    pte.lru_gen = pte.lru_gen.wrapping_add(1);
                });
            }
            proc.map_pages(now, nr_filled);
            proc.stats.thp_promotions += 1;
            let vma = proc.find_vma_mut(chunk).ok_or(MmError::Unmapped(chunk))?;
            vma.set_huge(chunk, true);
            promoted += 1;
            cost += self.machine.huge_alloc_ns;
        }
        if promoted > 0 {
            daos_trace::trace!(self.now(), ThpPromote { pid, chunks: promoted });
        }
        Ok((promoted, cost))
    }

    /// One khugepaged pass: promote every aligned chunk of `pid`'s
    /// THP-eligible VMAs that has at least `min_resident` resident pages
    /// (Linux's "always" THP mode promotes aggressively — the behaviour
    /// whose bloat the paper's `ethp` scheme fixes). Returns
    /// `(chunks_promoted, kernel_cost_ns)`.
    pub fn khugepaged_scan(&mut self, pid: Pid, min_resident: u64) -> MmResult<(u64, Ns)> {
        let candidates: Vec<AddrRange> = {
            let proc = self.proc(pid)?;
            let mut v = Vec::new();
            for vma in proc.vmas() {
                if vma.thp == ThpMode::Never {
                    continue;
                }
                for chunk in vma.chunks_in(&vma.range) {
                    if vma.is_huge(chunk) {
                        continue;
                    }
                    let chunk_range = AddrRange::new(chunk, chunk + HUGE_PAGE_SIZE);
                    if vma.chunk_nr_resident(chunk) >= min_resident {
                        v.push(chunk_range);
                    }
                }
            }
            v
        };
        let mut promoted = 0;
        let mut cost = 0;
        for range in candidates {
            let (p, ns) = self.promote_huge(pid, range)?;
            promoted += p;
            cost += ns;
        }
        Ok((promoted, cost))
    }

    /// Demote (split) huge chunks in `range` back to base pages, freeing
    /// subpages that were allocated by promotion but never touched.
    /// Returns `(bytes_freed, kernel_cost_ns)`.
    pub fn demote_huge(&mut self, pid: Pid, range: AddrRange) -> MmResult<(u64, Ns)> {
        let chunk_addrs: Vec<u64> = {
            let proc = self.proc(pid)?;
            proc.vmas()
                .iter()
                .flat_map(|v| v.chunks_in(&range).collect::<Vec<_>>())
                .collect()
        };
        let mut freed_bytes = 0u64;
        let mut cost: Ns = 0;
        for chunk in chunk_addrs {
            let chunk_range = AddrRange::new(chunk, chunk + HUGE_PAGE_SIZE);
            let was_huge = {
                let proc = self.proc_mut(pid)?;
                let vma = proc.find_vma_mut(chunk).ok_or(MmError::Unmapped(chunk))?;
                vma.is_huge(chunk)
            };
            if !was_huge {
                continue;
            }
            // Collect untouched resident subpages.
            let mut to_free: Vec<(u64, u32)> = Vec::new();
            {
                let proc = self.proc(pid)?;
                let vma = proc.find_vma(chunk).ok_or(MmError::Unmapped(chunk))?;
                let mut resident = Vec::new();
                vma.collect_resident_in(&chunk_range, &mut resident);
                for addr in resident {
                    let pte = vma.pte(addr);
                    if let (PteState::Resident(f), false) = (pte.state, pte.touched) {
                        to_free.push((addr, f));
                    }
                }
            }
            let nr_freed = to_free.len() as u64;
            for (_, f) in &to_free {
                self.frames.free(*f);
            }
            let now = self.now();
            let proc = self.proc_mut(pid)?;
            for (addr, _) in &to_free {
                let vma = proc.find_vma_mut(*addr).ok_or(MmError::Unmapped(*addr))?;
                vma.with_pte(*addr, |pte| {
                    pte.state = PteState::None;
                    pte.accessed = false;
                    pte.lru_gen = pte.lru_gen.wrapping_add(1);
                });
            }
            proc.unmap_pages(now, nr_freed);
            proc.stats.thp_demotions += 1;
            let vma = proc.find_vma_mut(chunk).ok_or(MmError::Unmapped(chunk))?;
            vma.set_huge(chunk, false);
            freed_bytes += nr_freed * PAGE_SIZE;
            cost += self.machine.pageout_page_ns * nr_freed.max(1);
        }
        if freed_bytes > 0 {
            daos_trace::trace!(self.now(), ThpDemote { pid, freed_bytes });
        }
        Ok((freed_bytes, cost))
    }

    /// `MADV_COLD`-style deactivation: move resident pages of `range` to
    /// the inactive LRU tail (next reclaim victims) and age them.
    pub fn mark_cold(&mut self, pid: Pid, range: AddrRange) -> MmResult<u64> {
        let addrs = self.resident_addrs_in(pid, range)?;
        let mut nr = 0u64;
        for addr in addrs {
            if let Some(gen) = self.revalidate_current(pid, addr) {
                self.lru.deactivate_to_tail(pid, addr, gen);
                nr += 1;
            }
        }
        Ok(nr)
    }

    /// Bump a page's generation, clearing its accessed bit, regardless of
    /// prior queue state. Returns the new generation if resident.
    fn revalidate_current(&mut self, pid: Pid, addr: u64) -> Option<u32> {
        let proc = self.procs.get_mut(pid as usize)?;
        let vma = proc.find_vma_mut(addr)?;
        vma.with_pte(addr, |pte| {
            if !pte.is_resident() {
                return None;
            }
            pte.accessed = false;
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            Some(pte.lru_gen)
        })
    }

    /// LRU-activate resident pages of `range` (the DAMON_LRU_SORT
    /// "prioritise hot pages" operation): they move to the active list's
    /// head, making them the last candidates for pressure reclaim.
    pub fn mark_hot(&mut self, pid: Pid, range: AddrRange) -> MmResult<u64> {
        let addrs = self.resident_addrs_in(pid, range)?;
        let mut nr = 0u64;
        for addr in addrs {
            if let Some(gen) = self.bump_gen_keep_accessed(pid, addr) {
                self.lru.insert(LruList::Active, pid, addr, gen);
                nr += 1;
            }
        }
        Ok(nr)
    }

    /// Bump a resident page's LRU generation without touching its
    /// accessed bit (activation must not erase reference information).
    fn bump_gen_keep_accessed(&mut self, pid: Pid, addr: u64) -> Option<u32> {
        let proc = self.procs.get_mut(pid as usize)?;
        let vma = proc.find_vma_mut(addr)?;
        vma.with_pte(addr, |pte| {
            if !pte.is_resident() {
                return None;
            }
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            Some(pte.lru_gen)
        })
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
            let Some(frame) = self.frames.alloc(pid, addr) else { break };
            let slot = {
                let proc = self.proc(pid)?;
                let vma = proc.find_vma(addr).ok_or(MmError::Unmapped(addr))?;
                match vma.pte(addr).state {
                    PteState::Swapped(s) => s,
                    _ => {
                        self.frames.free(frame);
                        continue;
                    }
                }
            };
            cost += self.swap.load(slot, &self.machine);
            let now = self.now();
            let proc = self.proc_mut(pid)?;
            let vma = proc.find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
            let gen = vma.with_pte(addr, |pte| {
                pte.state = PteState::Resident(frame);
                pte.accessed = false;
                pte.touched = false;
                pte.lru_gen = pte.lru_gen.wrapping_add(1);
                pte.lru_gen
            });
            proc.map_pages(now, 1);
            proc.stats.swapins += 1;
            self.lru.insert(LruList::Active, pid, addr, gen);
            bytes += PAGE_SIZE;
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
