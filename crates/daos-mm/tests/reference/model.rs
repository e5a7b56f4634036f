//! The page table `daos-mm` stored before the bitmaps: one `[Pte; 512]`
//! per materialised 2 MiB span, and the per-page loops that touched,
//! collected and iterated it. Kept as the model `walker_differential.rs`
//! drives beside the real [`daos_mm::vma::Vma`]: every operation here
//! looks at one whole `Pte` at a time and recounts instead of keeping
//! counters, so it shares neither layout nor arithmetic with the words.
//!
//! The state transitions — `map_page`, `bump_resident`, `reclaim_page`,
//! `split_huge` — are the `with_pte` closures `MemorySystem`'s fault,
//! reclaim, LRU and THP paths ran before `Vma` grew in-place primitives
//! for them, moved here: each names the function it came out of. The
//! fifth, `pageout_in`, is the per-page loop over `reclaim_page` that a
//! scheme's pageout ran before it worked a word at a time.

use daos_mm::access::AccessOutcome;
use daos_mm::addr::{huge_align_down, AddrRange, HUGE_PAGE_SIZE, PAGE_SHIFT, PAGE_SIZE};
use daos_mm::error::MmResult;
use daos_mm::frame::FrameId;
use daos_mm::swap::SwapSlot;
use daos_mm::vma::{Pte, PteState, Reclaimed, PT_CHUNK_PAGES};

const EMPTY: Pte = Pte { state: PteState::None, accessed: false, touched: false, lru_gen: 0 };

/// One VMA's page table, array-of-`Pte`.
pub struct ModelVma {
    pub range: AddrRange,
    /// Slot 0 covers `huge_align_down(range.start)`.
    chunks: Vec<Option<Box<[Pte; PT_CHUNK_PAGES]>>>,
    /// Addresses of the chunks marked huge.
    huge: Vec<u64>,
}

impl ModelVma {
    pub fn new(range: AddrRange) -> Self {
        let slots = (range.end - huge_align_down(range.start)).div_ceil(HUGE_PAGE_SIZE);
        Self { range, chunks: (0..slots).map(|_| None).collect(), huge: Vec::new() }
    }

    fn index(&self, addr: u64) -> (usize, usize) {
        assert!(self.range.contains(addr));
        let slot = (addr - huge_align_down(self.range.start)) / HUGE_PAGE_SIZE;
        (slot as usize, ((addr % HUGE_PAGE_SIZE) >> PAGE_SHIFT) as usize)
    }

    pub fn pte(&self, addr: u64) -> Pte {
        let (slot, pi) = self.index(addr);
        self.chunks[slot].as_ref().map_or(EMPTY, |c| c[pi])
    }

    /// A chunk appears only when `f` leaves a non-empty entry behind.
    pub fn with_pte<R>(&mut self, addr: u64, f: impl FnOnce(&mut Pte) -> R) -> R {
        let (slot, pi) = self.index(addr);
        let mut pte = self.pte(addr);
        let r = f(&mut pte);
        if self.chunks[slot].is_some() || pte != EMPTY {
            self.chunks[slot].get_or_insert_with(|| Box::new([EMPTY; PT_CHUNK_PAGES]))[pi] = pte;
        }
        r
    }

    /// `handle_fault`'s map (`by_cpu`), and `willneed`'s and
    /// `promote_huge`'s filler (not).
    pub fn map_page(&mut self, addr: u64, frame: FrameId, by_cpu: bool) -> u32 {
        self.with_pte(addr, |pte| {
            pte.state = PteState::Resident(frame);
            pte.accessed = by_cpu;
            pte.touched = by_cpu;
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            pte.lru_gen
        })
    }

    /// `revalidate_bump` (a queued generation to match), and without one
    /// `revalidate_current` (clearing) and `bump_gen_keep_accessed` (not).
    pub fn bump_resident(
        &mut self,
        addr: u64,
        queued_gen: Option<u32>,
        clear_accessed: bool,
    ) -> Option<u32> {
        self.with_pte(addr, |pte| {
            if queued_gen.is_some_and(|gen| pte.lru_gen != gen) || !pte.is_resident() {
                return None;
            }
            if clear_accessed {
                pte.accessed = false;
            }
            pte.lru_gen = pte.lru_gen.wrapping_add(1);
            Some(pte.lru_gen)
        })
    }

    /// `shrink`'s verdict on a popped entry (`lru_gen`) or `pageout`'s
    /// `reference_check` (none — its callers only passed resident pages,
    /// which is the contract's `Stale` here), then `unmap_to_swap`.
    pub fn reclaim_page(
        &mut self,
        addr: u64,
        lru_gen: Option<u32>,
        store: impl FnOnce() -> MmResult<SwapSlot>,
    ) -> MmResult<Reclaimed> {
        let verdict = match lru_gen {
            Some(gen) => self.with_pte(addr, |pte| {
                if pte.lru_gen != gen || !pte.is_resident() {
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
            }),
            None if !self.pte(addr).is_resident() => None,
            None => self.with_pte(addr, |pte| {
                if pte.accessed {
                    pte.accessed = false;
                    Some((true, pte.lru_gen))
                } else {
                    Some((false, pte.lru_gen))
                }
            }),
        };
        match verdict {
            None => Ok(Reclaimed::Stale),
            Some((true, gen)) => Ok(Reclaimed::Referenced(gen)),
            Some((false, _)) => {
                let slot = store()?;
                let frame = self.with_pte(addr, |pte| {
                    let PteState::Resident(frame) = pte.state else { return None };
                    pte.state = PteState::Swapped(slot);
                    pte.accessed = false;
                    pte.touched = false;
                    pte.lru_gen = pte.lru_gen.wrapping_add(1);
                    Some(frame)
                });
                Ok(Reclaimed::Evicted(frame.expect("the verdict found the page resident")))
            }
        }
    }

    /// `MemorySystem::pageout`'s loop before `Vma::pageout_in`: the
    /// resident pages of `range ∩ vma`, collected first, each judged and
    /// evicted on its own by `reclaim_page(addr, None, store)` until a
    /// store fails — whose error ends the loop.
    pub fn pageout_in(
        &mut self,
        range: &AddrRange,
        evicted: &mut Vec<(u64, FrameId)>,
        mut store: impl FnMut() -> MmResult<SwapSlot>,
    ) -> MmResult<()> {
        let mut resident = Vec::new();
        self.collect_resident_in(range, &mut resident);
        for addr in resident {
            if let Reclaimed::Evicted(frame) = self.reclaim_page(addr, None, &mut store)? {
                evicted.push((addr, frame));
            }
        }
        Ok(())
    }

    /// `demote_huge`'s split: the chunk's resident pages, each checked
    /// on its own, and every one the CPU never touched unmapped and its
    /// frame handed back.
    pub fn split_huge(&mut self, chunk_addr: u64, freed: &mut Vec<FrameId>) {
        self.set_huge(chunk_addr, false);
        let mut resident = Vec::new();
        let chunk = AddrRange::new(chunk_addr, chunk_addr + HUGE_PAGE_SIZE);
        self.collect_resident_in(&chunk, &mut resident);
        for addr in resident {
            let pte = self.pte(addr);
            if let (PteState::Resident(frame), false) = (pte.state, pte.touched) {
                freed.push(frame);
                self.with_pte(addr, |pte| {
                    pte.state = PteState::None;
                    pte.accessed = false;
                    pte.lru_gen = pte.lru_gen.wrapping_add(1);
                });
            }
        }
    }

    pub fn set_huge(&mut self, chunk_addr: u64, huge: bool) {
        self.huge.retain(|c| *c != chunk_addr);
        if huge {
            self.huge.push(chunk_addr);
        }
    }

    pub fn is_huge(&self, addr: u64) -> bool {
        self.huge.contains(&huge_align_down(addr))
    }

    /// Which chunk slots exist.
    pub fn materialised(&self) -> Vec<bool> {
        self.chunks.iter().map(Option::is_some).collect()
    }

    pub fn clear_accessed(&mut self, addr: u64) -> bool {
        let (slot, pi) = self.index(addr);
        self.chunks[slot].as_mut().is_some_and(|c| std::mem::take(&mut c[pi].accessed))
    }

    pub fn touch_resident(&mut self, addr: u64) -> bool {
        let (slot, pi) = self.index(addr);
        let Some(pte) = self.chunks[slot].as_mut().map(|c| &mut c[pi]) else { return false };
        if pte.is_resident() {
            pte.accessed = true;
            pte.touched = true;
        }
        pte.is_resident()
    }

    pub fn touch_run(
        &mut self,
        range: &AddrRange,
        stride: u32,
        faults: &mut Vec<u64>,
        out: &mut AccessOutcome,
    ) {
        let Some(isect) = self.range.intersect(range) else { return };
        let mut addr = isect.page_aligned().start;
        while addr < isect.end {
            if self.touch_resident(addr) {
                out.touched_pages += 1;
                out.touched_huge += self.is_huge(addr) as u64;
            } else {
                faults.push(addr);
            }
            addr += stride.max(1) as u64 * PAGE_SIZE;
        }
    }

    /// Every page of `range ∩ vma` with its entry, ascending.
    fn pages_in(&self, range: &AddrRange) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let isect = self.range.intersect(range).unwrap_or(AddrRange::empty());
        isect.page_aligned().pages().map(|a| (a, self.pte(a)))
    }

    pub fn collect_resident_in(&self, range: &AddrRange, out: &mut Vec<u64>) {
        out.extend(self.pages_in(range).filter(|(_, p)| p.is_resident()).map(|(a, _)| a));
    }

    pub fn collect_swapped_in(&self, range: &AddrRange, out: &mut Vec<u64>) {
        let swapped = |p: &Pte| matches!(p.state, PteState::Swapped(_));
        out.extend(self.pages_in(range).filter(|(_, p)| swapped(p)).map(|(a, _)| a));
    }

    pub fn iter_mapped(&self) -> Vec<(u64, Pte)> {
        self.pages_in(&self.range).filter(|(_, p)| p.state != PteState::None).collect()
    }

    pub fn chunk_nr_resident(&self, chunk_addr: u64) -> u64 {
        let mut v = Vec::new();
        self.collect_resident_in(&AddrRange::new(chunk_addr, chunk_addr + HUGE_PAGE_SIZE), &mut v);
        v.len() as u64
    }

    pub fn chunk_nr_swapped(&self, chunk_addr: u64) -> u64 {
        let mut v = Vec::new();
        self.collect_swapped_in(&AddrRange::new(chunk_addr, chunk_addr + HUGE_PAGE_SIZE), &mut v);
        v.len() as u64
    }
}
