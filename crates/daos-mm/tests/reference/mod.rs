//! The per-page touch loops `MemorySystem::apply_access` ran for
//! `TouchPattern::All` and `TouchPattern::Stride` before the
//! chunk-at-a-time walker (`Vma::touch_run`) replaced them, and the
//! per-address accessed-bit checks `MemorySystem` made before the forward
//! cursor (`PteCursor`), kept as the oracles `walker_differential.rs`
//! compares the two against. Every page is looked up on its own — VMA,
//! chunk slot, PTE, huge flag — through the public per-page API, so
//! nothing here shares code with the walker or the cursor. The page table
//! under all of it has its own oracle, `model`.

pub mod model;

use daos_mm::access::AccessOutcome;
use daos_mm::addr::{AddrRange, PAGE_SIZE};
use daos_mm::vma::Vma;

/// One page: touch it in place if resident, else queue the fault.
fn touch(vma: &mut Vma, faults: &mut Vec<u64>, out: &mut AccessOutcome, addr: u64) {
    if vma.pte(addr).is_resident() {
        vma.with_pte(addr, |pte| {
            pte.accessed = true;
            pte.touched = true;
        });
        out.touched_pages += 1;
        out.touched_huge += vma.is_huge(addr) as u64;
    } else {
        faults.push(addr);
    }
}

/// `TouchPattern::All` over `range ∩ vma`.
pub fn touch_all(vma: &mut Vma, range: &AddrRange, faults: &mut Vec<u64>, out: &mut AccessOutcome) {
    let Some(isect) = vma.range.intersect(range) else { return };
    for addr in isect.pages() {
        touch(vma, faults, out, addr);
    }
}

/// `TouchPattern::Stride(n)` over `range ∩ vma`.
pub fn touch_stride(
    vma: &mut Vma,
    range: &AddrRange,
    n: u32,
    faults: &mut Vec<u64>,
    out: &mut AccessOutcome,
) {
    let Some(isect) = vma.range.intersect(range) else { return };
    let step = n.max(1) as u64 * PAGE_SIZE;
    let mut addr = isect.page_aligned().start;
    while addr < isect.end {
        touch(vma, faults, out, addr);
        addr += step;
    }
}

/// `MemorySystem::peek_accessed` before the cursor: find the VMA (a plain
/// scan here), read the PTE.
pub fn peek_accessed(vmas: &[Vma], addr: u64) -> Option<bool> {
    vmas.iter().find(|v| v.range.contains(addr)).map(|v| v.pte(addr).accessed)
}

/// `MemorySystem::check_accessed_clear` before the cursor: find the VMA,
/// read and clear the bit through the counter-keeping `with_pte`.
pub fn check_accessed_clear(vmas: &mut [Vma], addr: u64) -> Option<bool> {
    let vma = vmas.iter_mut().find(|v| v.range.contains(addr))?;
    Some(vma.with_pte(addr, |pte| std::mem::take(&mut pte.accessed)))
}
