//! # daos-mm — simulated kernel memory-management substrate
//!
//! This crate stands in for the Linux mm subsystem the paper's kernel
//! components hook into: page tables with hardware accessed bits, VMAs,
//! a physical frame allocator with reverse mapping, two-list LRU reclaim,
//! transparent huge pages (including the memory-bloat behaviour the
//! paper's `ethp` scheme targets), zram/file swap devices, and a
//! machine-profile-driven latency cost model — all under a deterministic
//! virtual clock.
//!
//! The interface the monitoring/scheme layers consume is deliberately the
//! narrow one DAMON uses in the kernel:
//!
//! * [`MemorySystem::pte_cursor`] / [`MemorySystem::paddr_cursor`] — the
//!   access checks of one monitor sweep: a forward page-table cursor
//!   ([`process::PteCursor`]) whose one op reads a region's outstanding
//!   sample's accessed bit and clears its next sample's, resolving the
//!   VMA once per region (any address order is correct, ascending is
//!   fast), directly or through rmap. [`MemorySystem::check_accessed_clear`],
//!   [`MemorySystem::peek_accessed`] and
//!   [`MemorySystem::check_paddr_accessed_clear`] are the same lookup,
//!   one shot, for tests and tools;
//! * [`MemorySystem::vma_ranges`] / [`MemorySystem::phys_space`] — target
//!   discovery;
//! * [`MemorySystem::pageout`], [`MemorySystem::promote_huge`],
//!   [`MemorySystem::demote_huge`], [`MemorySystem::mark_cold`],
//!   [`MemorySystem::willneed`] — the scheme actions of Table 1.
//!
//! Everything above this crate is the *real* DAOS algorithm, not a model.

pub mod access;
pub mod addr;
pub mod clock;
pub mod error;
pub mod frame;
pub mod lru;
pub mod machine;
pub mod process;
pub mod stats;
pub mod swap;
pub mod system;
pub mod tlb;
pub mod vma;

pub use access::{AccessBatch, AccessOutcome, TouchPattern};
pub use addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
pub use clock::{ms, sec, Clock, Ns, MINUTE, MSEC, SEC, USEC};
pub use error::{AuditError, MmError, MmResult};
pub use machine::MachineProfile;
pub use process::Pid;
pub use stats::{KernelStats, ProcStats};
pub use swap::{SwapConfig, SwapDevice};
pub use system::MemorySystem;
pub use vma::ThpMode;
