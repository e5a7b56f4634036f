//! Substrate error types.

use crate::addr::AddrRange;
use crate::frame::FrameId;
use crate::lru::LruList;
use crate::process::Pid;

/// Errors surfaced by the memory-management substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmError {
    /// The referenced process does not exist.
    NoSuchProcess(Pid),
    /// No VMA maps the given address.
    Unmapped(u64),
    /// The given range is not fully covered by existing VMAs.
    BadRange(AddrRange),
    /// Physical memory and swap are both exhausted.
    OutOfMemory,
    /// The swap device has no free capacity.
    SwapFull,
    /// The requested mapping would overlap an existing VMA.
    MappingOverlap(AddrRange),
    /// Requested mapping length was zero or not representable.
    BadLength(u64),
    /// The requested mapping ends above [`crate::addr::USER_ADDR_END`].
    BeyondUserSpace(AddrRange),
}

impl core::fmt::Display for MmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MmError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            MmError::Unmapped(addr) => write!(f, "address {addr:#x} is not mapped"),
            MmError::BadRange(r) => write!(f, "range {r} is not fully mapped"),
            MmError::OutOfMemory => write!(f, "out of memory (DRAM and swap exhausted)"),
            MmError::SwapFull => write!(f, "swap device full"),
            MmError::MappingOverlap(r) => write!(f, "mapping overlaps existing VMA at {r}"),
            MmError::BadLength(l) => write!(f, "bad mapping length: {l}"),
            MmError::BeyondUserSpace(r) => write!(f, "mapping {r} ends above the 47-bit user space"),
        }
    }
}

impl std::error::Error for MmError {}

/// An invariant [`crate::MemorySystem::audit`] found broken on a live
/// machine, naming where: one variant per invariant (DESIGN §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A VMA's page table is not in canonical form
    /// ([`crate::vma::Vma::check_layout`]).
    VmaLayout { pid: Pid, vma: AddrRange, detail: String },
    /// A resident page's frame is not owned, in the rmap, by that page.
    RmapOwner { pid: Pid, addr: u64, frame: FrameId, owner: Option<(Pid, u64)> },
    /// A process's RSS is not its VMAs' resident pages.
    Rss { pid: Pid, rss_pages: u64, resident_pages: u64 },
    /// The frames in use are not the processes' RSS summed.
    FramesInUse { used: usize, rss_pages: u64 },
    /// A frame is on the allocator's recycle list twice.
    FreeTwice { frame: FrameId },
    /// A frame on the recycle list has an owner.
    FreeOwned { frame: FrameId, owner: Option<(Pid, u64)> },
    /// A frame the allocator never handed out has an owner.
    VirginOwned { frame: FrameId },
    /// The owned frames are not the frames in use.
    OwnedFrames { owned: usize, used: usize },
    /// An LRU entry stamped with its page's generation names a page that
    /// is not resident.
    StampedNotResident { list: LruList, pid: Pid, addr: u64 },
    /// A page has two live LRU entries.
    TwoLiveEntries { pid: Pid, addr: u64 },
    /// The LRU lists queue more entries than their bound on the resident
    /// pages allows.
    LruUnbounded { queued: usize, resident: usize },
}

impl core::fmt::Display for AuditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditError::VmaLayout { pid, vma, detail } => write!(f, "pid {pid} vma {vma}: {detail}"),
            AuditError::RmapOwner { pid, addr, frame, owner } => {
                write!(f, "pid {pid} page {addr:#x} is in frame {frame}, owned by {owner:?}")
            }
            AuditError::Rss { pid, rss_pages, resident_pages } => {
                write!(f, "pid {pid}: RSS {rss_pages} pages, its VMAs hold {resident_pages}")
            }
            AuditError::FramesInUse { used, rss_pages } => {
                write!(f, "{used} frames in use, the processes' RSS sums to {rss_pages}")
            }
            AuditError::FreeTwice { frame } => write!(f, "frame {frame} is on the free list twice"),
            AuditError::FreeOwned { frame, owner } => {
                write!(f, "frame {frame} is free and owned by {owner:?}")
            }
            AuditError::VirginOwned { frame } => {
                write!(f, "frame {frame} was never handed out and is owned")
            }
            AuditError::OwnedFrames { owned, used } => {
                write!(f, "{owned} frames are owned, {used} are in use")
            }
            AuditError::StampedNotResident { list, pid, addr } => {
                write!(f, "a live {list:?} entry names pid {pid} page {addr:#x}, which is not resident")
            }
            AuditError::TwoLiveEntries { pid, addr } => {
                write!(f, "pid {pid} page {addr:#x} has two live LRU entries")
            }
            AuditError::LruUnbounded { queued, resident } => write!(
                f,
                "the LRU queues {queued} entries for {resident} resident pages, over 2 × {resident} + {}",
                crate::system::LRU_SLACK
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Convenience result alias for substrate operations.
pub type MmResult<T> = Result<T, MmError>;
