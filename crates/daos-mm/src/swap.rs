//! Swap devices.
//!
//! The paper configures its guests with a 4 GiB zram swap device (the
//! compressed in-memory block device its baseline and all schemes use) and,
//! for the production experiment (Fig. 9), compares zram against file-based
//! swap and no swap at all. We model the three backends:
//!
//! * **Zram** — capacity is consumed at `page_size / compression_ratio`
//!   per stored page; store/load latencies are CPU-bound (compression).
//! * **File** — plain swap file on NVMe; higher latency, large capacity.
//! * **None** — pageout requests fail, pages stay resident (Fig. 9's
//!   "No Swap" bar).


use crate::addr::PAGE_SIZE;
use crate::clock::Ns;
use crate::error::{MmError, MmResult};
use crate::machine::MachineProfile;

/// An opaque ticket for a swapped-out page. The device keeps no state
/// per slot, so tickets only need to be distinct among the pages swapped
/// out at one time, and 32 bits keep a page-table chunk small: tickets
/// wrap after 2³² stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwapSlot(pub u32);

/// Which swap backend to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapConfig {
    /// No swap device: reclaim to swap is impossible.
    None,
    /// Compressed in-memory block device (zram).
    Zram {
        /// Device size in bytes (of *compressed* data it may hold).
        capacity_bytes: u64,
        /// Average compression ratio achieved on the workload's pages.
        compression_ratio: f64,
    },
    /// Swap file on the local NVMe drive.
    File {
        /// Maximum bytes of swapped pages.
        capacity_bytes: u64,
    },
}

impl SwapConfig {
    /// The paper's default: a 4 GiB zram device, scaled by the same factor
    /// as DRAM (256×) to 16 MiB... which would be too small relative to our
    /// scaled workloads, so we keep the *ratio to workload footprints*
    /// instead: 512 MiB with a typical 3× compression ratio.
    pub fn paper_zram() -> Self {
        SwapConfig::Zram {
            capacity_bytes: 512 << 20,
            compression_ratio: 3.0,
        }
    }

    /// The zram device of the serverless scenario (Fig. 9, `daos fleet`):
    /// serverless heaps are mostly-idle, highly compressible data, hence
    /// a higher compression ratio than the general-purpose default.
    pub const fn serverless_zram() -> Self {
        SwapConfig::Zram { capacity_bytes: 256 << 20, compression_ratio: 9.0 }
    }

    /// The swap file of the serverless scenario (Fig. 9's "File Swap").
    pub const fn serverless_file() -> Self {
        SwapConfig::File { capacity_bytes: 1 << 30 }
    }
}

/// A swap device instance with usage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapDevice {
    config: SwapConfig,
    /// Bytes one stored page consumes, from `config`.
    page_cost: f64,
    next_slot: u32,
    /// Bytes of device capacity currently consumed.
    used_bytes: f64,
}

impl SwapDevice {
    /// Create a device from its configuration.
    pub fn new(config: SwapConfig) -> Self {
        let page_cost = match config {
            SwapConfig::None => 0.0,
            SwapConfig::Zram { compression_ratio, .. } => PAGE_SIZE as f64 / compression_ratio,
            SwapConfig::File { .. } => PAGE_SIZE as f64,
        };
        Self { config, page_cost, next_slot: 0, used_bytes: 0.0 }
    }

    /// The device configuration.
    pub fn config(&self) -> SwapConfig {
        self.config
    }

    /// Bytes of backing capacity consumed right now.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes as u64
    }

    /// Bytes of the machine's DRAM the device itself occupies: zram
    /// keeps its compressed pool in memory, a swap file (or no device)
    /// keeps nothing there. Fig. 9's memory metric is RSS plus this —
    /// why zram saves less than file swap.
    pub fn dram_bytes(&self) -> u64 {
        match self.config {
            SwapConfig::Zram { .. } => self.used_bytes(),
            SwapConfig::None | SwapConfig::File { .. } => 0,
        }
    }

    /// How many bytes one stored page consumes on this device.
    #[inline]
    fn cost_per_page(&self) -> f64 {
        self.page_cost
    }

    /// Whether one more page fits.
    pub fn has_room(&self) -> bool {
        match self.config {
            SwapConfig::None => false,
            SwapConfig::Zram { capacity_bytes, .. } | SwapConfig::File { capacity_bytes } => {
                self.used_bytes + self.cost_per_page() <= capacity_bytes as f64
            }
        }
    }

    /// Store one page; returns the slot and the device-side latency. The
    /// fill it tests against the capacity — [`Self::has_room`]'s sum — is
    /// the fill it leaves.
    #[inline]
    pub fn store(&mut self, machine: &MachineProfile) -> MmResult<(SwapSlot, Ns)> {
        let (capacity_bytes, lat) = match self.config {
            SwapConfig::None => return Err(MmError::SwapFull),
            SwapConfig::Zram { capacity_bytes, .. } => (capacity_bytes, machine.zram_store_ns),
            SwapConfig::File { capacity_bytes } => (capacity_bytes, machine.file_swap_write_ns),
        };
        let used = self.used_bytes + self.cost_per_page();
        if !(used <= capacity_bytes as f64) {
            return Err(MmError::SwapFull);
        }
        self.used_bytes = used;
        let slot = SwapSlot(self.next_slot);
        self.next_slot = self.next_slot.wrapping_add(1);
        Ok((slot, lat))
    }

    /// Load (and free) one previously stored page; returns the latency.
    #[inline]
    pub fn load(&mut self, _slot: SwapSlot, machine: &MachineProfile) -> Ns {
        self.used_bytes = (self.used_bytes - self.cost_per_page()).max(0.0);
        match self.config {
            SwapConfig::None => 0,
            SwapConfig::Zram { .. } => machine.zram_load_ns,
            SwapConfig::File { .. } => machine.file_swap_read_ns,
        }
    }

    /// Drop a stored page without reading it back (e.g. the owning mapping
    /// went away).
    pub fn discard(&mut self, _slot: SwapSlot) {
        self.used_bytes = (self.used_bytes - self.cost_per_page()).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineProfile {
        MachineProfile::test_tiny()
    }

    #[test]
    fn none_device_rejects_stores() {
        let mut dev = SwapDevice::new(SwapConfig::None);
        assert!(!dev.has_room());
        assert_eq!(dev.store(&machine()), Err(MmError::SwapFull));
    }

    #[test]
    fn zram_compression_stretches_capacity() {
        // 8 KiB device at 2x compression holds 4 pages, not 2.
        let mut dev = SwapDevice::new(SwapConfig::Zram {
            capacity_bytes: 2 * PAGE_SIZE,
            compression_ratio: 2.0,
        });
        let m = machine();
        for _ in 0..4 {
            dev.store(&m).expect("fits thanks to compression");
        }
        assert_eq!(dev.store(&m), Err(MmError::SwapFull));
    }

    #[test]
    fn file_swap_is_uncompressed() {
        let mut dev = SwapDevice::new(SwapConfig::File { capacity_bytes: 2 * PAGE_SIZE });
        let m = machine();
        dev.store(&m).unwrap();
        dev.store(&m).unwrap();
        assert_eq!(dev.store(&m), Err(MmError::SwapFull));
    }

    #[test]
    fn only_zram_pools_occupy_dram() {
        let m = machine();
        let mut zram = SwapDevice::new(SwapConfig::Zram {
            capacity_bytes: 8 * PAGE_SIZE,
            compression_ratio: 4.0,
        });
        let mut file = SwapDevice::new(SwapConfig::File { capacity_bytes: 8 * PAGE_SIZE });
        for _ in 0..4 {
            zram.store(&m).unwrap();
            file.store(&m).unwrap();
        }
        assert_eq!(zram.dram_bytes(), PAGE_SIZE, "four pages at 4x compression");
        assert_eq!(file.used_bytes(), 4 * PAGE_SIZE);
        assert_eq!(file.dram_bytes(), 0, "a swap file lives on disk");
        assert_eq!(SwapDevice::new(SwapConfig::None).dram_bytes(), 0);
    }

    #[test]
    fn load_frees_capacity() {
        let mut dev = SwapDevice::new(SwapConfig::File { capacity_bytes: PAGE_SIZE });
        let m = machine();
        let (slot, _) = dev.store(&m).unwrap();
        assert!(!dev.has_room());
        let lat = dev.load(slot, &m);
        assert_eq!(lat, m.file_swap_read_ns);
        assert!(dev.has_room());
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn discard_frees_without_load_cost() {
        let mut dev = SwapDevice::new(SwapConfig::paper_zram());
        let m = machine();
        let (slot, _) = dev.store(&m).unwrap();
        dev.discard(slot);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn zram_latency_cheaper_than_file() {
        let m = MachineProfile::i3_metal();
        let mut zram = SwapDevice::new(SwapConfig::paper_zram());
        let mut file = SwapDevice::new(SwapConfig::serverless_file());
        let (zs, zlat) = zram.store(&m).unwrap();
        let (fs, flat) = file.store(&m).unwrap();
        // zram store costs CPU (compression) but its *load* path is faster
        // than NVMe reads on every paper machine.
        assert!(zram.load(zs, &m) < file.load(fs, &m));
        let _ = (zlat, flat);
    }
}
