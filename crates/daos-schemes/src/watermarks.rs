//! Scheme watermarks: activate a scheme only while a system metric sits
//! in a configured band.
//!
//! This is the mechanism the paper's production deployment story implies
//! and mainline DAMON grew (DAMOS watermarks): proactive reclamation
//! should idle while memory is plentiful (it has nothing to gain), run
//! when free memory falls below a *mid* watermark, and get out of the
//! way entirely below a *low* watermark (where direct reclaim is already
//! fighting for survival and kdamond would only add noise).


/// Why a [`Watermarks`] band is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarksError {
    /// The band is not ordered `low <= mid <= high`.
    BadOrder {
        /// Configured low mark.
        low: u32,
        /// Configured mid mark.
        mid: u32,
        /// Configured high mark.
        high: u32,
    },
    /// A mark exceeds the permille scale (1000).
    NotPermille(u32),
}

impl std::fmt::Display for WatermarksError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatermarksError::BadOrder { low, mid, high } => write!(
                f,
                "watermarks must satisfy low <= mid <= high: {low} / {mid} / {high}"
            ),
            WatermarksError::NotPermille(v) => {
                write!(f, "watermarks are permille values: high = {v}")
            }
        }
    }
}

impl std::error::Error for WatermarksError {}

/// Metric a watermark band is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarkMetric {
    /// Free physical memory as permille (0–1000) of total DRAM.
    FreeMemPermille,
}

/// A watermark band. All values are permille of the metric's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Which metric the band applies to.
    pub metric: WatermarkMetric,
    /// Above this the scheme is inactive (no pressure → nothing to do).
    pub high: u32,
    /// Activation midpoint: the scheme runs while the metric is between
    /// `low` and `high`.
    pub mid: u32,
    /// Below this the scheme deactivates (an emergency is in progress).
    pub low: u32,
}

/// The scheme's activation state, with hysteresis: activation happens at
/// `mid`, deactivation at `high`/`low`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarkState {
    /// Scheme currently applies its action.
    Active,
    /// Scheme is dormant.
    Inactive,
}

impl Watermarks {
    /// DAMON_RECLAIM's defaults: activate when free memory drops below
    /// 50 %, stop above 50 % free or below 20 % free.
    pub fn reclaim_defaults() -> Self {
        Self { metric: WatermarkMetric::FreeMemPermille, high: 500, mid: 500, low: 200 }
    }

    /// Validate ordering `low <= mid <= high <= 1000`.
    pub fn validate(&self) -> Result<(), WatermarksError> {
        if self.low > self.mid || self.mid > self.high {
            return Err(WatermarksError::BadOrder {
                low: self.low,
                mid: self.mid,
                high: self.high,
            });
        }
        if self.high > 1000 {
            return Err(WatermarksError::NotPermille(self.high));
        }
        Ok(())
    }

    /// Next activation state given the current metric value (permille)
    /// and the previous state.
    pub fn next_state(&self, value: u32, prev: WatermarkState) -> WatermarkState {
        match prev {
            WatermarkState::Inactive => {
                // Activate only once the metric falls to the mid mark
                // (and stays above the emergency low).
                if value <= self.mid && value >= self.low {
                    WatermarkState::Active
                } else {
                    WatermarkState::Inactive
                }
            }
            WatermarkState::Active => {
                if value > self.high || value < self.low {
                    WatermarkState::Inactive
                } else {
                    WatermarkState::Active
                }
            }
        }
    }
}

/// Current free-memory permille of a [`daos_mm::MemorySystem`].
pub fn free_mem_permille(sys: &daos_mm::MemorySystem) -> u32 {
    let total = sys.machine().dram_bytes.max(1);
    let free = total.saturating_sub(sys.used_dram_bytes());
    (free * 1000 / total) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use WatermarkState::*;

    fn wm() -> Watermarks {
        Watermarks { metric: WatermarkMetric::FreeMemPermille, high: 600, mid: 400, low: 100 }
    }

    #[test]
    fn validation() {
        assert!(wm().validate().is_ok());
        assert!(Watermarks { low: 500, mid: 400, ..wm() }.validate().is_err());
        assert!(Watermarks { high: 1500, ..wm() }.validate().is_err());
        assert!(Watermarks::reclaim_defaults().validate().is_ok());
    }

    #[test]
    fn activation_at_mid_with_hysteresis() {
        let w = wm();
        // Plenty of free memory: stays inactive.
        assert_eq!(w.next_state(800, Inactive), Inactive);
        assert_eq!(w.next_state(450, Inactive), Inactive, "between mid and high: not yet");
        // Falls to mid: activates.
        assert_eq!(w.next_state(400, Inactive), Active);
        // Hysteresis: active until it climbs above HIGH, not mid.
        assert_eq!(w.next_state(550, Active), Active);
        assert_eq!(w.next_state(601, Active), Inactive);
    }

    #[test]
    fn emergency_low_deactivates() {
        let w = wm();
        assert_eq!(w.next_state(50, Active), Inactive, "below low: get out of the way");
        assert_eq!(w.next_state(50, Inactive), Inactive);
        assert_eq!(w.next_state(100, Inactive), Active, "low boundary inclusive");
    }

    #[test]
    fn free_mem_metric() {
        let mut m = daos_mm::MachineProfile::test_tiny();
        m.dram_bytes = 4 << 20; // 1024 frames
        let mut sys = daos_mm::MemorySystem::new(m, daos_mm::SwapConfig::paper_zram(), 1);
        assert_eq!(free_mem_permille(&sys), 1000);
        let pid = sys.spawn();
        let range = sys.mmap(pid, 2 << 20, daos_mm::ThpMode::Never).unwrap();
        sys.apply_access(pid, &daos_mm::AccessBatch::all(range, 1.0)).unwrap();
        assert_eq!(free_mem_permille(&sys), 500);
    }
}
