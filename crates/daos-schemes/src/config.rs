//! Scheme-level configuration: one scheme plus everything attached to
//! it — quota and watermarks — assembled with a builder and validated
//! at [`build`](SchemeConfigBuilder::build).
//!
//! This replaces the index-based `SchemesEngine::set_quota(idx, ..)` /
//! `set_watermarks(idx, ..)` style, where the binding between a scheme
//! and its attachments lived only in the caller's head (and an
//! off-by-one silently re-targeted a quota).
//! A [`SchemeConfig`] keeps them together:
//!
//! ```
//! use daos_schemes::{Action, Quota, Scheme, Watermarks};
//!
//! let cfg = Scheme::any(Action::Pageout)
//!     .configure()
//!     .quota(Quota { sz_limit: 8 << 20, reset_interval: 500_000_000 })
//!     .watermarks(Watermarks::reclaim_defaults())
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.scheme.action, Action::Pageout);
//! ```

use crate::quota::Quota;
use crate::scheme::Scheme;
use crate::watermarks::{Watermarks, WatermarksError};

/// Why a [`SchemeConfig`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeConfigError {
    /// The attached watermark band is invalid.
    Watermarks(WatermarksError),
    /// The attached quota has `sz_limit == 0`, which would silently
    /// disable the scheme (every region would be quota-skipped).
    ZeroQuota,
    /// The attached quota has `reset_interval == 0`: the budget window
    /// never has any width, and the original window-rolling loop spun
    /// forever on it (see `QuotaState::maybe_reset`).
    ZeroQuotaInterval,
}

impl core::fmt::Display for SchemeConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SchemeConfigError::Watermarks(e) => write!(f, "{e}"),
            SchemeConfigError::ZeroQuota => {
                write!(f, "quota sz_limit must be > 0 (a zero quota disables the scheme)")
            }
            SchemeConfigError::ZeroQuotaInterval => {
                write!(f, "quota reset_interval must be > 0 (a zero-width window never refills)")
            }
        }
    }
}

impl std::error::Error for SchemeConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchemeConfigError::Watermarks(e) => Some(e),
            SchemeConfigError::ZeroQuota | SchemeConfigError::ZeroQuotaInterval => None,
        }
    }
}

impl From<WatermarksError> for SchemeConfigError {
    fn from(e: WatermarksError) -> Self {
        SchemeConfigError::Watermarks(e)
    }
}

/// A scheme together with its optional quota and watermarks — the unit
/// [`SchemesEngine::new`] consumes.
///
/// [`SchemesEngine::new`]: crate::SchemesEngine::new
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfig {
    /// The matching conditions and action.
    pub scheme: Scheme,
    /// Optional byte budget per reset interval.
    pub quota: Option<Quota>,
    /// Optional activation band over the free-memory metric.
    pub watermarks: Option<Watermarks>,
}

impl From<Scheme> for SchemeConfig {
    /// A bare scheme: no quota, no watermarks. Lets
    /// `SchemesEngine::new(target, vec![scheme])` keep working.
    fn from(scheme: Scheme) -> Self {
        SchemeConfig { scheme, quota: None, watermarks: None }
    }
}

impl Scheme {
    /// Start configuring this scheme's attachments;
    /// [`SchemeConfigBuilder::build`] validates the combination.
    pub fn configure(self) -> SchemeConfigBuilder {
        SchemeConfigBuilder { config: SchemeConfig::from(self) }
    }
}

/// Builder for [`SchemeConfig`]; obtained via [`Scheme::configure`].
#[derive(Debug, Clone)]
pub struct SchemeConfigBuilder {
    config: SchemeConfig,
}

impl SchemeConfigBuilder {
    /// Cap how many bytes the scheme may act on per reset interval.
    pub fn quota(mut self, quota: Quota) -> Self {
        self.config.quota = Some(quota);
        self
    }

    /// Gate the scheme on a free-memory watermark band.
    pub fn watermarks(mut self, wmarks: Watermarks) -> Self {
        self.config.watermarks = Some(wmarks);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SchemeConfig, SchemeConfigError> {
        if let Some(wm) = &self.config.watermarks {
            wm.validate()?;
        }
        if let Some(q) = &self.config.quota {
            if q.sz_limit == 0 {
                return Err(SchemeConfigError::ZeroQuota);
            }
            if q.reset_interval == 0 {
                return Err(SchemeConfigError::ZeroQuotaInterval);
            }
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::watermarks::WatermarkMetric;

    #[test]
    fn builder_collects_attachments() {
        let cfg = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 1 << 20, reset_interval: 1_000 })
            .watermarks(Watermarks::reclaim_defaults())
            .build()
            .unwrap();
        assert_eq!(cfg.quota.unwrap().sz_limit, 1 << 20);
        assert!(cfg.watermarks.is_some());
    }

    #[test]
    fn bare_scheme_converts_without_attachments() {
        let cfg = SchemeConfig::from(Scheme::any(Action::Stat));
        assert_eq!(cfg.quota, None);
        assert_eq!(cfg.watermarks, None);
    }

    #[test]
    fn build_rejects_zero_quota() {
        let err = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 0, reset_interval: 1_000 })
            .build()
            .unwrap_err();
        assert_eq!(err, SchemeConfigError::ZeroQuota);
        assert!(err.to_string().contains("sz_limit"));
    }

    #[test]
    fn build_rejects_zero_quota_interval() {
        let err = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 1 << 20, reset_interval: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, SchemeConfigError::ZeroQuotaInterval);
        assert!(err.to_string().contains("reset_interval"));
    }

    #[test]
    fn build_rejects_invalid_watermarks() {
        let bad = Watermarks {
            metric: WatermarkMetric::FreeMemPermille,
            high: 100,
            mid: 400, // mid > high: bad order
            low: 50,
        };
        let err = Scheme::any(Action::Pageout).configure().watermarks(bad).build().unwrap_err();
        assert!(matches!(err, SchemeConfigError::Watermarks(WatermarksError::BadOrder { .. })));
        assert!(err.to_string().contains("low <= mid <= high"));
    }
}
