//! Scheme actions (Table 1 of the paper).


/// The memory operation a scheme triggers on matching regions.
///
/// | Action | Description (Table 1) |
/// |---|---|
/// | `WILLNEED` | Ask the kernel to expect the region to be accessed soon. |
/// | `COLD` | Ask the kernel to expect the region *not* to be accessed soon. |
/// | `HUGEPAGE` | THP-promote the region. |
/// | `NOHUGEPAGE` | THP-demote the region. |
/// | `PAGEOUT` | Immediately page the region out. |
/// | `STAT` | Only count regions/bytes fulfilling the conditions (working-set estimation, scheme tuning). |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Prefetch the region (swap it back in proactively).
    Willneed,
    /// Deactivate the region: first in line for pressure reclaim.
    Cold,
    /// Promote the region to 2 MiB transparent huge pages.
    Hugepage,
    /// Demote (split) the region's huge pages.
    Nohugepage,
    /// Immediately page the region out to swap.
    Pageout,
    /// Statistics only: count matching regions and bytes.
    Stat,
    /// Prioritise the region on the LRU lists (DAMON_LRU_SORT, an
    /// engine extension beyond the paper's Table 1).
    LruPrio,
    /// Deprioritise the region on the LRU lists (DAMON_LRU_SORT).
    LruDeprio,
}

impl Action {
    /// Canonical DSL keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            Action::Willneed => "willneed",
            Action::Cold => "cold",
            Action::Hugepage => "hugepage",
            Action::Nohugepage => "nohugepage",
            Action::Pageout => "pageout",
            Action::Stat => "stat",
            Action::LruPrio => "lru_prio",
            Action::LruDeprio => "lru_deprio",
        }
    }

    /// Parse a DSL keyword, including the aliases the paper's listings
    /// use (`thp`, `nothp`, `page_out`).
    pub fn from_keyword(word: &str) -> Option<Action> {
        Some(match word.to_ascii_lowercase().as_str() {
            "willneed" => Action::Willneed,
            "cold" => Action::Cold,
            "hugepage" | "thp" => Action::Hugepage,
            "nohugepage" | "nothp" => Action::Nohugepage,
            "pageout" | "page_out" => Action::Pageout,
            "stat" => Action::Stat,
            "lru_prio" => Action::LruPrio,
            "lru_deprio" => Action::LruDeprio,
            _ => return None,
        })
    }

    /// Human-readable description, as in Table 1.
    pub fn description(&self) -> &'static str {
        match self {
            Action::Willneed => {
                "Asks the kernel to expect the given region will be accessed soon."
            }
            Action::Cold => {
                "Asks the kernel to expect the given region will not be accessed soon."
            }
            Action::Hugepage => "Asks the kernel to do THP promotions for the given region.",
            Action::Nohugepage => "Asks the kernel to do THP demotions for the given region.",
            Action::Pageout => "Immediately page out the memory region.",
            Action::Stat => {
                "Count the total number and size of memory regions fulfilling the conditions. \
                 Can be used for estimating working set size and scheme tuning."
            }
            Action::LruPrio => {
                "Move the region's pages to the head of the active LRU list \
                 (last reclaim candidates)."
            }
            Action::LruDeprio => {
                "Move the region's pages to the tail of the inactive LRU list \
                 (first reclaim candidates)."
            }
        }
    }

    /// The six actions of the paper's Table 1.
    pub fn paper_actions() -> [Action; 6] {
        [
            Action::Willneed,
            Action::Cold,
            Action::Hugepage,
            Action::Nohugepage,
            Action::Pageout,
            Action::Stat,
        ]
    }

    /// All actions, Table 1 first, then the engine extensions
    /// ("We plan to support more actions in the future", §3.2).
    pub fn all() -> [Action; 8] {
        [
            Action::Willneed,
            Action::Cold,
            Action::Hugepage,
            Action::Nohugepage,
            Action::Pageout,
            Action::Stat,
            Action::LruPrio,
            Action::LruDeprio,
        ]
    }
}

impl core::fmt::Display for Action {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for a in Action::all() {
            assert_eq!(Action::from_keyword(a.keyword()), Some(a));
        }
    }

    #[test]
    fn paper_listing_aliases() {
        assert_eq!(Action::from_keyword("page_out"), Some(Action::Pageout));
        assert_eq!(Action::from_keyword("thp"), Some(Action::Hugepage));
        assert_eq!(Action::from_keyword("nothp"), Some(Action::Nohugepage));
        assert_eq!(Action::from_keyword("PAGEOUT"), Some(Action::Pageout));
        assert_eq!(Action::from_keyword("bogus"), None);
    }

    #[test]
    fn table1_has_six_actions_plus_extensions() {
        assert_eq!(Action::paper_actions().len(), 6);
        assert_eq!(Action::all().len(), 8);
        for a in Action::all() {
            assert!(!a.description().is_empty());
        }
        assert_eq!(Action::from_keyword("lru_prio"), Some(Action::LruPrio));
        assert_eq!(Action::from_keyword("lru_deprio"), Some(Action::LruDeprio));
    }
}
