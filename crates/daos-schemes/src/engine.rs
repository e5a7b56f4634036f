//! The schemes engine loop: read each aggregation result, find regions
//! fulfilling scheme conditions, apply the actions (§3.2).

use daos_mm::addr::AddrRange;
use daos_mm::clock::Ns;
use daos_mm::process::Pid;
use daos_mm::system::MemorySystem;
use daos_monitor::{Aggregation, RegionInfo};

use crate::action::Action;
use crate::config::SchemeConfig;
use crate::filter::{apply_filters, AddrFilter};
use crate::quota::{prioritize, QuotaState};
use crate::scheme::Scheme;
use crate::stats::SchemeStats;
use crate::watermarks::{free_mem_permille, WatermarkState, Watermarks};

/// The trace taxonomy's name for an [`Action`].
fn action_tag(action: Action) -> daos_trace::ActionTag {
    use daos_trace::ActionTag as T;
    match action {
        Action::Stat => T::Stat,
        Action::Pageout => T::Pageout,
        Action::Hugepage => T::Hugepage,
        Action::Nohugepage => T::Nohugepage,
        Action::Cold => T::Cold,
        Action::Willneed => T::Willneed,
        Action::LruPrio => T::LruPrio,
        Action::LruDeprio => T::LruDeprio,
    }
}

/// What address space the engine applies actions to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeTarget {
    /// A process's virtual address space.
    Virtual(Pid),
    /// The machine's physical address space (rmap-based actions).
    Physical,
}

/// Result of one engine pass over an aggregation window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EnginePass {
    /// Kernel CPU time the actions consumed.
    pub work_ns: Ns,
    /// Bytes paged out this pass.
    pub paged_out: u64,
    /// Bytes THP-promoted this pass.
    pub promoted: u64,
    /// Bytes counted by STAT schemes this pass.
    pub stat_bytes: u64,
    /// Regions counted by STAT schemes this pass.
    pub stat_regions: u64,
}

/// The Memory Management Schemes Engine.
#[derive(Debug)]
pub struct SchemesEngine {
    target: SchemeTarget,
    schemes: Vec<Scheme>,
    stats: Vec<SchemeStats>,
    quotas: Vec<Option<QuotaState>>,
    wmarks: Vec<Option<(Watermarks, WatermarkState)>>,
    filters: Vec<Vec<AddrFilter>>,
    /// The regions one scheme matched in the current pass, reused across
    /// schemes and passes.
    matching: Vec<RegionInfo>,
}

impl SchemesEngine {
    /// Build an engine applying `schemes` (in order) to `target`.
    ///
    /// Accepts anything convertible to [`SchemeConfig`]s: a plain
    /// `Vec<Scheme>` (no attachments), or configs built with
    /// [`Scheme::configure`] carrying quotas, watermarks, and filters.
    /// Quota windows start at virtual time 0.
    pub fn new<I>(target: SchemeTarget, schemes: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<SchemeConfig>,
    {
        let mut engine = Self {
            target,
            schemes: Vec::new(),
            stats: Vec::new(),
            quotas: Vec::new(),
            wmarks: Vec::new(),
            filters: Vec::new(),
            matching: Vec::new(),
        };
        for config in schemes {
            let config: SchemeConfig = config.into();
            engine.schemes.push(config.scheme);
            engine.stats.push(SchemeStats::default());
            engine.quotas.push(config.quota.map(|q| QuotaState::new(q, 0)));
            engine.wmarks.push(config.watermarks.map(|w| (w, WatermarkState::Inactive)));
            engine.filters.push(config.filters);
        }
        engine
    }

    /// The configured schemes.
    pub fn schemes(&self) -> &[Scheme] {
        &self.schemes
    }

    /// Per-scheme statistics, parallel to [`Self::schemes`].
    pub fn stats(&self) -> &[SchemeStats] {
        &self.stats
    }

    /// Process one aggregation window: match and apply every scheme.
    ///
    /// Returns what was done; `work_ns` should be charged through
    /// [`MemorySystem::charge_schemes`] by the caller.
    pub fn on_aggregation(&mut self, sys: &mut MemorySystem, agg: &Aggregation) -> EnginePass {
        let mut pass = EnginePass::default();
        // The whole pass is one SchemeApply span; its virtual duration is
        // the kernel CPU time the actions consumed.
        daos_trace::span!(agg.at, SchemeApply, {
            self.run_pass(sys, agg, &mut pass);
            pass.work_ns
        });
        pass
    }

    fn run_pass(&mut self, sys: &mut MemorySystem, agg: &Aggregation, pass: &mut EnginePass) {
        let free_permille = free_mem_permille(sys);
        for i in 0..self.schemes.len() {
            // Watermarks: advance the activation state machine and skip
            // dormant schemes.
            if let Some((wm, state)) = &mut self.wmarks[i] {
                let prev = *state;
                *state = wm.next_state(free_permille, *state);
                if *state != prev {
                    daos_trace::trace!(agg.at, WatermarkTransition {
                        scheme: i as u32,
                        active: *state == WatermarkState::Active,
                        metric_permille: free_permille as u64,
                    });
                }
                if *state == WatermarkState::Inactive {
                    continue;
                }
            }
            let scheme = self.schemes[i];
            let bounds = scheme.window_bounds(agg);
            self.matching.clear();
            self.matching.extend(agg.regions.iter().filter(|r| bounds.admit(r)));
            if self.matching.is_empty() {
                continue;
            }
            // With a quota, spend the budget on the best regions first.
            if self.quotas[i].is_some() {
                prioritize(scheme.action, &mut self.matching, agg);
            }
            if let Some(q) = &mut self.quotas[i] {
                q.maybe_reset(agg.at);
            }
            for r in &self.matching {
                self.stats[i].tried(r.range.len());
                daos_trace::trace!(agg.at, SchemeMatch {
                    scheme: i as u32,
                    bytes: r.range.len(),
                });
                // Grant up to the remaining budget without consuming it
                // yet: the quota is charged for what the action actually
                // affects, after filters clip the range and the mm layer
                // reports actionable bytes. Charging the full grant up
                // front (the old behaviour) burned budget on
                // filter-rejected and already-evicted bytes, so a scheme
                // could stall with most of its nominal budget unspent.
                let granted = match &mut self.quotas[i] {
                    Some(q) => {
                        let remaining = q.remaining();
                        if remaining == 0 {
                            self.stats[i].nr_quota_skips += 1;
                            daos_trace::trace!(agg.at, QuotaThrottle {
                                scheme: i as u32,
                                skipped_bytes: r.range.len(),
                            });
                            continue;
                        }
                        remaining.min(r.range.len())
                    }
                    None => r.range.len(),
                };
                // Clip the acted-on range to the granted budget, then
                // run it through the scheme's address filters — or, with
                // none (the common case), act on it as it is, so trying a
                // region allocates nothing.
                let range = AddrRange::new(r.range.start, r.range.start + granted);
                let filters = &self.filters[i];
                let unfiltered = filters.is_empty().then_some(range).filter(|r| !r.is_empty());
                let filtered =
                    if filters.is_empty() { Vec::new() } else { apply_filters(range, filters) };
                let mut applied_total = 0;
                for allowed in unfiltered.into_iter().chain(filtered) {
                    let applied = Self::apply(self.target, scheme.action, sys, allowed, pass);
                    if applied > 0 {
                        applied_total += applied;
                        self.stats[i].applied(applied);
                        daos_trace::trace!(agg.at, SchemeApply {
                            scheme: i as u32,
                            action: action_tag(scheme.action),
                            bytes: applied,
                        });
                    }
                }
                if let Some(q) = &mut self.quotas[i] {
                    q.consume(applied_total.min(granted));
                }
            }
        }
    }

    /// Apply one action to one range; returns affected bytes.
    fn apply(
        target: SchemeTarget,
        action: Action,
        sys: &mut MemorySystem,
        range: AddrRange,
        pass: &mut EnginePass,
    ) -> u64 {
        match (target, action) {
            (_, Action::Stat) => {
                pass.stat_bytes += range.len();
                pass.stat_regions += 1;
                range.len()
            }
            (SchemeTarget::Virtual(pid), Action::Pageout) => {
                let (bytes, ns) = sys.pageout(pid, range).unwrap_or((0, 0));
                pass.work_ns += ns;
                pass.paged_out += bytes;
                bytes
            }
            (SchemeTarget::Physical, Action::Pageout) => {
                let (bytes, ns) = sys.pageout_paddr(range);
                pass.work_ns += ns;
                pass.paged_out += bytes;
                bytes
            }
            (SchemeTarget::Virtual(pid), Action::Hugepage) => {
                let (chunks, ns) = sys.promote_huge(pid, range).unwrap_or((0, 0));
                pass.work_ns += ns;
                let bytes = chunks * daos_mm::addr::HUGE_PAGE_SIZE;
                pass.promoted += bytes;
                bytes
            }
            (SchemeTarget::Virtual(pid), Action::Nohugepage) => {
                let (freed, ns) = sys.demote_huge(pid, range).unwrap_or((0, 0));
                pass.work_ns += ns;
                freed
            }
            (SchemeTarget::Virtual(pid), Action::Cold)
            | (SchemeTarget::Virtual(pid), Action::LruDeprio) => {
                sys.mark_cold(pid, range).unwrap_or(0) * daos_mm::addr::PAGE_SIZE
            }
            (SchemeTarget::Virtual(pid), Action::LruPrio) => {
                sys.mark_hot(pid, range).unwrap_or(0) * daos_mm::addr::PAGE_SIZE
            }
            (SchemeTarget::Virtual(pid), Action::Willneed) => {
                let (bytes, ns) = sys.willneed(pid, range).unwrap_or((0, 0));
                pass.work_ns += ns;
                bytes
            }
            // THP / madvise actions need a virtual mapping; on physical
            // targets they are unsupported (as in the kernel).
            (SchemeTarget::Physical, _) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::Quota;
    use daos_mm::access::AccessBatch;
    use daos_mm::addr::HUGE_PAGE_SIZE;
    use daos_mm::clock::ms;
    use daos_mm::machine::MachineProfile;
    use daos_mm::swap::SwapConfig;
    use daos_mm::vma::ThpMode;
    use daos_monitor::RegionInfo;

    use crate::parser::parse_scheme_line;
    use crate::scheme::Scheme;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineProfile::test_tiny(), SwapConfig::paper_zram(), 99)
    }

    fn agg_of(regions: Vec<RegionInfo>) -> Aggregation {
        Aggregation { at: 0, regions, max_nr_accesses: 20, aggregation_interval: ms(100) }
    }

    fn info(range: AddrRange, nr: u32, age: u32) -> RegionInfo {
        RegionInfo { range, nr_accesses: nr, age }
    }

    /// Tests fabricate "idle" regions right after touching them; drop the
    /// reference bits so reclaim's second chance does not defer eviction.
    fn clear_refs(sys: &mut MemorySystem, pid: u32, range: AddrRange) {
        for p in range.pages() {
            sys.check_accessed_clear(pid, p);
        }
    }

    #[test]
    fn pageout_scheme_reclaims_idle_region() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();

        // prcl from Listing 3: "4K max min min 5s max pageout" — age ≥ 5s.
        let scheme = parse_scheme_line("4K max min min 5s max pageout").unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![scheme]);

        // Young region: nothing happens.
        let agg = agg_of(vec![info(range, 0, 10)]); // 10 intervals = 1s < 5s
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 0);
        assert_eq!(engine.stats()[0].nr_tried, 0);

        // Old idle region: paged out.
        clear_refs(&mut sys, pid, range);
        let agg = agg_of(vec![info(range, 0, 60)]); // 6s ≥ 5s
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 1 << 20);
        assert_eq!(sys.rss_bytes(pid), 0);
        assert_eq!(engine.stats()[0].nr_applied, 1);
        assert!(pass.work_ns > 0);
    }

    #[test]
    fn pageout_skips_accessed_regions() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let scheme = parse_scheme_line("min max min min 1s max pageout").unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![scheme]);
        // Region is old but has nr_accesses=3 → max_freq 'min' (0) fails.
        let agg = agg_of(vec![info(range, 3, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 0);
        assert_eq!(sys.rss_bytes(pid), 1 << 20);
    }

    #[test]
    fn ethp_promotes_hot_and_demotes_cold() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys
            .mmap_at(pid, 8 * HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE, ThpMode::Always)
            .unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();

        let schemes = vec![
            parse_scheme_line("min max 5 max min max hugepage").unwrap(),
            parse_scheme_line("2M max min min 7s max nohugepage").unwrap(),
        ];
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), schemes);

        // Hot region → promotion.
        let agg = agg_of(vec![info(range, 10, 2)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.promoted, 2 * HUGE_PAGE_SIZE);
        assert_eq!(sys.huge_bytes(pid), 2 * HUGE_PAGE_SIZE);

        // Later the region goes idle for ≥7s → demotion (no bloat to free
        // here since all pages were touched, but the huge mapping goes).
        let agg = agg_of(vec![info(range, 0, 80)]);
        engine.on_aggregation(&mut sys, &agg);
        assert_eq!(sys.huge_bytes(pid), 0);
    }

    #[test]
    fn stat_action_counts_without_side_effects() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let mut engine =
            SchemesEngine::new(SchemeTarget::Virtual(pid), vec![Scheme::any(Action::Stat)]);
        let agg = agg_of(vec![info(range, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.stat_bytes, 1 << 20);
        assert_eq!(pass.stat_regions, 1);
        assert_eq!(sys.rss_bytes(pid), 1 << 20, "STAT must not modify memory");
    }

    #[test]
    fn physical_target_pageout_works_thp_noop() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let phys = sys.phys_space();
        let mut engine = SchemesEngine::new(
            SchemeTarget::Physical,
            vec![Scheme::any(Action::Pageout), Scheme::any(Action::Hugepage)],
        );
        let agg = agg_of(vec![info(phys, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 256 << 10, "all mapped frames paged out via rmap");
        assert_eq!(pass.promoted, 0, "hugepage unsupported on physical target");
        assert_eq!(sys.rss_bytes(pid), 0);
    }

    #[test]
    fn quota_limits_bytes_per_window() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 256 << 10, reset_interval: ms(1000) })
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        let agg = agg_of(vec![info(range, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 256 << 10, "quota caps the pageout");
        assert_eq!(sys.rss_bytes(pid), (1 << 20) - (256 << 10));
    }

    #[test]
    fn quota_prioritizes_coldest_regions() {
        let mut sys = sys();
        let pid = sys.spawn();
        let a = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        let b = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(a, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::all(b, 1.0)).unwrap();
        clear_refs(&mut sys, pid, a);
        clear_refs(&mut sys, pid, b);
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 256 << 10, reset_interval: ms(1000) })
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        // b is much older/colder than a.
        let agg = agg_of(vec![info(a, 2, 1), info(b, 0, 90)]);
        engine.on_aggregation(&mut sys, &agg);
        assert_eq!(sys.nr_swapped_in(pid, b), 64, "cold region b evicted first");
        assert_eq!(sys.nr_swapped_in(pid, a), 0);
        assert_eq!(engine.stats()[0].nr_quota_skips, 1);
    }

    #[test]
    fn reject_filtered_region_leaves_quota_intact() {
        // Regression: the engine used to consume quota for the full
        // granted bytes *before* filters ran, so a region that filters
        // then rejected entirely still burned the whole window's budget
        // and starved every later (actionable) region.
        let mut sys = sys();
        let pid = sys.spawn();
        let protected = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        let victim = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(protected, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::all(victim, 1.0)).unwrap();
        clear_refs(&mut sys, pid, protected);
        clear_refs(&mut sys, pid, victim);
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 256 << 10, reset_interval: ms(1000) })
            .filter(crate::filter::AddrFilter::reject(protected))
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        // The protected region is far colder → prioritised (and charged)
        // first under the old accounting.
        let agg = agg_of(vec![info(protected, 0, 90), info(victim, 0, 10)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(
            pass.paged_out,
            256 << 10,
            "budget must survive the filtered region and fund the victim"
        );
        assert_eq!(sys.rss_bytes(pid), 256 << 10);
        assert_eq!(sys.nr_swapped_in(pid, protected), 0, "filter held");
        assert_eq!(sys.nr_swapped_in(pid, victim), 64);
    }

    #[test]
    fn empty_reject_filter_is_a_noop() {
        // Edge case: an empty filter range must neither clip the action
        // nor perturb quota charging.
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 1 << 20, reset_interval: ms(1000) })
            .filter(crate::filter::AddrFilter::reject(AddrRange::empty()))
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        let agg = agg_of(vec![info(range, 0, 90)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 256 << 10);
        assert_eq!(engine.stats()[0].nr_quota_skips, 0);
    }

    #[test]
    fn quota_charges_applied_not_granted_bytes() {
        // A region that is already swapped out yields zero actionable
        // bytes; acting on it must not consume budget.
        let mut sys = sys();
        let pid = sys.spawn();
        let gone = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        let live = sys.mmap(pid, 256 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(gone, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::all(live, 1.0)).unwrap();
        clear_refs(&mut sys, pid, gone);
        clear_refs(&mut sys, pid, live);
        sys.pageout(pid, gone).unwrap(); // now nothing is resident there
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 256 << 10, reset_interval: ms(1000) })
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        // `gone` is colder, so it is attempted (and, before the fix,
        // fully charged) first.
        let agg = agg_of(vec![info(gone, 0, 90), info(live, 0, 10)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 256 << 10, "budget funds bytes actually reclaimed");
        assert_eq!(sys.rss_bytes(pid), 0);
    }

    #[test]
    fn quota_window_starting_past_zero_still_refills() {
        // Quota state is constructed at t=0 but the first aggregation
        // may arrive much later; the window must roll on the grid and
        // refill rather than staying stuck in the first window.
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 512 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 256 << 10, reset_interval: ms(1000) })
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        let mk = |at| Aggregation {
            at,
            regions: vec![info(range, 0, 100)],
            max_nr_accesses: 20,
            aggregation_interval: ms(100),
        };
        // First pass lands mid-stream at t=2.5s: one window's budget.
        let pass = engine.on_aggregation(&mut sys, &mk(ms(2500)));
        assert_eq!(pass.paged_out, 256 << 10);
        // Same window → throttled.
        let pass = engine.on_aggregation(&mut sys, &mk(ms(2600)));
        assert_eq!(pass.paged_out, 0);
        assert!(engine.stats()[0].nr_quota_skips >= 1);
        // Next window boundary (grid anchored at t=0) → budget refills.
        // Fault the evicted head back in so there is something to reclaim.
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let pass = engine.on_aggregation(&mut sys, &mk(ms(3000)));
        assert_eq!(pass.paged_out, 256 << 10);
    }

    #[test]
    fn multiple_schemes_apply_in_order() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 512 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let schemes = vec![Scheme::any(Action::Stat), Scheme::any(Action::Pageout)];
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), schemes);
        let agg = agg_of(vec![info(range, 0, 10)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        // STAT saw the region resident; PAGEOUT then reclaimed it.
        assert_eq!(pass.stat_bytes, 512 << 10);
        assert_eq!(pass.paged_out, 512 << 10);
        assert_eq!(engine.stats()[0].nr_applied, 1);
        assert_eq!(engine.stats()[1].nr_applied, 1);
    }

    #[test]
    fn cold_action_deactivates() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 128 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let mut engine =
            SchemesEngine::new(SchemeTarget::Virtual(pid), vec![Scheme::any(Action::Cold)]);
        let agg = agg_of(vec![info(range, 0, 10)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(engine.stats()[0].sz_applied, 128 << 10);
        assert_eq!(pass.paged_out, 0, "COLD only deactivates");
        assert_eq!(sys.rss_bytes(pid), 128 << 10);
    }

    #[test]
    fn willneed_action_prefetches() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 128 << 10, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        sys.pageout(pid, range).unwrap();
        assert_eq!(sys.rss_bytes(pid), 0);
        let mut engine = SchemesEngine::new(
            SchemeTarget::Virtual(pid),
            vec![Scheme::any(Action::Willneed)],
        );
        let agg = agg_of(vec![info(range, 0, 0)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert!(pass.work_ns > 0);
        assert_eq!(sys.rss_bytes(pid), 128 << 10, "prefetched back in");
    }

    #[test]
    fn watermarks_gate_scheme_activation() {
        // Tiny DRAM so free memory moves visibly: 8 MiB total.
        let mut m = MachineProfile::test_tiny();
        m.dram_bytes = 8 << 20;
        let mut sys = MemorySystem::new(m, SwapConfig::paper_zram(), 1);
        let pid = sys.spawn();
        let range = sys.mmap(pid, 2 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);

        // Activate only below 50% free; currently 75% free → dormant.
        let config = Scheme::any(Action::Pageout)
            .configure()
            .watermarks(crate::watermarks::Watermarks {
                metric: crate::watermarks::WatermarkMetric::FreeMemPermille,
                high: 600,
                mid: 500,
                low: 100,
            })
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        let agg = agg_of(vec![info(range, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 0, "75% free: watermarks keep the scheme dormant");
        assert_eq!(engine.wmarks[0].map(|(_, st)| st), Some(WatermarkState::Inactive));

        // Build pressure: map+touch 3 more MiB → 37% free → activates.
        let more = sys.mmap(pid, 3 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(more, 1.0)).unwrap();
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert!(pass.paged_out > 0, "under pressure the scheme activates");
        assert_eq!(engine.wmarks[0].map(|(_, st)| st), Some(WatermarkState::Active));
    }

    #[test]
    fn filters_protect_ranges_from_actions() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);

        // Protect the middle half of the mapping.
        let protected = AddrRange::new(range.start + (256 << 10), range.start + (768 << 10));
        let config = Scheme::any(Action::Pageout)
            .configure()
            .filter(crate::filter::AddrFilter::reject(protected))
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        let agg = agg_of(vec![info(range, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 512 << 10, "only the unprotected half went out");
        assert_eq!(
            sys.nr_resident_in(pid, protected),
            protected.nr_pages(),
            "the protected range stayed resident"
        );
    }

    #[test]
    fn allow_filter_confines_action() {
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let arena = AddrRange::new(range.start, range.start + (128 << 10));
        let config = Scheme::any(Action::Pageout)
            .configure()
            .filter(crate::filter::AddrFilter::allow(arena))
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        let agg = agg_of(vec![info(range, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        assert_eq!(pass.paged_out, 128 << 10);
    }

    #[test]
    fn engine_pass_is_a_scheme_apply_span() {
        daos_trace::install(daos_trace::Collector::builder().build().unwrap()).unwrap();
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let mut engine =
            SchemesEngine::new(SchemeTarget::Virtual(pid), vec![Scheme::any(Action::Pageout)]);
        let agg = agg_of(vec![info(range, 0, 100)]);
        let pass = engine.on_aggregation(&mut sys, &agg);
        let c = daos_trace::take().unwrap();
        let h = c.registry().hist(&daos_trace::keys::span(daos_trace::Phase::SchemeApply));
        let h = h.expect("one span per pass");
        assert_eq!((h.count(), h.sum()), (1, pass.work_ns), "span carries the pass work");
    }

    #[test]
    fn trace_registry_mirrors_scheme_stats() {
        daos_trace::install(daos_trace::Collector::builder().build().unwrap()).unwrap();
        let mut sys = sys();
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        clear_refs(&mut sys, pid, range);
        let config = Scheme::any(Action::Pageout)
            .configure()
            .quota(Quota { sz_limit: 256 << 10, reset_interval: ms(1000) })
            .build()
            .unwrap();
        let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
        // Two regions: the quota grants the first and skips the second.
        let half = AddrRange::new(range.start, range.start + (512 << 10));
        let rest = AddrRange::new(range.start + (512 << 10), range.end);
        let agg = agg_of(vec![info(half, 0, 100), info(rest, 0, 100)]);
        engine.on_aggregation(&mut sys, &agg);

        let collector = daos_trace::take().unwrap();
        // The engine mirrors every tried/applied/skip into `scheme.0.*`.
        let counter = |field| collector.registry().counter(&daos_trace::keys::scheme(0, field));
        let from_reg = SchemeStats {
            nr_tried: counter("nr_tried"),
            sz_tried: counter("sz_tried"),
            nr_applied: counter("nr_applied"),
            sz_applied: counter("sz_applied"),
            nr_quota_skips: counter("nr_quota_skips"),
        };
        assert_eq!(from_reg, engine.stats()[0], "registry is the same source of truth");
        assert!(from_reg.nr_tried >= 2 && from_reg.nr_quota_skips >= 1);
        let kinds: Vec<&str> =
            collector.events().iter().map(|te| te.event.name()).collect();
        assert!(kinds.contains(&"SchemeMatch"));
        assert!(kinds.contains(&"SchemeApply"));
        assert!(kinds.contains(&"QuotaThrottle"));
    }

    #[test]
    fn listing1_written_in_2_plus_1_lines() {
        // The paper's claim: access-aware THP in 2 lines, proactive
        // reclamation in 1 line of scheme DSL.
        let ethp = "\
2MB max 80% max 1m max thp
min max min 5% 1m max nothp";
        let prcl = "min max min min 2m max page_out";
        assert_eq!(crate::parser::parse_schemes(ethp).unwrap().len(), 2);
        assert_eq!(crate::parser::parse_schemes(prcl).unwrap().len(), 1);
    }
}
