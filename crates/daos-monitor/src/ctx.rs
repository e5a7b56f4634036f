//! The monitoring context: the kdamond main loop, driven by virtual time.

use daos_mm::addr::PAGE_SIZE;
use daos_mm::clock::Ns;
use daos_util::rng::SmallRng;

use crate::attrs::MonitorAttrs;
use crate::overhead::OverheadStats;
use crate::primitives::Primitives;
use crate::regions::RegionSet;
use crate::snapshot::Aggregation;

/// Estimated CPU cost of per-region bookkeeping in one aggregation pass
/// (merge, snapshot, reset, split), per region, in ns.
const AGGR_PER_REGION_NS: Ns = 40;

/// A running monitoring context over some primitives implementation.
///
/// The caller advances the context with [`MonitorCtx::step`], passing the
/// current virtual time; all due sampling / aggregation / regions-update
/// work is performed and completed [`Aggregation`]s are appended to the
/// caller's sink (the callback mechanism of §3.1, inverted for Rust
/// ownership).
#[derive(Debug)]
pub struct MonitorCtx<P: Primitives> {
    /// The monitoring attributes in force.
    pub attrs: MonitorAttrs,
    prim: P,
    regions: RegionSet,
    /// The set `split` and `update_ranges` rebuild into, kept so a
    /// boundary reuses its columns instead of allocating new ones.
    scratch: RegionSet,
    rng: SmallRng,
    next_sample: Ns,
    next_aggr: Ns,
    next_update: Ns,
    /// Cumulative overhead counters.
    pub overhead: OverheadStats,
    /// Monitor CPU time accumulated since the last `take_work_ns`.
    pending_work_ns: Ns,
}

impl<P: Primitives> MonitorCtx<P> {
    /// Start monitoring at virtual time `now`. Target ranges are read
    /// from the primitives immediately and regions initialised to
    /// `attrs.min_nr_regions`.
    pub fn new(attrs: MonitorAttrs, mut prim: P, env: &P::Env, now: Ns, seed: u64) -> Self {
        debug_assert!(attrs.validate().is_ok());
        let ranges = prim.target_ranges(env);
        let regions = RegionSet::init(&ranges, attrs.min_nr_regions);
        Self {
            attrs,
            prim,
            regions,
            scratch: RegionSet::default(),
            rng: SmallRng::seed_from_u64(seed),
            next_sample: now + attrs.sampling_interval,
            next_aggr: now + attrs.aggregation_interval,
            next_update: now + attrs.regions_update_interval,
            overhead: OverheadStats::default(),
            pending_work_ns: 0,
        }
    }

    /// Current regions (testing / diagnostics).
    pub fn regions(&self) -> &RegionSet {
        &self.regions
    }

    /// The primitives implementation.
    pub fn primitives(&self) -> &P {
        &self.prim
    }

    /// Drain the monitor CPU time accumulated since the last call; the
    /// runner charges it to the machine (→ interference slowdown).
    pub fn take_work_ns(&mut self) -> Ns {
        std::mem::take(&mut self.pending_work_ns)
    }

    /// Advance the monitor to `now`, pushing completed aggregation
    /// windows into `sink`.
    ///
    /// Tickless catch-up: the caller advances virtual time in workload
    /// quanta, and between two calls no memory state changes (there is no
    /// concurrent execution in a discrete-event simulation). When a slow
    /// quantum spans several sampling intervals, the intermediate ticks
    /// would observe nothing new — so at most **one** tick fires per
    /// call, at the latest due sample point. This mirrors a real
    /// machine, where a slowed workload still executes *between* every
    /// pair of monitor wakeups; replaying the skipped ticks back-to-back
    /// would instead let consecutive scheme passes observe (and evict)
    /// state the workload never got a chance to re-reference.
    pub fn step(&mut self, env: &mut P::Env, now: Ns, sink: &mut Vec<Aggregation>) {
        if self.next_sample > now {
            return;
        }
        let interval = self.attrs.sampling_interval;
        let skipped = (now - self.next_sample) / interval;
        let t = self.next_sample + skipped * interval;
        self.tick(env, t, sink);
        self.next_sample = t + interval;
    }

    /// The region set's invariants on the live monitor (DESIGN §5), which
    /// debug builds check after every aggregation and regions update:
    /// [`RegionSet::check_invariants`], and `min_nr_regions ≤ len ≤
    /// max_nr_regions` — the floor only where the target has that many
    /// pages.
    fn audit_regions(&self) -> Result<(), String> {
        self.regions.check_invariants()?;
        let (len, a) = (self.regions.len(), &self.attrs);
        let pages = self.regions.total_bytes() / PAGE_SIZE;
        if len > a.max_nr_regions || (len < a.min_nr_regions && pages >= a.min_nr_regions as u64) {
            let (min, max) = (a.min_nr_regions, a.max_nr_regions);
            return Err(format!("{len} regions over {pages} pages, outside [{min}, {max}]"));
        }
        Ok(())
    }

    /// One sampling tick at time `t`.
    fn tick(&mut self, env: &mut P::Env, t: Ns, sink: &mut Vec<Aggregation>) {
        let check_cost = self.prim.check_cost_ns(env);
        // On a boundary tick the merge/split/update below sits between
        // checking the samples prepared one interval ago (phase 1) and
        // preparing the next (phase 2). On every other tick nothing does,
        // and one fused pass over the regions does both.
        let boundary = self.next_aggr <= t || self.next_update <= t;
        let mut checks = {
            let access = self.prim.access(env);
            if boundary {
                self.regions.check_samples(access)
            } else {
                self.regions.sweep_samples(&mut self.rng, access)
            }
        };

        // Aggregation boundary: merge+age, report, reset, split. The two
        // spans decompose the historical `final_regions × 40 ns` charge
        // (Aggregate covers merge+snapshot+reset over the merged count,
        // SplitMerge the regions the split added) so their sum equals the
        // old per-boundary cost exactly.
        if self.next_aggr <= t {
            let before_merge = self.regions.len() as u64;
            let after_merge;
            let aggregate_ns = daos_trace::span!(t, Aggregate, {
                if self.attrs.adaptive {
                    let sz_limit = (self.regions.total_bytes()
                        / self.attrs.min_nr_regions.max(1) as u64)
                        .max(PAGE_SIZE);
                    self.regions.merge_with_aging(
                        self.attrs.merge_threshold(),
                        sz_limit,
                        self.attrs.min_nr_regions,
                    );
                } else {
                    // Static sampling still needs the aging bookkeeping.
                    self.regions.merge_with_aging(self.attrs.merge_threshold(), 0, usize::MAX);
                }
                after_merge = self.regions.len() as u64;
                if after_merge != before_merge {
                    daos_trace::trace!(
                        t,
                        RegionMerge { before: before_merge, after: after_merge }
                    );
                }
                let snap = self.regions.snapshot();
                // Stream the window into the trace: one RegionSnapshot per
                // region, committed by the Aggregation event below — this
                // is what lets `daos report` rebuild a MonitorRecord.
                if daos_trace::enabled() {
                    for r in &snap {
                        daos_trace::emit(
                            t,
                            daos_trace::Event::RegionSnapshot {
                                start: r.range.start,
                                end: r.range.end,
                                nr_accesses: r.nr_accesses as u64,
                                age: r.age as u64,
                            },
                        );
                    }
                }
                sink.push(Aggregation {
                    at: t,
                    regions: snap,
                    max_nr_accesses: self.attrs.max_nr_accesses(),
                    aggregation_interval: self.attrs.aggregation_interval,
                });
                daos_trace::trace!(
                    t,
                    Aggregation {
                        nr_regions: after_merge,
                        window_ns: self.attrs.aggregation_interval,
                        max_nr_accesses: self.attrs.max_nr_accesses() as u64,
                    }
                );
                self.regions.reset_aggregated();
                after_merge * AGGR_PER_REGION_NS
            });
            let split_ns = daos_trace::span!(t, SplitMerge, {
                if self.attrs.adaptive {
                    self.regions.split(&mut self.rng, self.attrs.max_nr_regions, &mut self.scratch);
                    let after_split = self.regions.len() as u64;
                    if after_split != after_merge {
                        daos_trace::trace!(
                            t,
                            RegionSplit { before: after_merge, after: after_split }
                        );
                    }
                }
                (self.regions.len() as u64 - after_merge) * AGGR_PER_REGION_NS
            });
            self.pending_work_ns += aggregate_ns + split_ns;
            self.overhead.nr_aggregations += 1;
            // Rebase (rather than increment) so a slow quantum does not
            // leave a backlog of aggregation windows firing in a burst.
            self.next_aggr = t + self.attrs.aggregation_interval;
            debug_assert_eq!(self.audit_regions(), Ok(()), "after an aggregation");
        }

        // Regions-update boundary: follow mmap()/hotplug changes.
        if self.next_update <= t {
            let ranges = self.prim.target_ranges(env);
            self.regions.update_ranges(&ranges, &mut self.scratch);
            let a = &self.attrs;
            self.regions.merge_to_cap(a.merge_threshold(), a.min_nr_regions, a.max_nr_regions);
            self.next_update = t + self.attrs.regions_update_interval;
            debug_assert_eq!(self.audit_regions(), Ok(()), "after a regions update");
        }

        if boundary {
            checks += self.regions.prepare_samples(&mut self.rng, self.prim.access(env));
        }

        // Overhead accounting: this is where the paper's bound lives —
        // `checks` can never exceed 2 × max_nr_regions per tick.
        debug_assert!(checks <= 2 * self.attrs.max_nr_regions as u64);
        self.overhead.total_checks += checks;
        self.overhead.max_checks_per_tick = self.overhead.max_checks_per_tick.max(checks);
        self.overhead.nr_ticks += 1;
        let work = daos_trace::span!(t, Sample, checks * check_cost);
        self.overhead.work_ns += work;
        self.pending_work_ns += work;
        daos_trace::trace!(
            t,
            SamplingTick { checks, nr_regions: self.regions.len() as u64, work_ns: work }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{SyntheticPrimitives, SyntheticSpace};
    use daos_mm::addr::AddrRange;
    use daos_mm::clock::ms;

    fn mb(n: u64) -> u64 {
        n << 20
    }

    fn small_attrs() -> MonitorAttrs {
        MonitorAttrs {
            sampling_interval: ms(5),
            aggregation_interval: ms(100),
            regions_update_interval: ms(1000),
            min_nr_regions: 10,
            max_nr_regions: 100,
            adaptive: true,
        }
    }

    /// Run the monitor over a synthetic space with a hot prefix and
    /// return the last aggregation.
    fn run_hot_prefix(hot_frac: f64, windows: usize) -> Aggregation {
        let space_range = AddrRange::new(0, mb(64));
        let hot = AddrRange::new(0, (mb(64) as f64 * hot_frac) as u64 / PAGE_SIZE * PAGE_SIZE);
        let mut env = SyntheticSpace::new(vec![space_range]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 42);
        let mut sink = Vec::new();
        let total_ticks = windows * (attrs.aggregation_interval / attrs.sampling_interval) as usize;
        let mut now = 0;
        for _ in 0..total_ticks {
            env.touch_range(hot); // workload touches hot pages every tick
            now += attrs.sampling_interval;
            ctx.step(&mut env, now, &mut sink);
        }
        assert!(!sink.is_empty());
        sink.pop().unwrap()
    }

    #[test]
    fn detects_hot_prefix() {
        let agg = run_hot_prefix(0.25, 30);
        let hot_end = mb(16);
        // Weighted frequency inside vs outside the hot prefix.
        let mut hot_w = 0.0;
        let mut cold_w = 0.0;
        for r in &agg.regions {
            let f = agg.freq_ratio(r) * r.range.len() as f64;
            if r.range.end <= hot_end {
                hot_w += f;
            } else if r.range.start >= hot_end {
                cold_w += f;
            }
        }
        assert!(
            hot_w > 10.0 * cold_w.max(1.0),
            "hot prefix must dominate: hot={hot_w} cold={cold_w}"
        );
        // Hot-byte estimate lands in the right ballpark (±60 %).
        let est = agg.hot_bytes_estimate() as f64;
        let truth = mb(16) as f64;
        assert!(est > truth * 0.4 && est < truth * 1.8, "estimate {est} vs truth {truth}");
    }

    #[test]
    fn region_bounds_hold_forever() {
        let space_range = AddrRange::new(0, mb(128));
        let mut env = SyntheticSpace::new(vec![space_range]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 7);
        let mut sink = Vec::new();
        let mut now = 0;
        for i in 0..600 {
            // Shifting hot window → lots of split/merge churn.
            let base = mb((i / 20) % 64);
            env.touch_range(AddrRange::new(base, base + mb(8)));
            now += attrs.sampling_interval;
            ctx.step(&mut env, now, &mut sink);
            let n = ctx.regions().len();
            assert!(n <= attrs.max_nr_regions, "region cap violated: {n}");
            ctx.regions().check_invariants().unwrap();
            assert_eq!(ctx.regions().total_bytes(), mb(128), "coverage conserved");
        }
        // Overhead bound: ≤ 2 checks per region per tick.
        assert!(ctx.overhead.max_checks_per_tick <= 2 * attrs.max_nr_regions as u64);
        assert!(ctx.overhead.nr_aggregations >= 25);
    }

    #[test]
    fn region_cap_survives_a_growing_target() {
        // Alternating 2 MiB hot stripes keep neighbours dissimilar, so the
        // set sits at the cap when the first regions update adds nine new
        // ranges: the fresh regions must be merged back under it.
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(128))]);
        let attrs = small_attrs();
        let max = attrs.max_nr_regions;
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 7);
        let mut sink = Vec::new();
        for tick in 1..=260u64 {
            for stripe in (0..64).step_by(2) {
                env.touch_range(AddrRange::new(mb(2 * stripe), mb(2 * stripe + 2)));
            }
            if tick == 199 {
                assert_eq!(ctx.regions().len(), max, "the set must reach the cap first");
                env.ranges.extend((0..9).map(|i| AddrRange::new(mb(200 + 4 * i), mb(202 + 4 * i))));
            }
            ctx.step(&mut env, tick * attrs.sampling_interval, &mut sink);
            assert!(ctx.regions().len() <= max, "tick {tick}: {} regions", ctx.regions().len());
            assert!(ctx.overhead.max_checks_per_tick <= 2 * max as u64, "tick {tick}");
            ctx.regions().check_invariants().unwrap();
        }
        assert_eq!(ctx.regions().total_bytes(), mb(128 + 18), "the update was followed");
    }

    #[test]
    fn aging_tracks_idle_time() {
        // Nothing is ever touched → ages grow monotonically.
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(32))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 3);
        let mut sink = Vec::new();
        let mut now = 0;
        let mut last_min_age = 0;
        for w in 1..=20 {
            for _ in 0..20 {
                now += attrs.sampling_interval;
                ctx.step(&mut env, now, &mut sink);
            }
            let agg = sink.last().unwrap();
            let min_age = agg.regions.iter().map(|r| r.age).min().unwrap();
            assert!(min_age >= last_min_age, "idle ages must not regress (w={w})");
            last_min_age = min_age;
        }
        assert!(last_min_age >= 15, "after 20 idle windows ages should be large");
    }

    #[test]
    fn regions_update_follows_target_growth() {
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(8))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 5);
        let mut sink = Vec::new();
        ctx.step(&mut env, ms(500), &mut sink);
        assert_eq!(ctx.regions().total_bytes(), mb(8));
        // Target grows (mmap) — after the update interval the monitor follows.
        env.ranges = vec![AddrRange::new(0, mb(8)), AddrRange::new(mb(100), mb(116))];
        ctx.step(&mut env, ms(2100), &mut sink);
        assert_eq!(ctx.regions().total_bytes(), mb(24));
    }

    #[test]
    fn tickless_catchup_fires_one_tick_per_step() {
        // A caller that jumps far ahead (a slow workload quantum) gets
        // exactly one tick — the intermediate ticks would observe no new
        // state and replaying them would distort scheme decisions.
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(8))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 5);
        let mut sink = Vec::new();
        ctx.step(&mut env, ms(1000), &mut sink); // 200 sampling intervals due
        assert_eq!(ctx.overhead.nr_ticks, 1, "one representative tick");
        assert!(sink.len() <= 1, "at most one aggregation per tick");
        // The next step resumes on the grid right after the big jump.
        ctx.step(&mut env, ms(1005), &mut sink);
        assert_eq!(ctx.overhead.nr_ticks, 2);
    }

    #[test]
    fn steady_stepping_hits_every_tick() {
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(8))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 5);
        let mut sink = Vec::new();
        for i in 1..=100u64 {
            ctx.step(&mut env, i * ms(5), &mut sink);
        }
        assert_eq!(ctx.overhead.nr_ticks, 100);
        assert_eq!(ctx.overhead.nr_aggregations, 5, "one per 100 ms window");
    }

    #[test]
    fn static_mode_keeps_initial_region_grid() {
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(64))]);
        let attrs = MonitorAttrs { adaptive: false, min_nr_regions: 32, max_nr_regions: 32, ..small_attrs() };
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 5);
        let grid: Vec<_> = ctx.regions().iter().map(|r| r.range).collect();
        let mut sink = Vec::new();
        for i in 1..=200u64 {
            env.touch_range(AddrRange::new(0, mb(2)));
            ctx.step(&mut env, i * ms(5), &mut sink);
        }
        let after: Vec<_> = ctx.regions().iter().map(|r| r.range).collect();
        assert_eq!(grid, after, "no splits or merges in static mode");
        // Aging still works.
        let agg = sink.last().unwrap();
        assert!(agg.regions.iter().any(|r| r.age > 0));
    }

    /// `OverheadStats` as the collector's event mirror sees it: the
    /// `monitor.checks_per_tick` histogram carries ticks (count), total
    /// checks (exact sum) and the per-tick peak (exact max); work and
    /// aggregation counts come from their counters.
    fn overhead_from_registry(reg: &daos_trace::Registry) -> OverheadStats {
        use daos_trace::keys;
        let (total_checks, max_checks_per_tick, nr_ticks) =
            match reg.hist(keys::MONITOR_CHECKS_PER_TICK) {
                Some(h) => (h.sum(), h.max(), h.count()),
                None => (0, 0, 0),
            };
        OverheadStats {
            total_checks,
            max_checks_per_tick,
            nr_ticks,
            nr_aggregations: reg.counter(keys::MONITOR_AGGREGATIONS),
            work_ns: reg.counter(keys::MONITOR_WORK_NS),
        }
    }

    #[test]
    fn registry_rederives_overhead_counters() {
        use daos_trace::{Collector, Event};
        let mut c = Collector::builder().build().unwrap();
        c.record(0, Event::SamplingTick { checks: 10, nr_regions: 5, work_ns: 400 });
        c.record(5, Event::SamplingTick { checks: 30, nr_regions: 5, work_ns: 1200 });
        c.record(5, Event::Aggregation { nr_regions: 5, window_ns: 100, max_nr_accesses: 20 });
        let want = OverheadStats {
            total_checks: 40,
            max_checks_per_tick: 30,
            nr_ticks: 2,
            nr_aggregations: 1,
            work_ns: 1600,
        };
        assert_eq!(overhead_from_registry(c.registry()), want);
        assert_eq!(overhead_from_registry(&daos_trace::Registry::new()), OverheadStats::default());
    }

    #[test]
    fn trace_registry_is_one_source_of_truth() {
        // With a collector installed for the whole run, the registry's
        // monitor counters must equal the embedded OverheadStats.
        daos_trace::install(daos_trace::Collector::builder().build().unwrap()).unwrap();
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(64))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 11);
        let mut sink = Vec::new();
        for i in 1..=300u64 {
            env.touch_range(AddrRange::new(0, mb(4)));
            ctx.step(&mut env, i * ms(5), &mut sink);
        }
        let c = daos_trace::take().unwrap();
        assert_eq!(overhead_from_registry(c.registry()), ctx.overhead);
        // The event stream carries the same bound witness.
        let max_from_events = c
            .events()
            .iter()
            .filter_map(|te| match te.event {
                daos_trace::Event::SamplingTick { checks, .. } => Some(checks),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_from_events, ctx.overhead.max_checks_per_tick);
    }

    #[test]
    fn spans_decompose_the_cost_model() {
        use daos_trace::{keys, Phase};
        daos_trace::install(daos_trace::Collector::builder().build().unwrap()).unwrap();
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(64))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 11);
        let mut sink = Vec::new();
        let mut charged = 0;
        for i in 1..=300u64 {
            env.touch_range(AddrRange::new(0, mb(4)));
            ctx.step(&mut env, i * ms(5), &mut sink);
            charged += ctx.take_work_ns();
        }
        let c = daos_trace::take().unwrap();
        assert_eq!(c.ring().dropped(), 0);
        let reg = c.registry();
        // The Sample span histogram carries exactly the monitor's tick
        // work: count = ticks, sum = work_ns.
        let sample = reg.hist(&keys::span(Phase::Sample)).unwrap();
        assert_eq!(sample.count(), ctx.overhead.nr_ticks);
        assert_eq!(sample.sum(), ctx.overhead.work_ns);
        // Aggregate + SplitMerge spans together equal the historical
        // per-boundary `final_regions × 40 ns` charge.
        let agg = reg.hist(&keys::span(Phase::Aggregate)).unwrap();
        let split = reg.hist(&keys::span(Phase::SplitMerge)).unwrap();
        assert_eq!(agg.count(), ctx.overhead.nr_aggregations);
        assert_eq!(split.count(), ctx.overhead.nr_aggregations);
        assert_eq!(sample.sum() + agg.sum() + split.sum(), charged, "spans cover all charged work");
        // One RegionSnapshot per region per delivered window.
        let expected: u64 = sink.iter().map(|a| a.regions.len() as u64).sum();
        assert_eq!(reg.counter("monitor.region_snapshots"), expected);
    }

    #[test]
    fn work_accounting_drains() {
        let mut env = SyntheticSpace::new(vec![AddrRange::new(0, mb(8))]);
        let attrs = small_attrs();
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, 5);
        let mut sink = Vec::new();
        ctx.step(&mut env, ms(200), &mut sink);
        // Synthetic checks are free but aggregation bookkeeping is not.
        let w = ctx.take_work_ns();
        assert!(w > 0);
        assert_eq!(ctx.take_work_ns(), 0, "drained");
    }
}
