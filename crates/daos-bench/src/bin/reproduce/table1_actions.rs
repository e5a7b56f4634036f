//! Table 1: the actions supported by the DAOS Scheme Engine.
//!
//! Prints the table and *proves* each action by exercising it on a live
//! simulated system, reporting its observable effect.

use daos_bench::report::{write_artifact, Table};
use daos_bench::scale::Scale;
use daos_mm::access::AccessBatch;
use daos_mm::addr::{AddrRange, HUGE_PAGE_SIZE};
use daos_mm::{MachineProfile, MemorySystem, SwapConfig, ThpMode};
use daos_monitor::{Aggregation, RegionInfo};
use daos_schemes::{Action, Scheme, SchemeTarget, SchemesEngine};

fn demo_system() -> (MemorySystem, u32, AddrRange) {
    let mut sys = MemorySystem::new(MachineProfile::i3_metal(), SwapConfig::paper_zram(), 1);
    let pid = sys.spawn();
    let range = sys
        .mmap_at(pid, 8 * HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE, ThpMode::Madvise)
        .unwrap();
    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    // Quiesce reference bits so reclaim-flavoured actions act immediately.
    for p in range.pages() {
        sys.check_accessed_clear(pid, p);
    }
    (sys, pid, range)
}

fn agg(range: AddrRange) -> Aggregation {
    Aggregation {
        at: 0,
        regions: vec![RegionInfo { range, nr_accesses: 0, age: 100 }],
        max_nr_accesses: 20,
        aggregation_interval: daos_mm::clock::ms(100),
    }
}

/// Apply one action through the engine and describe what happened.
fn demonstrate(action: Action) -> String {
    let (mut sys, pid, range) = demo_system();
    let rss_before = sys.rss_bytes(pid) >> 20;
    let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![Scheme::any(action)]);
    if action == Action::Willneed {
        // WILLNEED needs swapped pages to prefetch.
        sys.pageout(pid, range).unwrap();
        sys.pageout(pid, range).unwrap();
    }
    engine.on_aggregation(&mut sys, &agg(range));
    match action {
        Action::Willneed => format!(
            "swapped-out region prefetched back: RSS 0 -> {} MiB",
            sys.rss_bytes(pid) >> 20
        ),
        Action::Cold => format!(
            "{} pages deactivated to the inactive LRU tail",
            engine.stats()[0].sz_applied >> 12
        ),
        Action::Hugepage => format!(
            "{} MiB now huge-mapped (was 0)",
            sys.huge_bytes(pid) >> 20
        ),
        Action::Nohugepage => {
            // Promote first so there is something to demote.
            let (mut sys, pid, range) = demo_system();
            sys.promote_huge(pid, range).unwrap();
            let before = sys.huge_bytes(pid) >> 20;
            let mut engine =
                SchemesEngine::new(SchemeTarget::Virtual(pid), vec![Scheme::any(action)]);
            engine.on_aggregation(&mut sys, &agg(range));
            format!("huge-mapped bytes {} MiB -> {} MiB", before, sys.huge_bytes(pid) >> 20)
        }
        Action::Pageout => format!(
            "RSS {} MiB -> {} MiB ({} MiB paged out)",
            rss_before,
            sys.rss_bytes(pid) >> 20,
            engine.stats()[0].sz_applied >> 20
        ),
        Action::Stat => format!(
            "counted {} regions / {} MiB, memory untouched (RSS still {} MiB)",
            engine.stats()[0].nr_applied,
            engine.stats()[0].sz_applied >> 20,
            sys.rss_bytes(pid) >> 20
        ),
        Action::LruPrio | Action::LruDeprio => format!(
            "{} pages re-sorted on the LRU lists",
            engine.stats()[0].sz_applied >> 12
        ),
    }
}

pub fn run(_: Scale) {
    println!("Table 1: The actions supported by the DAOS Scheme Engine.\n");
    let mut table = Table::new(vec!["Action", "Description", "Demonstrated effect"]);
    for action in Action::paper_actions() {
        table.row(vec![
            action.keyword().to_uppercase(),
            action.description().to_string(),
            demonstrate(action),
        ]);
    }
    print!("{}", table.render());
    println!("[artifact] {}", write_artifact("table1_actions.csv", &table.to_csv()).unwrap().display());
}
