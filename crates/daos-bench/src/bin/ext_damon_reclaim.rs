//! Extension experiment: from `prcl` to DAMON_RECLAIM — what the paper's
//! proactive-reclamation scheme became when it shipped as a kernel
//! module. Quotas bound the reclaim bandwidth (no burst storms on
//! mistuned thresholds); watermarks keep the scheme dormant until free
//! memory actually runs short.

use daos::{Normalized, RunConfig, Session, SessionResult};
use daos_bench::report::{write_artifact, Table};
use daos_mm::clock::ms;
use daos_mm::MachineProfile;
use daos_schemes::{Quota, WatermarkMetric, Watermarks};
use daos_workloads::by_path;

fn main() {
    println!("Extension: prcl vs DAMON_RECLAIM (quota + watermarks)\n");

    let mut table = Table::new(vec![
        "workload", "config", "perf", "mem-eff", "pageouts", "quota skips", "wm-dormant",
    ]);

    for name in ["parsec3/freqmine", "parsec3/blackscholes", "splash2x/ocean_cp"] {
        let spec = by_path(name).expect("suite workload");
        // Pressure setup: DRAM sized to 1.5x the footprint, so the fleet
        // of one workload + page cache headroom makes watermarks
        // meaningful (free memory ~33% while fully resident).
        let mut machine = MachineProfile::i3_metal();
        machine.dram_bytes = spec.footprint * 3 / 2;
        let run = |config: &RunConfig| {
            Session::new(&machine, config, &spec).seed(42).execute().map(SessionResult::into_single)
        };

        let baseline = run(&RunConfig::baseline()).unwrap();

        // Plain prcl with an aggressive threshold.
        let prcl = RunConfig::prcl_with_min_age(ms(500));
        let r_prcl = run(&prcl).unwrap();

        // DAMON_RECLAIM: same threshold + quota + watermarks.
        let mut dr = RunConfig::prcl_with_min_age(ms(500));
        dr.name = "damon_reclaim".into();
        let scheme = dr.schemes.remove(0).scheme;
        dr.schemes = vec![scheme
            .configure()
            .quota(Quota { sz_limit: 4 << 20, reset_interval: ms(500) })
            .watermarks(Watermarks {
                metric: WatermarkMetric::FreeMemPermille,
                high: 500,
                mid: 400,
                low: 50,
            })
            .build()
            .unwrap()];
        let r_dr = run(&dr).unwrap();

        for (r, cfg_name) in [(&r_prcl, "prcl(0.5s)"), (&r_dr, "damon_reclaim")] {
            let n = Normalized::of(&baseline, r);
            let dormant = r
                .scheme_stats
                .first()
                .map(|s| s.nr_tried == 0)
                .unwrap_or(true);
            table.row(vec![
                spec.plot_name(),
                cfg_name.to_string(),
                format!("{:.3}", n.performance),
                format!("{:.3}", n.memory_efficiency),
                r.kstats.damos_pageouts.to_string(),
                r.scheme_stats.first().map(|s| s.nr_quota_skips).unwrap_or(0).to_string(),
                if dormant { "yes" } else { "no" }.into(),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nThe quota turns pageout bursts into a bounded drip (quota skips > 0) and the\n\
         watermarks keep the scheme inactive when free memory is plentiful — the two\n\
         guardrails that made the paper's prcl deployable as DAMON_RECLAIM."
    );
    println!("[artifact] {}", write_artifact("ext_damon_reclaim.csv", &table.to_csv()).unwrap().display());
}
