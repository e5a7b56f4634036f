//! `reproduce`: regenerates the paper's tables and figures.
//!
//! `reproduce fig4_score_sweep fig8_autotune` runs the named figures in
//! that order; with no argument it runs all thirteen in EXPERIMENTS.md's
//! order. An unknown name exits 2 before any figure runs. Each figure
//! prints its tables and writes them as CSV under `$DAOS_RESULTS`
//! (default `./results`); `DAOS_QUICK=1` selects the smoke grids
//! ([`Scale`]).

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a binary owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "a binary may stop on a broken invariant")]

mod ablation_adaptive;
mod ablation_tuner;
mod ext_damon_reclaim;
mod ext_lru_sort;
mod fig3_patterns;
mod fig4_score_sweep;
mod fig5_estimation;
mod fig6_heatmaps;
mod fig7_overhead_benefit;
mod fig8_autotune;
mod fig9_production;
mod table1_actions;
mod table2_machines;

use daos_bench::scale::Scale;

/// Every table and figure, in EXPERIMENTS.md's order.
const FIGURES: [(&str, fn(Scale)); 13] = [
    ("table1_actions", table1_actions::run),
    ("table2_machines", table2_machines::run),
    ("fig3_patterns", fig3_patterns::run),
    ("fig4_score_sweep", fig4_score_sweep::run),
    ("fig5_estimation", fig5_estimation::run),
    ("fig6_heatmaps", fig6_heatmaps::run),
    ("fig7_overhead_benefit", fig7_overhead_benefit::run),
    ("fig8_autotune", fig8_autotune::run),
    ("fig9_production", fig9_production::run),
    ("ablation_adaptive", ablation_adaptive::run),
    ("ablation_tuner", ablation_tuner::run),
    ("ext_damon_reclaim", ext_damon_reclaim::run),
    ("ext_lru_sort", ext_lru_sort::run),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &str| FIGURES.iter().find(|(known, _)| *known == name);
    if let Some(unknown) = names.iter().find(|name| find(name).is_none()) {
        let known: Vec<&str> = FIGURES.iter().map(|(known, _)| *known).collect();
        eprintln!("reproduce: unknown figure `{unknown}`; one of: {}", known.join(" "));
        std::process::exit(2);
    }
    let picked: Vec<_> = if names.is_empty() {
        FIGURES.iter().collect()
    } else {
        names.iter().filter_map(|name| find(name)).collect()
    };
    let scale = Scale::from_env();
    for (_, run) in picked {
        run(scale);
    }
}
