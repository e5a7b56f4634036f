//! # daos-bench — the paper's evaluation harness
//!
//! One binary per table and figure of the paper (see DESIGN.md §3 for
//! the experiment index), plus the three gated bench binaries
//! (`pipeline`, `fleet_bench`, `obs_bench`; [`artifact`]):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1_actions` | Table 1 — supported scheme actions |
//! | `table2_machines` | Table 2 — machine profiles |
//! | `fig3_patterns` | Fig. 3 — six score patterns |
//! | `fig4_score_sweep` | Fig. 4 — prcl scores vs min_age |
//! | `fig5_estimation` | Fig. 5 — tuner trend estimation |
//! | `fig6_heatmaps` | Fig. 6 — access-pattern heatmaps |
//! | `fig7_overhead_benefit` | Fig. 7 — overhead & scheme benefits |
//! | `fig8_autotune` | Fig. 8 — manual vs auto-tuned prcl |
//! | `fig9_production` | Fig. 9 — serverless production RSS |
//!
//! The four extra binaries (`ablation_adaptive`, `ablation_tuner`,
//! `ext_damon_reclaim`, `ext_lru_sort`) make thirteen figure and table
//! binaries in all. Scaling ([`scale`]): the paper's exact grids by
//! default, `DAOS_QUICK=1` smoke grids. Artifacts land in `./results`
//! (`$DAOS_RESULTS` overrides).

pub mod artifact;
pub mod fig9;
pub mod report;
pub mod scale;
pub mod sweep;
