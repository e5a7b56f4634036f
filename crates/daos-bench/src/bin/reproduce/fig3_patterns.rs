//! Figure 3: the six theoretical patterns of performance, memory
//! efficiency and unified score under growing action aggressiveness,
//! as their canonical shapes (§3.3–3.4). The measured validation, that
//! real sweep curves classify into them, is Fig. 4's pattern table
//! (`fig4_patterns.csv`).

use daos_bench::report::{write_artifact, Table};
use daos_bench::scale::Scale;
use daos_tuner::ScorePattern;

pub fn run(_: Scale) {
    println!("Figure 3: score patterns for varying PAGEOUT aggressiveness.\n");

    let mut canon = Table::new(vec![
        "aggressiveness", "p1", "p2", "p3", "p4", "p5", "p6",
    ]);
    for i in 0..=10 {
        let t = i as f64 / 10.0;
        canon.row(
            std::iter::once(format!("{t:.1}"))
                .chain(ScorePattern::all().iter().map(|p| format!("{:.2}", p.canonical(t))))
                .collect(),
        );
    }
    println!("Canonical pattern curves (score at aggressiveness t):");
    print!("{}", canon.render());
    for p in ScorePattern::all() {
        println!("  pattern {p}");
    }
    println!("[artifact] {}", write_artifact("fig3_canonical.csv", &canon.to_csv()).unwrap().display());
}
