//! `ledger --compare A.json B.json`: for every (workload, end-to-end
//! metric) both artifacts hold, the two values (the metric's statistic:
//! a median or the fastest decile), the change, the bound and a verdict. `unresolved` is not `ok`: it says the two artifacts
//! cannot settle the question — a spread wider than the bound, or two
//! different machines — and the sets have to be taken again.

use std::process::ExitCode;

use crate::adapter::{parse_json, Json};
use crate::catalog::{self, Better, Bound};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy)]
struct Reading {
    value: f64,
    p25: f64,
    p75: f64,
}

impl Reading {
    fn of(workload: &Json, metric: &str) -> Option<Reading> {
        let m = workload.get("metrics")?.get(metric)?;
        let value: f64 = m.field("value").ok()?;
        Some(Reading {
            value,
            p25: m.field("p25").unwrap_or(value),
            p75: m.field("p75").unwrap_or(value),
        })
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub better: Better,
    pub a: f64,
    pub b: f64,
    /// The bound in the metric's own unit.
    pub limit: f64,
    pub verdict: Verdict,
    pub why: &'static str,
}

/// The host reference walk may differ by this share between two
/// artifacts before their host times stop being comparable.
const HOST_REF_TOLERANCE: f64 = 0.10;

fn same_machine(a: &Json, b: &Json) -> bool {
    let read = |w: &Json, lane: &str| Reading::of(w, lane).map(|r| r.value);
    let ref_ok = match (read(a, "host.ref_ms"), read(b, "host.ref_ms")) {
        (Some(x), Some(y)) => (x - y).abs() <= HOST_REF_TOLERANCE * x.min(y),
        _ => false,
    };
    ref_ok && read(a, "host.nproc") == read(b, "host.nproc")
}

fn judge(
    a: Reading,
    b: Reading,
    better: Better,
    bound: Bound,
    same_machine: bool,
) -> (f64, Verdict, &'static str) {
    let limit_of = |r: Reading| match bound {
        Bound::Share(share) => share * r.value.abs(),
        Bound::Abs(x) => x,
    };
    let limit = limit_of(a);
    let worsening = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let noisy = [a, b].iter().any(|r| r.p75 - r.p25 > limit_of(*r));
    if noisy {
        (limit, Verdict::Unresolved, "p25-p75 spread exceeds the bound")
    } else if !same_machine {
        (limit, Verdict::Unresolved, "host.ref_ms or host.nproc differ")
    } else if worsening > limit {
        (limit, Verdict::Worse, "")
    } else {
        (limit, Verdict::Ok, "")
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.field::<String>("schema").ok().as_deref() != Some("daos-ledger/1") {
        return Err(format!("{path}: not a ledger artifact"));
    }
    if doc.field::<bool>("quick").unwrap_or(true) {
        return Err(format!(
            "{path}: a --quick artifact is for smoke use only and is not compared"
        ));
    }
    Ok(doc)
}

pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in catalog::WORKLOADS.iter() {
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            continue;
        };
        let same = same_machine(&wa, &wb);
        for m in catalog::END_TO_END.iter() {
            let (Some(ra), Some(rb)) = (Reading::of(&wa, m.name), Reading::of(&wb, m.name)) else {
                continue;
            };
            // Only host times depend on how busy the machine was.
            let host_timed = matches!(m.unit, "s" | "ms" | "sim_s/host_s");
            let (limit, verdict, why) = judge(ra, rb, m.better, m.bound, same || !host_timed);
            rows.push(Row {
                workload: w.name.into(),
                metric: m.name,
                better: m.better,
                a: ra.value,
                b: rb.value,
                limit,
                verdict,
                why,
            });
        }
    }
    rows
}

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = compare(&a, &b);
    if rows.is_empty() {
        return Err("the artifacts share no (workload, metric) pair".into());
    }
    println!(
        "{:<16} {:<18} {:<7} {:>14} {:>14} {:>9} {:>12}  verdict",
        "workload", "metric", "better", "A", "B", "change", "bound"
    );
    for r in &rows {
        let change = if r.a == 0.0 { r.b - r.a } else { 100.0 * (r.b - r.a) / r.a.abs() };
        let verdict = match r.verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Worse => "worse".to_string(),
            Verdict::Unresolved => format!("unresolved ({})", r.why),
        };
        println!(
            "{:<16} {:<18} {:<7} {:>14.4} {:>14.4} {:>+8.2}{} {:>12.4}  {verdict}",
            r.workload,
            r.metric,
            r.better.as_str(),
            r.a,
            r.b,
            change,
            if r.a == 0.0 { ' ' } else { '%' },
            r.limit
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(Verdict::Worse), count(Verdict::Unresolved));
    println!(
        "{} pairs: {} ok, {worse} worse, {unresolved} unresolved",
        rows.len(),
        count(Verdict::Ok)
    );
    let digests_of = |doc: &Json| -> Vec<Option<String>> {
        catalog::WORKLOADS
            .iter()
            .map(|w| doc.get("workloads")?.get(w.name)?.field::<String>("sim_digest").ok())
            .collect()
    };
    let same_sim = digests_of(&a) == digests_of(&b);
    println!(
        "sim_digest: {}",
        if same_sim {
            "identical on every workload"
        } else {
            "DIFFERS — the two sides did not simulate the same thing"
        }
    );
    Ok(if worse > 0 { ExitCode::from(crate::EX_DATAERR) } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic artifact: one workload, `wall_ms_p10` as given, the
    /// host lanes as given.
    fn artifact(wall: (f64, f64, f64), ref_ms: f64) -> Json {
        let text = format!(
            r#"{{"schema":"daos-ledger/1","quick":false,"workloads":{{"run_idle_prcl":{{"sim_digest":"00","metrics":{{
                "wall_ms_p10":{{"value":{},"p25":{},"p75":{},"unit":"ms"}},
                "failed_share":{{"value":0.0,"p25":0.0,"p75":0.0,"unit":"ratio"}},
                "host.ref_ms":{{"value":{ref_ms},"unit":"ms"}},
                "host.nproc":{{"value":2.0,"unit":"count"}}}}}}}}}}"#,
            wall.1, wall.0, wall.2
        );
        parse_json(&text).expect("synthetic artifact parses")
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).expect("row").verdict
    }

    #[test]
    fn verdicts_on_three_synthetic_artifacts() {
        let base = artifact((258.0, 260.0, 262.0), 100.0);
        let same = artifact((259.0, 262.0, 264.0), 101.0);
        let slower = artifact((338.0, 340.0, 342.0), 99.0);
        let noisy = artifact((200.0, 265.0, 300.0), 100.0);
        let other_host = artifact((258.0, 260.0, 262.0), 130.0);

        let rows = compare(&base, &same);
        assert_eq!(rows.len(), 2);
        assert_eq!(verdict_of(&rows, "wall_ms_p10"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Ok);
        // 260 → 340 ms is +31 %, past the 25 % bound …
        assert_eq!(verdict_of(&compare(&base, &slower), "wall_ms_p10"), Verdict::Worse);
        // … and the same change the other way round is an improvement.
        assert_eq!(verdict_of(&compare(&slower, &base), "wall_ms_p10"), Verdict::Ok);
        // A quartile spread of 100 ms cannot resolve a 66 ms bound.
        assert_eq!(verdict_of(&compare(&base, &noisy), "wall_ms_p10"), Verdict::Unresolved);
        assert_eq!(verdict_of(&compare(&noisy, &base), "wall_ms_p10"), Verdict::Unresolved);
        // A reference walk 30 % apart: host times are not comparable,
        // the simulated failure share still is.
        let rows = compare(&base, &other_host);
        assert_eq!(verdict_of(&rows, "wall_ms_p10"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Ok);
    }

    #[test]
    fn any_failure_is_worse_under_a_zero_bound() {
        let a = Reading { value: 0.0, p25: 0.0, p75: 0.0 };
        let b = Reading { value: 0.001, p25: 0.001, p75: 0.001 };
        let (limit, verdict, _) = judge(a, b, Better::Lower, Bound::Abs(0.0), true);
        assert_eq!((limit, verdict), (0.0, Verdict::Worse));
        let (_, verdict, _) = judge(a, a, Better::Lower, Bound::Abs(0.0), true);
        assert_eq!(verdict, Verdict::Ok);
        // Higher-is-better: a drop past the bound is worse, a rise is not.
        let r = |value| Reading { value, p25: value, p75: value };
        assert_eq!(
            judge(r(280.0), r(240.0), Better::Higher, Bound::Share(0.1), true).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(r(240.0), r(280.0), Better::Higher, Bound::Share(0.1), true).1,
            Verdict::Ok
        );
    }
}
