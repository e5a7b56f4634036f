//! README's bench tables are outputs, not prose: each block between
//! `<!-- generated: BENCH_<name>.json -->` and `<!-- end generated -->`
//! must equal what this test renders from the committed artifact. A
//! timing lane renders as `lane | median | min`, a load lane as
//! `lane | p50 | p99 | req/s`; rows keep the artifact's order, and every
//! number has three significant digits. There is no bless switch: on a
//! mismatch the test prints the expected block, to be pasted over the
//! old one.

use std::path::{Path, PathBuf};

use daos_util::json::{self, Json};

/// The committed artifacts README renders, one block each.
const ARTIFACTS: [&str; 3] = ["BENCH_pipeline.json", "BENCH_fleet.json", "BENCH_obs.json"];

const END: &str = "<!-- end generated -->";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn begin(file: &str) -> String {
    format!("<!-- generated: {file} -->")
}

/// `v` rounded to three significant digits.
fn sig3(v: f64) -> f64 {
    if v == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(v.abs().log10().floor() as i32 - 2);
    (v / scale).round() * scale
}

/// A value already rounded to three significant digits, printed with
/// exactly as many decimals as those digits need.
fn fixed3(v: f64) -> String {
    let decimals = if v == 0.0 { 0 } else { (2 - v.abs().log10().floor() as i32).max(0) as usize };
    format!("{v:.decimals$}")
}

/// Nanoseconds in ns, µs or ms, whichever keeps the integer part under
/// 1000 (ms takes everything above).
fn duration(ns: f64) -> String {
    let ns = sig3(ns);
    let (v, unit) = if ns < 1e3 {
        (ns, "ns")
    } else if ns < 1e6 {
        (ns / 1e3, "µs")
    } else {
        (ns / 1e6, "ms")
    };
    format!("{} {unit}", fixed3(sig3(v)))
}

fn number(lane: &Json, key: &str, file: &str, name: &str) -> f64 {
    match lane.get(key) {
        Some(Json::F64(v)) => *v,
        Some(Json::U64(v)) => *v as f64,
        _ => panic!("{file}: lane {name} has no number `{key}`"),
    }
}

/// The README block for the artifact `file` whose text is `text`.
fn render(file: &str, text: &str) -> String {
    let doc = json::parse(text).unwrap_or_else(|e| panic!("{file} is not JSON: {e}"));
    let Some(Json::Object(lanes)) = doc.get("results") else {
        panic!("{file} has no `results` object")
    };
    let load = lanes.first().is_some_and(|(_, lane)| lane.get("p50_ns").is_some());
    let mut out = begin(file) + "\n";
    out += if load {
        "| lane | p50 | p99 | req/s |\n|---|---|---|---|\n"
    } else {
        "| lane | median | min |\n|---|---|---|\n"
    };
    for (name, lane) in lanes {
        let num = |key: &str| number(lane, key, file, name);
        assert_eq!(lane.get("p50_ns").is_some(), load, "{file}: {name} is not a lane like the first");
        out += &if load {
            format!(
                "| `{name}` | {} | {} | {} |\n",
                duration(num("p50_ns")),
                duration(num("p99_ns")),
                fixed3(sig3(num("rps")).round())
            )
        } else {
            format!("| `{name}` | {} | {} |\n", duration(num("median_ns")), duration(num("min_ns")))
        };
    }
    out + END
}

/// The block README holds for `file`, markers included, if it has one.
fn block<'a>(readme: &'a str, file: &str) -> Option<&'a str> {
    let start = readme.find(&begin(file))?;
    let len = readme[start..].find(END)? + END.len();
    Some(&readme[start..start + len])
}

#[test]
fn readme_bench_tables_are_rendered_from_the_committed_artifacts() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let mut stale = Vec::new();
    for file in ARTIFACTS {
        let text = std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let expected = render(file, &text);
        if block(&readme, file) != Some(expected.as_str()) {
            stale.push(expected);
        }
    }
    assert!(
        stale.is_empty(),
        "README's bench tables differ from the committed artifacts; paste each block below \
         over README's:\n\n{}\n",
        stale.join("\n\n")
    );
    assert_eq!(
        readme.matches("<!-- generated: ").count(),
        ARTIFACTS.len(),
        "README has one generated block per artifact in {ARTIFACTS:?}, and no other"
    );
}

#[test]
fn numbers_have_three_significant_digits_in_the_nearest_unit() {
    let cases = [
        (5.608_755, "5.61 ns"),
        (165.815, "166 ns"),
        (999.6, "1.00 µs"),
        (10_186.1, "10.2 µs"),
        (20_082.57, "20.1 µs"),
        (79_138.6, "79.1 µs"),
        (35_672_960.0, "35.7 ms"),
        (999_960.0, "1.00 ms"),
    ];
    for (ns, text) in cases {
        assert_eq!(duration(ns), text, "{ns} ns");
    }
    assert_eq!(fixed3(sig3(4_485.07).round()), "4490");
    assert_eq!(fixed3(sig3(25_296.5).round()), "25300");
}
