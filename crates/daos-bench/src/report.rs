//! Report rendering: aligned console tables plus CSV artifacts under
//! `results/` so each figure's data can be re-plotted.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple column-aligned text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append one row (must match header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncol {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Directory experiment artifacts are written to (`$DAOS_RESULTS` or
/// `./results`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DAOS_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    let _ = fs::create_dir_all(&p);
    p
}

/// Write an artifact file under the results directory, returning its
/// path. Silent: the calling binary announces the path (library code
/// never prints — see the guard in scripts/verify.sh).
pub fn write_artifact(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path)?;
    f.write_all(content.as_bytes())?;
    Ok(path)
}

/// Format a ratio as a fixed-width number (`1.234`).
pub fn r3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage (`12.3%`).
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Arithmetic mean.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer-name", "2.5"]);
        let s = t.render();
        assert!(s.contains("longer-name  2.5"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["has,comma", "has\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(Vec::<f64>::new()), 0.0);
    }
}
