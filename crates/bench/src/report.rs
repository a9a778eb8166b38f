//! Tabular experiment reports: collected as ordered key-value rows, printed
//! as aligned text tables, and serialized to JSON so EXPERIMENTS.md numbers
//! are regenerable.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use gnn4tdl_tensor::json;

/// One cell value. Serialized untagged: text as a JSON string, numbers bare.
#[derive(Clone, Debug)]
pub enum Cell {
    Text(String),
    Float(f64),
    Int(i64),
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Float(v) => format!("{v:.4}"),
            Cell::Int(v) => v.to_string(),
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Cell::Text(s) => json::write_str(out, s),
            Cell::Float(v) => json::write_f64(out, *v),
            Cell::Int(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// A named experiment table.
#[derive(Clone, Debug)]
pub struct Report {
    pub id: String,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
}

impl Report {
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the column count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "column count mismatch in {}", self.id);
        self.rows.push(cells);
    }

    /// Renders as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, cell)| {
                        let s = cell.render();
                        widths[c] = widths[c].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, name)| format!("{name:>width$}", width = widths[c]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in rendered {
            let line: Vec<String> =
                row.iter().enumerate().map(|(c, s)| format!("{s:>width$}", width = widths[c])).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.to_text());
    }

    /// Serializes to pretty-printed JSON (hand-rolled; the build environment
    /// has no registry access for serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"id\": ");
        json::write_str(&mut out, &self.id);
        out.push_str(",\n  \"title\": ");
        json::write_str(&mut out, &self.title);
        out.push_str(",\n  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, c);
        }
        out.push_str("],\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    [" } else { "\n    [" });
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                cell.write_json(&mut out);
            }
            out.push(']');
        }
        if self.rows.is_empty() {
            out.push_str("]\n}");
        } else {
            out.push_str("\n  ]\n}");
        }
        out
    }

    /// Writes `<dir>/<id>.json`.
    pub fn save_json(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        fs::write(path, self.to_json())
    }
}

/// Convenience macro-free row builder.
#[macro_export]
macro_rules! report_row {
    ($report:expr, $($cell:expr),+ $(,)?) => {
        $report.row(vec![$($crate::report::Cell::from($cell)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut r = Report::new("e00", "demo", &["model", "acc"]);
        r.row(vec![Cell::from("gcn"), Cell::from(0.93)]);
        r.row(vec![Cell::from("a-long-model-name"), Cell::from(0.5)]);
        let text = r.to_text();
        assert!(text.contains("e00"));
        assert!(text.contains("0.9300"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut r = Report::new("e00", "demo", &["a", "b"]);
        r.row(vec![Cell::from(1.0)]);
    }

    #[test]
    fn json_round_trip() {
        let mut r = Report::new("e99", "json", &["k", "v"]);
        r.row(vec![Cell::from("x"), Cell::from(1usize)]);
        r.row(vec![Cell::from("quo\"te"), Cell::from(0.25)]);
        let s = r.to_json();
        assert!(s.contains("\"e99\""));
        assert!(s.contains("\"x\""));
        assert!(s.contains("[\"x\", 1]"));
        assert!(s.contains("\\\""));
        assert!(s.contains("0.25"));
    }

    #[test]
    fn json_handles_non_finite_and_empty() {
        let mut r = Report::new("nf", "nan", &["v"]);
        r.row(vec![Cell::from(f64::NAN)]);
        assert!(r.to_json().contains("null"));
        let empty = Report::new("e", "none", &["a"]);
        assert!(empty.to_json().contains("\"rows\": []"));
    }
}
