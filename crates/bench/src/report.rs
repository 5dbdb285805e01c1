//! Lightweight tabular reports: render to aligned text and to CSV without
//! external dependencies.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A named table of string cells with a header row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name; used as the CSV file stem.
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {} in table {}",
            cells.len(),
            self.headers.len(),
            self.name
        );
        self.rows.push(cells);
    }

    /// Renders the table as aligned monospace text.
    pub(crate) fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-ish; quotes cells containing
    /// commas or quotes).
    pub(crate) fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// A report: one or more tables plus free-form notes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Report title (e.g. `"Figure 9"`).
    pub title: String,
    /// Narrative notes printed before the tables.
    pub notes: Vec<String>,
    /// The tables.
    pub tables: Vec<Table>,
}

impl Report {
    /// Creates an empty report.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            ..Report::default()
        }
    }

    /// Adds a note line.
    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Adds a table.
    pub(crate) fn push_table(&mut self, t: Table) {
        self.tables.push(t);
    }

    /// Renders the whole report as text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} ====", self.title);
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for t in &self.tables {
            let _ = writeln!(out, "\n-- {} --", t.name);
            out.push_str(&t.to_text());
        }
        out
    }

    /// Writes every table as `<dir>/<table-name>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csvs(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for t in &self.tables {
            fs::write(dir.join(format!("{}.csv", t.name)), t.to_csv())?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimal places (helper for tables).
pub(crate) fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "hello,world".into()]);
        let text = t.to_text();
        assert!(text.contains('a'));
        assert!(text.contains("hello,world"));
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"hello,world\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        Table::new("x", &["a"]).push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("Figure X");
        r.note("a note");
        let mut t = Table::new("t1", &["col"]);
        t.push_row(vec!["v".into()]);
        r.push_table(t);
        let text = r.to_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("a note"));
        assert!(text.contains("t1"));

        let dir = std::env::temp_dir().join("bofl_report_test");
        r.write_csvs(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join("t1.csv")).unwrap();
        assert!(written.contains("col"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_formatter() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }
}
