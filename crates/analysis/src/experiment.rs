//! Experiment tables: the textual artifacts the benchmark harness emits.
//!
//! The paper has no empirical tables (its evaluation is the theorems), so
//! each experiment renders a *bound vs. measured* table in the same shape
//! the claims are stated in. [`Table`] provides aligned ASCII rendering for
//! terminals/EXPERIMENTS.md and CSV for downstream plotting.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A simple column-aligned table with a title and footnotes.
///
/// # Examples
///
/// ```
/// use aqt_analysis::Table;
///
/// let mut t = Table::new("E1: PTS", ["sigma", "bound", "measured"]);
/// t.push_row(["0", "2", "2"]);
/// t.push_row(["4", "6", "5"]);
/// t.note("bound = 2 + sigma (Prop. 3.1)");
/// let text = t.render();
/// assert!(text.contains("E1: PTS"));
/// assert!(text.contains("measured"));
/// assert_eq!(t.to_csv().lines().count(), 3); // header + 2 rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<T, C>(title: T, columns: C) -> Self
    where
        T: Into<String>,
        C: IntoIterator,
        C::Item: Into<String>,
    {
        Table {
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn push_row<R>(&mut self, cells: R)
    where
        R: IntoIterator,
        R::Item: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(row);
    }

    /// Appends a footnote printed under the table.
    pub fn note<S: Into<String>>(&mut self, note: S) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Whether any cell reads `VIOLATED` ([`Verdict::Violated`]): the
    /// table records a broken bound.
    pub fn violated(&self) -> bool {
        let symbol = Verdict::Violated.symbol();
        self.rows.iter().flatten().any(|cell| cell == symbol)
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.columns));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }

    /// Renders CSV (header + rows; notes omitted).
    pub fn to_csv(&self) -> String {
        let escape = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(escape)
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Outcome of comparing a measurement against a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Measured ≤ bound (upper-bound experiments).
    Holds,
    /// Measured > bound — a counterexample (should never happen).
    Violated,
}

impl Verdict {
    /// Compares a measured value against an upper bound.
    pub fn upper(measured: u64, bound: u64) -> Verdict {
        if measured <= bound {
            Verdict::Holds
        } else {
            Verdict::Violated
        }
    }

    /// Symbol for table cells.
    pub fn symbol(self) -> &'static str {
        match self {
            Verdict::Holds => "ok",
            Verdict::Violated => "VIOLATED",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", ["a", "long-header", "c"]);
        t.push_row(["1", "2", "333333"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        // Header and row lines have equal length.
        let header = lines.iter().find(|l| l.contains("long-header")).unwrap();
        let row = lines.iter().find(|l| l.contains("333333")).unwrap();
        assert_eq!(header.len(), row.len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", ["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", ["x", "y"]);
        t.push_row(["a,b", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
    }

    #[test]
    fn notes_render() {
        let mut t = Table::new("demo", ["x"]);
        t.push_row(["1"]);
        t.note("hello");
        assert!(t.render().contains("> hello"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn verdicts() {
        assert_eq!(Verdict::upper(5, 5), Verdict::Holds);
        assert_eq!(Verdict::upper(6, 5), Verdict::Violated);
        assert_eq!(Verdict::Holds.to_string(), "ok");
    }

    #[test]
    fn violated_reads_verdict_cells_only() {
        let mut t = Table::new("VIOLATED bounds, if any", ["bound", "verdict"]);
        t.push_row(["3", Verdict::Holds.symbol()]);
        t.note("a VIOLATED verdict means a counterexample");
        assert!(!t.violated(), "titles and notes are not cells");
        t.push_row(["3".to_string(), Verdict::upper(4, 3).to_string()]);
        assert!(t.violated());
    }
}
