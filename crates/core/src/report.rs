//! Result tables with paper-reference columns, rendered as markdown or
//! CSV. The reproduction harness (`neurofi-bench`) builds one table per
//! paper figure; `repro --out DIR` writes each as CSV.

use std::fmt;

/// A simple column-oriented result table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Table title (usually the paper figure id).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, each row the same length as `headers`.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes rendered under the table (substitutions, known
    /// deviations).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n*{note}*\n"));
        }
        out
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes or newlines). Notes are omitted.
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Formats a fraction as a percent string with one decimal.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig. 8b", &["threshold", "fraction", "accuracy"]);
        t.push_row(&["-20%".into(), "100%".into(), "11.2%".into()]);
        t.push_note("synthetic digits instead of MNIST");
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### Fig. 8b"));
        assert!(md.contains("| threshold | fraction | accuracy |"));
        assert!(md.contains("| -20% | 100% | 11.2% |"));
        assert!(md.contains("*synthetic digits instead of MNIST*"));
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(&["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(&["only-one".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(percent(0.7592), "75.9%");
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new("t", &["a"]).is_empty());
        assert_eq!(sample().len(), 1);
    }
}
