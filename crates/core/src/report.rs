//! Plain-text table rendering for the experiment binaries.

use std::fmt;

/// A simple column-aligned ASCII table.
///
/// ```
/// use qucp_core::report::Table;
/// let mut t = Table::new(&["benchmark", "PST"]);
/// t.row(&["adder", "0.71"]);
/// let s = t.to_string();
/// assert!(s.contains("adder"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                write!(f, "{cell:<w$}")?;
                if i + 1 < widths.len() {
                    write!(f, "  ")?;
                }
            }
            writeln!(f)
        };
        render_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            render_row(f, r)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a float with `d` decimals.
pub fn fix(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_separator() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a", "1"]).row(&["longer", "22"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("a"));
        // Columns align: "value" column starts at the same offset.
        let off0 = lines[0].find("value").unwrap();
        let off2 = lines[2].find('1').unwrap();
        assert_eq!(off0, off2);
    }

    #[test]
    fn ragged_rows_render() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only"]);
        let s = t.to_string();
        assert!(s.contains("only"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.267), "26.7%");
        assert_eq!(fix(1.23456, 2), "1.23");
    }

    #[test]
    fn row_owned_accepts_strings() {
        let mut t = Table::new(&["k"]);
        t.row_owned(vec![format!("{}", 42)]);
        assert!(t.to_string().contains("42"));
    }
}
