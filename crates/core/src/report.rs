//! Report helpers: geometric means, normalization and fixed-width tables —
//! the building blocks every figure/table bench uses.

/// Geometric mean of positive values (the paper reports per-suite and
/// overall geometric means).
///
/// # Example
///
/// ```
/// use malec_core::report::geo_mean;
///
/// let g = geo_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// assert_eq!(geo_mean(&[]), 0.0);
/// ```
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `value / base` as a percentage (the paper normalizes to `Base1ldst`
/// = 100 %).
pub fn normalized_percent(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * value / base
    }
}

/// A minimal fixed-width text table for bench output.
///
/// # Example
///
/// ```
/// use malec_core::report::TextTable;
///
/// let mut t = TextTable::new(["bench", "MALEC"]);
/// t.row(vec!["gzip".into(), "86.0".into()]);
/// let s = t.render();
/// assert!(s.contains("gzip"));
/// assert!(s.contains("MALEC"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a separator row (rendered as dashes).
    pub fn separator(&mut self) {
        self.rows.push(vec!["--".into()]);
    }

    /// Renders the table with per-column widths.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            if row.len() == 1 && row[0] == "--" {
                continue;
            }
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w.saturating_sub(cell.chars().count());
                // Right-align numeric-looking cells, left-align labels.
                if cell.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            if row.len() == 1 && row[0] == "--" {
                out.push_str(&"-".repeat(total));
            } else {
                out.push_str(&render_row(row, &widths));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn geo_mean_handles_tiny_values() {
        let g = geo_mean(&[1e-300, 1.0]);
        assert!(g > 0.0 && g.is_finite());
    }

    #[test]
    fn normalization() {
        assert!((normalized_percent(86.0, 100.0) - 86.0).abs() < 1e-12);
        assert_eq!(normalized_percent(1.0, 0.0), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(vec!["a-long-benchmark".into(), "1.5".into()]);
        t.separator();
        t.row(vec!["b".into(), "100.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].starts_with('-'), "separator row");
        // Numeric cells right-align within the column.
        assert!(lines[2].ends_with("1.5"));
        assert!(lines[4].ends_with("100.25"));
    }
}
