//! Plain-text table rendering for the sets: aligned columns, one row per
//! buffer size (or regime, or population), matching the paper's series.

/// A simple aligned-column table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: String = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}  "))
                .collect();
            padded.trim_end().to_string() + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
        let mut out = format!("== {} ==\n{}{rule}\n", self.title, line(&self.headers));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["buffer", "throughput"]);
        t.row(vec!["64K".into(), "3.1".into()]);
        t.row(vec!["1024K".into(), "8.45".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header + separator + 2 rows + title.
        assert_eq!(lines.len(), 5);
        // Right-aligned: "64K" ends at the same column as "buffer".
        assert!(lines[1].starts_with("buffer"));
        assert!(lines[3].trim_start().starts_with("64K"));
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
