//! Table and series printing shared by the bench binaries.

/// A simple named table: headers plus string rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (printed above the table).
    title: String,
    /// Column headers.
    headers: Vec<String>,
    /// Data rows.
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    fn render(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        format!(
            "{}\n{}",
            self.title,
            pracmhbench_core::format_table(&headers, &self.rows)
        )
    }
}

/// Prints a table to stdout.
pub fn print_table(table: &Table) {
    println!("{}", table.render());
}

/// Prints a named numeric series (one figure line) as `label: v1 v2 v3 ...`.
pub fn print_series(label: &str, values: &[f64]) {
    let joined: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{label}: {}", joined.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_title_and_rows() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.starts_with("Demo"));
        assert!(rendered.contains('1'));
        assert_eq!(rendered.lines().count(), 4);
    }
}
