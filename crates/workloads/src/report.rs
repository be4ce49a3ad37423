//! Console / JSON reporting helpers shared by the reproduction harness.

use serde::Serialize;

use crate::qerror::ErrorSummary;

/// One row of an error table: an estimator's name, size and Q-error summary.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorTableRow {
    /// Estimator display name.
    pub estimator: String,
    /// Estimator size in bytes (0 = stateless).
    pub size_bytes: usize,
    /// Q-error summary over the workload.
    pub summary: ErrorSummary,
}

impl ErrorTableRow {
    /// Creates a row.
    pub fn new(estimator: impl Into<String>, size_bytes: usize, summary: ErrorSummary) -> Self {
        ErrorTableRow {
            estimator: estimator.into(),
            size_bytes,
            summary,
        }
    }
}

/// Formats a size in bytes the way the paper does (KB / MB).
pub fn format_size(bytes: usize) -> String {
    if bytes == 0 {
        "–".to_string()
    } else if bytes < 1024 * 1024 {
        format!("{:.0}KB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1}MB", bytes as f64 / (1024.0 * 1024.0))
    }
}

/// Renders an error table in the layout of the paper's Tables 2–4 and returns it as a
/// string (callers print it and/or write it to a file).
pub fn render_error_table(title: &str, rows: &[ErrorTableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>10}\n",
        "Estimator", "Size", "Median", "95th", "99th", "Max"
    ));
    out.push_str(&"-".repeat(74));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<22} {:>9} {:>9.2} {:>9.1} {:>9.1} {:>10.1}\n",
            row.estimator,
            format_size(row.size_bytes),
            row.summary.median,
            row.summary.p95,
            row.summary.p99,
            row.summary.max
        ));
    }
    out
}

/// Serialises any reportable value to pretty JSON (written next to the console output so
/// results can be post-processed, e.g. plotted).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("report values serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_contains_all_rows() {
        let summary = ErrorSummary::from_errors(&[1.0, 2.0, 8.0, 100.0]);
        let rows = vec![
            ErrorTableRow::new("NeuroCard", 4 << 20, summary.clone()),
            ErrorTableRow::new("Postgres-like", 70 << 10, summary.clone()),
            ErrorTableRow::new("IBJS", 0, summary),
        ];
        let s = render_error_table("Table 2: JOB-light", &rows);
        assert!(s.contains("NeuroCard"));
        assert!(s.contains("Postgres-like"));
        assert!(s.contains("IBJS"));
        assert!(s.contains("Median"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(format_size(0), "–");
        assert_eq!(format_size(70 * 1024), "70KB");
        assert_eq!(format_size(4 * 1024 * 1024), "4.0MB");
    }

    #[test]
    fn json_roundtrip() {
        let summary = ErrorSummary::from_errors(&[1.0, 3.0]);
        let row = ErrorTableRow::new("x", 10, summary);
        let json = to_json(&row);
        assert!(json.contains("\"estimator\""));
        assert!(json.contains("median"));
    }
}
