//! Plain-text table rendering and result archiving.

use serde::Serialize;

/// Renders rows of cells as an aligned plain-text table with a header.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a throughput as the paper's normalized form, e.g. `0.87`.
pub fn tp(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Serializes rows to a JSON string (for archiving experiment outputs).
pub fn to_json<T: Serialize>(rows: &[T]) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let s = render(
            &["k", "throughput"],
            &[
                vec!["2".into(), "1.000".into()],
                vec!["16".into(), "0.750".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("throughput"));
        assert!(lines[2].trim_start().starts_with('2'));
    }

    #[test]
    fn json_round_trips() {
        let rows = vec![(String::from("x"), 3.25)];
        let j = to_json(&rows).unwrap();
        let back: Vec<serde_json::Value> = serde_json::from_str(&j).unwrap();
        assert_eq!(back[0][1], 3.25);
        assert_eq!(to_json::<f64>(&[]).unwrap(), "[]");
    }

    #[test]
    fn helpers_format() {
        assert_eq!(tp(0.875), "0.875");
        assert_eq!(pct(0.25), "25.0%");
    }
}
