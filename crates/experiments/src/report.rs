//! Result output: aligned tables and TSV files, so each figure binary
//! prints the same rows the paper plots (its charts come from
//! [`tva_obs::series::ascii_chart`]).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Renders rows as an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 2 - 2));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Writes rows as a TSV file (creating parent directories).
pub fn write_tsv(
    path: &Path,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = String::new();
    out.push_str(&headers.join("\t"));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let t = table(
            &["scheme", "fraction"],
            &[
                vec!["TVA".into(), "1.00".into()],
                vec!["Internet".into(), "0.02".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("scheme"));
        assert!(lines[2].trim_start().starts_with("TVA"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn tsv_round_trips() {
        let dir = std::env::temp_dir().join("tva_report_test");
        let path = dir.join("t.tsv");
        write_tsv(&path, &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "a\tb\n1\t2\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
