//! Result output: the size a producer runs at, the files it returns, and
//! the aligned tables and TSV/JSON renderings every producer prints and
//! writes (its charts come from [`tva_obs::ascii_chart`]).

use std::fmt::Write as _;

use crate::figures::Fidelity;

/// How big a run a producer makes. Each tracked artifact is written at one
/// of these (`tva::artifacts::ARTIFACTS` says which); a producer with a
/// single size ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The smallest run that still asserts its claim — seconds.
    Smoke,
    /// The default grids — minutes at most.
    Quick,
    /// The paper's grids and longer runs.
    Full,
}

impl Size {
    /// The lower-case name, as the `repro` flags spell it.
    pub fn name(self) -> &'static str {
        match self {
            Size::Smoke => "smoke",
            Size::Quick => "quick",
            Size::Full => "full",
        }
    }

    /// The figure grids' fidelity; they have no smoke size.
    pub(crate) fn fidelity(self) -> Result<Fidelity, String> {
        match self {
            Size::Smoke => Err("no smoke size (quick or full)".into()),
            Size::Quick => Ok(Fidelity::Quick),
            Size::Full => Ok(Fidelity::Full),
        }
    }
}

/// What a producer made: each file's name under `results/`, with its bytes.
pub type Files = Vec<(String, String)>;

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

/// Renders rows as a TSV file: a header line, then one line per row.
pub fn tsv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join("\t") + "\n";
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Renders rows as a pretty JSON array of string-valued records, the
/// companion of [`tsv`].
pub(crate) fn records_json(headers: &[&str], rows: &[Vec<String>]) -> String {
    use serde_json::Value;
    let records: Vec<Value> = rows
        .iter()
        .map(|row| {
            let map = headers.iter().zip(row).map(|(h, v)| (h.to_string(), Value::String(v.clone())));
            Value::Object(map.collect())
        })
        .collect();
    serde_json::to_string_pretty(&records).expect("serializable")
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
        assert_eq!(tsv(&["a", "b"], &[vec!["1".into(), "2".into()]]), "a\tb\n1\t2\n");
        assert_eq!(
            records_json(&["a", "b"], &[vec!["1".into(), "2".into()]]),
            "[\n  {\n    \"a\": \"1\",\n    \"b\": \"2\"\n  }\n]"
        );
    }
}
