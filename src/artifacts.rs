//! Every tracked result under `results/`, declared once.
//!
//! One row per artifact: its name (what `repro <name>` runs), the files it
//! writes under `results/`, the size that wrote the tracked copies, whether
//! their bytes are held exactly, and the library function that makes them.
//! `repro --check DIR` regenerates every byte-held row at its size and
//! compares it with `results/`; the rows that are not byte-held record
//! timings and RSS. `tests/artifacts.rs` holds `results/` to this table
//! and README to [`list`].

use tva_experiments::{ablation, attacks, figrun, robustness, statebound, strawmen, Files, Size};

/// A producer: prints its report and returns its files' bytes.
pub type Produce = fn(Size) -> Result<Files, String>;

/// One tracked artifact: a row of README's artifact table.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// What `repro` calls it.
    pub name: &'static str,
    /// Its files, directly under `results/`.
    pub files: &'static [&'static str],
    /// The size that writes the tracked files.
    pub size: Size,
    /// Whether the tracked bytes are exactly what this commit writes.
    pub exact: bool,
    /// The producer, in the owning crate's library.
    pub produce: Produce,
}

const fn row(name: &'static str, files: &'static [&'static str], size: Size, exact: bool, produce: Produce) -> Artifact {
    Artifact { name, files, size, exact, produce }
}

/// Every artifact, in README's order.
pub const ARTIFACTS: [Artifact; 11] = [
    row("fig8", &["fig8.tsv", "fig8.json"], Size::Quick, true, figrun::fig8),
    row("fig9", &["fig9.tsv", "fig9.json"], Size::Quick, true, figrun::fig9),
    row("fig10", &["fig10.tsv", "fig10.json"], Size::Quick, true, figrun::fig10),
    row("fig11", &["fig11.tsv", "fig11.json"], Size::Quick, true, figrun::fig11),
    row(
        "robustness",
        &["robustness.tsv", "robustness.json", "robustness_metrics.json"],
        Size::Quick,
        true,
        robustness::produce,
    ),
    row(
        "attacks",
        &[
            "attacks.tsv",
            "attacks.json",
            "attacks_metrics.json",
            "attacks_attribution.tsv",
            "attacks_attribution.json",
        ],
        Size::Smoke,
        true,
        attacks::produce,
    ),
    row("statebound", &["statebound.tsv", "statebound.json"], Size::Quick, true, statebound::produce),
    row("strawmen", &["strawmen.tsv"], Size::Quick, true, strawmen::produce),
    row("ablation_grant", &["ablation_grant.tsv"], Size::Quick, true, ablation::produce),
    row("table1", &["table1.tsv", "fig12.tsv"], Size::Quick, false, tva_bench::table1_fig12),
    row(
        "scale",
        &["scale.tsv", "scale.json", "scale_metrics.json"],
        Size::Full,
        false,
        tva_bench::scale::produce,
    ),
];

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// The table as `repro --list` prints it and README carries it.
pub fn list() -> String {
    let mut table = String::from("| Artifact | Files under `results/` | Size | Bytes held |\n|---|---|---|---|\n");
    for a in &ARTIFACTS {
        let files: Vec<String> = a.files.iter().map(|f| format!("`{f}`")).collect();
        let held = if a.exact { "yes" } else { "no" };
        table += &format!("| `{}` | {} | {} | {held} |\n", a.name, files.join(", "), a.size.name());
    }
    table
}
