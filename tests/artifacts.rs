//! `results/` is what the artifact table says it is.
//!
//! * Every file directly under `results/` belongs to exactly one row of
//!   `tva::artifacts::ARTIFACTS`, so no tracked result lacks a producer.
//! * Every row's files exist.
//! * README carries the table exactly as `repro --list` renders it.
//!
//! These read the filesystem only; `repro --check` is what regenerates the
//! byte-held rows and compares them.

use std::fs;
use std::path::Path;

use tva::artifacts::{list, ARTIFACTS};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_results_file_belongs_to_exactly_one_row() {
    let mut strays = Vec::new();
    for entry in fs::read_dir(root().join("results")).expect("results/") {
        let entry = entry.expect("directory entry");
        if !entry.file_type().expect("file type").is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let rows: Vec<&str> =
            ARTIFACTS.iter().filter(|a| a.files.contains(&name.as_str())).map(|a| a.name).collect();
        if rows.len() != 1 {
            strays.push(format!("{name} (rows {rows:?})"));
        }
    }
    assert!(strays.is_empty(), "results/ files not in exactly one artifact row: {strays:?}");
}

#[test]
fn every_row_file_exists() {
    let missing: Vec<String> = ARTIFACTS
        .iter()
        .flat_map(|a| a.files.iter().map(move |f| (a.name, f)))
        .filter(|(_, f)| !root().join("results").join(f).is_file())
        .map(|(name, f)| format!("{name}: results/{f}"))
        .collect();
    assert!(missing.is_empty(), "artifact rows name missing files: {missing:?}");
}

#[test]
fn readme_carries_the_artifact_table() {
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md");
    let table = list();
    assert!(readme.contains(&table), "README.md must contain the artifact table `repro --list` prints:\n{table}");
}
