//! The repository's option surface is what its docs say it is.
//!
//! * README carries the knob table rendered from `tva::sim::knobs::KNOBS`,
//!   and README, DESIGN, EXPERIMENTS and the verify skill name no `TVA_*`
//!   variable that table does not declare.
//! * No source file outside the knobs module spells a `"TVA_` literal, so
//!   no knob can be read around the table.
//! * `unsafe` stays in the three files that carry it, and every library
//!   but `tva-node` (whose ring module is one of the three) forbids it.

use std::fs;
use std::path::{Path, PathBuf};

use tva::sim::knobs::KNOBS;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file under `dir` (relative to the root), recursively, as sorted
/// root-relative paths.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(root().join(&d)).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = d.join(entry.expect("directory entry").file_name());
            if root().join(&path).is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// `crates/*/src` and `src`.
fn source_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| Path::new("crates").join(e.expect("crate entry").file_name()).join("src"))
        .filter(|p| root().join(p).is_dir())
        .collect();
    dirs.push(PathBuf::from("src"));
    dirs.sort();
    dirs
}

fn source_files() -> Vec<PathBuf> {
    source_dirs().iter().flat_map(|d| files_under(d)).collect()
}

fn knob_table() -> String {
    let mut table = String::from("| Variable | Default | Meaning |\n|---|---|---|\n");
    for k in KNOBS {
        table += &format!("| `{}` | {} | {} |\n", k.name, k.default, k.meaning);
    }
    table
}

/// The `TVA_[A-Z0-9_]+` names in `text`.
fn tva_names(text: &str) -> Vec<&str> {
    text.match_indices("TVA_")
        .map(|(i, _)| {
            let tail = &text[i + 4..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            &text[i..i + 4 + len]
        })
        .filter(|name| name.len() > 4)
        .collect()
}

/// Whether `text` holds `word` with no identifier character on either side.
fn has_word(text: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    text.match_indices(word).any(|(i, _)| {
        !ident(text[..i].chars().next_back()) && !ident(text[i + word.len()..].chars().next())
    })
}

#[test]
fn readme_carries_the_knob_table() {
    let table = knob_table();
    assert!(
        read(Path::new("README.md")).contains(&table),
        "README.md must contain the knob table rendered from tva_sim::knobs::KNOBS:\n{table}"
    );
}

#[test]
fn docs_name_only_declared_knobs() {
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"] {
        let text = read(Path::new(doc));
        let undeclared: Vec<&str> =
            tva_names(&text).into_iter().filter(|n| !KNOBS.iter().any(|k| k.name == *n)).collect();
        assert!(undeclared.is_empty(), "{doc} names undeclared knobs: {undeclared:?}");
    }
}

#[test]
fn only_the_knobs_module_spells_a_knob_name() {
    let module = Path::new("crates/sim/src/knobs.rs");
    let spelled: Vec<PathBuf> = source_files()
        .into_iter()
        .filter(|p| p != module && read(p).contains("\"TVA_"))
        .collect();
    assert!(spelled.is_empty(), "\"TVA_ literals outside {}: {spelled:?}", module.display());
}

#[test]
fn unsafe_stays_in_its_three_files() {
    let with_unsafe: Vec<PathBuf> =
        source_files().into_iter().filter(|p| has_word(&read(p), "unsafe")).collect();
    let expected = ["crates/bench/src/alloc.rs", "crates/bench/src/lib.rs", "crates/node/src/ring.rs"];
    assert_eq!(with_unsafe, expected.map(PathBuf::from), "files under crates/*/src that say unsafe");

    let unforbidden: Vec<PathBuf> = source_dirs()
        .into_iter()
        .filter(|d| d.starts_with("crates"))
        .map(|d| d.join("lib.rs"))
        .filter(|lib| root().join(lib).is_file() && !read(lib).contains("forbid(unsafe_code)"))
        .collect();
    assert_eq!(unforbidden, [PathBuf::from("crates/node/src/lib.rs")], "lib.rs files without forbid(unsafe_code)");
}

#[test]
fn name_and_word_scanners() {
    assert_eq!(tva_names("`TVA_OBS=1` fig8_TVA_series `TVA_*` TVA_NODE_SEED."), ["TVA_OBS", "TVA_NODE_SEED"]);
    assert!(has_word("an unsafe block", "unsafe"));
    assert!(!has_word("#![forbid(unsafe_code)]", "unsafe"));
}
