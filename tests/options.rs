//! The repository's option surface is what its docs say it is.
//!
//! * README carries the knob table rendered from `tva::sim::knobs::KNOBS`,
//!   and README, DESIGN, EXPERIMENTS and the verify skill name no `TVA_*`
//!   variable that table does not declare.
//! * No source file outside the knobs module spells a `"TVA_` literal, so
//!   no knob can be read around the table.
//! * No source file says `unsafe`, and every library forbids it. (The one
//!   `unsafe impl` the repo needs, a counting global allocator, lives in
//!   the test binary `tests/zero_alloc.rs`.)
//! * No manifest declares cargo features: there is one build.
//! * Roadmap item numbers are cited only in the root-level planning notes
//!   (every root `.md` but README, DESIGN and EXPERIMENTS), since they
//!   change whenever the roadmap is re-cut; `benchmark/` and
//!   `BENCHMARK.json` are exempt until their next change.
//! * Every `pub` field of every `pub struct *Config` under `crates/*/src`
//!   is read (`.field`) somewhere under `crates/*/src` outside the
//!   struct's `Default` impl: a setting nothing reads is a promise the
//!   program does not keep.

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
/// root-relative paths. Build output and git's store are skipped.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(root().join(&d)).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = d.join(entry.expect("directory entry").file_name());
            if root().join(&path).is_dir() {
                if ![".git", "target", ".bench_build"].iter().any(|skip| path.ends_with(skip)) {
                    stack.push(path);
                }
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
fn no_source_file_says_unsafe() {
    let with_unsafe: Vec<PathBuf> =
        source_files().into_iter().filter(|p| has_word(&read(p), "unsafe")).collect();
    assert!(with_unsafe.is_empty(), "files under crates/*/src or src that say unsafe: {with_unsafe:?}");

    let libs: Vec<PathBuf> =
        source_dirs().into_iter().map(|d| d.join("lib.rs")).filter(|lib| root().join(lib).is_file()).collect();
    assert!(libs.len() >= 12, "found only {} lib.rs files: the scanner lost them", libs.len());
    let unforbidden: Vec<&PathBuf> =
        libs.iter().filter(|lib| !read(lib).contains("#![forbid(unsafe_code)]")).collect();
    assert!(unforbidden.is_empty(), "lib.rs files without #![forbid(unsafe_code)]: {unforbidden:?}");
}

#[test]
fn no_cargo_features() {
    let mut manifests: Vec<PathBuf> = source_dirs()
        .into_iter()
        .filter_map(|d| Some(d.parent()?.join("Cargo.toml")))
        .filter(|m| root().join(m).is_file())
        .collect();
    assert!(manifests.len() >= 12, "found only {} manifests: the scanner lost them", manifests.len());
    manifests.sort();
    let with_features: Vec<&PathBuf> =
        manifests.iter().filter(|m| read(m).lines().any(|l| l.trim() == "[features]")).collect();
    assert!(with_features.is_empty(), "manifests with a [features] table: {with_features:?}");
}

#[test]
fn roadmap_numbers_stay_in_the_roadmap() {
    // Spelled in two pieces so this file does not cite itself.
    let citation = ["ROADMAP", "item"].join(" ");
    // Root-level markdown is planning notes (roadmap, change log, paper
    // notes) except for the three reader-facing documents.
    let docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(PathBuf::from);
    let planning_note = |p: &Path| p.components().count() == 1 && p.extension().is_some_and(|e| e == "md") && !docs.iter().any(|d| d == p);
    let scanned: Vec<PathBuf> = files_under(Path::new(""))
        .into_iter()
        .filter(|p| !p.starts_with("benchmark") && p != Path::new("BENCHMARK.json") && !planning_note(p))
        .filter(|p| p.extension().is_some_and(|e| ["rs", "md", "toml", "sh", "json", "txt"].iter().any(|x| e == *x)))
        .collect();
    assert!(scanned.len() >= 100, "scanned only {} files: the walk lost them", scanned.len());
    let citing: Vec<&PathBuf> = scanned
        .iter()
        .filter(|p| String::from_utf8_lossy(&fs::read(root().join(p)).expect("readable")).contains(&citation))
        .collect();
    assert!(citing.is_empty(), "files citing a roadmap item by number (name the section or say it in words): {citing:?}");
}

/// The `pub struct *Config` declarations in `text`: each name with its
/// `pub` fields.
fn config_structs(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        let Some(name) = trimmed.strip_prefix("pub struct ").and_then(|s| s.strip_suffix(" {")) else {
            continue;
        };
        if !name.ends_with("Config") {
            continue;
        }
        let close = format!("{}}}", &line[..line.len() - trimmed.len()]);
        let fields = lines
            .by_ref()
            .take_while(|l| *l != close)
            .filter_map(|l| l.trim_start().strip_prefix("pub ")?.split_once(':'))
            .map(|(field, _)| field.to_string())
            .collect();
        out.push((name.to_string(), fields));
    }
    out
}

/// `text` without the body of `impl Default for <name>`.
fn without_default_impl(text: &str, name: &str) -> String {
    let open = format!("impl Default for {name} {{");
    let Some(start) = text.find(&open) else { return text.to_string() };
    let indent = &text[text[..start].rfind('\n').map_or(0, |i| i + 1)..start];
    let close = format!("\n{indent}}}");
    let end = text[start..].find(&close).map_or(text.len(), |i| start + i + close.len());
    format!("{}{}", &text[..start], &text[end..])
}

/// Whether `text` reads `.field`: the name with no identifier character
/// after it, and not the target of a plain `=` assignment.
fn reads_field(text: &str, field: &str) -> bool {
    let dotted = format!(".{field}");
    text.match_indices(&dotted).any(|(i, _)| {
        let rest = &text[i + dotted.len()..];
        let next = rest.chars().next();
        if next.is_some_and(|c| c.is_alphanumeric() || c == '_') || text[..i].ends_with('.') {
            return false;
        }
        let after = rest.trim_start();
        !after.starts_with('=') || after.starts_with("==")
    })
}

#[test]
fn every_config_field_is_read() {
    let code: Vec<(PathBuf, String)> = source_files()
        .into_iter()
        .filter(|p| p.starts_with("crates") && p.extension().is_some_and(|e| e == "rs"))
        .map(|p| {
            let text = read(&p);
            (p, text)
        })
        .collect();
    let mut unread = Vec::new();
    let mut structs = 0;
    for (_, text) in &code {
        for (name, fields) in config_structs(text) {
            structs += 1;
            let readers: Vec<String> = code.iter().map(|(_, t)| without_default_impl(t, &name)).collect();
            for field in fields {
                if !readers.iter().any(|t| reads_field(t, &field)) {
                    unread.push(format!("{name}::{field}"));
                }
            }
        }
    }
    assert!(structs >= 5, "found only {structs} config structs: the scanner lost them");
    assert!(unread.is_empty(), "config fields nothing under crates/*/src reads: {unread:?}");
}

#[test]
fn name_and_word_scanners() {
    assert_eq!(tva_names("`TVA_OBS=1` fig8_TVA_series `TVA_*` TVA_NODE_SEED."), ["TVA_OBS", "TVA_NODE_SEED"]);
    assert!(has_word("an unsafe block", "unsafe"));
    assert!(!has_word("#![forbid(unsafe_code)]", "unsafe"));
    let decl = "pub struct AConfig {\n    /// Doc.\n    pub x: u32,\n    y: u8,\n}\npub struct B {\n    pub z: u8,\n}\n";
    assert_eq!(config_structs(decl), [("AConfig".to_string(), vec!["x".to_string()])]);
    assert!(reads_field("let a = c.x + 1;", "x"));
    assert!(reads_field("c.x == 2", "x"));
    assert!(!reads_field("c.x = 2; c.xy; ..x", "x"));
    let with_default = "impl Default for AConfig {\n    fn default() -> Self { c.x }\n}\nd.y";
    assert_eq!(without_default_impl(with_default, "AConfig"), "\nd.y");
}
