//! The repository's option surface, public surface and cross-references
//! are what its docs say they are.
//!
//! * README carries the knob table rendered from `tva::sim::knobs::KNOBS`,
//!   and README, DESIGN, EXPERIMENTS and the verify skill name no `TVA_*`
//!   variable that table does not declare.
//! * No source file outside the knobs module spells a `"TVA_` literal, so
//!   no knob can be read around the table.
//! * Outside tests, only the scenario harness (and the engine's own
//!   builder, and the §2 strawmen's fair-queuing rig) calls
//!   `TopologyBuilder::new()`: every testbed is a `ScenarioConfig` shape.
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
//! * Every `pub` item under `crates/*/src` is named by a dependant: another
//!   crate, the crate's own binaries, any crate's tests or examples, the
//!   root package or `benchmark/`. Anything else is `pub(crate)` or
//!   private, so rustc's dead-code lint sees it. Types reached through a
//!   named item's declaration, associated types a trait impl requires and
//!   the fields of a `counters!` table count as named; an allowlist with a
//!   reason per entry takes the rest.
//! * Every `DESIGN §N` cited in code, tests, scripts, manifests or the
//!   reader-facing docs (not the root planning notes, which are a log)
//!   names a numbered DESIGN heading, and every `§3a.N` a numbered item of
//!   §3a.
//! * Every `repro <name>` in README, EXPERIMENTS, DESIGN and the verify
//!   skill names a row of `tva::artifacts::ARTIFACTS` (or `all`, or the
//!   `invcheck` subcommand), and every `results/<file>` they name belongs to
//!   a row: as a file, a stem, a `{tsv,json}` brace form or a `.*` glob; the
//!   `results/obs/` and `results/check/` directories are what runs generate.

use std::fs;
use std::path::{Path, PathBuf};

use tva::artifacts::ARTIFACTS;
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

/// `text` up to its first `#[cfg(test)]` line: the production code, as
/// `scripts/loc.sh` counts it.
fn before_tests(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        at += line.len();
    }
    &text[..at]
}

#[test]
fn only_the_scenario_builds_topologies() {
    // The engine's own builder, the scenario harness that wires every
    // testbed, and the §2 strawmen's fair-queuing rig, which no scheme runs.
    let builders = ["crates/sim/src/topology.rs", "crates/experiments/src/scenario.rs", "crates/experiments/src/strawmen.rs"];
    let building = |p: &Path| code_only(before_tests(&read(p))).contains("TopologyBuilder::new()");
    assert!(building(Path::new(builders[1])), "the scanner no longer sees the scenario's builder");
    let others: Vec<PathBuf> =
        source_files().into_iter().filter(|p| !builders.iter().any(|b| p == Path::new(b)) && building(p)).collect();
    assert!(others.is_empty(), "production code outside {builders:?} builds a topology: {others:?}");
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

/// Root-level markdown is planning notes (roadmap, change log, paper
/// notes) except for the three reader-facing documents.
fn is_planning_note(p: &Path) -> bool {
    p.components().count() == 1
        && p.extension().is_some_and(|e| e == "md")
        && !["README.md", "DESIGN.md", "EXPERIMENTS.md"].iter().any(|d| p == Path::new(d))
}

#[test]
fn roadmap_numbers_stay_in_the_roadmap() {
    // Spelled in two pieces so this file does not cite itself.
    let citation = ["ROADMAP", "item"].join(" ");
    let scanned: Vec<PathBuf> = files_under(Path::new(""))
        .into_iter()
        .filter(|p| !p.starts_with("benchmark") && p != Path::new("BENCHMARK.json") && !is_planning_note(p))
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

/// A `pub` item declared in a crate's library source: where, what kind,
/// its name and its declaration (a `fn` up to its body, an `enum` or a
/// `trait` with its body, anything else its line).
#[derive(Debug, PartialEq)]
struct PubItem {
    line: usize,
    kind: &'static str,
    name: String,
    decl: String,
    /// The struct a field belongs to.
    owner: String,
}

/// The leading identifier of `s`.
fn ident(s: &str) -> &str {
    &s[..s.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(s.len())]
}

/// The lines of `lines[from..]` up to the one that closes the block
/// opened at `lines[from]` (the first later line equal to its indent and
/// `}`), both included.
fn block(lines: &[&str], from: usize) -> usize {
    let indent = &lines[from][..lines[from].len() - lines[from].trim_start().len()];
    let close = format!("{indent}}}");
    (from..lines.len()).find(|&j| lines[j] == close || lines[j] == format!("{close};")).unwrap_or(lines.len() - 1)
}

/// The `pub` items declared in `text` before its first `#[cfg(test)]`.
/// `pub use` re-exports are paths, not items. `macro_rules!` bodies are
/// skipped, and so are the fields of a `counters!` table: the `Counters`
/// trait publishes them by name.
fn pub_items(text: &str) -> Vec<PubItem> {
    let lines: Vec<&str> = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")).collect();
    let mut out = Vec::new();
    let mut counters_end = None;
    let mut owner: Option<(String, usize)> = None;
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim_start();
        if trimmed.starts_with("macro_rules!") {
            i = block(&lines, i) + 1;
            continue;
        }
        if trimmed.ends_with("counters! {") {
            counters_end = Some(block(&lines, i));
        }
        if counters_end.is_some_and(|end| i > end) {
            counters_end = None;
        }
        if owner.as_ref().is_some_and(|(_, end)| i > *end) {
            owner = None;
        }
        if let Some(at) = trimmed.find("struct ").filter(|_| trimmed.ends_with('{')) {
            owner = Some((ident(&trimmed[at + 7..]).to_string(), block(&lines, i)));
        }
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            i += 1;
            continue;
        };
        let rest = rest.strip_prefix("const fn ").map_or(rest.to_string(), |r| format!("fn {r}"));
        let kinds = ["fn", "struct", "enum", "trait", "type", "mod", "const", "static", "use"];
        let (kind, name) = match kinds.iter().find(|k| rest.starts_with(&format!("{k} "))) {
            Some(k) => (*k, ident(&rest[k.len() + 1..]).to_string()),
            None if rest[ident(&rest).len()..].starts_with(':') && !rest[ident(&rest).len()..].starts_with("::") => {
                ("field", ident(&rest).to_string())
            }
            None => ("", String::new()),
        };
        let last = match kind {
            "enum" | "trait" => block(&lines, i),
            "fn" => (i..lines.len()).find(|&j| lines[j].ends_with('{') || lines[j].ends_with(';')).unwrap_or(i),
            _ => i,
        };
        let in_counters = counters_end.is_some();
        if !name.is_empty() && kind != "use" && !(kind == "field" && in_counters) {
            let owner = owner.as_ref().filter(|_| kind == "field").map_or(String::new(), |(o, _)| o.clone());
            out.push(PubItem { line: i + 1, kind, name, decl: lines[i..=last].join("\n"), owner });
        }
        i += 1;
    }
    out
}

/// The associated types of the trait impls in `text` (`type Hasher =
/// FastHasher;` in `impl BuildHasher for ...`): a type a trait requires
/// is public wherever the impl is.
fn trait_impl_types(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim_start();
        if trimmed.starts_with("impl") && trimmed.contains(" for ") && trimmed.ends_with('{') {
            let end = block(&lines, i);
            for l in &lines[i..=end] {
                if l.trim_start().starts_with("type ") {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            i = end;
        }
        i += 1;
    }
    out
}

/// `text` with its comments blanked, line for line: whole `//` lines, and
/// the tail of a line from a `//` that follows whitespace outside a string.
fn code_only(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let cut = if line.trim_start().starts_with("//") {
            0
        } else {
            line.match_indices(" //").map(|(i, _)| i).find(|&i| line[..i].matches('"').count() % 2 == 0).unwrap_or(line.len())
        };
        out.push_str(&line[..cut]);
        out.push('\n');
    }
    out
}

/// Whether `text` reaches module `name` from one of `parents` (`tva_sim`,
/// `tva::sim`): as `parent::name`, or as `name` in a `parent::{…}` import.
fn names_module(text: &str, parents: &[String], name: &str) -> bool {
    parents.iter().any(|p| {
        has_word(text, &format!("{p}::{name}"))
            || text.match_indices(&format!("{p}::{{")).any(|(i, open)| {
                let group = &text[i + open.len()..];
                has_word(&group[..group.find('}').unwrap_or(group.len())], name)
            })
    })
}

/// `pub` items that no dependant names, allowed with a reason each:
/// `("crate::name", "why it stays public")`.
const SURFACE_ALLOWLIST: &[(&str, &str)] = &[];

/// Every `pub` item under `crates/*/src` that none of its crate's
/// dependants names, as `path:line kind name`. A dependant is any Rust
/// file outside the crate's library source: other crates, the crate's own
/// binaries (`src/bin`), every crate's tests, examples and benches, the
/// root package's `src/`, `tests/` and `examples/`, and `benchmark/`.
/// Comments do not count. An item counts as named when its name appears
/// as a word (a module: as a `name::` path segment), or when a type or
/// trait appears in the declaration of a named item of its crate: a
/// dependant reaches `KNOBS` and through it the `Knob` type. A type a
/// trait impl names as an associated type is trait-required, not flagged.
fn unnamed_pub_items() -> (usize, Vec<String>) {
    let code: Vec<(PathBuf, String)> = ["crates", "src", "tests", "examples", "benchmark/src", "benchmark/tests"]
        .iter()
        .flat_map(|d| files_under(Path::new(d)))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| {
            let text = code_only(&read(&p));
            (p, text)
        })
        .collect();
    let mut total = 0;
    let mut unnamed = Vec::new();
    for krate in source_dirs().iter().filter(|d| d.starts_with("crates")) {
        let library = |p: &Path| p.starts_with(krate) && !p.starts_with(krate.join("bin"));
        let short = krate.parent().and_then(|c| c.file_name()).expect("crates/<name>/src").to_string_lossy();
        let crate_name = format!("tva_{short}");
        // Where a module is reached from: the crate, or the `tva` facade's
        // alias of it. A module below the top level counts by its name.
        let parents = [crate_name.clone(), format!("tva::{short}")];
        let dependants: Vec<&String> = code.iter().filter(|(p, _)| !library(p)).map(|(_, t)| t).collect();
        let sources: Vec<&(PathBuf, String)> = code.iter().filter(|(p, _)| library(p)).collect();
        let items: Vec<(&PathBuf, PubItem)> =
            sources.iter().flat_map(|(p, t)| pub_items(t).into_iter().map(move |item| (p, item))).collect();
        total += items.len();
        let required: String = sources.iter().map(|(_, t)| trait_impl_types(t)).collect();
        let names = |path: &Path, item: &PubItem, t: &str| match item.kind {
            "mod" if path.ends_with("lib.rs") => names_module(t, &parents, &item.name),
            "mod" => has_word(t, &format!("{}::", item.name)),
            // A struct literal with `..base` needs every field visible.
            "field" => has_word(t, &item.name) || has_word(t, &format!("{} {{", item.owner)),
            _ => has_word(t, &item.name),
        };
        let mut named: Vec<bool> = items
            .iter()
            .map(|(path, item)| has_word(&required, &item.name) || dependants.iter().any(|t| names(path, item, t)))
            .collect();
        // A type reached through the declaration of a named item is named.
        loop {
            let reached: Vec<usize> = (0..items.len())
                .filter(|&i| !named[i] && ["struct", "enum", "trait", "type"].contains(&items[i].1.kind))
                .filter(|&i| (0..items.len()).any(|j| named[j] && has_word(&items[j].1.decl, &items[i].1.name)))
                .collect();
            if reached.is_empty() {
                break;
            }
            reached.into_iter().for_each(|i| named[i] = true);
        }
        for ((path, item), named) in items.iter().zip(named) {
            let key = format!("{crate_name}::{}", item.name);
            if !named && !SURFACE_ALLOWLIST.iter().any(|(k, _)| *k == key) {
                unnamed.push(format!("{}:{} {} {}", path.display(), item.line, item.kind, item.name));
            }
        }
    }
    (total, unnamed)
}

#[test]
fn every_pub_item_has_a_dependant() {
    let (total, unnamed) = unnamed_pub_items();
    assert!(total >= 300, "found only {total} pub items under crates/*/src: the scanner lost them");
    assert!(
        unnamed.is_empty(),
        "{} pub items under crates/*/src that no dependant names (make them pub(crate) or private, delete \
         what the compiler then reports unused, or allowlist one with a reason):\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}

/// Root-relative files that may cite DESIGN: Rust, markdown, manifests
/// and scripts outside `benchmark/`, `vendor/` and build output. The root
/// planning notes are a log, not held to today's headings.
fn prose_and_code() -> Vec<PathBuf> {
    files_under(Path::new(""))
        .into_iter()
        .filter(|p| !p.starts_with("benchmark") && !p.starts_with("vendor") && !is_planning_note(p))
        .filter(|p| p.extension().is_some_and(|e| ["rs", "md", "toml", "sh"].iter().any(|x| e == *x)))
        .collect()
}

/// The sections a DESIGN citation can name: each numbered `## N.` heading
/// (`1`, `3a`, `4i`) and each numbered item of §3a (`3a.7`).
fn design_sections(design: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_3a = false;
    for line in design.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            let number = heading.split_once(". ").map_or("", |(n, _)| n);
            in_3a = number == "3a";
            if !number.is_empty() {
                out.push(number.to_string());
            }
        } else if let Some((item, _)) = line.split_once(". ").filter(|_| in_3a) {
            if !item.is_empty() && item.chars().all(|c| c.is_ascii_digit()) {
                out.push(format!("3a.{item}"));
            }
        }
    }
    out
}

/// The sections `text` cites as `DESIGN §N` or `DESIGN.md §N`: digits, an
/// optional letter, and an optional `.digits` item (`§4c`, `§3a.7`).
fn design_citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, m) in text.match_indices("DESIGN") {
        let rest = &text[i + m.len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        let Some(cite) = rest.strip_prefix(" §") else { continue };
        let digits = cite.len() - cite.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits == 0 {
            continue;
        }
        let mut end = digits + cite[digits..].chars().next().filter(char::is_ascii_lowercase).map_or(0, |_| 1);
        if let Some(item) = cite[end..].strip_prefix('.') {
            let n = item.len() - item.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if n > 0 {
                end += 1 + n;
            }
        }
        out.push(cite[..end].to_string());
    }
    out
}

#[test]
fn design_citations_name_design_sections() {
    let sections = design_sections(&read(Path::new("DESIGN.md")));
    assert!(sections.len() >= 20, "found only {} DESIGN sections: the scanner lost them", sections.len());
    let mut cited = 0;
    let mut dangling = Vec::new();
    for path in prose_and_code() {
        for cite in design_citations(&read(&path)) {
            cited += 1;
            if !sections.contains(&cite) {
                dangling.push(format!("{}: DESIGN §{cite}", path.display()));
            }
        }
    }
    assert!(cited >= 20, "found only {cited} DESIGN citations: the scanner lost them");
    assert!(dangling.is_empty(), "citations of DESIGN sections that do not exist:\n{}", dangling.join("\n"));
}

/// The artifact names `text` runs as `repro <name>` (or `repro -- <name>
/// …`): the bare lowercase words after `repro`, up to a flag, a
/// placeholder or punctuation. `invcheck`'s own arguments are not names.
fn repro_names(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, m) in text.match_indices("repro ") {
        if text[..i].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let line = text[i + m.len()..].lines().next().unwrap_or("");
        let mut words = line.split_whitespace().peekable();
        words.next_if_eq(&"--");
        for token in words {
            let word = &token[..token.find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')).unwrap_or(token.len())];
            if word.is_empty() {
                break;
            }
            out.push(word);
            if word != token || word == "invcheck" {
                break;
            }
        }
    }
    out
}

/// The paths `text` names under `results/`, as written: a file
/// (`fig8.tsv`), a stem (`attacks`), a brace form (`scale.{tsv,json}`), a
/// glob (`scale.*`) or a subdirectory (`obs/…`). The bare directory and a
/// `<placeholder>` are skipped.
fn results_paths(text: &str) -> Vec<&str> {
    text.match_indices("results/")
        .filter(|(i, _)| !text[..*i].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '/'))
        .filter_map(|(i, m)| {
            let rest = &text[i + m.len()..];
            let mut end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || "_.-/*".contains(c))).unwrap_or(rest.len());
            if rest[end..].starts_with('{') {
                end += rest[end..].find('}').map_or(0, |j| j + 1);
            }
            let path = rest[..end].trim_end_matches('.');
            (!path.is_empty()).then_some(path)
        })
        .collect()
}

/// Whether `path` (a [`results_paths`] form) belongs to a row's files:
/// `obs/` and `check/` are the directories runs generate beside them.
fn is_artifact_path(path: &str, files: &[&str]) -> bool {
    let first = path.split('/').next().unwrap_or(path);
    if path.contains('/') || ["obs", "check"].contains(&first) {
        return ["obs", "check"].contains(&first);
    }
    match path.split_once('.') {
        None => files.iter().any(|f| f.split_once('.').is_some_and(|(stem, _)| stem == path)),
        Some((stem, "*")) => files.iter().any(|f| f.strip_prefix(stem).is_some_and(|x| x.starts_with('.'))),
        Some((stem, ext)) => match ext.strip_prefix('{').and_then(|e| e.strip_suffix('}')) {
            Some(exts) => exts.split(',').all(|e| files.contains(&format!("{stem}.{e}").as_str())),
            None => files.contains(&path),
        },
    }
}

#[test]
fn docs_name_real_artifacts() {
    let rows: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    let files: Vec<&str> = ARTIFACTS.iter().flat_map(|a| a.files.iter().copied()).collect();
    let (mut names, mut paths) = (0, 0);
    let mut unknown = Vec::new();
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = read(Path::new(doc));
        for name in repro_names(&text) {
            names += 1;
            if !rows.contains(&name) && !["all", "invcheck"].contains(&name) {
                unknown.push(format!("{doc}: repro {name}"));
            }
        }
        for path in results_paths(&text) {
            paths += 1;
            if !is_artifact_path(path, &files) {
                unknown.push(format!("{doc}: results/{path}"));
            }
        }
    }
    assert!(names >= 30 && paths >= 15, "found only {names} repro names and {paths} results paths: the scanner lost them");
    assert!(
        unknown.is_empty(),
        "docs name artifacts tva::artifacts::ARTIFACTS does not declare:\n{}",
        unknown.join("\n")
    );
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

#[test]
fn surface_and_citation_scanners() {
    let src = "pub mod m;\npub use m::X;\npub struct S {\n    pub f: u8,\n    g: u8,\n}\n\
               pub(crate) fn hidden() {}\npub const fn k(\n    a: u8,\n) -> u8 {\n    a\n}\n\
               counters! {\n    pub struct C {\n        pub n: u64,\n    }\n}\n#[cfg(test)]\npub fn t() {}\n";
    let items = pub_items(src);
    let found: Vec<(usize, &str, &str)> = items.iter().map(|i| (i.line, i.kind, i.name.as_str())).collect();
    assert_eq!(found, [(1, "mod", "m"), (3, "struct", "S"), (4, "field", "f"), (8, "fn", "k"), (14, "struct", "C")]);
    assert_eq!(items[2].owner, "S");
    assert_eq!(items[3].decl, "pub const fn k(\n    a: u8,\n) -> u8 {");
    assert_eq!(trait_impl_types("impl B for D {\n    type H = F;\n    fn f() {}\n}\n"), "    type H = F;\n");
    assert_eq!(code_only("// x\nlet a = \"//\"; // y\n"), "\nlet a = \"//\";\n");
    assert_eq!(before_tests("fn a() {}\n    #[cfg(test)]\nmod tests {}\n"), "fn a() {}\n");
    let parents = ["tva_sim".to_string(), "tva::sim".to_string()];
    assert!(names_module("use tva::sim::knobs::KNOBS;", &parents, "knobs"));
    assert!(names_module("use tva_sim::{knobs, SimTime};", &parents, "knobs"));
    assert!(!names_module("std::time::Instant; tva_sim::SimTime", &parents, "time"));

    assert_eq!(design_citations("DESIGN §4c, DESIGN.md §3a.7. DESIGN §3a. DESIGN §x"), ["4c", "3a.7", "3a"]);
    assert_eq!(design_sections("## 1. A\n## 3a. B\n1. **x**\n12. y\n## 4c. C\n2. z\n"), ["1", "3a", "3a.1", "3a.12", "4c"]);
    assert_eq!(repro_names("repro -- fig9 fig10  # x\n`repro statebound --leg` repro <name> repro invcheck fuzz"), [
        "fig9",
        "fig10",
        "statebound",
        "invcheck"
    ]);
    assert_eq!(results_paths("results/ results/a.{tsv,json}, results/obs/x.json results/b.*. results/<f>"), [
        "a.{tsv,json}",
        "obs/x.json",
        "b.*"
    ]);
    let files = ["a.tsv", "a.json", "b_metrics.json"];
    assert!(["a", "a.*", "a.{tsv,json}", "a.tsv", "obs/fig8_TVA_series.json", "check"].iter().all(|p| is_artifact_path(p, &files)));
    assert!(!["b", "a.{tsv,csv}", "c.tsv", "a/x.tsv"].iter().any(|p| is_artifact_path(p, &files)));
}
