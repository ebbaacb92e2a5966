//! The `TVA_*` environment knobs: each one declared once, in [`KNOBS`],
//! and read only through this module's accessors.
//!
//! A knob exists only where two callers need different values, or where
//! the value is a deployment setting (a path, a secret). Everything else
//! is a constant in the code that uses it. README's knob table is
//! rendered from [`KNOBS`], and a root test holds the two equal.
//!
//! The first read in a process scans the environment once: any `TVA_*`
//! variable that is not declared here is named on stderr and the process
//! exits with status 2, so a retired or misspelt knob cannot be silently
//! ignored. It exits rather than panics because knobs are read inside the
//! sweep's `catch_unwind` workers, which would turn a panic into one
//! failed job.

use std::path::PathBuf;
use std::sync::Once;

/// One declared knob: a row of README's table.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The value used when the variable is unset, as README prints it.
    pub default: &'static str,
    /// What the variable sets.
    pub meaning: &'static str,
}

const RESULTS_DIR: Knob = knob("TVA_RESULTS_DIR", "`results`",
    "Where every binary writes its TSV/JSON; observability artifacts go to `<dir>/obs`, \
     violation artifacts to `<dir>/check`");
const CHECK: Knob = knob("TVA_CHECK", "off",
    "Drive every scenario run through the runtime invariant auditors; a violation writes a \
     replay artifact and aborts the run");
const OBS: Knob = knob("TVA_OBS", "off",
    "Figure binaries re-run each scheme's heaviest point observed (1 Hz series, metrics \
     snapshot, Perfetto + JSONL traces); every run keeps a 4096-event flight recorder");
const OBS_SAMPLE_N: Knob = knob("TVA_OBS_SAMPLE_N", "`0` (off)",
    "`tva-node`: sampled flow records, 1-in-N packets (per-prefix attribution on the stats socket)");
const NODE_MIX: Knob = knob("TVA_NODE_MIX", "`clean`",
    "`pktgen`: `clean`, `contested`, or `dirty` offered-traffic mix");
const NODE_DUR_MS: Knob = knob("TVA_NODE_DUR_MS", "`1000`", "`pktgen`: run length, milliseconds");
const NODE_SEED: Knob = knob("TVA_NODE_SEED", "`0x7E57_5EED`",
    "`tva-node` and `pktgen`: router secret seed (both sides must match, or every capability \
     is demoted)");

/// Every knob, in README's order.
pub const KNOBS: [Knob; 7] = [RESULTS_DIR, CHECK, OBS, OBS_SAMPLE_N, NODE_MIX, NODE_DUR_MS, NODE_SEED];

/// Output directory for every binary's TSV/JSON (`TVA_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    read(&RESULTS_DIR).map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Whether scenario runs are audited (`TVA_CHECK`).
pub fn check() -> bool {
    read(&CHECK).is_some_and(|v| parse_flag(&v))
}

/// Whether observability is on (`TVA_OBS`).
pub fn obs() -> bool {
    read(&OBS).is_some_and(|v| parse_flag(&v))
}

/// The daemon's flow-record sampling rate, 1-in-N (`TVA_OBS_SAMPLE_N`).
pub fn obs_sample_n() -> Option<u64> {
    read_u64(&OBS_SAMPLE_N)
}

/// The generator's traffic mix, trimmed and lower-cased (`TVA_NODE_MIX`).
pub fn node_mix() -> Option<String> {
    read(&NODE_MIX).map(|v| v.trim().to_ascii_lowercase())
}

/// The generator's run length in milliseconds (`TVA_NODE_DUR_MS`).
pub fn node_dur_ms() -> Option<u64> {
    read_u64(&NODE_DUR_MS)
}

/// The daemon's router secret seed (`TVA_NODE_SEED`).
pub fn node_seed() -> Option<u64> {
    read_u64(&NODE_SEED)
}

const fn knob(name: &'static str, default: &'static str, meaning: &'static str) -> Knob {
    Knob { name, default, meaning }
}

fn read(knob: &Knob) -> Option<String> {
    static SCAN: Once = Once::new();
    SCAN.call_once(reject_undeclared);
    std::env::var(knob.name).ok()
}

fn read_u64(knob: &Knob) -> Option<u64> {
    let v = read(knob)?;
    let parsed = parse_u64(&v);
    if parsed.is_none() {
        eprintln!("warning: ignoring unparseable {}={v:?}, using the default", knob.name);
    }
    parsed
}

/// Exits with status 2 when the environment holds a `TVA_*` name that no
/// row of [`KNOBS`] declares.
fn reject_undeclared() {
    let declared: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
    let unknown: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("TVA_") && !declared.contains(&k.as_str()))
        .collect();
    if !unknown.is_empty() {
        let (unknown, declared) = (unknown.join(", "), declared.join(", "));
        eprintln!("unknown environment variable(s): {unknown}\nthe declared TVA knobs are: {declared}");
        std::process::exit(2);
    }
}

/// A truthy flag: anything non-empty except `0` and `false`.
fn parse_flag(v: &str) -> bool {
    let v = v.trim();
    !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
}

/// A `u64`: decimal or `0x` hex, `_` separators and surrounding blanks
/// allowed.
fn parse_u64(v: &str) -> Option<u64> {
    let digits = v.trim().replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_u64_accepts_hex_underscores_and_rejects_junk() {
        assert_eq!(parse_u64("0x7E57_5EED"), Some(0x7E57_5EED));
        assert_eq!(parse_u64(" 1_000_000 "), Some(1_000_000));
        assert_eq!(parse_u64("banana"), None);
        assert_eq!(parse_u64(""), None);
    }

    #[test]
    fn parse_flag_is_false_only_for_blank_zero_and_false() {
        for v in ["", " ", "0", "false", "FALSE"] {
            assert!(!parse_flag(v), "{v:?}");
        }
        for v in ["1", "true", "yes"] {
            assert!(parse_flag(v), "{v:?}");
        }
    }
}
