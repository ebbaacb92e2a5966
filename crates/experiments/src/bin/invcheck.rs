//! Invariant-checking fuzzer and replay tool.
//!
//! ```text
//! cargo run --release -p tva-experiments --bin invcheck -- fuzz [--seeds N] [--start S] [--dir D]
//! cargo run --release -p tva-experiments --bin invcheck -- dump --seed S --out PATH
//! cargo run --release -p tva-experiments --bin invcheck -- replay PATH
//! ```
//!
//! * `fuzz` derives a randomized scenario (topology parameters, backup
//!   path × attack mix × wire impairments × optional bottleneck failure)
//!   from each seed
//!   in `[S, S+N)`, runs it with every auditor on, and writes a replay
//!   artifact for any seed that violates an invariant. Exit code 1 if any
//!   seed failed.
//! * `dump` runs one seed and always writes its artifact (clean or not) —
//!   the fixture half of the CI replay round-trip.
//! * `replay` re-executes an artifact deterministically and compares the
//!   freshly observed violated-invariant set against the recorded one.
//!   Exit code 0 iff they match.
//!
//! The attack search runs audited as `TVA_CHECK=1 attacks`: a violation
//! there dumps the same artifact, naming the attack and its parameters.

use std::path::PathBuf;
use std::process::ExitCode;

use tva_check::CheckConfig;
use tva_experiments::check::{
    artifact_json, random_config, read_artifact, replay, run_checked, write_artifact,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: invcheck fuzz [--seeds N] [--start S] [--dir D]\n\
         \x20      invcheck dump --seed S --out PATH\n\
         \x20      invcheck replay PATH"
    );
    ExitCode::from(2)
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Option<T> {
    args.next().and_then(|v| v.parse().ok()).or_else(|| {
        eprintln!("invcheck: {flag} needs a value");
        None
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    match cmd.as_str() {
        "fuzz" => fuzz(&args[1..]),
        "dump" => dump(&args[1..]),
        "replay" => replay_cmd(&args[1..]),
        _ => usage(),
    }
}

fn fuzz(args: &[String]) -> ExitCode {
    let (mut seeds, mut start) = (20u64, 1u64);
    let mut dir = CheckConfig::from_env().dir;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let ok = match arg.as_str() {
            "--seeds" => parse_flag(&mut it, "--seeds").map(|v| seeds = v).is_some(),
            "--start" => parse_flag(&mut it, "--start").map(|v| start = v).is_some(),
            "--dir" => parse_flag(&mut it, "--dir").map(|v: PathBuf| dir = v).is_some(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let mut failed = 0usize;
    for seed in start..start.saturating_add(seeds) {
        let cfg = random_config(seed);
        let (_, report) = run_checked(&cfg);
        if report.is_clean() {
            println!(
                "seed {seed}: clean ({} events, {} audit passes, scheme {}, {:?})",
                report.events_audited,
                report.audit_passes,
                cfg.scheme.name(),
                cfg.attack,
            );
            continue;
        }
        failed += 1;
        let labels = report.violated_invariants().join(", ");
        let doc = artifact_json(&cfg, &report);
        match write_artifact(&dir, &format!("fuzz-seed{seed}"), &doc) {
            Ok((path, _)) => eprintln!(
                "seed {seed}: {} violation(s) [{labels}] — artifact: {}",
                report.violations.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "seed {seed}: {} violation(s) [{labels}] — artifact dump failed: {e}",
                report.violations.len()
            ),
        }
    }
    println!("fuzz: {} seed(s), {failed} violating", seeds);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dump(args: &[String]) -> ExitCode {
    let (mut seed, mut out) = (None::<u64>, None::<PathBuf>);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let ok = match arg.as_str() {
            "--seed" => parse_flag(&mut it, "--seed").map(|v| seed = Some(v)).is_some(),
            "--out" => parse_flag(&mut it, "--out").map(|v| out = Some(v)).is_some(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let (Some(seed), Some(out)) = (seed, out) else { return usage() };
    let (dir, stem) = (
        out.parent().map(PathBuf::from).unwrap_or_else(|| PathBuf::from(".")),
        match out.file_stem().and_then(|s| s.to_str()) {
            Some(s) => s.to_string(),
            None => return usage(),
        },
    );
    let cfg = random_config(seed);
    let (_, report) = run_checked(&cfg);
    match write_artifact(&dir, &stem, &artifact_json(&cfg, &report)) {
        Ok((path, _)) => {
            let verdict = if report.is_clean() {
                "clean".to_string()
            } else {
                format!("violated [{}]", report.violated_invariants().join(", "))
            };
            println!("seed {seed}: {verdict} — artifact: {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invcheck dump: {e}");
            ExitCode::FAILURE
        }
    }
}

fn replay_cmd(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let artifact = match read_artifact(std::path::Path::new(path)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("invcheck replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    let observed = replay(&artifact);
    let recorded = &artifact.violated;
    if observed == *recorded {
        let verdict = if observed.is_empty() {
            "clean".to_string()
        } else {
            format!("violated [{}]", observed.join(", "))
        };
        println!("replay: verdict reproduced exactly — {verdict}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "replay: verdict MISMATCH — recorded [{}], observed [{}]",
            recorded.join(", "),
            observed.join(", ")
        );
        ExitCode::FAILURE
    }
}
