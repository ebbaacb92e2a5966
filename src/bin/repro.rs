//! `repro`: writes the tracked results under `results/`, one row of
//! [`tva::artifacts::ARTIFACTS`] at a time, and checks them.
//!
//! ```text
//! repro --list                               the artifact table
//! repro <name>… | all [--smoke|--quick|--full]
//!                                            each row's files; without a size
//!                                            flag, at the row's tracked size
//! repro scale [--quick|--full] [--hosts N] [--secs N]
//! repro --check DIR [<name>…]                the byte-held rows, regenerated
//!                                            into DIR and compared with results/
//! repro statebound --leg exact|bounded --flows N
//!                                            one statebound leg (its subprocess)
//! repro invcheck fuzz [--seeds N] [--start S] [--dir D]
//! repro invcheck dump --seed S --out PATH
//! repro invcheck replay PATH
//! ```
//!
//! Files go to `TVA_RESULTS_DIR` (default `results`), and so do the
//! observability and violation side artifacts, under its `obs/` and
//! `check/`. `--check` compares with `results/` under the current
//! directory, so run it from the repository root. A usage error exits 2;
//! a failed producer, check or replay exits 1.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use tva::artifacts::{self, Artifact, ARTIFACTS};
use tva::experiments::statebound::{self, Mode};
use tva::experiments::{check, Files, Size};
use tva::sim::knobs::results_dir;

const USAGE: &str = "usage: repro --list
       repro <name>... | all [--smoke|--quick|--full]
       repro scale [--quick|--full] [--hosts N] [--secs N]
       repro --check DIR [<name>...]
       repro statebound --leg exact|bounded --flows N
       repro invcheck fuzz [--seeds N] [--start S] [--dir D]
       repro invcheck dump --seed S --out PATH
       repro invcheck replay PATH";

/// Flags that take a value, and flags that stand alone.
const VALUED: [&str; 10] =
    ["--check", "--hosts", "--secs", "--leg", "--flows", "--seeds", "--start", "--dir", "--seed", "--out"];
const BARE: [&str; 4] = ["--list", "--smoke", "--quick", "--full"];

/// Prints `msg` and the usage, and exits 2.
fn usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("repro: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// The command line: its words in order, and its flags, each taken by the
/// mode that reads it; a flag no mode took is a usage error.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Args {
        let mut args = Args { words: Vec::new(), flags: Vec::new() };
        while let Some(a) = it.next() {
            if VALUED.contains(&a.as_str()) {
                let v = it.next().unwrap_or_else(|| usage(format!("{a} needs a value")));
                args.flags.push((a, Some(v)));
            } else if BARE.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else if a.starts_with("--") {
                usage(format!("unknown flag {a}"));
            } else {
                args.words.push(a);
            }
        }
        args
    }

    fn take(&mut self, flag: &str) -> Option<Option<String>> {
        let i = self.flags.iter().position(|(f, _)| f == flag)?;
        Some(self.flags.remove(i).1)
    }

    fn has(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    fn value<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let v = self.take(flag).flatten()?;
        Some(v.parse().unwrap_or_else(|_| usage(format!("{flag} {v:?} does not parse"))))
    }

    /// The words, once every flag has been taken.
    fn done(self) -> Vec<String> {
        if let Some((flag, _)) = self.flags.first() {
            usage(format!("{flag} does not apply here"));
        }
        self.words
    }
}

fn main() -> ExitCode {
    match run(Args::parse(std::env::args().skip(1))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Args) -> Result<(), String> {
    if args.words.first().is_some_and(|w| w == "invcheck") {
        return invcheck(args);
    }
    if args.has("--list") {
        if !args.done().is_empty() {
            usage("--list takes no names");
        }
        print!("{}", artifacts::list());
        return Ok(());
    }
    if let Some(dir) = args.value::<PathBuf>("--check") {
        let names = args.done();
        let rows = if names.is_empty() { ARTIFACTS.iter().filter(|a| a.exact).collect() } else { select(&names) };
        return check_rows(&dir, &rows);
    }
    if let Some(leg) = args.value::<String>("--leg") {
        let mode = Mode::parse(&leg).unwrap_or_else(|| usage(format!("--leg {leg:?}: exact or bounded")));
        let flows = args.value("--flows").unwrap_or_else(|| usage("--leg needs --flows N"));
        if args.done() != ["statebound"] {
            usage("--leg applies to statebound alone");
        }
        println!("{}", statebound::leg_rss_kb(mode, flows));
        return Ok(());
    }
    let sizes = [Size::Smoke, Size::Quick, Size::Full];
    let chosen: Vec<Size> = sizes.into_iter().filter(|s| args.has(&format!("--{}", s.name()))).collect();
    if chosen.len() > 1 {
        usage("at most one of --smoke, --quick and --full");
    }
    let (hosts, secs) = (args.value("--hosts"), args.value("--secs"));
    let names = args.done();
    let overridden = hosts.is_some() || secs.is_some();
    if overridden && names != ["scale"] {
        usage("--hosts and --secs apply to scale alone");
    }
    let dir = results_dir();
    for a in select(&names) {
        let size = chosen.first().copied().unwrap_or(a.size);
        let made = if overridden {
            tva::bench::scale::produce_with(size, hosts, secs)
        } else {
            (a.produce)(size)
        };
        write(&dir, a, &made.map_err(|e| format!("{}: {e}", a.name))?)?;
    }
    Ok(())
}

/// The rows `names` call for; `all` is every row.
fn select(names: &[String]) -> Vec<&'static Artifact> {
    match names {
        [] => usage("name an artifact, or all"),
        [all] if all == "all" => ARTIFACTS.iter().collect(),
        _ => names.iter().map(|n| artifacts::find(n).unwrap_or_else(|| usage(format!("no artifact {n:?}")))).collect(),
    }
}

/// Writes what `a` made into `dir` and names the files once.
fn write(dir: &Path, a: &Artifact, files: &Files) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("{}: {e}", dir.display());
    fs::create_dir_all(dir).map_err(failed)?;
    let mut wrote = Vec::new();
    for (name, bytes) in files {
        if !a.files.contains(&name.as_str()) {
            return Err(format!("{} made {name}, which its row does not list", a.name));
        }
        let path = dir.join(name);
        fs::write(&path, bytes).map_err(failed)?;
        wrote.push(path.display().to_string());
    }
    if !wrote.is_empty() {
        println!("{}: wrote {}", a.name, wrote.join(", "));
    }
    Ok(())
}

/// Regenerates `rows` at their tracked sizes into `dir` and compares every
/// file with `results/`, naming each one that differs.
fn check_rows(dir: &Path, rows: &[&'static Artifact]) -> Result<(), String> {
    if let Some(a) = rows.iter().find(|a| !a.exact) {
        usage(format!("{} is not byte-held", a.name));
    }
    let (mut checked, mut differ) = (0, 0);
    for a in rows {
        let files = (a.produce)(a.size).map_err(|e| format!("{}: {e}", a.name))?;
        write(dir, a, &files)?;
        for f in a.files {
            checked += 1;
            let tracked = Path::new("results").join(f);
            if let Some(diff) = first_difference(&dir.join(f), &tracked) {
                eprintln!("repro --check: {f} differs from {}: {diff}", tracked.display());
                differ += 1;
            }
        }
    }
    if differ > 0 {
        return Err(format!("{differ} of {checked} file(s) differ from results/"));
    }
    println!("check: {checked} file(s) match results/");
    Ok(())
}

/// Where `fresh` and `tracked` first differ, or `None` if they are equal.
fn first_difference(fresh: &Path, tracked: &Path) -> Option<String> {
    let read = |p: &Path| fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let (a, b) = match (read(fresh), read(tracked)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Some(e),
    };
    if a == b {
        return None;
    }
    let (a, b) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
    let (mut fresh_lines, mut tracked_lines) = (a.split('\n'), b.split('\n'));
    for line in 1.. {
        let (f, t) = (fresh_lines.next(), tracked_lines.next());
        if f != t {
            let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
            return Some(format!("line {line}\n  tracked: {}\n  fresh:   {}", show(t), show(f)));
        }
    }
    unreachable!("unequal bytes differ on some line")
}

fn invcheck(mut args: Args) -> Result<(), String> {
    match args.words.get(1).map(String::as_str) {
        Some("fuzz") => {
            let seeds = args.value("--seeds").unwrap_or(20);
            let start = args.value("--start").unwrap_or(1);
            let dir = args.value("--dir").unwrap_or_else(|| results_dir().join("check"));
            if args.done().len() != 2 {
                usage("invcheck fuzz takes no names");
            }
            match check::fuzz(start, seeds, &dir) {
                0 => Ok(()),
                n => Err(format!("invcheck: {n} seed(s) violated an invariant")),
            }
        }
        Some("dump") => {
            let seed = args.value("--seed").unwrap_or_else(|| usage("dump needs --seed S"));
            let out: PathBuf = args.value("--out").unwrap_or_else(|| usage("dump needs --out PATH"));
            if args.done().len() != 2 {
                usage("invcheck dump takes no names");
            }
            check::dump(seed, &out)
        }
        Some("replay") => match &args.done()[..] {
            [_, _, path] => check::replay_file(Path::new(path)),
            _ => usage("invcheck replay takes one PATH"),
        },
        _ => usage("invcheck fuzz, dump or replay"),
    }
}
