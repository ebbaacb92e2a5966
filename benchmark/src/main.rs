//! The benchmark's one command.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one run of one
//!   workload, the form the driver calls: a human report on stderr, and as
//!   the last line of stdout one JSON object with `correct`, `attempted`,
//!   `failed` and `metrics` (end-to-end metrics untraced, per-layer traced).
//! * no `--workload` — the suite: every workload untraced (plus one traced
//!   run each with `--trace`), each in a child process of this same binary
//!   so peak RSS and allocator state never leak between workloads; exits
//!   non-zero on a failed check.
//! * `--aa` — the suite twice, every pair of end-to-end values compared
//!   against its bound in `BENCHMARK.json`; exits non-zero beyond a bound.

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;
use tva_benchmark::spec::{MetricSpec, Spec, PER_LAYER};
use tva_benchmark::stats::Summary;
use tva_benchmark::{run_workload, scrub_env, Outcome, RunOpts, Sizing, END_TO_END, WORKLOADS};

const USAGE: &str = "usage: tva-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--reps N] [--quick] [--aa]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    reps: Option<usize>,
    quick: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        reps: None,
        quick: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                args.reps = Some(value("a count")?.parse().map_err(|e| format!("--reps: {e}"))?)
            }
            // `--trace 1` / `--trace 0` from the driver; bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, unit)| unit)
}

fn report(workload: &str, out: &Outcome) {
    eprintln!("== {workload}: failed/attempted = {}/{}", out.failed, out.attempted);
    for (name, Summary { median, min, max, n }) in &out.metrics {
        let unit = unit_of(name);
        if *n > 1 {
            eprintln!("  {name} = {median:.6} {unit} (min {min:.6}, max {max:.6}, n={n})");
        } else {
            eprintln!("  {name} = {median:.6} {unit}");
        }
    }
    for f in &out.failures {
        eprintln!("  FAILED: {f}");
    }
}

/// The driver's result line. `names` selects and orders the metrics.
fn result_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // A missing or non-finite value is already a failed check; keep
            // the line valid JSON regardless.
            let value = out.get(name).map(|s| s.median).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(name: &str, args: &Args, scrubbed: &[String]) -> ExitCode {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(15.0),
        reps: args.reps,
        trace: args.trace,
        sizing: if args.quick { Sizing::quick() } else { Sizing::full() },
    };
    eprintln!(
        "scrubbed {} TVA_* environment variable(s){}{}",
        scrubbed.len(),
        if scrubbed.is_empty() { "" } else { ": " },
        scrubbed.join(" ")
    );
    let Some(mut out) = run_workload(name, &opts, scrubbed) else {
        eprintln!("unknown workload {name}; have {}", WORKLOADS.join(" "));
        return ExitCode::from(2);
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (metric, _) in names {
        let finite = out.get(metric).is_some_and(|s| s.median.is_finite());
        out.check(finite, || format!("{metric} missing or not finite"));
    }
    report(name, &out);
    println!("{}", result_line(&out, names));
    ExitCode::SUCCESS
}

/// One workload's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let Value::Object(root) = serde_json::from_str(line).ok()? else { return None };
    let num = |v: Option<&Value>| match v {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    };
    let Some(Value::Object(ms)) = root.get("metrics") else { return None };
    let mut metrics = Vec::new();
    for (name, m) in ms.iter() {
        let Value::Object(m) = m else { return None };
        let unit = match m.get("unit") {
            Some(Value::String(u)) => u.clone(),
            _ => return None,
        };
        metrics.push((name.clone(), num(m.get("value"))?, unit));
    }
    Some(ChildResult {
        attempted: num(root.get("attempted"))? as u64,
        failed: num(root.get("failed"))? as u64,
        metrics,
    })
}

/// Runs one workload in a child process of this binary.
fn spawn(name: &str, args: &Args, seconds: f64, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(n) = args.reps {
        cmd.args(["--reps", &n.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().ok()?;
    if !output.status.success() {
        return None;
    }
    parse_result(String::from_utf8_lossy(&output.stdout).lines().last()?)
}

/// One pass over every workload; prints the table, returns the untraced
/// results and whether everything passed.
fn suite(args: &Args, seconds: f64) -> (Vec<(String, ChildResult)>, bool) {
    let mut results = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match spawn(name, args, seconds, trace) {
                Some(r) => {
                    println!(
                        "{name}{}: failed/attempted = {}/{}",
                        if trace { " (traced)" } else { "" },
                        r.failed,
                        r.attempted
                    );
                    for (metric, value, unit) in &r.metrics {
                        println!("  {metric} = {value} {unit}");
                    }
                    ok &= r.failed == 0;
                    if !trace {
                        results.push((name.to_string(), r));
                    }
                }
                None => {
                    println!("{name}: the run did not produce a result");
                    ok = false;
                }
            }
        }
    }
    (results, ok)
}

/// How much worse `b` reads than `a`, as a share of `a`.
fn worse_by(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let d = if m.higher_better { a - b } else { b - a };
    d / a.abs().max(f64::MIN_POSITIVE)
}

fn aa(args: &Args, spec: &Spec, seconds: f64) -> bool {
    let (first, ok1) = suite(args, seconds);
    let (second, ok2) = suite(args, seconds);
    let mut ok = ok1 && ok2;
    println!("A/A: workload metric first second relative-difference bound");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for m in &spec.end_to_end {
            let value = |r: &ChildResult| {
                r.metrics.iter().find(|(n, _, _)| *n == m.name).map(|(_, v, _)| *v)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("  {name} {}: missing", m.name);
                ok = false;
                continue;
            };
            let diff = worse_by(m, x, y).max(worse_by(m, y, x));
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if diff <= bound { "ok" } else { "BEYOND BOUND" };
            println!("  {name} {} {x} {y} {:.4} {bound} {verdict}", m.name, diff);
            ok &= diff <= bound;
        }
    }
    ok
}

fn main() -> ExitCode {
    let scrubbed = scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return run_one(name, &args, &scrubbed);
    }
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let ok = if args.aa { aa(&args, &spec, seconds) } else { suite(&args, seconds).1 };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
