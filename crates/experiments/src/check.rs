//! `TVA_CHECK` wiring: drives scenario runs through the [`tva_check`]
//! auditors, dumps replay artifacts on violation, and provides the seeded
//! configuration generator behind the `repro invcheck` scenario fuzzer.
//!
//! The auditors cost nothing until `TVA_CHECK=1` is set at runtime:
//! [`CheckConfig::from_env`] is consulted once per run, off the packet
//! path.
//!
//! A violation artifact is a JSON document carrying the full
//! [`ScenarioConfig`] (seed, topology and bottleneck faults included), the
//! violated invariants, and the violation details; the flight-recorder
//! ring is dumped next to it (`<stem>.flight.json`) for packet-level
//! context. `repro invcheck replay` re-executes an artifact deterministically
//! and compares the set of violated invariants.
//!
//! The config's keys come from two tables: the attack's name and its
//! `attack_<param>` keys from [`ATTACKS`], the integer fields' keys from
//! this module's `FIELDS`. Only the scheme, seed, flags and outage window
//! are written out by hand.

use std::fs;
use std::path::{Path, PathBuf};

use rand::{rngs::SmallRng, RngCore, SeedableRng};
use serde_json::{Map, Value};
use tva_check::{CheckConfig, CheckReport, Checker, AUDIT_INTERVAL};
use tva_sim::{DutyCycleOutage, SimDuration, SimTime, Simulator};
use tva_wire::{Grant, NBytes, TSecs};

use crate::scenario::{Attack, Draw, LinkFaults, ScenarioConfig, ScenarioResult, Scheme, ATTACKS};

/// Drives the built simulator to `end` in [`AUDIT_INTERVAL`]-sized steps
/// with the full auditor set installed, returning the composed report. The
/// tracer is removed again afterwards so post-run inspection sees the
/// simulator exactly as an unchecked run would.
pub fn drive_checked(sim: &mut Simulator, end: SimTime) -> CheckReport {
    let mut checker = Checker::install();
    sim.set_tracer(Some(checker.tracer()));
    loop {
        let next = sim.now().saturating_add(AUDIT_INTERVAL).min(end);
        sim.run_until(next);
        checker.step(sim);
        if next >= end {
            break;
        }
    }
    let report = checker.finish(sim);
    sim.set_tracer(None);
    report
}

/// Runs one scenario under the auditors without enforcing cleanliness:
/// the fuzzer's and replayer's entry point.
pub(crate) fn run_checked(cfg: &ScenarioConfig) -> (ScenarioResult, CheckReport) {
    let mut report = None;
    let result = crate::scenario::run_driven(
        cfg,
        |sim, _| report = Some(drive_checked(sim, cfg.duration)),
        |_, _| {},
    );
    (result, report.expect("scenario driver did not run"))
}

/// Enforces a clean report for an env-gated (`TVA_CHECK=1`) run: on any
/// violation, writes the replay artifact plus the flight-recorder dump
/// and panics with their paths. Clean runs return silently.
pub(crate) fn enforce_clean(check: &CheckConfig, cfg: &ScenarioConfig, report: &CheckReport) {
    if report.is_clean() {
        return;
    }
    let seed = cfg.seed;
    let labels = report.violated_invariants().join(", ");
    let name = format!("scenario-seed{seed}");
    let where_ = match write_artifact(&check.dir, &name, &artifact_json(cfg, report)) {
        Ok((artifact, flight)) => {
            format!("artifact: {} flight: {}", artifact.display(), flight.display())
        }
        Err(e) => format!("(artifact dump failed: {e})"),
    };
    panic!(
        "checked run: {} invariant violation(s) [{labels}] in scenario run seed {seed} — {where_}",
        report.violation_count()
    );
}

// ---------------------------------------------------------------------------
// Configuration (de)serialization. Hand-rolled against the vendored
// serde_json `Value`: fractions travel as ppm integers and the seed as a
// string (u64 seeds can exceed f64's 2^53 integer range); everything else
// fits a JSON number exactly. The attack's name and parameter keys come
// from `scenario::ATTACKS`, the integer fields' keys from `FIELDS`.

fn num(v: u64) -> Value {
    debug_assert!(v < (1 << 53), "JSON number out of exact f64 range: {v}");
    Value::Number(v as f64)
}

fn as_object<'a>(v: &'a Value, what: &str) -> Result<&'a Map<String, Value>, String> {
    match v {
        Value::Object(m) => Ok(m),
        _ => Err(format!("{what}: expected a JSON object")),
    }
}

fn get<'a>(obj: &'a Map<String, Value>, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn get_u64(obj: &Map<String, Value>, key: &str) -> Result<u64, String> {
    match get(obj, key)? {
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
            Ok(*n as u64)
        }
        _ => Err(format!("key {key:?}: expected an integer in [0, 2^53)")),
    }
}

/// Absent key reads as `false`: keys added after the artifact format are
/// written only when set, so older replay artifacts simply lack them.
fn opt_bool(obj: &Map<String, Value>, key: &str) -> bool {
    matches!(obj.get(key), Some(Value::Bool(true)))
}

fn get_bool(obj: &Map<String, Value>, key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("key {key:?}: expected a boolean")),
    }
}

fn get_str<'a>(obj: &'a Map<String, Value>, key: &str) -> Result<&'a str, String> {
    match get(obj, key)? {
        Value::String(s) => Ok(s),
        _ => Err(format!("key {key:?}: expected a string")),
    }
}

fn get_seed(obj: &Map<String, Value>) -> Result<u64, String> {
    get_str(obj, "seed")?
        .parse()
        .map_err(|e| format!("key \"seed\": not a u64 ({e})"))
}

fn scheme_from_str(s: &str) -> Result<Scheme, String> {
    Scheme::ALL
        .into_iter()
        .find(|scheme| scheme.name() == s)
        .ok_or_else(|| format!("unknown scheme {s:?}"))
}

/// Reads an integer field; `None` leaves the key out of the artifact.
type Read = fn(&ScenarioConfig) -> Option<u64>;
/// Writes an integer field; `None` when the value does not fit it.
type Write = fn(&mut ScenarioConfig, u64) -> Option<()>;

fn set<T>(slot: &mut T, v: T) -> Option<()> {
    *slot = v;
    Some(())
}

fn fit<T: TryFrom<u64>>(slot: &mut T, v: u64) -> Option<()> {
    set(slot, T::try_from(v).ok()?)
}

fn nonzero(v: u32) -> Option<u64> {
    (v != 0).then_some(v.into())
}

/// The integer-coded fields of [`ScenarioConfig`], as `(key, read, write)`.
/// A key the default configuration writes is required; the others are
/// written only when not at their default, so artifacts that predate them
/// still read.
const FIELDS: &[(&str, Read, Write)] = &[
    ("n_attackers", |c| Some(c.n_attackers as u64), |c, v| fit(&mut c.n_attackers, v)),
    ("n_users", |c| Some(c.n_users as u64), |c, v| fit(&mut c.n_users, v)),
    (
        "transfers_per_user",
        |c| Some(c.transfers_per_user as u64),
        |c, v| fit(&mut c.transfers_per_user, v),
    ),
    ("file_size", |c| Some(c.file_size.into()), |c, v| fit(&mut c.file_size, v)),
    ("bottleneck_bps", |c| Some(c.bottleneck_bps), |c, v| set(&mut c.bottleneck_bps, v)),
    ("attacker_rate_bps", |c| Some(c.attacker_rate_bps), |c, v| set(&mut c.attacker_rate_bps, v)),
    (
        "request_fraction_ppm",
        |c| Some((c.request_fraction * 1e6).round() as u64),
        |c, v| set(&mut c.request_fraction, v as f64 / 1e6),
    ),
    ("grant_kb", |c| Some(c.grant.n.kb().into()), |c, v| {
        let kb = u16::try_from(v).ok().filter(|&kb| kb <= NBytes::MAX.kb())?;
        set(&mut c.grant.n, NBytes::from_kb(kb))
    }),
    ("grant_secs", |c| Some(c.grant.t.secs().into()), |c, v| {
        let secs = u8::try_from(v).ok().filter(|&s| s <= TSecs::MAX.secs())?;
        set(&mut c.grant.t, TSecs::from_secs(secs))
    }),
    ("attack_start_ns", |c| Some(c.attack_start.as_nanos()), |c, v| {
        set(&mut c.attack_start, SimTime::from_nanos(v))
    }),
    ("duration_ns", |c| Some(c.duration.as_nanos()), |c, v| {
        set(&mut c.duration, SimTime::from_nanos(v))
    }),
    ("failure_grace_ns", |c| Some(c.failure_grace.as_nanos()), |c, v| {
        set(&mut c.failure_grace, SimDuration::from_nanos(v))
    }),
    ("measure_after_ns", |c| Some(c.measure_after.as_nanos()), |c, v| {
        set(&mut c.measure_after, SimTime::from_nanos(v))
    }),
    ("siff_key_rotation_ns", |c| Some(c.siff_key_rotation.as_nanos()), |c, v| {
        set(&mut c.siff_key_rotation, SimDuration::from_nanos(v))
    }),
    ("per_queue_cap_bytes", |c| c.per_queue_cap_bytes, |c, v| {
        set(&mut c.per_queue_cap_bytes, Some(v))
    }),
    ("flow_sample_n", |c| nonzero(c.flow_sample_n), |c, v| fit(&mut c.flow_sample_n, v)),
    ("loss_ppm", |c| nonzero(c.faults.loss_ppm), |c, v| fit(&mut c.faults.loss_ppm, v)),
    ("corrupt_ppm", |c| nonzero(c.faults.corrupt_ppm), |c, v| fit(&mut c.faults.corrupt_ppm, v)),
    ("link_down_ns", |c| c.faults.down_at.map(SimTime::as_nanos), |c, v| {
        set(&mut c.faults.down_at, Some(SimTime::from_nanos(v)))
    }),
    ("link_up_ns", |c| c.faults.up_at.map(SimTime::as_nanos), |c, v| {
        set(&mut c.faults.up_at, Some(SimTime::from_nanos(v)))
    }),
];

/// Keys of artifact formats this build no longer replays, rejected by name
/// (in a config object or the artifact around it) so a stale artifact
/// fails with its reason instead of silently running something else.
fn reject_retired(obj: &Map<String, Value>) -> Result<(), String> {
    let has = |key| obj.get(key).is_some();
    // Only "prefix" and "sketched" were ever written ("flat" was the
    // default, left out), and both limiters are gone.
    let one_limiter = "the request channel has one limiter: the prefix and sketched ones \
                       missed their keep-rules and were removed";
    let retired = [
        ("clock_cache", opt_bool(obj, "clock_cache"), "the CLOCK flow cache was removed"),
        ("sketched_requests", has("sketched_requests"), one_limiter),
        ("prefix_drr", has("prefix_drr"), one_limiter),
        ("request_limiter", has("request_limiter"), one_limiter),
        (
            "extras",
            has("extras"),
            "bottleneck faults moved into the config (\"loss_ppm\", \"link_down_ns\", …)",
        ),
        (
            "harness",
            matches!(obj.get("harness"), Some(Value::String(h)) if h == "robustness"),
            "the robustness harness became the scenario harness's \"backup_path\"",
        ),
    ];
    match retired.into_iter().find(|&(_, present, _)| present) {
        Some((key, _, why)) => {
            Err(format!("key {key:?}: {why}, so a run recorded under it cannot be replayed"))
        }
        None => Ok(()),
    }
}

/// Serializes a scenario configuration for a replay artifact.
pub(crate) fn scenario_to_json(cfg: &ScenarioConfig) -> Value {
    let mut m = Map::new();
    for &(key, read, _) in FIELDS {
        if let Some(v) = read(cfg) {
            m.insert(key.into(), num(v));
        }
    }
    m.insert("attack".into(), Value::String(cfg.attack.name().into()));
    for (p, v) in cfg.attack.kind().params.iter().zip(cfg.attack.params()) {
        m.insert(p.artifact_key(), num(v));
    }
    m.insert("scheme".into(), Value::String(cfg.scheme.name().into()));
    m.insert("seed".into(), Value::String(cfg.seed.to_string()));
    m.insert("siff_accept_previous".into(), Value::Bool(cfg.siff_accept_previous));
    m.insert("deny_attackers".into(), Value::Bool(cfg.deny_attackers));
    if cfg.backup_path {
        m.insert("backup_path".into(), Value::Bool(true));
    }
    if let Some(o) = cfg.faults.outage {
        m.insert("outage_period_ns".into(), num(o.period.as_nanos()));
        m.insert("outage_down_ns".into(), num(o.down.as_nanos()));
        m.insert("outage_phase_ns".into(), num(o.phase.as_nanos()));
    }
    Value::Object(m)
}

/// Parses a scenario configuration back out of a replay artifact. A value
/// its field cannot hold is an error naming the key, never a narrowed
/// different scenario.
pub(crate) fn scenario_from_json(v: &Value) -> Result<ScenarioConfig, String> {
    let obj = as_object(v, "scenario config")?;
    reject_retired(obj)?;
    let defaults = ScenarioConfig::default();
    let mut cfg = ScenarioConfig {
        scheme: scheme_from_str(get_str(obj, "scheme")?)?,
        seed: get_seed(obj)?,
        siff_accept_previous: get_bool(obj, "siff_accept_previous")?,
        deny_attackers: get_bool(obj, "deny_attackers")?,
        backup_path: opt_bool(obj, "backup_path"),
        ..defaults.clone()
    };
    for &(key, read, write) in FIELDS {
        if obj.get(key).is_some() || read(&defaults).is_some() {
            let v = get_u64(obj, key)?;
            write(&mut cfg, v).ok_or_else(|| format!("key {key:?}: {v} does not fit its field"))?;
        }
    }
    let name = get_str(obj, "attack")?;
    let params = ATTACKS.iter().find(|k| k.name == name).map_or(&[][..], |k| k.params);
    let values =
        params.iter().map(|p| get_u64(obj, &p.artifact_key())).collect::<Result<Vec<_>, _>>()?;
    cfg.attack = Attack::from_params(name, &values)?;
    if obj.get("outage_period_ns").is_some() {
        let ns = |key| get_u64(obj, key).map(SimDuration::from_nanos);
        cfg.faults.outage = Some(DutyCycleOutage {
            period: ns("outage_period_ns")?,
            down: ns("outage_down_ns")?,
            phase: ns("outage_phase_ns")?,
        });
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// Artifacts.

/// Composes the full replay-artifact document.
pub(crate) fn artifact_json(cfg: &ScenarioConfig, report: &CheckReport) -> Value {
    let mut m = Map::new();
    m.insert("kind".into(), Value::String("tva-check-artifact".into()));
    m.insert("version".into(), num(1));
    m.insert("harness".into(), Value::String("scenario".into()));
    m.insert("config".into(), scenario_to_json(cfg));
    m.insert("clean".into(), Value::Bool(report.is_clean()));
    m.insert(
        "violated".into(),
        Value::Array(
            report
                .violated_invariants()
                .into_iter()
                .map(|s| Value::String(s.into()))
                .collect(),
        ),
    );
    m.insert("violations".into(), report.violations_json());
    m.insert("events_audited".into(), num(report.events_audited));
    m.insert("audit_passes".into(), num(report.audit_passes));
    Value::Object(m)
}

/// Writes the artifact as `<dir>/<name>.json` and dumps this thread's
/// flight-recorder ring next to it as `<dir>/<name>.flight.json`.
/// Returns both paths.
pub(crate) fn write_artifact(
    dir: &Path,
    name: &str,
    doc: &Value,
) -> std::io::Result<(PathBuf, PathBuf)> {
    fs::create_dir_all(dir)?;
    let artifact = dir.join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(doc)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    fs::write(&artifact, text + "\n")?;
    let flight = dir.join(format!("{name}.flight.json"));
    tva_obs::dump_thread_flight(&flight, "invariant violation")?;
    Ok((artifact, flight))
}

/// A replay artifact read back from disk.
#[derive(Debug, Clone)]
pub(crate) struct Artifact {
    /// What to re-run: the full scenario configuration, seed included.
    pub(crate) cfg: ScenarioConfig,
    /// Invariant labels the recorded run violated (the comparison key).
    pub(crate) violated: Vec<String>,
}

/// Reads and validates a replay artifact.
pub(crate) fn read_artifact(path: &Path) -> Result<Artifact, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let obj = as_object(&doc, "artifact")?;
    if get_str(obj, "kind")? != "tva-check-artifact" {
        return Err("not a tva-check artifact".into());
    }
    reject_retired(obj)?;
    match get_str(obj, "harness")? {
        "scenario" => {}
        other => return Err(format!("unknown harness {other:?}")),
    }
    let cfg = scenario_from_json(get(obj, "config")?)?;
    let violated = match get(obj, "violated")? {
        Value::Array(items) => items
            .iter()
            .map(|v| match v {
                Value::String(s) => Ok(s.clone()),
                _ => Err("violated: expected strings".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("violated: expected an array".into()),
    };
    Ok(Artifact { cfg, violated })
}

/// Re-runs an artifact's configuration under the auditors and returns the
/// freshly observed violated-invariant labels (empty = clean).
pub(crate) fn replay(artifact: &Artifact) -> Vec<String> {
    let (_, report) = run_checked(&artifact.cfg);
    report.violated_invariants().into_iter().map(str::to_string).collect()
}

/// A report's verdict: `clean` or the violated invariants.
fn verdict(violated: &[impl AsRef<str>]) -> String {
    if violated.is_empty() {
        return "clean".into();
    }
    let labels: Vec<&str> = violated.iter().map(AsRef::as_ref).collect();
    format!("violated [{}]", labels.join(", "))
}

/// `repro invcheck fuzz`: runs the scenario [`random_config`] derives from
/// each seed in `[start, start + seeds)` with every auditor on, prints one
/// line per seed, and writes a replay artifact under `dir` for each seed
/// that violates an invariant. Returns how many did.
pub fn fuzz(start: u64, seeds: u64, dir: &Path) -> usize {
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
        let doc = artifact_json(&cfg, &report);
        let artifact = match write_artifact(dir, &format!("fuzz-seed{seed}"), &doc) {
            Ok((path, _)) => format!("artifact: {}", path.display()),
            Err(e) => format!("artifact dump failed: {e}"),
        };
        let (n, labels) = (report.violation_count(), report.violated_invariants().join(", "));
        eprintln!("seed {seed}: {n} violation(s) [{labels}] — {artifact}");
    }
    println!("fuzz: {seeds} seed(s), {failed} violating");
    failed
}

/// `repro invcheck dump`: runs one seed and always writes its artifact to
/// `out`, clean or not — the fixture half of the replay round-trip.
pub fn dump(seed: u64, out: &Path) -> Result<(), String> {
    let stem = out.file_stem().and_then(|s| s.to_str()).ok_or("dump: --out needs a file name")?;
    let dir = out.parent().unwrap_or(Path::new("."));
    let cfg = random_config(seed);
    let (_, report) = run_checked(&cfg);
    let (path, _) = write_artifact(dir, stem, &artifact_json(&cfg, &report))
        .map_err(|e| format!("dump: {e}"))?;
    println!("seed {seed}: {} — artifact: {}", verdict(&report.violated_invariants()), path.display());
    Ok(())
}

/// `repro invcheck replay`: re-runs the artifact at `path` and fails unless
/// it violates exactly the invariants it recorded.
pub fn replay_file(path: &Path) -> Result<(), String> {
    let artifact = read_artifact(path).map_err(|e| format!("replay: {e}"))?;
    let observed = replay(&artifact);
    if observed != artifact.violated {
        return Err(format!(
            "replay: verdict MISMATCH — recorded [{}], observed [{}]",
            artifact.violated.join(", "),
            observed.join(", ")
        ));
    }
    println!("replay: verdict reproduced exactly — {}", verdict(&observed));
    Ok(())
}

// ---------------------------------------------------------------------------
// The fuzzer's configuration generator.

/// A draw in `[lo, hi)`.
fn pick(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo < hi);
    lo + rng.next_u64() % (hi - lo)
}

/// One value from `d`; the attack search's parameter sampler shares it.
pub(crate) fn draw(rng: &mut SmallRng, d: Draw) -> u64 {
    match d {
        Draw::Range(lo, hi) => pick(rng, lo, hi),
        Draw::OneOf(values) => values[pick(rng, 0, values.len() as u64) as usize],
    }
}

fn chance(rng: &mut SmallRng, percent: u64) -> bool {
    rng.next_u64() % 100 < percent
}

/// Derives a randomized scenario (topology × attack × bottleneck faults)
/// from a seed. Runs are deliberately small (tens of simulated seconds, a
/// handful of hosts) so a fuzz batch of many seeds finishes in well under a
/// minute; the mapping is pure, so one seed is a complete reproduction
/// recipe.
pub(crate) fn random_config(seed: u64) -> ScenarioConfig {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF0DD_C0DE);
    let scheme = Scheme::ALL[pick(&mut rng, 0, 4) as usize];
    let kind = &ATTACKS[pick(&mut rng, 0, ATTACKS.len() as u64) as usize];
    let values: Vec<u64> = kind.params.iter().map(|p| draw(&mut rng, p.fuzz)).collect();
    let attack = Attack::from_params(kind.name, &values).expect("fuzz draws fit their fields");
    let duration_secs = pick(&mut rng, 12, 30);
    let mut cfg = ScenarioConfig {
        scheme,
        attack,
        n_attackers: if attack == Attack::None { 0 } else { pick(&mut rng, 1, 12) as usize },
        n_users: pick(&mut rng, 2, 6) as usize,
        transfers_per_user: pick(&mut rng, 2, 6) as usize,
        file_size: pick(&mut rng, 4, 33) as u32 * 1024,
        bottleneck_bps: pick(&mut rng, 2, 11) * 1_000_000,
        attacker_rate_bps: pick(&mut rng, 500, 2_001) * 1_000,
        request_fraction: pick(&mut rng, 10_000, 50_001) as f64 / 1e6,
        grant: Grant::from_parts(pick(&mut rng, 16, 101) as u16, pick(&mut rng, 2, 11) as u8),
        attack_start: SimTime::from_secs(pick(&mut rng, 0, 4)),
        duration: SimTime::from_secs(duration_secs),
        failure_grace: SimDuration::from_secs(pick(&mut rng, 4, 10)),
        measure_after: SimTime::ZERO,
        seed,
        siff_key_rotation: SimDuration::from_secs(pick(&mut rng, 3, 64)),
        siff_accept_previous: chance(&mut rng, 50),
        deny_attackers: chance(&mut rng, 50),
        // A quarter of runs harden the TVA routers down to per-flow queue
        // caps smaller than a full-size packet — the regime where queue
        // admission must reject a flow's very first packet (the DRR
        // stub-key leak's trigger).
        per_queue_cap_bytes: chance(&mut rng, 25).then(|| pick(&mut rng, 256, 1800)),
        // A quarter of runs sample flow records, so the fuzzer also covers
        // the telemetry hooks (sampling must never perturb the simulation).
        flow_sample_n: if chance(&mut rng, 25) { pick(&mut rng, 1, 17) as u32 } else { 0 },
        // Half of runs have the detour, so a bottleneck failure below
        // re-converges through R3 (under attack) instead of partitioning.
        backup_path: chance(&mut rng, 50),
        faults: LinkFaults::default(),
    };
    if chance(&mut rng, 50) {
        cfg.faults.loss_ppm = pick(&mut rng, 0, 20_001) as u32;
        cfg.faults.corrupt_ppm = pick(&mut rng, 0, 20_001) as u32;
    }
    if chance(&mut rng, 30) {
        let down = pick(&mut rng, 3, duration_secs.saturating_sub(4).max(4));
        cfg.faults.down_at = Some(SimTime::from_secs(down));
        if chance(&mut rng, 75) {
            cfg.faults.up_at = Some(SimTime::from_secs(down + pick(&mut rng, 1, 5)));
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(cfg: &ScenarioConfig) -> String {
        serde_json::to_string(&scenario_to_json(cfg)).unwrap()
    }

    #[test]
    fn scenario_config_roundtrips_through_json() {
        // ScenarioConfig is not PartialEq (f64 fields); compare the
        // canonical JSON forms instead — equal trees ⇒ equal configs.
        let diamond = ScenarioConfig {
            scheme: Scheme::Siff,
            backup_path: true,
            faults: LinkFaults {
                loss_ppm: 13_000,
                corrupt_ppm: 2_000,
                outage: Some(DutyCycleOutage {
                    period: SimDuration::from_secs(5),
                    down: SimDuration::from_millis(400),
                    phase: SimDuration::from_millis(100),
                }),
                down_at: Some(SimTime::from_secs(30)),
                up_at: Some(SimTime::from_secs(45)),
            },
            seed: 987654321,
            ..ScenarioConfig::default()
        };
        let back = scenario_from_json(&scenario_to_json(&diamond)).unwrap();
        assert_eq!((back.backup_path, back.faults), (true, diamond.faults));
        let fuzzed = [0, 1, 7, 42, u64::MAX - 3].map(random_config);
        for cfg in fuzzed.iter().chain([&diamond]) {
            let back = scenario_from_json(&scenario_to_json(cfg)).unwrap();
            assert_eq!(canonical(cfg), canonical(&back));
        }
    }

    #[test]
    fn strategy_attacks_roundtrip_with_parameters() {
        // Every attack kind, with asymmetric parameters so a swapped field
        // shows up (replay artifacts must carry the kind's name *and* its
        // parameters).
        let attacks = [
            Attack::None,
            Attack::LegacyFlood,
            Attack::RequestFlood,
            Attack::AuthorizedColluder,
            Attack::ImpreciseAllAtOnce,
            Attack::ImpreciseStaged { groups: 3, wave_secs: 5 },
            Attack::Combined,
            Attack::ColluderRing { ring: 3, wave_ms: 750, duty_pct: 40 },
            Attack::PulseShrew { period_ms: 1000, burst_ms: 60, phase_ms: 17 },
            Attack::FlashMimicry { burst_kb: 32, think_ms: 900 },
            Attack::SpoofedRequestStorm { src_pool: 128, fill: 7 },
            Attack::RotatingIdentity { pool: 24, rotate_ms: 350 },
        ];
        let names: Vec<&str> = ATTACKS.iter().map(|k| k.name).collect();
        assert_eq!(attacks.map(Attack::name).to_vec(), names, "one case per row, in row order");
        for attack in attacks {
            let (name, params) = (attack.name(), attack.params());
            assert_eq!(Attack::from_params(name, &params), Ok(attack));
            let keys: Vec<String> = attack.kind().params.iter().map(|p| p.artifact_key()).collect();
            for (i, key) in keys.iter().enumerate() {
                assert!(!keys[..i].contains(key), "{name}: {key} appears twice");
                assert!(FIELDS.iter().all(|(k, ..)| k != key), "{name}: {key} is a config key");
            }
            let cfg = ScenarioConfig { attack, n_attackers: 4, ..ScenarioConfig::default() };
            let back = scenario_from_json(&scenario_to_json(&cfg)).unwrap();
            assert_eq!(back.attack, attack, "lost parameters for {attack:?}");
            assert_eq!(canonical(&back), canonical(&cfg));
        }
    }

    /// A seed whose draw has the detour, a TVA network under attack, and a
    /// bottleneck failure with recovery.
    const REROUTED_SEED: u64 = 112;

    #[test]
    fn artifact_roundtrips_through_disk() {
        // The second seed's run (and replay) re-converges through R3 and
        // back while the attack is on.
        let dir = std::env::temp_dir().join("tva-check-test-artifact");
        tva_obs::install_thread_flight(16);
        for seed in [3, REROUTED_SEED] {
            let cfg = random_config(seed);
            let (result, report) = run_checked(&cfg);
            let name = format!("roundtrip-{seed}");
            let (path, flight) = write_artifact(&dir, &name, &artifact_json(&cfg, &report)).unwrap();
            let art = read_artifact(&path).unwrap();
            assert_eq!(canonical(&art.cfg), canonical(&cfg));
            assert_eq!(art.violated, report.violated_invariants());
            assert_eq!(replay(&art), art.violated);
            if seed == REROUTED_SEED {
                assert!(cfg.backup_path && cfg.faults.up_at.is_some(), "{cfg:?}");
                assert_eq!(result.faults.reconvergences, 2);
                assert!(result.faults.backup_pkts > 0, "{:?}", result.faults);
            }
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(flight);
        }
    }

    #[test]
    fn artifacts_of_retired_formats_are_rejected_by_key() {
        let ring = Attack::ColluderRing { ring: 3, wave_ms: 750, duty_pct: 40 };
        let cfg = ScenarioConfig { attack: ring, ..random_config(3) };
        let ring_size: &str = &ring.kind().params[0].artifact_key();
        let path = std::env::temp_dir().join("tva-check-test-retired.json");
        let t = Value::Bool(true);
        let n = |v: u64| Value::Number(v as f64);
        // (key, value, in the config object or the artifact around it, rejected)
        let cases = [
            // Values their field cannot hold: never narrowed into another run.
            ("grant_secs", n(300), true, true),
            ("grant_secs", n(64), true, true),
            ("grant_secs", n(63), true, false),
            (ring_size, n(300), true, true),
            (ring_size, n(255), true, false),
            ("file_size", n(1 << 33), true, true),
            // Retired formats.
            ("clock_cache", t.clone(), true, true),
            ("clock_cache", Value::Bool(false), true, false),
            ("sketched_requests", t.clone(), true, true),
            ("prefix_drr", t.clone(), true, true),
            ("request_limiter", Value::String("prefix".into()), true, true),
            ("request_limiter", Value::String("sketched".into()), true, true),
            ("request_limiter", Value::String("flat".into()), true, true),
            ("extras", Value::Object(Map::new()), false, true),
            ("harness", Value::String("robustness".into()), false, true),
            ("harness", Value::String("scenario".into()), false, false),
        ];
        for (key, value, in_config, rejected) in cases {
            let Value::Object(mut artifact) = artifact_json(&cfg, &CheckReport::default()) else {
                panic!("artifact is an object")
            };
            let Some(Value::Object(mut config)) = artifact.get("config").cloned() else {
                panic!("config is an object")
            };
            let target = if in_config { &mut config } else { &mut artifact };
            target.insert(key.into(), value.clone());
            // The codec alone refuses the key wherever it sits...
            let direct = scenario_from_json(&Value::Object(target.clone()));
            if rejected {
                let e = direct.expect_err(key);
                assert!(e.contains(&format!("{key:?}")), "message names the key: {e}");
            }
            // ...and so does reading the whole artifact back.
            artifact.insert("config".into(), Value::Object(config));
            let doc = Value::Object(artifact);
            std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
            let parsed = read_artifact(&path).map(|_| ());
            assert_eq!(parsed.is_err(), rejected, "{key}={value:?}: {parsed:?}");
            if let Err(e) = parsed {
                assert!(e.contains(&format!("{key:?}")), "message names the key: {e}");
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn random_config_is_deterministic() {
        assert_eq!(canonical(&random_config(99)), canonical(&random_config(99)));
    }
}
