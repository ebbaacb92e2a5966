//! `TVA_CHECK` wiring: drives scenario runs through the [`tva_check`]
//! auditors, dumps replay artifacts on violation, and provides the seeded
//! configuration generator behind the `invcheck` scenario fuzzer.
//!
//! The auditors cost nothing until `TVA_CHECK=1` is set at runtime:
//! [`CheckConfig::from_env`] is consulted once per run, off the packet
//! path.
//!
//! A violation artifact is a JSON document carrying the full
//! [`ScenarioConfig`] (seed, topology and bottleneck faults included), the
//! violated invariants, and the violation details; the flight-recorder
//! ring is dumped next to it (`<stem>.flight.json`) for packet-level
//! context. `invcheck replay` re-executes an artifact deterministically
//! and compares the set of violated invariants.

use std::fs;
use std::path::{Path, PathBuf};

use rand::{rngs::SmallRng, RngCore, SeedableRng};
use serde_json::{Map, Value};
use tva_check::{CheckConfig, CheckReport, Checker};
use tva_core::RequestLimiter;
use tva_sim::{DutyCycleOutage, SimDuration, SimTime, Simulator};
use tva_wire::Grant;

use crate::scenario::{Attack, LinkFaults, ScenarioConfig, ScenarioResult, Scheme};

/// Drives the built simulator to `end` in `interval_ms`-sized steps with
/// the full auditor set installed, returning the composed report. The
/// tracer is removed again afterwards so post-run inspection sees the
/// simulator exactly as an unchecked run would.
pub fn drive_checked(sim: &mut Simulator, end: SimTime, check: &CheckConfig) -> CheckReport {
    let mut checker = Checker::install(check);
    sim.set_tracer(Some(checker.tracer()));
    let step = SimDuration::from_millis(check.interval_ms);
    loop {
        let next = sim.now().saturating_add(step).min(end);
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
pub fn run_checked(cfg: &ScenarioConfig, check: &CheckConfig) -> (ScenarioResult, CheckReport) {
    let mut report = None;
    let result = crate::scenario::run_driven(
        cfg,
        |sim, _| report = Some(drive_checked(sim, cfg.duration, check)),
        |_, _| {},
    );
    (result, report.expect("scenario driver did not run"))
}

/// Enforces a clean report for an env-gated (`TVA_CHECK=1`) run: on any
/// violation, writes the replay artifact plus the flight-recorder dump
/// and panics with their paths. Clean runs return silently.
pub fn enforce_clean(check: &CheckConfig, cfg: &ScenarioConfig, report: &CheckReport) {
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
        "TVA_CHECK: {} invariant violation(s) [{labels}] in scenario run seed {seed} — {where_}",
        report.violations.len()
    );
}

// ---------------------------------------------------------------------------
// Configuration (de)serialization. Hand-rolled against the vendored
// serde_json `Value`: fractions travel as ppm integers and the seed as a
// string (u64 seeds can exceed f64's 2^53 integer range); everything else
// fits a JSON number exactly.

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
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(format!("key {key:?}: expected a non-negative integer")),
    }
}

fn opt_u64(obj: &Map<String, Value>, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
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

const LIMITERS: [(RequestLimiter, &str); 3] = [
    (RequestLimiter::Flat, "flat"),
    (RequestLimiter::Prefix, "prefix"),
    (RequestLimiter::Sketched, "sketched"),
];

/// Keys of artifact formats this build no longer replays, rejected by name
/// (in a config object or the artifact around it) so a stale artifact
/// fails with its reason instead of silently running something else.
fn reject_retired(obj: &Map<String, Value>) -> Result<(), String> {
    let has = |key| obj.get(key).is_some();
    let one_limiter = "the two limiter flags became the one \"request_limiter\" choice";
    let retired = [
        ("clock_cache", opt_bool(obj, "clock_cache"), "the CLOCK flow cache was removed"),
        ("sketched_requests", has("sketched_requests"), one_limiter),
        ("prefix_drr", has("prefix_drr"), one_limiter),
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
pub fn scenario_to_json(cfg: &ScenarioConfig) -> Value {
    let mut m = Map::new();
    m.insert("scheme".into(), Value::String(cfg.scheme.name().into()));
    let attack = match cfg.attack {
        Attack::None => "none",
        Attack::LegacyFlood => "legacy-flood",
        Attack::RequestFlood => "request-flood",
        Attack::AuthorizedColluder => "authorized-colluder",
        Attack::ImpreciseAllAtOnce => "imprecise-all-at-once",
        Attack::ImpreciseStaged { groups, wave_secs } => {
            m.insert("attack_groups".into(), num(groups as u64));
            m.insert("attack_wave_secs".into(), num(wave_secs));
            "imprecise-staged"
        }
        Attack::Combined => "combined",
        Attack::ColluderRing { ring, wave_ms, duty_pct } => {
            m.insert("attack_ring".into(), num(u64::from(ring)));
            m.insert("attack_wave_ms".into(), num(u64::from(wave_ms)));
            m.insert("attack_duty_pct".into(), num(u64::from(duty_pct)));
            "colluder-ring"
        }
        Attack::PulseShrew { period_ms, burst_ms, phase_ms } => {
            m.insert("attack_period_ms".into(), num(u64::from(period_ms)));
            m.insert("attack_burst_ms".into(), num(u64::from(burst_ms)));
            m.insert("attack_phase_ms".into(), num(u64::from(phase_ms)));
            "pulse-shrew"
        }
        Attack::FlashMimicry { burst_kb, think_ms } => {
            m.insert("attack_burst_kb".into(), num(u64::from(burst_kb)));
            m.insert("attack_think_ms".into(), num(u64::from(think_ms)));
            "flash-mimicry"
        }
        Attack::SpoofedRequestStorm { src_pool, fill } => {
            m.insert("attack_src_pool".into(), num(u64::from(src_pool)));
            m.insert("attack_fill".into(), num(u64::from(fill)));
            "spoofed-request-storm"
        }
        Attack::RotatingIdentity { pool, rotate_ms } => {
            m.insert("attack_pool".into(), num(u64::from(pool)));
            m.insert("attack_rotate_ms".into(), num(u64::from(rotate_ms)));
            "rotating-identity"
        }
    };
    m.insert("attack".into(), Value::String(attack.into()));
    m.insert("n_attackers".into(), num(cfg.n_attackers as u64));
    m.insert("n_users".into(), num(cfg.n_users as u64));
    m.insert("transfers_per_user".into(), num(cfg.transfers_per_user as u64));
    m.insert("file_size".into(), num(cfg.file_size as u64));
    m.insert("bottleneck_bps".into(), num(cfg.bottleneck_bps));
    m.insert("attacker_rate_bps".into(), num(cfg.attacker_rate_bps));
    m.insert(
        "request_fraction_ppm".into(),
        num((cfg.request_fraction * 1e6).round() as u64),
    );
    m.insert("grant_kb".into(), num(cfg.grant.n.kb() as u64));
    m.insert("grant_secs".into(), num(cfg.grant.t.secs() as u64));
    m.insert("attack_start_ns".into(), num(cfg.attack_start.as_nanos()));
    m.insert("duration_ns".into(), num(cfg.duration.as_nanos()));
    m.insert("failure_grace_ns".into(), num(cfg.failure_grace.as_nanos()));
    m.insert("measure_after_ns".into(), num(cfg.measure_after.as_nanos()));
    m.insert("seed".into(), Value::String(cfg.seed.to_string()));
    m.insert("siff_key_rotation_ns".into(), num(cfg.siff_key_rotation.as_nanos()));
    m.insert("siff_accept_previous".into(), Value::Bool(cfg.siff_accept_previous));
    m.insert("deny_attackers".into(), Value::Bool(cfg.deny_attackers));
    if let Some(cap) = cfg.per_queue_cap_bytes {
        m.insert("per_queue_cap_bytes".into(), num(cap));
    }
    if cfg.flow_sample_n != 0 {
        m.insert("flow_sample_n".into(), num(u64::from(cfg.flow_sample_n)));
    }
    if cfg.request_limiter != RequestLimiter::Flat {
        let (_, name) = LIMITERS
            .iter()
            .find(|(limiter, _)| *limiter == cfg.request_limiter)
            .expect("every limiter is named");
        m.insert("request_limiter".into(), Value::String((*name).into()));
    }
    if cfg.backup_path {
        m.insert("backup_path".into(), Value::Bool(true));
    }
    let f = &cfg.faults;
    if f.loss_ppm != 0 {
        m.insert("loss_ppm".into(), num(u64::from(f.loss_ppm)));
    }
    if f.corrupt_ppm != 0 {
        m.insert("corrupt_ppm".into(), num(u64::from(f.corrupt_ppm)));
    }
    if let Some(o) = f.outage {
        m.insert("outage_period_ns".into(), num(o.period.as_nanos()));
        m.insert("outage_down_ns".into(), num(o.down.as_nanos()));
        m.insert("outage_phase_ns".into(), num(o.phase.as_nanos()));
    }
    if let Some(down) = f.down_at {
        m.insert("link_down_ns".into(), num(down.as_nanos()));
    }
    if let Some(up) = f.up_at {
        m.insert("link_up_ns".into(), num(up.as_nanos()));
    }
    Value::Object(m)
}

/// Parses a scenario configuration back out of a replay artifact.
pub fn scenario_from_json(v: &Value) -> Result<ScenarioConfig, String> {
    let obj = as_object(v, "scenario config")?;
    reject_retired(obj)?;
    let attack = match get_str(obj, "attack")? {
        "none" => Attack::None,
        "legacy-flood" => Attack::LegacyFlood,
        "request-flood" => Attack::RequestFlood,
        "authorized-colluder" => Attack::AuthorizedColluder,
        "imprecise-all-at-once" => Attack::ImpreciseAllAtOnce,
        "imprecise-staged" => Attack::ImpreciseStaged {
            groups: get_u64(obj, "attack_groups")? as usize,
            wave_secs: get_u64(obj, "attack_wave_secs")?,
        },
        "combined" => Attack::Combined,
        "colluder-ring" => Attack::ColluderRing {
            ring: get_u64(obj, "attack_ring")? as u8,
            wave_ms: get_u64(obj, "attack_wave_ms")? as u32,
            duty_pct: get_u64(obj, "attack_duty_pct")? as u8,
        },
        "pulse-shrew" => Attack::PulseShrew {
            period_ms: get_u64(obj, "attack_period_ms")? as u32,
            burst_ms: get_u64(obj, "attack_burst_ms")? as u32,
            phase_ms: get_u64(obj, "attack_phase_ms")? as u32,
        },
        "flash-mimicry" => Attack::FlashMimicry {
            burst_kb: get_u64(obj, "attack_burst_kb")? as u16,
            think_ms: get_u64(obj, "attack_think_ms")? as u32,
        },
        "spoofed-request-storm" => Attack::SpoofedRequestStorm {
            src_pool: get_u64(obj, "attack_src_pool")? as u16,
            fill: get_u64(obj, "attack_fill")? as u8,
        },
        "rotating-identity" => Attack::RotatingIdentity {
            pool: get_u64(obj, "attack_pool")? as u16,
            rotate_ms: get_u64(obj, "attack_rotate_ms")? as u32,
        },
        other => return Err(format!("unknown attack {other:?}")),
    };
    Ok(ScenarioConfig {
        scheme: scheme_from_str(get_str(obj, "scheme")?)?,
        attack,
        n_attackers: get_u64(obj, "n_attackers")? as usize,
        n_users: get_u64(obj, "n_users")? as usize,
        transfers_per_user: get_u64(obj, "transfers_per_user")? as usize,
        file_size: get_u64(obj, "file_size")? as u32,
        bottleneck_bps: get_u64(obj, "bottleneck_bps")?,
        attacker_rate_bps: get_u64(obj, "attacker_rate_bps")?,
        request_fraction: get_u64(obj, "request_fraction_ppm")? as f64 / 1e6,
        grant: Grant::from_parts(
            get_u64(obj, "grant_kb")? as u16,
            get_u64(obj, "grant_secs")? as u8,
        ),
        attack_start: SimTime::from_nanos(get_u64(obj, "attack_start_ns")?),
        duration: SimTime::from_nanos(get_u64(obj, "duration_ns")?),
        failure_grace: SimDuration::from_nanos(get_u64(obj, "failure_grace_ns")?),
        measure_after: SimTime::from_nanos(get_u64(obj, "measure_after_ns")?),
        seed: get_seed(obj)?,
        siff_key_rotation: SimDuration::from_nanos(get_u64(obj, "siff_key_rotation_ns")?),
        siff_accept_previous: get_bool(obj, "siff_accept_previous")?,
        deny_attackers: get_bool(obj, "deny_attackers")?,
        per_queue_cap_bytes: opt_u64(obj, "per_queue_cap_bytes"),
        flow_sample_n: opt_u64(obj, "flow_sample_n").unwrap_or(0) as u32,
        request_limiter: match obj.get("request_limiter") {
            None => RequestLimiter::Flat,
            Some(v) => LIMITERS
                .iter()
                .find(|(_, name)| matches!(v, Value::String(s) if s == name))
                .map(|&(limiter, _)| limiter)
                .ok_or_else(|| format!("key \"request_limiter\": unknown limiter {v:?}"))?,
        },
        backup_path: opt_bool(obj, "backup_path"),
        faults: LinkFaults {
            loss_ppm: opt_u64(obj, "loss_ppm").unwrap_or(0) as u32,
            corrupt_ppm: opt_u64(obj, "corrupt_ppm").unwrap_or(0) as u32,
            outage: opt_u64(obj, "outage_period_ns").map(|period| DutyCycleOutage {
                period: SimDuration::from_nanos(period),
                down: SimDuration::from_nanos(opt_u64(obj, "outage_down_ns").unwrap_or(0)),
                phase: SimDuration::from_nanos(opt_u64(obj, "outage_phase_ns").unwrap_or(0)),
            }),
            down_at: opt_u64(obj, "link_down_ns").map(SimTime::from_nanos),
            up_at: opt_u64(obj, "link_up_ns").map(SimTime::from_nanos),
        },
    })
}

// ---------------------------------------------------------------------------
// Artifacts.

/// Composes the full replay-artifact document.
pub fn artifact_json(cfg: &ScenarioConfig, report: &CheckReport) -> Value {
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
pub fn write_artifact(
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
pub struct Artifact {
    /// What to re-run: the full scenario configuration, seed included.
    pub cfg: ScenarioConfig,
    /// Invariant labels the recorded run violated (the comparison key).
    pub violated: Vec<String>,
}

/// Reads and validates a replay artifact.
pub fn read_artifact(path: &Path) -> Result<Artifact, String> {
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
pub fn replay(artifact: &Artifact, check: &CheckConfig) -> Vec<String> {
    let (_, report) = run_checked(&artifact.cfg, check);
    report.violated_invariants().into_iter().map(str::to_string).collect()
}

// ---------------------------------------------------------------------------
// The fuzzer's configuration generator.

fn pick(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo < hi);
    lo + rng.next_u64() % (hi - lo)
}

fn chance(rng: &mut SmallRng, percent: u64) -> bool {
    rng.next_u64() % 100 < percent
}

/// Derives a randomized scenario (topology × attack × bottleneck faults)
/// from a seed. Runs are deliberately small (tens of simulated seconds, a
/// handful of hosts) so a fuzz batch of many seeds finishes in well under a
/// minute; the mapping is pure, so one seed is a complete reproduction
/// recipe.
pub fn random_config(seed: u64) -> ScenarioConfig {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF0DD_C0DE);
    let scheme = Scheme::ALL[pick(&mut rng, 0, 4) as usize];
    let attack = match pick(&mut rng, 0, 12) {
        0 => Attack::None,
        1 => Attack::LegacyFlood,
        2 => Attack::RequestFlood,
        3 => Attack::AuthorizedColluder,
        4 => Attack::ImpreciseAllAtOnce,
        5 => Attack::ImpreciseStaged {
            groups: pick(&mut rng, 2, 5) as usize,
            wave_secs: pick(&mut rng, 2, 6),
        },
        6 => Attack::Combined,
        7 => Attack::ColluderRing {
            ring: pick(&mut rng, 1, 5) as u8,
            wave_ms: pick(&mut rng, 200, 4_001) as u32,
            duty_pct: pick(&mut rng, 20, 101) as u8,
        },
        8 => Attack::PulseShrew {
            period_ms: pick(&mut rng, 100, 1_201) as u32,
            burst_ms: pick(&mut rng, 20, 101) as u32,
            phase_ms: pick(&mut rng, 0, 200) as u32,
        },
        9 => Attack::FlashMimicry {
            burst_kb: pick(&mut rng, 8, 65) as u16,
            think_ms: pick(&mut rng, 100, 2_001) as u32,
        },
        10 => Attack::SpoofedRequestStorm {
            src_pool: pick(&mut rng, 1, 257) as u16,
            fill: pick(&mut rng, 0, 33) as u8,
        },
        _ => Attack::RotatingIdentity {
            pool: pick(&mut rng, 2, 65) as u16,
            rotate_ms: pick(&mut rng, 50, 2_001) as u32,
        },
    };
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
        // The three request-channel structures each cover a third of
        // runs: the sketch limiter and prefix-hierarchical DRR carry their
        // own invariants for the auditors to chew on.
        request_limiter: LIMITERS[pick(&mut rng, 0, 3) as usize].0,
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
            request_limiter: RequestLimiter::Prefix,
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
        assert_eq!(back.request_limiter, diamond.request_limiter);
        assert_eq!((back.backup_path, back.faults), (true, diamond.faults));
        let fuzzed = [0, 1, 7, 42, u64::MAX - 3].map(random_config);
        for cfg in fuzzed.iter().chain([&diamond]) {
            let back = scenario_from_json(&scenario_to_json(cfg)).unwrap();
            assert_eq!(canonical(cfg), canonical(&back));
        }
    }

    #[test]
    fn strategy_attacks_roundtrip_with_parameters() {
        // Every strategic variant, with asymmetric parameters so a swapped
        // field shows up (satellite: replay artifacts must carry the
        // strategy name *and* its knobs).
        let attacks = [
            Attack::ColluderRing { ring: 3, wave_ms: 750, duty_pct: 40 },
            Attack::PulseShrew { period_ms: 1000, burst_ms: 60, phase_ms: 17 },
            Attack::FlashMimicry { burst_kb: 32, think_ms: 900 },
            Attack::SpoofedRequestStorm { src_pool: 128, fill: 7 },
            Attack::RotatingIdentity { pool: 24, rotate_ms: 350 },
        ];
        for attack in attacks {
            let cfg = ScenarioConfig { attack, n_attackers: 4, ..ScenarioConfig::default() };
            let back = scenario_from_json(&scenario_to_json(&cfg)).unwrap();
            assert_eq!(back.attack, attack, "lost parameters for {attack:?}");
        }
    }

    /// A seed whose draw has the detour, a TVA network under attack, and a
    /// bottleneck failure with recovery.
    const REROUTED_SEED: u64 = 112;

    #[test]
    fn artifact_roundtrips_through_disk() {
        // The second seed's run (and replay) re-converges through R3 and
        // back while the attack is on.
        let check = CheckConfig::enabled_default();
        let dir = std::env::temp_dir().join("tva-check-test-artifact");
        tva_obs::install_thread_flight(16);
        for seed in [3, REROUTED_SEED] {
            let cfg = random_config(seed);
            let (result, report) = run_checked(&cfg, &check);
            let name = format!("roundtrip-{seed}");
            let (path, flight) = write_artifact(&dir, &name, &artifact_json(&cfg, &report)).unwrap();
            let art = read_artifact(&path).unwrap();
            assert_eq!(canonical(&art.cfg), canonical(&cfg));
            assert_eq!(art.violated, report.violated_invariants());
            assert_eq!(replay(&art, &check), art.violated);
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
        let cfg = random_config(3);
        let path = std::env::temp_dir().join("tva-check-test-retired.json");
        let t = Value::Bool(true);
        // (key, value, in the config object or the artifact around it, rejected)
        let cases = [
            ("clock_cache", t.clone(), true, true),
            ("clock_cache", Value::Bool(false), true, false),
            ("sketched_requests", t.clone(), true, true),
            ("prefix_drr", t.clone(), true, true),
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
