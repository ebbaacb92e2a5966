//! Attack-strategy search: the damage frontier.
//!
//! The figure binaries reproduce the paper's *fixed* attacks; this module
//! asks the adversary's question instead: **which strategy hurts the most
//! per byte spent?** It samples randomized parameters for each strategy —
//! the rows of [`ATTACKS`] that declare a search draw, with their ranges —
//! runs every candidate against all four schemes on the Figure 7 testbed,
//! and scores each trial by *legitimate-goodput damage per attacker wire
//! byte*:
//!
//! ```text
//! damage = (baseline_completed − attacked_completed) × file_size
//! score  = damage / attacker_bytes_offered_at_the_access_links
//! ```
//!
//! A constant-rate authorized flood (the paper's §5.3 attacker) runs as the
//! reference point; the report marks the Pareto frontier over (attacker
//! bytes ↓, damage ↑) per scheme, so a strategy that beats the constant
//! flood with fewer bytes is visible at a glance. Everything is seeded —
//! parameter draws from [`SearchConfig::seed`], scenario runs from the same
//! fixed scenario seed — so the whole report is byte-identical across
//! repeats (the engine's determinism contract).
//!
//! The search parameters are [`SearchConfig::default`]; `--smoke` runs one
//! trial per strategy.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::check::draw;
use crate::figrun::write_json;
use crate::report::{table, write_tsv};
use crate::scenario::{run_inspect, Attack, AttackKind, ScenarioConfig, Scheme, ATTACKS};
use tva_core::{TvaRouterNode, TvaScheduler};
use tva_obs::{format_prefix24, FlowSampler};
use tva_sim::knobs::results_dir;
use tva_sim::{SimDuration, SimTime};

/// The kinds the search draws, in report order: the rows of [`ATTACKS`]
/// with a search draw. `const-flood` is the §5.3 constant-rate reference
/// every other strategy is judged against.
pub fn strategies() -> impl Iterator<Item = &'static AttackKind> {
    ATTACKS.iter().filter(|k| k.params.iter().any(|p| p.search.is_some()))
}

/// Search-loop parameters.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Randomized parameter draws per strategy (each runs on all schemes).
    pub trials: usize,
    /// Seed for the parameter draws (scenario runs use their own fixed
    /// seed, so this only selects *which* strategies are tried).
    pub seed: u64,
    /// Attacking hosts per run.
    pub n_attackers: usize,
    /// Simulated horizon per run, seconds.
    pub duration_secs: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { trials: 3, seed: 20050821, n_attackers: 10, duration_secs: 15 }
    }
}

/// One scored run of one strategy parameterization against one scheme.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Scheme under attack.
    pub scheme: Scheme,
    /// Strategy tag (a [`strategies`] name or `"const-flood"`).
    pub strategy: &'static str,
    /// The exact attack, parameters included (replayable).
    pub attack: Attack,
    /// Legitimate transfers completed under attack.
    pub completed: u64,
    /// Legitimate transfers completed with no attack (same seed).
    pub baseline_completed: u64,
    /// Goodput lost to the attack, in bytes.
    pub damage_bytes: u64,
    /// Wire bytes the attackers offered at their access links.
    pub attacker_bytes: u64,
    /// Damage per attacker byte (the search objective; 0 when free).
    pub score: f64,
    /// Whether this trial sits on the scheme's Pareto frontier
    /// (attacker bytes ↓, damage ↑).
    pub frontier: bool,
}

/// A compact, stable `k=v,k=v` rendering of an attack's parameters (`-`
/// when it has none).
pub fn attack_params(attack: Attack) -> String {
    let params = attack.kind().params.iter().zip(attack.params());
    let rendered: Vec<String> = params.map(|(p, v)| format!("{}={v}", p.key)).collect();
    if rendered.is_empty() {
        "-".into()
    } else {
        rendered.join(",")
    }
}

/// Draws one parameterization of `kind` from `rng` (see [`ATTACKS`] for
/// the ranges).
fn sample_attack(kind: &AttackKind, rng: &mut SmallRng) -> Attack {
    let values: Vec<u64> =
        kind.params.iter().map(|p| draw(rng, p.search.expect("a strategy parameter"))).collect();
    Attack::from_params(kind.name, &values).expect("search draws fit their fields")
}

/// The shared scenario shape: small and fast, users kept busy for the whole
/// horizon so completed-transfer counts measure goodput. The scenario seed
/// is fixed (not the search seed) so baseline and attacked runs differ only
/// by the attack.
fn base_config(scheme: Scheme, sc: &SearchConfig) -> ScenarioConfig {
    ScenarioConfig {
        scheme,
        attack: Attack::None,
        n_attackers: 0,
        n_users: 5,
        // More than any user can finish in the window: completions measure
        // throughput, not workload exhaustion.
        transfers_per_user: 400,
        file_size: 16 * 1024,
        attack_start: SimTime::from_secs(1),
        measure_after: SimTime::from_secs(1),
        duration: SimTime::from_secs(sc.duration_secs),
        failure_grace: SimDuration::from_secs(sc.duration_secs * 2),
        ..ScenarioConfig::default()
    }
}

/// Runs one configuration and returns (completed transfers, attacker wire
/// bytes offered). Under `TVA_CHECK=1` the run is audited and panics on
/// any invariant violation (the scenario driver's standard contract).
fn run_scored(cfg: &ScenarioConfig) -> (u64, u64) {
    let mut attacker_bytes = 0u64;
    let result = run_inspect(cfg, |sim, nodes| {
        for link in &nodes.attacker_links {
            let st = &sim.channel(link.ab).stats;
            attacker_bytes += st.enqueued_bytes + st.dropped_bytes;
        }
    });
    (result.summary.completed as u64, attacker_bytes)
}

/// Marks the Pareto frontier in place: a trial survives if no other trial
/// of the same scheme does at least as much damage for no more bytes (with
/// at least one strict). The const-flood reference competes too.
fn mark_frontier(trials: &mut [Trial]) {
    let snapshot: Vec<(Scheme, u64, u64)> =
        trials.iter().map(|t| (t.scheme, t.attacker_bytes, t.damage_bytes)).collect();
    for t in trials.iter_mut() {
        t.frontier = !snapshot.iter().any(|&(s, bytes, damage)| {
            s == t.scheme
                && bytes <= t.attacker_bytes
                && damage >= t.damage_bytes
                && (bytes < t.attacker_bytes || damage > t.damage_bytes)
        });
    }
}

/// Schemes against which at least one sampled strategy *strictly dominates*
/// the constant-rate flood: more damage for no more bytes, or the same
/// damage for strictly fewer bytes.
pub fn schemes_dominated(trials: &[Trial]) -> Vec<Scheme> {
    Scheme::ALL
        .into_iter()
        .filter(|&scheme| {
            let Some(reference) =
                trials.iter().find(|t| t.scheme == scheme && t.strategy == "const-flood")
            else {
                return false;
            };
            trials.iter().any(|t| {
                t.scheme == scheme
                    && t.strategy != "const-flood"
                    && t.attacker_bytes <= reference.attacker_bytes
                    && t.damage_bytes >= reference.damage_bytes
                    && (t.attacker_bytes < reference.attacker_bytes
                        || t.damage_bytes > reference.damage_bytes)
            })
        })
        .collect()
}

/// Runs the full search: for every scheme, a no-attack baseline, the
/// constant-flood reference, and `trials` parameter draws of each strategy
/// (the *same* draws across schemes, so rows are comparable), scored and
/// frontier-marked.
pub fn search(sc: &SearchConfig) -> Vec<Trial> {
    // Draw every strategy's parameter sets once, up front: scheme
    // comparisons then see identical adversaries.
    let mut plan: Vec<(&'static str, Attack)> =
        vec![("const-flood", Attack::AuthorizedColluder)];
    for (i, kind) in strategies().enumerate() {
        let mut rng = SmallRng::seed_from_u64(
            sc.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for _ in 0..sc.trials {
            plan.push((kind.name, sample_attack(kind, &mut rng)));
        }
    }

    let mut trials = Vec::new();
    for scheme in Scheme::ALL {
        let baseline_cfg = base_config(scheme, sc);
        let (baseline_completed, _) = run_scored(&baseline_cfg);
        eprintln!(
            "  [{}] baseline: {} transfers in {}s",
            scheme.name(),
            baseline_completed,
            sc.duration_secs
        );
        for &(strategy, attack) in &plan {
            let mut cfg = base_config(scheme, sc);
            cfg.attack = attack;
            cfg.n_attackers = sc.n_attackers;
            let (completed, attacker_bytes) = run_scored(&cfg);
            let damage_bytes =
                baseline_completed.saturating_sub(completed) * u64::from(cfg.file_size);
            let score = if attacker_bytes == 0 {
                0.0
            } else {
                damage_bytes as f64 / attacker_bytes as f64
            };
            trials.push(Trial {
                scheme,
                strategy,
                attack,
                completed,
                baseline_completed,
                damage_bytes,
                attacker_bytes,
                score,
                frontier: false,
            });
        }
    }
    mark_frontier(&mut trials);
    trials
}

/// Sampling rate for the attribution run: dense enough that a 15 s smoke
/// run yields stable per-prefix estimates, sparse enough to stay honest
/// about the sampled-telemetry workflow (this is the answer the live
/// `tva-top` table gives from the same records).
const ATTRIBUTION_SAMPLE_N: u32 = 4;

/// One row of the who-hurt-whom table: a source /24 prefix and its
/// sampled-and-scaled traffic estimate at the TVA routers.
#[derive(Debug, Clone)]
pub struct AttributionRow {
    /// Dotted source prefix, e.g. `66.0.0/24`.
    pub prefix: String,
    /// Estimated wire bytes this prefix offered (sampled count × N).
    pub est_bytes: u64,
    /// Estimated packets offered.
    pub est_pkts: u64,
    /// Estimated bytes the defense refused (demotions + queue drops).
    pub est_refused_bytes: u64,
}

/// Runs the colluder-ring reference attack against TVA with flow sampling
/// on and merges the samplers from both routers and the bottleneck's
/// egress scheduler into one per-prefix attribution table, sorted by
/// estimated bytes descending. This is per-prefix *attack attribution*:
/// the same sampled flow records the `tva-node` stats socket exports,
/// here naming the colluder-ring source prefix as the top offender.
pub fn attribute(sc: &SearchConfig) -> Vec<AttributionRow> {
    let mut cfg = base_config(Scheme::Tva, sc);
    cfg.attack =
        Attack::ColluderRing { ring: 3, wave_ms: 1000, duty_pct: 100 };
    cfg.n_attackers = sc.n_attackers;
    cfg.flow_sample_n = ATTRIBUTION_SAMPLE_N;
    let mut merged = FlowSampler::disabled();
    run_inspect(&cfg, |sim, nodes| {
        merged.merge(&sim.node::<TvaRouterNode>(nodes.r1).router.flow);
        merged.merge(&sim.node::<TvaRouterNode>(nodes.r2).router.flow);
        let disc = sim.channel(nodes.bottleneck.ab).queue_disc();
        if let Some(sched) =
            disc.as_any().and_then(|a| a.downcast_ref::<TvaScheduler>())
        {
            merged.merge(&sched.flow);
        }
    });
    merged
        .top_prefixes(16)
        .into_iter()
        .map(|(prefix, total, refused)| AttributionRow {
            prefix: format_prefix24(prefix),
            est_bytes: total.bytes,
            est_pkts: total.packets,
            est_refused_bytes: refused.bytes,
        })
        .collect()
}

/// Column headers of `results/attacks_attribution.tsv` / `.json`.
pub const ATTRIBUTION_HEADERS: [&str; 4] =
    ["prefix", "est_bytes", "est_pkts", "est_refused_bytes"];

/// Renders attribution rows for the report writers (integers only, so the
/// artifact is byte-stable across repeats).
pub fn attribution_rows(rows: &[AttributionRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.prefix.clone(),
                r.est_bytes.to_string(),
                r.est_pkts.to_string(),
                r.est_refused_bytes.to_string(),
            ]
        })
        .collect()
}

/// Writes `results/attacks_attribution.{tsv,json}` and returns the TSV
/// path.
pub fn write_attribution(rows: &[AttributionRow]) -> std::io::Result<std::path::PathBuf> {
    let rendered = attribution_rows(rows);
    let path = results_dir().join("attacks_attribution.tsv");
    write_tsv(&path, &ATTRIBUTION_HEADERS, &rendered)?;
    write_json("attacks_attribution", &ATTRIBUTION_HEADERS, &rendered);
    Ok(path)
}

/// Column headers of `results/attacks.tsv` / `.json`.
pub const HEADERS: [&str; 9] = [
    "scheme",
    "strategy",
    "params",
    "completed",
    "baseline",
    "damage_bytes",
    "attacker_bytes",
    "damage_per_byte",
    "frontier",
];

/// Renders trials into report rows (stable formatting: integers and
/// fixed-precision ratios only, so the artifact is byte-stable).
pub fn rows(trials: &[Trial]) -> Vec<Vec<String>> {
    trials
        .iter()
        .map(|t| {
            vec![
                t.scheme.name().to_string(),
                t.strategy.to_string(),
                attack_params(t.attack),
                t.completed.to_string(),
                t.baseline_completed.to_string(),
                t.damage_bytes.to_string(),
                t.attacker_bytes.to_string(),
                format!("{:.9}", t.score),
                if t.frontier { "1" } else { "0" }.to_string(),
            ]
        })
        .collect()
}

/// Writes `results/attacks.{tsv,json}` plus a schema-stable metrics
/// snapshot (`results/attacks_metrics.json`) carrying each strategy's best
/// trial per scheme through the tva-obs seam. Returns the TSV path.
pub fn write_reports(trials: &[Trial]) -> std::io::Result<std::path::PathBuf> {
    let rows = rows(trials);
    let path = results_dir().join("attacks.tsv");
    write_tsv(&path, &HEADERS, &rows)?;
    write_json("attacks", &HEADERS, &rows);

    let mut registry = tva_obs::Registry::new();
    for scheme in Scheme::ALL {
        for strategy in strategies().map(|k| k.name).chain(["const-flood"]) {
            let Some(best) = trials
                .iter()
                .filter(|t| t.scheme == scheme && t.strategy == strategy)
                .max_by(|a, b| a.score.total_cmp(&b.score))
            else {
                continue;
            };
            tva_obs::record_attack_damage(
                &mut registry,
                scheme.name(),
                strategy,
                best.damage_bytes,
                best.attacker_bytes,
                best.score,
            );
        }
    }
    let metrics_path = results_dir().join("attacks_metrics.json");
    crate::observe::write_snapshot(&metrics_path, "attacks", &registry)?;
    Ok(path)
}

/// Prints the report table and frontier summary to stdout.
pub fn print_report(trials: &[Trial]) {
    println!("{}", table(&HEADERS, &rows(trials)));
    for scheme in Scheme::ALL {
        let frontier: Vec<String> = trials
            .iter()
            .filter(|t| t.scheme == scheme && t.frontier)
            .map(|t| format!("{} ({})", t.strategy, attack_params(t.attack)))
            .collect();
        println!("{} frontier: {}", scheme.name(), frontier.join(" | "));
    }
    let dominated = schemes_dominated(trials);
    if dominated.is_empty() {
        println!("no strategy strictly dominates the constant-rate flood");
    } else {
        let names: Vec<&str> = dominated.iter().map(|s| s.name()).collect();
        println!("constant-rate flood strictly dominated against: {}", names.join(", "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_draws_are_deterministic() {
        let sc = SearchConfig { trials: 4, ..SearchConfig::default() };
        let draw = |sc: &SearchConfig| {
            let mut out = Vec::new();
            for (i, kind) in strategies().enumerate() {
                let mut rng = SmallRng::seed_from_u64(
                    sc.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                for _ in 0..sc.trials {
                    out.push(sample_attack(kind, &mut rng));
                }
            }
            out
        };
        assert_eq!(draw(&sc), draw(&sc));
    }

    #[test]
    fn frontier_marks_undominated_trials() {
        let attack = Attack::PulseShrew { period_ms: 200, burst_ms: 60, phase_ms: 0 };
        let t = |bytes, damage| Trial {
            scheme: Scheme::Tva,
            strategy: attack.name(),
            attack,
            completed: 0,
            baseline_completed: 0,
            damage_bytes: damage,
            attacker_bytes: bytes,
            score: 0.0,
            frontier: false,
        };
        // (bytes, damage): b dominates c; a and b are the frontier.
        let mut trials = vec![t(100, 50), t(200, 300), t(250, 300)];
        mark_frontier(&mut trials);
        assert!(trials[0].frontier);
        assert!(trials[1].frontier);
        assert!(!trials[2].frontier);
    }

    #[test]
    fn dominance_requires_strictness() {
        let mk = |strategy: &'static str, bytes, damage| Trial {
            scheme: Scheme::Siff,
            strategy,
            attack: Attack::AuthorizedColluder,
            completed: 0,
            baseline_completed: 0,
            damage_bytes: damage,
            attacker_bytes: bytes,
            score: 0.0,
            frontier: false,
        };
        let shrew = Attack::PulseShrew { period_ms: 200, burst_ms: 60, phase_ms: 0 }.name();
        // Equal in both dimensions: not a strict domination.
        let trials = vec![mk("const-flood", 100, 100), mk(shrew, 100, 100)];
        assert!(schemes_dominated(&trials).is_empty());
        // Fewer bytes, same damage: dominated.
        let trials = vec![mk("const-flood", 100, 100), mk(shrew, 90, 100)];
        assert_eq!(schemes_dominated(&trials), vec![Scheme::Siff]);
    }
}
