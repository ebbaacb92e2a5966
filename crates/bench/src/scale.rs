//! The internet-scale workload: the scenario harness's tree
//! ([`Shape::Tree`]), two orders of magnitude beyond the fig8 dumbbell,
//! timed and sized. [`ScaleConfig`] picks the population; the tree is
//! fig11's shape at 10 core × 10 access routers, and its wiring is the
//! scenario's.
//!
//! [`Shape::Tree`]: tva_experiments::Shape::Tree

use std::time::Instant;

use serde_json::Value;
use tva_experiments::{run_driven, snapshot_json, tsv, Files, ScenarioConfig, Size, TreeConfig};
use tva_sim::SimTime;
use tva_transport::FloodNode;

/// Parameters of one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Total hosts at the leaves (attackers included).
    pub hosts: usize,
    /// How many of the hosts flood requests (evenly interleaved).
    pub attackers: usize,
    /// Legitimate hosts actively transferring (the rest stay idle).
    pub active_users: usize,
    /// Simulated horizon in seconds.
    pub sim_secs: u64,
    /// Engine seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The full-size benchmark: 1M hosts, 100k attackers (the fig11 shape
    /// at the scale §5's argument is about).
    pub fn full() -> Self {
        ScaleConfig { hosts: 1_000_000, attackers: 100_000, active_users: 500, sim_secs: 2, seed: 3 }
    }

    /// A CI-sized variant (~10k hosts) with the same shape.
    pub fn quick() -> Self {
        ScaleConfig { hosts: 10_000, attackers: 1_000, active_users: 100, ..Self::full() }
    }
}

/// Headline numbers from one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Hosts built (attackers included).
    pub hosts: usize,
    /// Flooding hosts.
    pub attackers: usize,
    /// Routers built (root + mid + leaf).
    pub(crate) routers: usize,
    /// Engine events dispatched.
    pub events: u64,
    /// Seconds spent building the topology (routes included).
    pub build_s: f64,
    /// Seconds spent dispatching events.
    pub run_s: f64,
    /// Events per wall-clock second during dispatch.
    pub(crate) events_per_sec: f64,
    /// Packets the bottleneck (root→server) carried.
    pub bottleneck_tx_pkts: u64,
    /// Requests the attackers emitted.
    pub(crate) attack_pkts_emitted: u64,
    /// Transfers the active users completed.
    pub(crate) completed: usize,
    /// Their mean completion time in seconds (0 when none completed).
    pub(crate) mean_xfer_s: f64,
    /// Peak RSS attributable to this run in KiB: the kernel's high-water
    /// mark is reset before the build (see `alloc::reset_peak_rss`), so
    /// this is the run's own footprint, not whatever an earlier phase of
    /// the process happened to touch. Falls back to a before/after delta
    /// when the reset isn't permitted; `None` when procfs is unreadable.
    pub peak_rss_kb: Option<u64>,
    /// Invariant violations found when driven under `TVA_CHECK=1`
    /// (`Some(0)` = audited clean); `None` when checking was off.
    pub(crate) check_violations: Option<u64>,
}

/// [`run_scale`] under the name the repo benchmark (`benchmark/src/sim.rs`)
/// calls, from when the engine could be split into shards; only one shard
/// exists now. The next change to the benchmark switches that caller to
/// [`run_scale`] and drops this wrapper.
pub fn run_scale_with(cfg: ScaleConfig, shards: usize) -> ScaleRun {
    assert_eq!(shards, 1, "the engine runs one event loop");
    run_scale(cfg)
}

/// Builds the tree and runs the workload. Honors `TVA_CHECK` (drives the
/// run under the full invariant auditor set instead of a plain
/// `run_until`, and counts the violations).
pub fn run_scale(cfg: ScaleConfig) -> ScaleRun {
    assert!(cfg.attackers <= cfg.hosts, "attackers are a subset of hosts");
    let tree = TreeConfig { mid_routers: 10, leaf_routers_per_mid: 10, hosts: cfg.hosts };
    let scenario = ScenarioConfig {
        n_attackers: cfg.attackers,
        n_users: cfg.active_users,
        duration: SimTime::from_secs(cfg.sim_secs),
        seed: cfg.seed,
        ..ScenarioConfig::tree(tree)
    };
    let end = scenario.duration;

    let rss_before = crate::alloc::peak_rss_kb();
    let rss_reset = crate::alloc::reset_peak_rss();
    let t_build = Instant::now();
    let (mut build_s, mut run_s, mut check_violations) = (0.0, 0.0, None);
    let (mut routers, mut events, mut bottleneck_tx_pkts, mut attack_pkts_emitted) = (0, 0, 0, 0);
    let result = run_driven(
        &scenario,
        |sim, _| {
            build_s = t_build.elapsed().as_secs_f64();
            let t_run = Instant::now();
            check_violations = if tva_check::CheckConfig::from_env().enabled {
                let report = tva_experiments::check::drive_checked(sim, end);
                Some(report.violation_count() as u64)
            } else {
                sim.run_until(end);
                None
            };
            run_s = t_run.elapsed().as_secs_f64();
        },
        |sim, nodes| {
            routers = nodes.routers.len();
            events = sim.events_processed();
            bottleneck_tx_pkts = sim.channel(nodes.bottleneck.ab).stats.tx_pkts;
            attack_pkts_emitted =
                nodes.attackers.iter().map(|&n| sim.node::<FloodNode>(n).emitted).sum();
        },
    );
    let peak_rss_kb = match (crate::alloc::peak_rss_kb(), rss_reset) {
        (after, true) => after,
        (after, false) => after.zip(rss_before).map(|(a, b)| a.saturating_sub(b)),
    };
    ScaleRun {
        hosts: cfg.hosts,
        attackers: cfg.attackers,
        routers,
        events,
        build_s,
        run_s,
        events_per_sec: events as f64 / run_s.max(1e-9),
        bottleneck_tx_pkts,
        attack_pkts_emitted,
        completed: result.summary.completed,
        mean_xfer_s: result.summary.avg_completion_secs,
        peak_rss_kb,
        check_violations,
    }
}

/// `scale.{tsv,json}` and `scale_metrics.json`: engine throughput and
/// memory of the tree at [`ScaleConfig::full`] (1M hosts / 100k attackers)
/// or [`ScaleConfig::quick`] (10k hosts). Nothing gates on these numbers:
/// the repo's performance ledger is `BENCHMARK.json`, whose `sim_scale`
/// workload times the same tree at 100k hosts. Under `TVA_CHECK=1` the run
/// is audited and any violation is an error.
pub fn produce(size: Size) -> Result<Files, String> {
    produce_with(size, None, None)
}

/// [`produce`] with `hosts` and `secs` overriding the population (the
/// attackers and active users shrink to at most a tenth and a twentieth
/// of it) and the simulated horizon.
pub fn produce_with(size: Size, hosts: Option<usize>, secs: Option<u64>) -> Result<Files, String> {
    let mut cfg = match size {
        Size::Smoke => return Err("no smoke size (quick or full)".into()),
        Size::Quick => ScaleConfig::quick(),
        Size::Full => ScaleConfig::full(),
    };
    if let Some(n) = hosts {
        cfg.hosts = n;
        cfg.attackers = cfg.attackers.min(n / 10);
        cfg.active_users = cfg.active_users.min(n / 20);
    }
    cfg.sim_secs = secs.unwrap_or(cfg.sim_secs);
    eprintln!(
        "scale: {} hosts / {} attackers / {} active users, {}s simulated ...",
        cfg.hosts, cfg.attackers, cfg.active_users, cfg.sim_secs
    );
    let run = run_scale(cfg);
    eprintln!(
        "scale: built {} nodes in {:.2}s; {} events in {:.2}s = {:.0} events/s; peak RSS {}; \
         {} transfers completed, {:.3}s mean",
        run.hosts + run.routers + 1,
        run.build_s,
        run.events,
        run.run_s,
        run.events_per_sec,
        run.peak_rss_kb.map_or("n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1024.0)),
        run.completed,
        run.mean_xfer_s,
    );
    match run.check_violations {
        Some(v) if v > 0 => return Err(format!("{v} invariant violation(s)")),
        Some(_) => eprintln!("scale: invariant checker ran alongside: 0 violations"),
        None => {}
    }
    Ok(vec![
        ("scale.tsv".into(), tsv_report(&run)),
        ("scale.json".into(), json_report(&run)),
        ("scale_metrics.json".into(), snapshot_json("scale", &metrics_registry(&run))),
    ])
}

/// Folds the headline scale numbers into a metrics registry so the run is
/// exported in the same snapshot-document schema as the robustness sweep.
fn metrics_registry(r: &ScaleRun) -> tva_obs::Registry {
    let mut reg = tva_obs::Registry::new();
    let counters = [
        ("hosts", r.hosts as u64),
        ("attackers", r.attackers as u64),
        ("routers", r.routers as u64),
        ("events", r.events),
        ("bottleneck_tx_pkts", r.bottleneck_tx_pkts),
        ("attack_pkts_emitted", r.attack_pkts_emitted),
        ("completed", r.completed as u64),
        ("peak_rss_kb", r.peak_rss_kb.unwrap_or(0)),
    ];
    for (name, v) in counters.into_iter().chain(r.check_violations.map(|v| ("check_violations", v))) {
        let id = reg.counter(&format!("scale.{name}"));
        reg.set_counter(id, v);
    }
    let gauges = [
        ("build_s", r.build_s),
        ("run_s", r.run_s),
        ("events_per_sec", r.events_per_sec),
        ("mean_xfer_s", r.mean_xfer_s),
    ];
    for (name, v) in gauges {
        reg.set_gauge(&format!("scale.{name}"), v);
    }
    reg
}

fn tsv_report(r: &ScaleRun) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
    let row = vec![
        r.hosts.to_string(),
        r.attackers.to_string(),
        r.routers.to_string(),
        r.events.to_string(),
        format!("{:.3}", r.build_s),
        format!("{:.3}", r.run_s),
        format!("{:.0}", r.events_per_sec),
        r.bottleneck_tx_pkts.to_string(),
        r.attack_pkts_emitted.to_string(),
        r.completed.to_string(),
        format!("{:.3}", r.mean_xfer_s),
        opt(r.peak_rss_kb),
        opt(r.check_violations),
    ];
    let headers = [
        "hosts", "attackers", "routers", "events", "build_s", "run_s", "events_per_sec",
        "bottleneck_tx_pkts", "attack_pkts_emitted", "completed", "mean_xfer_s", "peak_rss_kb",
        "check_violations",
    ];
    tsv(&headers, &[row])
}

fn json_report(r: &ScaleRun) -> String {
    let ms = |s: f64| (s * 1000.0).round() / 1000.0;
    let fields = [
        ("hosts", r.hosts as f64),
        ("attackers", r.attackers as f64),
        ("routers", r.routers as f64),
        ("events", r.events as f64),
        ("build_s", ms(r.build_s)),
        ("run_s", ms(r.run_s)),
        ("events_per_sec", r.events_per_sec.round()),
        ("bottleneck_tx_pkts", r.bottleneck_tx_pkts as f64),
        ("attack_pkts_emitted", r.attack_pkts_emitted as f64),
        ("completed", r.completed as f64),
        ("mean_xfer_s", ms(r.mean_xfer_s)),
    ];
    let optional = [("peak_rss_kb", r.peak_rss_kb), ("check_violations", r.check_violations)];
    let optional = optional.into_iter().filter_map(|(k, v)| Some((k, v? as f64)));
    let map = fields.into_iter().chain(optional).map(|(k, v)| (k.to_string(), Value::Number(v)));
    serde_json::to_string_pretty(&Value::Object(map.collect())).expect("serializable") + "\n"
}
