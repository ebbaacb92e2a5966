//! The robustness sweep: loss rate, corruption and a mid-transfer link
//! failure across TVA / SIFF / legacy on the diamond testbed. The diamond
//! is a [`ScenarioConfig`] preset with `backup_path`, whose users transfer
//! back-to-back for the whole run so a fault always lands mid-transfer;
//! a run's fault and recovery counters are exported as a metrics snapshot.

use tva_sim::{Counters, SimDuration, SimTime};

use crate::report::{records_json, table, tsv, Files, Size};
use crate::scenario::{FaultCounters, LinkFaults, ScenarioConfig, ScenarioResult, Scheme};
use crate::sweep::run_all;

/// The robustness testbed for `scheme`: five users on the diamond, each
/// transferring until the 120 s horizon, no attackers, a clean wire.
/// Callers set `faults` (and `seed`) on top.
pub fn diamond(scheme: Scheme) -> ScenarioConfig {
    ScenarioConfig {
        scheme,
        backup_path: true,
        n_users: 5,
        // Effectively "keep transferring until the horizon" (and exact in
        // a replay artifact's JSON numbers).
        transfers_per_user: u32::MAX as usize,
        duration: SimTime::from_secs(120),
        failure_grace: SimDuration::from_secs(30),
        ..ScenarioConfig::default()
    }
}

/// Folds one robustness result into a metrics registry under `prefix.`,
/// so a whole robustness sweep can be exported as a single snapshot
/// document (`results/robustness_metrics.json`). The key set per prefix is
/// schema-stable: every field is always present, even when zero.
pub fn fold_metrics(prefix: &str, r: &ScenarioResult, reg: &mut tva_obs::Registry) {
    for (name, v) in [("attempts", r.summary.attempts), ("completed", r.summary.completed)] {
        let id = reg.counter(&format!("{prefix}.{name}"));
        reg.set_counter(id, v as u64);
    }
    reg.set_counters(prefix, &r.faults);
    reg.set_gauge(&format!("{prefix}.completion_fraction"), r.summary.completion_fraction);
    reg.set_gauge(&format!("{prefix}.avg_completion_secs"), r.summary.avg_completion_secs);
    reg.set_gauge(&format!("{prefix}.p95_secs"), r.summary.p95_secs);
}

const SCHEMES: [Scheme; 3] = [Scheme::Internet, Scheme::Siff, Scheme::Tva];

fn base(scheme: Scheme, seed_salt: u64, faults: LinkFaults) -> ScenarioConfig {
    ScenarioConfig { seed: 20050821 ^ seed_salt, faults, ..diamond(scheme) }
}

fn loss(loss_ppm: u32) -> LinkFaults {
    LinkFaults { loss_ppm, ..LinkFaults::default() }
}

fn corrupt(corrupt_ppm: u32) -> LinkFaults {
    LinkFaults { corrupt_ppm, ..LinkFaults::default() }
}

/// A mid-transfer failure of the primary, with recovery.
fn failure(down_secs: u64, up_secs: u64, wire: LinkFaults) -> LinkFaults {
    LinkFaults {
        down_at: Some(SimTime::from_secs(down_secs)),
        up_at: Some(SimTime::from_secs(up_secs)),
        ..wire
    }
}

/// The configured (loss, corruption) probabilities and whether the primary fails.
fn wire(cfg: &ScenarioConfig) -> (f64, f64, u8) {
    let f = &cfg.faults;
    (f64::from(f.loss_ppm) / 1e6, f64::from(f.corrupt_ppm) / 1e6, u8::from(f.down_at.is_some()))
}

fn row(cfg: &ScenarioConfig, r: &ScenarioResult) -> Vec<String> {
    let (loss, corrupt, fails) = wire(cfg);
    let mut row = vec![
        cfg.scheme.name().to_string(),
        format!("{loss:.3}"),
        format!("{corrupt:.3}"),
        fails.to_string(),
        r.summary.attempts.to_string(),
        r.summary.completed.to_string(),
        format!("{:.3}", r.summary.completion_fraction),
        format!("{:.3}", r.summary.avg_completion_secs),
        format!("{:.3}", r.summary.p95_secs),
    ];
    row.extend(r.faults.counters().map(|(_, v)| v.to_string()));
    row
}

/// The fault columns are `FaultCounters` in declaration order, under the
/// tracked TSV's shorter names.
const HEADERS: [&str; 18] = [
    "scheme",
    "loss",
    "corrupt",
    "failure",
    "attempts",
    "completed",
    "fraction",
    "time_s",
    "p95_s",
    "completed_after_failure",
    "reconvergences",
    "backup_pkts",
    "backup_stamped",
    "backup_validated",
    "lost",
    "corrupted",
    "malformed",
    "malformed_drops",
];

const _: () = assert!(HEADERS.len() == 9 + FaultCounters::NAMES.len());

/// `robustness.{tsv,json}` and `robustness_metrics.json`: 21 runs at the
/// quick size, 33 at full. The smoke size runs a two-point loss sweep plus
/// one mid-transfer link failure, fails unless TVA recovered through
/// capability re-requests over the backup path, and writes nothing.
pub fn produce(size: Size) -> Result<Files, String> {
    // Per-packet probabilities in ppm: 0–20 % loss, 2–10 % corruption.
    let (losses, corrupts): (&[u32], &[u32]) = match size {
        Size::Smoke => return smoke().map(|()| Files::new()),
        Size::Quick => (&[0, 50_000, 100_000, 200_000], &[50_000]),
        Size::Full => (&[0, 10_000, 20_000, 50_000, 100_000, 150_000, 200_000], &[20_000, 100_000]),
    };
    let mut configs: Vec<ScenarioConfig> = Vec::new();
    for &scheme in &SCHEMES {
        for (i, &p) in losses.iter().enumerate() {
            configs.push(base(scheme, i as u64, loss(p)));
        }
        for (i, &p) in corrupts.iter().enumerate() {
            configs.push(base(scheme, 0x100 + i as u64, corrupt(p)));
        }
        // Mid-transfer failure with recovery, clean wire and lossy wire.
        configs.push(base(scheme, 0x200, failure(40, 80, LinkFaults::default())));
        configs.push(base(scheme, 0x201, failure(40, 80, loss(50_000))));
    }

    eprintln!("== robustness: {} runs ==", configs.len());
    let mut rows = Vec::new();
    let mut registry = tva_obs::Registry::new();
    for (cfg, r) in &run_all(configs) {
        let (loss, corrupt, fails) = wire(cfg);
        let prefix = format!("{}.loss{loss:.2}.corrupt{corrupt:.2}.fail{fails}", cfg.scheme.name());
        fold_metrics(&prefix, r, &mut registry);
        rows.push(row(cfg, r));
    }

    println!("robustness: impairments and link failure on the diamond testbed\n");
    println!("{}", table(&HEADERS, &rows));
    Ok(vec![
        ("robustness.tsv".into(), tsv(&HEADERS, &rows)),
        ("robustness.json".into(), records_json(&HEADERS, &rows)),
        ("robustness_metrics.json".into(), crate::observe::snapshot_json("robustness", &registry)),
    ])
}

fn smoke() -> Result<(), String> {
    eprintln!("== robustness smoke: loss sweep + mid-transfer failure ==");
    let quick = |salt: u64, faults: LinkFaults| ScenarioConfig {
        n_users: 2,
        duration: SimTime::from_secs(30),
        failure_grace: SimDuration::from_secs(10),
        ..base(Scheme::Tva, salt, faults)
    };
    let runs = run_all(vec![
        quick(0, loss(0)),
        quick(1, loss(100_000)),
        quick(99, failure(10, 20, LinkFaults::default())),
    ]);
    for (cfg, r) in &runs[..2] {
        let lossy = cfg.faults.loss_ppm > 0;
        eprintln!(
            "  loss_ppm={}: fraction={:.3} lost={}",
            cfg.faults.loss_ppm, r.summary.completion_fraction, r.faults.lost_pkts
        );
        if r.summary.completion_fraction <= 0.9 {
            return Err(format!("TVA must ride out loss: {:?}", r.summary));
        }
        if (r.faults.lost_pkts > 0) != lossy {
            return Err(format!("impairment must fire iff configured: {:?}", r.faults));
        }
    }
    let r = &runs[2].1.faults;
    eprintln!(
        "  failure: reconvergences={} backup_stamped={} completed_after={}",
        r.reconvergences, r.backup_requests_stamped, r.completed_after_failure
    );
    if r.reconvergences != 2 || r.backup_requests_stamped == 0 || r.completed_after_failure == 0 {
        return Err(format!(
            "failure + recovery must re-converge twice, re-request over the backup and complete after: {r:?}"
        ));
    }
    eprintln!("robustness smoke OK");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run;

    fn quick(scheme: Scheme) -> ScenarioConfig {
        ScenarioConfig {
            n_users: 2,
            duration: SimTime::from_secs(30),
            failure_grace: SimDuration::from_secs(10),
            ..diamond(scheme)
        }
    }

    fn failing(up_at: Option<SimTime>) -> LinkFaults {
        LinkFaults { down_at: Some(SimTime::from_secs(10)), up_at, ..LinkFaults::default() }
    }

    #[test]
    fn fold_metrics_key_set_is_schema_stable() {
        // The robustness snapshot's consumers key on exact metric names:
        // every field must appear under the prefix even when zero.
        let r = ScenarioResult {
            summary: tva_transport::summarize(&[]),
            transfers: Vec::new(),
            per_user: Vec::new(),
            bottleneck_drop_rate: 0.0,
            bottleneck_utilization: 0.0,
            faults: FaultCounters { reconvergences: 2, ..FaultCounters::default() },
        };
        let mut reg = tva_obs::Registry::new();
        fold_metrics("tva.loss0.00", &r, &mut reg);
        for key in ["attempts", "completed"].iter().chain(FaultCounters::NAMES) {
            assert!(
                reg.counter_by_name(&format!("tva.loss0.00.{key}")).is_some(),
                "missing counter {key}"
            );
        }
        assert_eq!(reg.counter_by_name("tva.loss0.00.reconvergences"), Some(2));
        let doc = crate::observe::snapshot_document("robustness", &reg);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        for top in ["\"label\"", "\"schema_version\"", "\"metrics\"", "\"gauges\""] {
            assert!(text.contains(top), "snapshot document missing {top}: {text}");
        }
    }

    #[test]
    fn clean_diamond_completes_on_the_primary() {
        let r = run(&quick(Scheme::Tva));
        assert!(r.summary.completion_fraction > 0.99, "{:?}", r.summary);
        assert_eq!(r.faults.reconvergences, 0);
        assert_eq!(r.faults.backup_pkts, 0, "primary is the shortest path");
    }

    #[test]
    fn the_backup_path_is_invisible_until_the_primary_fails() {
        // One property the two-harness split could not state: on a clean
        // wire the diamond and the dumbbell complete the same transfers.
        for scheme in Scheme::ALL {
            let diamond = run(&quick(scheme));
            let dumbbell = run(&ScenarioConfig { backup_path: false, ..quick(scheme) });
            assert_eq!(diamond.transfers, dumbbell.transfers, "{scheme:?}");
            assert!(diamond.summary.completed > 0, "{scheme:?}: {:?}", diamond.summary);
            assert_eq!(diamond.faults, FaultCounters::default(), "{scheme:?}");
        }
    }

    #[test]
    fn loss_on_the_primary_is_survived() {
        let faults = LinkFaults { loss_ppm: 100_000, ..LinkFaults::default() };
        let r = run(&ScenarioConfig { faults, ..quick(Scheme::Tva) });
        assert!(r.faults.lost_pkts > 0);
        assert!(
            r.summary.completion_fraction > 0.9,
            "retransmission rides out 10% loss: {:?}",
            r.summary
        );
    }

    #[test]
    fn tva_recovers_from_a_mid_transfer_link_failure() {
        let faults = failing(Some(SimTime::from_secs(20)));
        let r = run(&ScenarioConfig { faults, ..quick(Scheme::Tva) }).faults;
        assert_eq!(r.reconvergences, 2, "failure and recovery");
        assert!(r.backup_pkts > 0, "traffic moved to the backup path");
        assert!(
            r.backup_requests_stamped > 0,
            "capabilities were re-requested through R3: {r:?}"
        );
        assert!(
            r.backup_validations > 0,
            "re-issued capabilities validated at R3: {r:?}"
        );
        assert!(r.completed_after_failure > 0, "transfers kept completing: {r:?}");
    }

    #[test]
    fn legacy_also_reroutes_but_stamps_nothing() {
        let r = run(&ScenarioConfig { faults: failing(None), ..quick(Scheme::Internet) }).faults;
        assert_eq!(r.reconvergences, 1);
        assert!(r.backup_pkts > 0);
        assert_eq!(r.backup_requests_stamped, 0);
        assert!(r.completed_after_failure > 0);
    }
}
