//! Robustness sweep: loss rate and mid-transfer link failure across
//! TVA / SIFF / legacy on the diamond testbed.
//!
//! ```text
//! cargo run --release -p tva-experiments --bin robustness [-- --quick|--full|--smoke]
//! ```
//!
//! `--smoke` runs a two-point loss sweep plus one mid-transfer link
//! failure, asserts TVA recovered via capability re-request over the
//! backup path, and writes nothing (CI fault-injection check).

use tva_experiments::figrun::{results_dir, write_json};
use tva_experiments::observe::write_snapshot;
use tva_experiments::robustness::{diamond, fold_metrics};
use tva_experiments::{
    run_all, table, write_tsv, LinkFaults, ScenarioConfig, ScenarioResult, Scheme,
};
use tva_sim::{SimDuration, SimTime};

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
    let f = &r.faults;
    vec![
        cfg.scheme.name().to_string(),
        format!("{loss:.3}"),
        format!("{corrupt:.3}"),
        fails.to_string(),
        r.summary.attempts.to_string(),
        r.summary.completed.to_string(),
        format!("{:.3}", r.summary.completion_fraction),
        format!("{:.3}", r.summary.avg_completion_secs),
        format!("{:.3}", r.summary.p95_secs),
        f.completed_after_failure.to_string(),
        f.reconvergences.to_string(),
        f.backup_pkts.to_string(),
        f.backup_requests_stamped.to_string(),
        f.backup_validations.to_string(),
        f.lost_pkts.to_string(),
        f.corrupted_pkts.to_string(),
        f.malformed_pkts.to_string(),
        f.malformed_drops.to_string(),
    ]
}

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

fn smoke() {
    eprintln!("== robustness --smoke: loss sweep + mid-transfer failure ==");
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
        assert!(r.summary.completion_fraction > 0.9, "TVA must ride out loss: {:?}", r.summary);
        assert_eq!(r.faults.lost_pkts > 0, lossy, "impairment fires iff configured");
    }
    let r = &runs[2].1.faults;
    eprintln!(
        "  failure: reconvergences={} backup_stamped={} completed_after={}",
        r.reconvergences, r.backup_requests_stamped, r.completed_after_failure
    );
    assert_eq!(r.reconvergences, 2, "failure + recovery re-converged");
    assert!(r.backup_requests_stamped > 0, "caps re-requested via backup: {r:?}");
    assert!(r.completed_after_failure > 0, "transfers completed post-failure: {r:?}");
    eprintln!("robustness smoke OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let full = args.iter().any(|a| a == "--full");

    // Per-packet probabilities in ppm: 0–20 % loss, 2–10 % corruption.
    let losses: &[u32] = if full {
        &[0, 10_000, 20_000, 50_000, 100_000, 150_000, 200_000]
    } else {
        &[0, 50_000, 100_000, 200_000]
    };
    let corrupts: &[u32] = if full { &[20_000, 100_000] } else { &[50_000] };

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

    let path = results_dir().join("robustness.tsv");
    match write_tsv(&path, &HEADERS, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    write_json("robustness", &HEADERS, &rows);

    let metrics_path = results_dir().join("robustness_metrics.json");
    match write_snapshot(&metrics_path, "robustness", &registry) {
        Ok(()) => println!("wrote {}", metrics_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", metrics_path.display()),
    }
}
