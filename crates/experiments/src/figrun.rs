//! Shared driver for the figure binaries: run a grid, print the paper's
//! rows, chart the series, write TSVs under `results/`.

use tva_obs::{ascii_chart, Series};
use tva_sim::knobs::results_dir;

use crate::report::{table, write_tsv};
use crate::scenario::{ScenarioConfig, ScenarioResult, Scheme};
use crate::sweep::run_all;

/// Runs a (scheme × attacker-count) grid and emits the two panels every
/// sweep figure in the paper has: completion fraction and mean transfer
/// time versus number of attackers.
pub fn run_sweep_figure(name: &str, title: &str, configs: Vec<ScenarioConfig>) {
    eprintln!("== {name}: {title} ({} runs) ==", configs.len());
    let results = run_all(configs);

    let mut rows = Vec::new();
    let mut frac_series: Vec<Series> = Vec::new();
    let mut time_series: Vec<Series> = Vec::new();
    for &scheme in &Scheme::ALL {
        let pts: Vec<&(ScenarioConfig, ScenarioResult)> =
            results.iter().filter(|(c, _)| c.scheme == scheme).collect();
        if pts.is_empty() {
            continue;
        }
        let mut fr = Vec::new();
        let mut tm = Vec::new();
        for (c, r) in pts {
            rows.push(vec![
                scheme.name().to_string(),
                c.n_attackers.to_string(),
                format!("{:.3}", r.summary.completion_fraction),
                format!("{:.3}", r.summary.avg_completion_secs),
                format!("{:.3}", r.summary.p95_secs),
                r.summary.attempts.to_string(),
                format!("{:.3}", r.bottleneck_drop_rate),
                format!("{:.3}", r.bottleneck_utilization),
            ]);
            fr.push((c.n_attackers as f64, r.summary.completion_fraction));
            tm.push((c.n_attackers as f64, r.summary.avg_completion_secs));
        }
        frac_series.push(Series { label: scheme.name().into(), points: fr });
        time_series.push(Series { label: scheme.name().into(), points: tm });
    }

    let headers =
        ["scheme", "attackers", "fraction", "time_s", "p95_s", "attempts", "drop_rate", "util"];
    println!("{title}\n");
    println!("{}", table(&headers, &rows));
    println!(
        "{}",
        ascii_chart(&format!("{name}: fraction of completion vs attackers"), &frac_series, 60, 12)
    );
    println!(
        "{}",
        ascii_chart(&format!("{name}: transfer time (s) vs attackers"), &time_series, 60, 12)
    );

    let path = results_dir().join(format!("{name}.tsv"));
    match write_tsv(&path, &headers, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    write_json(name, &headers, &rows);
    obs_pass(name, &results);
}

/// When `TVA_OBS` is enabled, re-runs the heaviest configuration of each
/// scheme with full observability: time-bucketed series, a metrics registry
/// snapshot, and packet-level traces. The sweep above is untouched, so its
/// TSV/JSON stay byte-identical with obs on or off; the dynamics panel
/// below is charted from the series JSON written to disk rather than
/// in-memory state, so the artifact itself is exercised.
fn obs_pass(name: &str, results: &[(ScenarioConfig, ScenarioResult)]) {
    let ocfg = tva_obs::ObsConfig::from_env();
    if !ocfg.enabled {
        return;
    }
    for &scheme in &Scheme::ALL {
        let Some((cfg, _)) =
            results.iter().filter(|(c, _)| c.scheme == scheme).max_by_key(|(c, _)| c.n_attackers)
        else {
            continue;
        };
        eprintln!("  [obs] {name} {} k={}", scheme.name(), cfg.n_attackers);
        let run = crate::observe::run_observed(cfg, &ocfg);
        let paths = match crate::observe::write_observed(name, &run, scheme, &ocfg) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("  [obs] write failed for {}: {e}", scheme.name());
                continue;
            }
        };
        for p in &paths {
            println!("wrote {}", p.display());
        }
        if let Some(dump) = &run.anomaly_dump {
            println!("flight recorder (drop-rate spike): {}", dump.display());
        }
        if let Some(points) = paths
            .iter()
            .find(|p| p.to_string_lossy().ends_with("_series.json"))
            .and_then(|p| series_from_json(p, "bottleneck.queue_pkts"))
        {
            println!(
                "{}",
                ascii_chart(
                    &format!("{name}: bottleneck queue depth (pkts) — {}", scheme.name()),
                    &[Series { label: scheme.name().into(), points }],
                    60,
                    10,
                )
            );
        }
    }
}

/// Reads one named column back out of a `*_series.json` artifact as
/// `(t, value)` points.
fn series_from_json(path: &std::path::Path, column: &str) -> Option<Vec<(f64, f64)>> {
    use serde_json::Value;
    let text = std::fs::read_to_string(path).ok()?;
    let doc = serde_json::from_str(&text).ok()?;
    let Value::Object(root) = doc else { return None };
    let Value::Array(times) = root.get("t")? else { return None };
    let Value::Object(series) = root.get("series")? else { return None };
    let Value::Array(vals) = series.get(column)? else { return None };
    let num = |v: &Value| match v {
        Value::Number(n) => Some(*n),
        _ => None,
    };
    times.iter().zip(vals).map(|(t, v)| Some((num(t)?, num(v)?))).collect()
}

/// Writes rows as a JSON array of string-valued records next to the TSV.
pub fn write_json(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let records: Vec<serde_json::Value> = rows
        .iter()
        .map(|row| {
            let map: serde_json::Map<String, serde_json::Value> = headers
                .iter()
                .zip(row)
                .map(|(h, v)| (h.to_string(), serde_json::Value::String(v.clone())))
                .collect();
            serde_json::Value::Object(map)
        })
        .collect();
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::write(&path, serde_json::to_string_pretty(&records).expect("serializable")) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Runs the Figure 11 time-series experiments and emits transfer time vs
/// transfer start time for each (scheme, attack shape).
pub fn run_timeseries_figure(name: &str, title: &str, configs: Vec<ScenarioConfig>) {
    eprintln!("== {name}: {title} ({} runs) ==", configs.len());
    let results = run_all(configs);

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (c, r) in &results {
        let label = format!(
            "{} {}",
            c.scheme.name(),
            match c.attack {
                crate::scenario::Attack::ImpreciseAllAtOnce => "all-at-once",
                crate::scenario::Attack::ImpreciseStaged { .. } => "staged",
                _ => "other",
            }
        );
        let mut pts = Vec::new();
        for t in &r.transfers {
            let start = t.started.as_secs_f64();
            // Failed transfers chart at the abort ceiling so outages are
            // visible, matching how the paper's plot saturates.
            let dur = t.duration_secs().unwrap_or(10.0);
            pts.push((start, dur));
            rows.push(vec![
                label.clone(),
                format!("{start:.2}"),
                t.duration_secs().map_or("abort".into(), |d| format!("{d:.3}")),
            ]);
        }
        series.push(Series { label, points: pts });
    }

    println!("{title}\n");
    for s in &series {
        let worst = s.points.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let mean = if s.points.is_empty() {
            0.0
        } else {
            s.points.iter().map(|&(_, d)| d).sum::<f64>() / s.points.len() as f64
        };
        println!("{:<24} transfers={:<5} mean={mean:.2}s worst={worst:.2}s", s.label, s.points.len());
    }
    println!();
    for s in &series {
        println!(
            "{}",
            ascii_chart(
                &format!("{name}: transfer time vs start time — {}", s.label),
                std::slice::from_ref(s),
                64,
                10
            )
        );
    }

    let path = results_dir().join(format!("{name}.tsv"));
    let headers = ["series", "start_s", "duration_s"];
    match write_tsv(&path, &headers, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    write_json(name, &headers, &rows);
}
