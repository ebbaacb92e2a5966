//! The producers of Figures 8–11: run a grid, print the paper's rows,
//! chart the series, and return each figure's TSV and JSON.

use tva_obs::{ascii_chart, Series};

use crate::figures;
use crate::report::{records_json, table, tsv, Files, Size};
use crate::scenario::{ScenarioConfig, ScenarioResult, Scheme};
use crate::sweep::run_all;

/// Figure 8: legacy packet floods.
///
/// Each of 1–100 attackers floods legacy data at 1 Mb/s toward the
/// destination while 10 users repeat 20 KB transfers. TVA holds ~100%
/// completion at baseline time; SIFF degrades like (1 − p⁹); pushback knees
/// past ~40 attackers; the Internet collapses.
pub fn fig8(size: Size) -> Result<Files, String> {
    let configs = figures::fig8(size.fidelity()?);
    Ok(sweep_figure("fig8", "Figure 8: legacy traffic floods", configs))
}

/// Figure 9: request packet floods.
///
/// Attackers flood capability-request packets. TVA rate-limits and
/// fair-queues requests per path identifier, so legitimate requests still
/// pass; SIFF treats requests as legacy and fails like Figure 8; pushback
/// and the Internet see them as ordinary data.
pub fn fig9(size: Size) -> Result<Files, String> {
    let configs = figures::fig9(size.fidelity()?);
    Ok(sweep_figure("fig9", "Figure 9: request packet floods", configs))
}

/// Figure 10: authorized packet floods via a colluder.
///
/// A colluder behind the bottleneck grants capabilities to attackers, who
/// then flood authorized traffic. TVA's per-destination fair queuing splits
/// the bottleneck between the colluder and the destination (transfer time
/// 0.31 s → ≈0.33 s, 100% completion); SIFF starves once the authorized
/// flood exceeds the bottleneck.
pub fn fig10(size: Size) -> Result<Files, String> {
    let configs = figures::fig10(size.fidelity()?);
    Ok(sweep_figure("fig10", "Figure 10: authorized traffic floods (colluder)", configs))
}

/// Figure 11: imprecise authorization policies.
///
/// The destination grants everyone 32 KB / 10 s once and stops renewing
/// flooders. Under TVA the fine-grained byte budget caps each attacker, so
/// both the all-at-once and the 10-wave staged attacks disturb transfers
/// for only a few seconds. Under SIFF (3-second keys) each wave floods
/// unchecked until the next key transition.
pub fn fig11(size: Size) -> Result<Files, String> {
    let configs = figures::fig11(size.fidelity()?);
    Ok(timeseries_figure("fig11", "Figure 11: imprecise authorization policies", configs))
}

/// Runs a (scheme × attacker-count) grid and emits the two panels every
/// sweep figure in the paper has: completion fraction and mean transfer
/// time versus number of attackers.
fn sweep_figure(name: &str, title: &str, configs: Vec<ScenarioConfig>) -> Files {
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

    obs_pass(name, &results);
    files(name, &headers, &rows)
}

/// A figure's `<name>.tsv` and `<name>.json`.
fn files(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Files {
    vec![
        (format!("{name}.tsv"), tsv(headers, rows)),
        (format!("{name}.json"), records_json(headers, rows)),
    ]
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

/// Runs the Figure 11 time-series experiments and emits transfer time vs
/// transfer start time for each (scheme, attack shape).
fn timeseries_figure(name: &str, title: &str, configs: Vec<ScenarioConfig>) -> Files {
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

    files(name, &["series", "start_s", "duration_s"], &rows)
}
