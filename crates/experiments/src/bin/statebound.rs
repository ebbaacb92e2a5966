//! Bounded router state vs exact state: memory curves and hit-rate curves
//! (see `statebound` module docs).
//!
//! ```text
//! cargo run --release -p tva-experiments --bin statebound [-- --full] [--gate]
//! ```
//!
//! `--gate` makes the run self-asserting: bounded-mode state (and per-leg
//! peak RSS, measured via single-leg subprocesses) must stay flat (±10%)
//! from 10k to 100k concurrent flows while exact mode grows.
//!
//! Writes `results/statebound.{tsv,json}`. The artifacts contain only
//! deterministic fields (no RSS), so they are byte-identical across runs.

use tva_experiments::figrun::write_json;
use tva_experiments::report::{ascii_chart, Series};
use tva_experiments::statebound::{
    drive_leg, hit_rate_leg, vm_hwm_kb, HitPoint, MemPoint, Mode, HIT_SIZES,
};
use tva_experiments::{table, write_tsv};
use tva_sim::knobs::results_dir;

const HEADERS: [&str; 5] = ["section", "mode", "x", "metric", "value"];

/// The hit-rate panel's `mode` column and chart label (the flow cache's one
/// reclaim index).
const HIT_MODE: &str = "exact_ttl";

/// Runs one microstate leg in-process and prints a parseable record.
fn leg_main(mode: Mode, flows: usize) {
    let p = drive_leg(mode, flows);
    println!(
        "statebound-leg\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        p.mode.name(),
        p.flows,
        p.table_entries,
        p.table_bytes,
        p.request_keys,
        p.request_bytes,
        vm_hwm_kb().unwrap_or(0),
    );
}

/// A microstate leg measured in its own subprocess (honest per-leg peak
/// RSS). Falls back to in-process on spawn failure (RSS then unknown).
fn spawn_leg(mode: Mode, flows: usize) -> (MemPoint, Option<u64>) {
    let exe = std::env::current_exe().ok();
    if let Some(exe) = exe {
        let out = std::process::Command::new(exe)
            .args(["--leg", mode.name(), "--flows", &flows.to_string()])
            .output();
        if let Ok(out) = out {
            if out.status.success() {
                let text = String::from_utf8_lossy(&out.stdout);
                if let Some(parsed) = parse_leg_line(&text, mode, flows) {
                    return parsed;
                }
            }
        }
    }
    eprintln!("  [statebound] subprocess leg failed; measuring in-process (no per-leg RSS)");
    (drive_leg(mode, flows), None)
}

fn parse_leg_line(text: &str, mode: Mode, flows: usize) -> Option<(MemPoint, Option<u64>)> {
    let line = text.lines().find(|l| l.starts_with("statebound-leg\t"))?;
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 8 || f[1] != mode.name() || f[2].parse::<usize>().ok()? != flows {
        return None;
    }
    let p = MemPoint {
        mode,
        flows,
        table_entries: f[3].parse().ok()?,
        table_bytes: f[4].parse().ok()?,
        request_keys: f[5].parse().ok()?,
        request_bytes: f[6].parse().ok()?,
    };
    let rss = f[7].parse::<u64>().ok().filter(|&v| v > 0);
    Some((p, rss))
}

fn mem_rows(points: &[(MemPoint, Option<u64>)], rows: &mut Vec<Vec<String>>) {
    for (p, _) in points {
        let x = p.flows.to_string();
        let m = p.mode.name().to_string();
        let mut push = |metric: &str, value: String| {
            rows.push(vec!["memory".into(), m.clone(), x.clone(), metric.into(), value]);
        };
        push("table_entries", p.table_entries.to_string());
        push("table_bytes", p.table_bytes.to_string());
        push("request_keys", p.request_keys.to_string());
        push("request_bytes", p.request_bytes.to_string());
        push("total_bytes", p.total_bytes().to_string());
    }
}

fn hit_rows(points: &[HitPoint], rows: &mut Vec<Vec<String>>) {
    for p in points {
        let x = p.capacity.to_string();
        rows.push(vec![
            "hitrate".into(),
            HIT_MODE.into(),
            x.clone(),
            "hit_rate".into(),
            format!("{:.4}", p.hit_rate()),
        ]);
        rows.push(vec![
            "hitrate".into(),
            HIT_MODE.into(),
            x,
            "refused".into(),
            p.refused.to_string(),
        ]);
    }
}

fn gate(mem: &[(MemPoint, Option<u64>)], lo_flows: usize, hi_flows: usize) {
    let mut failures = Vec::new();
    let find = |mode: Mode, flows: usize| {
        mem.iter().find(|(p, _)| p.mode == mode && p.flows == flows).expect("leg present")
    };
    let (e_lo, e_rss_lo) = find(Mode::Exact, lo_flows);
    let (e_hi, e_rss_hi) = find(Mode::Exact, hi_flows);
    let (b_lo, b_rss_lo) = find(Mode::Bounded, lo_flows);
    let (b_hi, b_rss_hi) = find(Mode::Bounded, hi_flows);

    if b_hi.total_bytes() * 10 > b_lo.total_bytes() * 11 {
        failures.push(format!(
            "bounded state not flat: {} B @ {lo_flows} -> {} B @ {hi_flows} (> +10%)",
            b_lo.total_bytes(),
            b_hi.total_bytes()
        ));
    }
    if e_hi.total_bytes() < 3 * e_lo.total_bytes() {
        failures.push(format!(
            "exact state did not grow: {} B @ {lo_flows} -> {} B @ {hi_flows} (< 3x)",
            e_lo.total_bytes(),
            e_hi.total_bytes()
        ));
    }
    match (b_rss_lo.as_ref().copied(), b_rss_hi.as_ref().copied()) {
        (Some(lo), Some(hi)) => {
            if hi * 10 > lo * 11 {
                failures.push(format!(
                    "bounded peak RSS not flat: {lo} kB @ {lo_flows} -> {hi} kB @ {hi_flows} (> +10%)"
                ));
            }
        }
        _ => eprintln!("  [gate] per-leg RSS unavailable; bounded-RSS check skipped"),
    }
    if let (Some(lo), Some(hi)) = (e_rss_lo.as_ref().copied(), e_rss_hi.as_ref().copied()) {
        if hi < lo + lo / 5 {
            failures.push(format!(
                "exact peak RSS did not grow: {lo} kB @ {lo_flows} -> {hi} kB @ {hi_flows} (< +20%)"
            ));
        }
    }

    if failures.is_empty() {
        println!("statebound gate: OK");
    } else {
        for f in &failures {
            eprintln!("statebound gate: FAIL — {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--leg") {
        let mode = args.get(i + 1).and_then(|s| Mode::parse(s)).expect("--leg exact|bounded");
        let flows: usize = args
            .iter()
            .position(|a| a == "--flows")
            .and_then(|j| args.get(j + 1))
            .and_then(|s| s.parse().ok())
            .expect("--flows N");
        leg_main(mode, flows);
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let gating = args.iter().any(|a| a == "--gate");

    let flow_grid: &[usize] = if full { &[1_000, 10_000, 100_000, 200_000] } else { &[10_000, 100_000] };
    let hit_refs = if full { 200_000 } else { 30_000 };

    eprintln!("== statebound: exact vs bounded router state ==");
    eprintln!("  memory legs ({} flows grid, per-leg subprocesses)", flow_grid.len());
    let mut mem = Vec::new();
    for &mode in &[Mode::Exact, Mode::Bounded] {
        for &flows in flow_grid {
            let (p, rss) = spawn_leg(mode, flows);
            eprintln!(
                "  {} @ {:>7} flows: {:>7} entries, {:>9} B state, peak RSS {}",
                p.mode.name(),
                p.flows,
                p.table_entries,
                p.total_bytes(),
                rss.map_or("n/a".into(), |v| format!("{v} kB")),
            );
            mem.push((p, rss));
        }
    }

    eprintln!("  hit-rate legs ({} sizes, {hit_refs} refs)", HIT_SIZES.len());
    let hits: Vec<HitPoint> = HIT_SIZES.iter().map(|&size| hit_rate_leg(size, hit_refs)).collect();

    let mut rows = Vec::new();
    mem_rows(&mem, &mut rows);
    hit_rows(&hits, &mut rows);

    println!("statebound: bounded router state vs exact state\n");
    println!("{}", table(&HEADERS, &rows));
    let mem_series: Vec<Series> = [Mode::Exact, Mode::Bounded]
        .iter()
        .map(|&m| Series {
            label: m.name().into(),
            points: mem
                .iter()
                .filter(|(p, _)| p.mode == m)
                .map(|(p, _)| (p.flows as f64, p.total_bytes() as f64 / 1024.0))
                .collect(),
        })
        .collect();
    println!("{}", ascii_chart("statebound: state (KiB) vs concurrent flows", &mem_series, 60, 12));
    let hit_series = [Series {
        label: HIT_MODE.into(),
        points: hits.iter().map(|p| (p.capacity as f64, p.hit_rate())).collect(),
    }];
    println!("{}", ascii_chart("statebound: hit rate vs cache size", &hit_series, 60, 12));

    let path = results_dir().join("statebound.tsv");
    match write_tsv(&path, &HEADERS, &rows) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    write_json("statebound", &HEADERS, &rows);

    if gating {
        let lo = *flow_grid.iter().find(|&&f| f >= 10_000).unwrap_or(&flow_grid[0]);
        let hi = *flow_grid.last().expect("non-empty grid");
        gate(&mem, lo, hi);
    }
}
