//! Internet-scale topology experiment: a fig11-style multi-path tree grown
//! to 1M hosts / 100k attackers, reporting engine throughput and memory
//! headline numbers into `scale.{tsv,json}` and `scale_metrics.json` under
//! `results/` (`TVA_RESULTS_DIR` overrides the directory). Nothing gates on
//! these numbers: the repo's performance ledger is `BENCHMARK.json`, run by
//! `bash benchmark/run.sh`, whose `sim_scale` workload times the same tree
//! at 100k hosts.
//!
//! Flags:
//!
//! * `--quick` — the CI-sized variant (~10k hosts, same shape)
//! * `--hosts N` / `--attackers N` / `--secs N` — override the population
//!   and simulated horizon
//!
//! Environment: `TVA_SHARDS=N` splits the engine into N lookahead-
//! synchronized shards (trace-equivalent to 1 shard: `events` and
//! `bottleneck_tx_pkts` in `scale.json` must not move, and `verify.sh`
//! compares them on the quick tree); `TVA_CHECK=1` runs the full
//! invariant-checker suite alongside and the binary exits non-zero on any
//! violation.

use serde_json::{Map, Value};
use tva_bench::scale::{run_scale, ScaleConfig, ScaleRun};
use tva_experiments::figrun::results_dir;

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    let v = args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("error: {flag} wants a number, got {v:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut cfg = if quick { ScaleConfig::quick() } else { ScaleConfig::full() };
    if let Some(n) = flag_value(&args, "--hosts") {
        cfg.hosts = n as usize;
        cfg.attackers = cfg.attackers.min(cfg.hosts / 10);
        cfg.active_users = cfg.active_users.min(cfg.hosts / 20);
    }
    if let Some(n) = flag_value(&args, "--attackers") {
        cfg.attackers = n as usize;
    }
    if let Some(n) = flag_value(&args, "--secs") {
        cfg.sim_secs = n;
    }

    eprintln!(
        "scale: {} hosts / {} attackers / {} active users, {}s simulated ...",
        cfg.hosts, cfg.attackers, cfg.active_users, cfg.sim_secs
    );
    let run = run_scale(cfg);
    eprintln!(
        "scale: built {} nodes in {:.2}s; {} events in {:.2}s = {:.0} events/s; \
         peak RSS {}; {} shard(s), {} cross-shard events",
        run.hosts + run.routers + 1,
        run.build_s,
        run.events,
        run.run_s,
        run.events_per_sec,
        run.peak_rss_kb.map_or("n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1024.0)),
        run.shards,
        run.cross_shard_events,
    );
    if let Some(v) = run.check_violations {
        eprintln!("scale: invariant checker ran alongside: {v} violation(s)");
    }

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create output directory");
    let (tsv, json, metrics) =
        (dir.join("scale.tsv"), dir.join("scale.json"), dir.join("scale_metrics.json"));
    std::fs::write(&tsv, tsv_report(&run)).expect("write scale.tsv");
    std::fs::write(&json, json_report(&run)).expect("write scale.json");
    tva_experiments::write_snapshot(&metrics, "scale", &metrics_registry(&run))
        .expect("write scale_metrics.json");
    println!("wrote {}, {} and {}", tsv.display(), json.display(), metrics.display());

    if run.check_violations.unwrap_or(0) > 0 {
        eprintln!("scale: FAILING on invariant violations (see above)");
        std::process::exit(1);
    }
}

/// Folds the headline scale numbers into a metrics registry so the run is
/// exported in the same snapshot-document schema as the robustness sweep.
fn metrics_registry(r: &ScaleRun) -> tva_obs::Registry {
    let mut reg = tva_obs::Registry::new();
    let c = |reg: &mut tva_obs::Registry, name: &str, v: u64| {
        let id = reg.counter(name);
        reg.set_counter(id, v);
    };
    c(&mut reg, "scale.hosts", r.hosts as u64);
    c(&mut reg, "scale.attackers", r.attackers as u64);
    c(&mut reg, "scale.routers", r.routers as u64);
    c(&mut reg, "scale.events", r.events);
    c(&mut reg, "scale.bottleneck_tx_pkts", r.bottleneck_tx_pkts);
    c(&mut reg, "scale.attack_pkts_emitted", r.attack_pkts_emitted);
    c(&mut reg, "scale.peak_rss_kb", r.peak_rss_kb.unwrap_or(0));
    c(&mut reg, "scale.shards", r.shards as u64);
    c(&mut reg, "scale.cross_shard_events", r.cross_shard_events);
    if let Some(v) = r.check_violations {
        c(&mut reg, "scale.check_violations", v);
    }
    let g = |reg: &mut tva_obs::Registry, name: &str, v: f64| {
        let id = reg.gauge(name);
        reg.set(id, v);
    };
    g(&mut reg, "scale.build_s", r.build_s);
    g(&mut reg, "scale.run_s", r.run_s);
    g(&mut reg, "scale.events_per_sec", r.events_per_sec);
    reg
}

fn tsv_report(r: &ScaleRun) -> String {
    let mut s = String::from(
        "hosts\tattackers\trouters\tevents\tbuild_s\trun_s\tevents_per_sec\
         \tbottleneck_tx_pkts\tattack_pkts_emitted\tpeak_rss_kb\tshards\
         \tcross_shard_events\tcheck_violations\n",
    );
    s.push_str(&format!(
        "{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.0}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        r.hosts,
        r.attackers,
        r.routers,
        r.events,
        r.build_s,
        r.run_s,
        r.events_per_sec,
        r.bottleneck_tx_pkts,
        r.attack_pkts_emitted,
        r.peak_rss_kb.map_or_else(|| "-".into(), |kb| kb.to_string()),
        r.shards,
        r.cross_shard_events,
        r.check_violations.map_or_else(|| "-".into(), |v| v.to_string()),
    ));
    s
}

fn json_report(r: &ScaleRun) -> String {
    let mut map = Map::new();
    map.insert("hosts".into(), Value::Number(r.hosts as f64));
    map.insert("attackers".into(), Value::Number(r.attackers as f64));
    map.insert("routers".into(), Value::Number(r.routers as f64));
    map.insert("events".into(), Value::Number(r.events as f64));
    map.insert("build_s".into(), Value::Number((r.build_s * 1000.0).round() / 1000.0));
    map.insert("run_s".into(), Value::Number((r.run_s * 1000.0).round() / 1000.0));
    map.insert("events_per_sec".into(), Value::Number(r.events_per_sec.round()));
    map.insert("bottleneck_tx_pkts".into(), Value::Number(r.bottleneck_tx_pkts as f64));
    map.insert("attack_pkts_emitted".into(), Value::Number(r.attack_pkts_emitted as f64));
    if let Some(kb) = r.peak_rss_kb {
        map.insert("peak_rss_kb".into(), Value::Number(kb as f64));
    }
    map.insert("shards".into(), Value::Number(r.shards as f64));
    map.insert("cross_shard_events".into(), Value::Number(r.cross_shard_events as f64));
    if let Some(v) = r.check_violations {
        map.insert("check_violations".into(), Value::Number(v as f64));
    }
    serde_json::to_string_pretty(&Value::Object(map)).expect("serializable") + "\n"
}
