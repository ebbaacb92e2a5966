//! The forwarding daemon binary.
//!
//! Subcommands:
//!
//! * `bench [--merge] [--force] [--out PATH]` — the loopback benchmark:
//!   pktgen → node over the SPSC virtual NIC pair on one thread, gated
//!   against the `node_*` keys in `BENCH_sim.json` (default `--out`).
//!   `--merge` records the new numbers (refused on a >10% regression
//!   unless `--force`); metrics are exported to
//!   `results/node_metrics.json` either way.
//! * `udp-demo` — generator and node on separate threads over loopback
//!   UDP sockets, reporting end-to-end latency percentiles measured at
//!   the generator.
//! * `serve --bind ADDR --peer ADDR [--stats ADDR]` — run the node over
//!   real UDP sockets until killed, printing a stats line every 5 seconds
//!   (pair with the standalone `pktgen` binary). With `--stats` (or
//!   `TVA_NODE_STATS_ADDR`), any datagram to that address is answered
//!   with one newline-delimited JSON metrics snapshot — the live
//!   introspection endpoint `tva-top` polls.
//!
//! Configuration comes from `TVA_NODE_*` environment variables (see the
//! `tva-node` crate docs or README for the table).

use std::time::{Duration, Instant};

use tva_node::harness::{self, summarize};
use tva_node::{NodeClock, NodeConfig, NodeEngine, StatsServer, UdpPort};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("bench");
    let cfg = NodeConfig::from_env();
    match cmd {
        "bench" => bench(&cfg, &args),
        "udp-demo" => udp_demo(&cfg),
        "serve" => serve(&cfg, &args),
        other => {
            eprintln!("tva-node: unknown command {other:?} (want bench|udp-demo|serve)");
            std::process::exit(2);
        }
    }
}

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn bench(cfg: &NodeConfig, args: &[String]) {
    let merge = args.iter().any(|a| a == "--merge");
    let force = args.iter().any(|a| a == "--force");
    let out = arg_value(args, "--out").unwrap_or("BENCH_sim.json");
    eprintln!(
        "node bench: {} mix, {} flows, batch {}, ring {}, {}ms ...",
        match cfg.mix {
            tva_node::MixKind::Clean => "clean",
            tva_node::MixKind::Contested => "contested",
            tva_node::MixKind::Dirty => "dirty",
        },
        cfg.flows,
        cfg.batch,
        cfg.ring_depth,
        cfg.duration_ms
    );
    // Telemetry-on A/B: the same run with flow sampling + flow records
    // enabled, so the live telemetry plane's cost is measured (and gated as
    // `node_pps_telemetry`) instead of assumed. Legs are interleaved
    // best-of-3 pairs — a single 1s shot per side swings ±10% on a shared
    // box and reads as phantom overhead (same lesson as the engine A/B).
    let sample_n = if cfg.sample_n == 0 { 16 } else { cfg.sample_n };
    let tcfg = NodeConfig { sample_n, ..cfg.clone() };
    // Bounded-state A/B: same traffic through a router whose request
    // channel is the count-min sketch — the constant-memory fast path,
    // gated as `node_pps_sketched`.
    let scfg = NodeConfig { sketched: true, ..cfg.clone() };
    const AB_REPS: usize = 3;
    let mut best: Option<(tva_node::NodeEngine, harness::NodeReport)> = None;
    let mut best_t: Option<(tva_node::NodeEngine, harness::NodeReport)> = None;
    let mut best_s: Option<(tva_node::NodeEngine, harness::NodeReport)> = None;
    for _ in 0..AB_REPS {
        let (n, r) = harness::run_loopback(cfg);
        if best.as_ref().is_none_or(|(_, b)| r.pps > b.pps) {
            best = Some((n, r));
        }
        let (tn, tr) = harness::run_loopback(&tcfg);
        if best_t.as_ref().is_none_or(|(_, b)| tr.pps > b.pps) {
            best_t = Some((tn, tr));
        }
        let (sn, sr) = harness::run_loopback(&scfg);
        if best_s.as_ref().is_none_or(|(_, b)| sr.pps > b.pps) {
            best_s = Some((sn, sr));
        }
    }
    let (node, mut report) = best.expect("at least one rep");
    let (tnode, treport) = best_t.expect("at least one rep");
    let (snode, sreport) = best_s.expect("at least one rep");
    println!("{}", summarize(&report));
    report.pps_telemetry = Some(treport.pps);
    let flow_records = tnode.router.flow.len() + tnode.sched.flow.len();
    println!(
        "telemetry on [1-in-{sample_n}]: {:.0} pps ({:+.1}% vs off, best of {AB_REPS}), {flow_records} flow records{}",
        treport.pps,
        (treport.pps / report.pps - 1.0) * 100.0,
        treport
            .allocs_per_pkt
            .map(|a| format!(", {a:.4} allocs/pkt"))
            .unwrap_or_default(),
    );
    report.pps_sketched = Some(sreport.pps);
    let sketched_state = (snode.router.table().state_bytes_estimate()
        + snode.sched.request_state_bytes()) as u64;
    report.state_bytes_sketched = Some(sketched_state);
    println!(
        "sketched state: {:.0} pps ({:+.1}% vs exact, best of {AB_REPS}), {sketched_state} policing-state bytes",
        sreport.pps,
        (sreport.pps / report.pps - 1.0) * 100.0,
    );

    std::fs::create_dir_all("results").expect("create results directory");
    let metrics = std::path::Path::new("results/node_metrics.json");
    tva_experiments::write_snapshot(metrics, "node", &harness::metrics_registry(&node, &report))
        .expect("write node_metrics.json");
    println!("wrote {}", metrics.display());

    let regressions = harness::gate(&report, out);
    for r in &regressions {
        eprintln!("REGRESSION >10%: {r}");
    }
    if !regressions.is_empty() && !force {
        eprintln!("refusing to update {out}; rerun with --force to accept");
        std::process::exit(1);
    }
    if merge {
        harness::merge_bench(&report, out);
        println!("merged node_* into {out}");
    }
}

fn udp_demo(cfg: &NodeConfig) {
    eprintln!("node udp-demo: loopback sockets, {}ms ...", cfg.duration_ms);
    let (node, report) = harness::run_udp(cfg).expect("loopback UDP sockets");
    println!("{}", summarize(&report));
    std::fs::create_dir_all("results").expect("create results directory");
    let metrics = std::path::Path::new("results/node_udp_metrics.json");
    tva_experiments::write_snapshot(metrics, "node-udp", &harness::metrics_registry(&node, &report))
        .expect("write node_udp_metrics.json");
    println!("wrote {}", metrics.display());
}

fn serve(cfg: &NodeConfig, args: &[String]) {
    let bind = arg_value(args, "--bind").unwrap_or("127.0.0.1:47001");
    let peer = arg_value(args, "--peer").unwrap_or("127.0.0.1:47002");
    let mut port = UdpPort::bind_connect(bind, peer).expect("bind UDP port");
    // The live stats socket: --stats ADDR or TVA_NODE_STATS_ADDR; off when
    // neither is given.
    let stats_addr = arg_value(args, "--stats")
        .map(str::to_string)
        .or_else(|| std::env::var("TVA_NODE_STATS_ADDR").ok().filter(|s| !s.trim().is_empty()));
    let mut stats = stats_addr.as_deref().map(|addr| {
        let s = StatsServer::bind(addr).expect("bind stats socket");
        eprintln!("node stats: {} (UDP poll -> NDJSON snapshot)", s.local_addr().unwrap());
        s
    });
    eprintln!("node serve: {bind} <-> {peer}, batch {} (ctrl-c to stop)", cfg.batch);
    let clock = NodeClock::new();
    let mut node = NodeEngine::new(cfg);
    let mut last = Instant::now();
    let mut last_tx = 0u64;
    let mut iter = 0u64;
    loop {
        let (rx, tx) = node.poll(&mut port, &clock, cfg.batch);
        iter = iter.wrapping_add(1);
        if rx == 0 && tx == 0 {
            // Idle: answer stats polls, then sleep off the busy-poll so an
            // unloaded daemon doesn't pin the core.
            if let Some(s) = stats.as_mut() {
                let _ = s.poll(&node, &clock);
            }
            std::thread::sleep(Duration::from_micros(200));
        } else if iter & 0x3F == 0 {
            // Busy: still answer stats polls, but only every 64th batch so
            // the recv syscall stays off the per-burst path.
            if let Some(s) = stats.as_mut() {
                let _ = s.poll(&node, &clock);
            }
        }
        if last.elapsed() >= Duration::from_secs(5) {
            let secs = last.elapsed().as_secs_f64();
            let pps = (node.stats.tx_frames - last_tx) as f64 / secs;
            eprintln!(
                "node: {:.0} pps, {} rx / {} tx / {} malformed / {} queue-drop, p99 {} ns",
                pps,
                node.stats.rx_frames,
                node.stats.tx_frames,
                node.stats.malformed_drops,
                node.stats.queue_drops,
                node.latency_ns.quantile(0.99),
            );
            last = Instant::now();
            last_tx = node.stats.tx_frames;
        }
    }
}
