//! The forwarding daemon binary.
//!
//! Subcommands:
//!
//! * `bench` — the loopback smoke: pktgen → node over the SPSC virtual NIC
//!   pair on one thread, three legs (exact state, telemetry on, sketched
//!   request limiter), one run each. It prints rates and gates nothing;
//!   the daemon's tracked numbers are the `node_*` workloads of
//!   `bash benchmark/run.sh` (`BENCHMARK.json`). Metrics are exported to
//!   `node_metrics.json` under `results/` (`TVA_RESULTS_DIR` overrides).
//! * `udp-demo` — generator and node on separate threads over loopback
//!   UDP sockets, reporting end-to-end latency percentiles measured at
//!   the generator; exports `node_udp_metrics.json` likewise.
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
        "bench" => bench(&cfg),
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

fn bench(cfg: &NodeConfig) {
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
    let (node, report) = harness::run_loopback(cfg);
    println!("{}", summarize(&report));

    // Second leg: the same run with flow sampling + flow records on, so the
    // live telemetry plane is exercised on the fast path (and shown not to
    // allocate there).
    let sample_n = if cfg.sample_n == 0 { 16 } else { cfg.sample_n };
    let (tnode, treport) = harness::run_loopback(&NodeConfig { sample_n, ..cfg.clone() });
    println!(
        "telemetry on [1-in-{sample_n}]: {:.0} pps, {} flow records{}",
        treport.pps,
        tnode.router.flow.len() + tnode.sched.flow.len(),
        treport.allocs_per_pkt.map(|a| format!(", {a:.4} allocs/pkt")).unwrap_or_default(),
    );

    // Third leg: same traffic through a router whose request channel is the
    // count-min sketch — the constant-memory fast path.
    let (snode, sreport) = harness::run_loopback(&NodeConfig { sketched: true, ..cfg.clone() });
    println!(
        "sketched state: {:.0} pps, {} policing-state bytes",
        sreport.pps,
        snode.router.table().state_bytes_estimate() + snode.sched.request_state_bytes(),
    );

    write_metrics("node_metrics.json", "node", &node, &report);
}

fn udp_demo(cfg: &NodeConfig) {
    eprintln!("node udp-demo: loopback sockets, {}ms ...", cfg.duration_ms);
    let (node, report) = harness::run_udp(cfg).expect("loopback UDP sockets");
    println!("{}", summarize(&report));
    write_metrics("node_udp_metrics.json", "node-udp", &node, &report);
}

/// Exports the run's registry snapshot under `results/` (`TVA_RESULTS_DIR`).
fn write_metrics(file: &str, label: &str, node: &NodeEngine, report: &harness::NodeReport) {
    let dir = tva_experiments::figrun::results_dir();
    std::fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(file);
    tva_experiments::write_snapshot(&path, label, &harness::metrics_registry(node, report))
        .expect("write metrics snapshot");
    println!("wrote {}", path.display());
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
