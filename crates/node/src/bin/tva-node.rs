//! The forwarding daemon binary.
//!
//! Usage: `tva-node serve [--bind ADDR] [--peer ADDR] [--stats ADDR]`
//!
//! Runs the node over real UDP sockets until killed, printing a stats line
//! every 5 seconds (pair with the standalone `pktgen` binary). With
//! `--stats` (or `TVA_NODE_STATS_ADDR`), any datagram to that address is
//! answered with one newline-delimited JSON metrics snapshot — the live
//! introspection endpoint `tva-top` polls.
//!
//! Configuration comes from `TVA_NODE_*` environment variables (see the
//! `tva-node` crate docs or README for the table). The daemon's forwarding
//! rate is measured by the repo benchmark (`bash benchmark/run.sh`, the
//! `node_*` workloads in `BENCHMARK.json`), not by this binary.

use std::time::{Duration, Instant};

use tva_node::{NodeClock, NodeConfig, NodeEngine, StatsServer, UdpPort};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        eprintln!("usage: tva-node serve [--bind ADDR] [--peer ADDR] [--stats ADDR]");
        std::process::exit(2);
    }
    serve(&NodeConfig::from_env(), &args);
}

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
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
