//! Standalone load generator: drives a remote `tva-node serve` over UDP.
//!
//! Usage: `pktgen [--bind ADDR] [--peer ADDR]`
//!
//! Emits the configured traffic mix (clean / contested / dirty) for the
//! configured run length, stamping IP ids so forwarded frames coming back
//! can be matched to their send times, and prints offered load, goodput,
//! and end-to-end latency percentiles. The secret seed must match the
//! node's or every capability-carrying frame will be demoted. README's
//! knob table names the variables that set all three.

use std::time::{Duration, Instant};

use tva_obs::Histogram;
use tva_node::pktgen::PktGen;
use tva_node::{NodeClock, NodeConfig, Transport, UdpPort};

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bind = arg_value(&args, "--bind").unwrap_or("127.0.0.1:47002");
    let peer = arg_value(&args, "--peer").unwrap_or("127.0.0.1:47001");
    let cfg = NodeConfig::from_env();
    let mut port = UdpPort::bind_connect(bind, peer).expect("bind UDP port");
    let clock = NodeClock::new();
    let mut gen = PktGen::new(&cfg, clock.now());
    gen.enable_latency_tracking();
    let mut e2e = Histogram::new();

    eprintln!(
        "pktgen: {bind} -> {peer}, {} flows, {}ms ...",
        cfg.flows, cfg.duration_ms
    );
    let dur = Duration::from_millis(cfg.duration_ms);
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let now = clock.now();
        gen.fill_burst(&mut port, cfg.batch, now);
        let now = clock.now();
        port.rx_burst(cfg.batch, &mut |frame| gen.record_e2e(frame, now, &mut e2e));
    }
    // Let stragglers drain before reporting.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(100) {
        let now = clock.now();
        if port.rx_burst(cfg.batch, &mut |frame| gen.record_e2e(frame, now, &mut e2e)) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let secs = dur.as_secs_f64();
    let s = &gen.stats;
    println!(
        "pktgen: offered {} ({:.0}/s: {} legit, {} request, {} spoofed, {} legacy, {} malformed), \
         {} returned",
        s.total(),
        s.total() as f64 / secs,
        s.legit,
        s.requests,
        s.spoofed,
        s.legacy,
        s.malformed,
        e2e.count(),
    );
    if e2e.count() > 0 {
        println!(
            "pktgen: e2e latency p50 {} / p99 {} / p999 {} ns (max {})",
            e2e.quantile(0.5),
            e2e.quantile(0.99),
            e2e.quantile(0.999),
            e2e.max(),
        );
    }
}
