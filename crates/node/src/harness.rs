//! Run harnesses: wire a [`PktGen`] to a [`NodeEngine`] over a transport,
//! measure, export.
//!
//! * [`run_loopback`] — generator and node share one thread over the SPSC
//!   virtual NIC pair: the maximum-rate configuration (no socket syscalls,
//!   no cross-core traffic).
//! * [`run_udp`] — generator and node on separate threads over loopback
//!   UDP sockets: end-to-end percentiles measured at the generator from
//!   IP-id send stamps.
//!
//! Neither is a gate: the numbers they print are a smoke reading. The
//! daemon's forwarding rate is tracked by the repo benchmark
//! (`bash benchmark/run.sh`, the `node_*` workloads in `BENCHMARK.json`),
//! which drives the same `NodeEngine::poll` loop on its own.

use std::time::{Duration, Instant};

use tva_bench::alloc;
use tva_obs::{Histogram, Registry};

use crate::node::{NodeClock, NodeEngine};
use crate::pktgen::{GenStats, PktGen};
use crate::transport::{ring_pair, udp_pair, Transport};
use crate::{MixKind, NodeConfig};

/// Loopback warm-up before meters reset: long enough to populate the
/// packet pool, the flow table, and every queue's steady capacity.
const WARMUP: Duration = Duration::from_millis(50);

/// Headline numbers from one measured run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// `"ring"` or `"udp"`.
    pub transport: &'static str,
    /// `"clean"`, `"contested"`, or `"dirty"`.
    pub mix: &'static str,
    /// Measured wall seconds (post-warm-up).
    pub duration_s: f64,
    /// Frames the generator emitted.
    pub offered: u64,
    /// Frames the node forwarded.
    pub forwarded: u64,
    /// Forwarded frames per wall second.
    pub pps: f64,
    /// Wall nanoseconds per forwarded frame — the full pipeline cost
    /// (generate + decode + validate + schedule + encode) on one core.
    pub ns_per_pkt: f64,
    /// In-node RX→TX forwarding latency percentiles, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile forwarding latency.
    pub p99_ns: u64,
    /// 99.9th percentile forwarding latency.
    pub p999_ns: u64,
    /// Frames that failed strict wire decode.
    pub malformed_drops: u64,
    /// Packets refused by the egress scheduler's queue caps.
    pub queue_drops: u64,
    /// Heap allocations per forwarded frame in the measured window
    /// (`None` without the `alloc-count` feature).
    pub allocs_per_pkt: Option<f64>,
    /// Generator-side emission breakdown.
    pub gen: GenStats,
    /// End-to-end latency at the generator (UDP harness only).
    pub e2e: Option<Histogram>,
}

fn mix_name(mix: MixKind) -> &'static str {
    match mix {
        MixKind::Clean => "clean",
        MixKind::Contested => "contested",
        MixKind::Dirty => "dirty",
    }
}

fn report(
    transport: &'static str,
    cfg: &NodeConfig,
    node: &NodeEngine,
    gen_stats: GenStats,
    duration_s: f64,
    allocs: Option<u64>,
    e2e: Option<Histogram>,
) -> NodeReport {
    let forwarded = node.stats.tx_frames;
    NodeReport {
        transport,
        mix: mix_name(cfg.mix),
        duration_s,
        offered: gen_stats.total(),
        forwarded,
        pps: forwarded as f64 / duration_s,
        ns_per_pkt: duration_s * 1e9 / forwarded.max(1) as f64,
        p50_ns: node.latency_ns.quantile(0.5),
        p99_ns: node.latency_ns.quantile(0.99),
        p999_ns: node.latency_ns.quantile(0.999),
        malformed_drops: node.stats.malformed_drops,
        queue_drops: node.stats.queue_drops,
        allocs_per_pkt: allocs.map(|a| a as f64 / forwarded.max(1) as f64),
        gen: gen_stats,
        e2e,
    }
}

/// One generator step + one node poll + one sink drain. The sink counts
/// and discards; per-frame latency accounting lives in the node.
#[inline]
fn loopback_step(
    gen: &mut PktGen,
    node: &mut NodeEngine,
    node_port: &mut impl Transport,
    wire: &mut impl Transport,
    clock: &NodeClock,
    batch: usize,
) {
    gen.fill_burst(wire, batch, clock.now());
    node.poll(node_port, clock, batch);
    wire.rx_burst(batch, &mut |_| ());
}

/// Runs generator and node on one thread over the SPSC virtual NIC pair
/// for `cfg.duration_ms` (after a fixed warm-up) and returns the node
/// alongside the headline report, so callers can export its metrics.
pub fn run_loopback(cfg: &NodeConfig) -> (NodeEngine, NodeReport) {
    let clock = NodeClock::new();
    let mut node = NodeEngine::new(cfg);
    let mut gen = PktGen::new(cfg, clock.now());
    let (mut node_port, mut wire) = ring_pair(cfg.ring_depth);
    let batch = cfg.batch;

    let t0 = Instant::now();
    while t0.elapsed() < WARMUP {
        loopback_step(&mut gen, &mut node, &mut node_port, &mut wire, &clock, batch);
    }
    node.reset_meters();
    gen.stats = GenStats::default();
    let allocs_before = alloc::counting_enabled().then(alloc::alloc_count);

    let dur = Duration::from_millis(cfg.duration_ms);
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= dur {
            break;
        }
        // A handful of steps per clock check keeps the `Instant` read off
        // the per-batch path without overshooting the window noticeably.
        for _ in 0..8 {
            loopback_step(&mut gen, &mut node, &mut node_port, &mut wire, &clock, batch);
        }
    }
    let duration_s = t0.elapsed().as_secs_f64();
    let allocs = allocs_before.map(|b| alloc::alloc_count() - b);
    let rep = report("ring", cfg, &node, gen.stats, duration_s, allocs, None);
    (node, rep)
}

/// Runs the node on its own thread over loopback UDP, the generator on the
/// calling thread, for `cfg.duration_ms`. End-to-end latency is measured
/// at the generator by stamping IP ids. Socket-buffer drops show up as the
/// offered/forwarded gap — UDP makes no delivery promise and neither does
/// this harness.
pub fn run_udp(cfg: &NodeConfig) -> std::io::Result<(NodeEngine, NodeReport)> {
    let (mut node_port, mut wire) = udp_pair()?;
    let clock = NodeClock::new();
    let mut node = NodeEngine::new(cfg);
    let mut gen = PktGen::new(cfg, clock.now());
    gen.enable_latency_tracking();
    let batch = cfg.batch;
    let dur = Duration::from_millis(cfg.duration_ms);
    let mut e2e = Histogram::new();

    let node = std::thread::scope(|s| {
        let handle = s.spawn(move || {
            let clock = NodeClock::new();
            let t0 = Instant::now();
            // Run past the generator's window so in-flight frames drain.
            let horizon = dur + Duration::from_millis(50);
            while t0.elapsed() < horizon {
                let (rx, tx) = node.poll(&mut node_port, &clock, batch);
                if rx == 0 && tx == 0 {
                    std::thread::yield_now();
                }
            }
            node
        });

        let t0 = Instant::now();
        while t0.elapsed() < dur {
            let now = clock.now();
            gen.fill_burst(&mut wire, batch, now);
            let now = clock.now();
            wire.rx_burst(batch, &mut |frame| gen.record_e2e(frame, now, &mut e2e));
        }
        // Drain stragglers still in the node or socket buffers.
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            let now = clock.now();
            if wire.rx_burst(batch, &mut |frame| gen.record_e2e(frame, now, &mut e2e)) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        handle.join().expect("node thread must not panic")
    });

    let duration_s = dur.as_secs_f64();
    let rep = report("udp", cfg, &node, gen.stats, duration_s, None, Some(e2e));
    Ok((node, rep))
}

/// Formats the report as the human summary the binaries print.
pub fn summarize(r: &NodeReport) -> String {
    let mut s = format!(
        "node [{}/{}]: {:.0} pps ({} forwarded / {} offered in {:.3}s), \
         {:.0} ns/pkt, latency p50 {} / p99 {} / p999 {} ns, \
         {} malformed, {} queue drops",
        r.transport,
        r.mix,
        r.pps,
        r.forwarded,
        r.offered,
        r.duration_s,
        r.ns_per_pkt,
        r.p50_ns,
        r.p99_ns,
        r.p999_ns,
        r.malformed_drops,
        r.queue_drops,
    );
    if let Some(app) = r.allocs_per_pkt {
        s.push_str(&format!(", {app:.4} allocs/pkt"));
    }
    if let Some(e2e) = &r.e2e {
        s.push_str(&format!(
            "; e2e p50 {} / p99 {} ns over {} samples",
            e2e.quantile(0.5),
            e2e.quantile(0.99),
            e2e.count()
        ));
    }
    s
}

/// Folds node counters, the forwarding-latency histogram, and the report
/// headline (including e2e percentiles when present) into one registry for
/// snapshot export.
pub fn metrics_registry(node: &NodeEngine, r: &NodeReport) -> Registry {
    let mut reg = Registry::new();
    node.observe(&mut reg);
    let g = |reg: &mut Registry, name: &str, v: f64| {
        let id = reg.gauge(name);
        reg.set(id, v);
    };
    g(&mut reg, "node.pps", r.pps);
    g(&mut reg, "node.ns_per_pkt", r.ns_per_pkt);
    g(&mut reg, "node.run_s", r.duration_s);
    if let Some(app) = r.allocs_per_pkt {
        g(&mut reg, "node.allocs_per_pkt", app);
    }
    let c = |reg: &mut Registry, name: &str, v: u64| {
        let id = reg.counter(name);
        reg.set_counter(id, v);
    };
    c(&mut reg, "node.gen.legit", r.gen.legit);
    c(&mut reg, "node.gen.requests", r.gen.requests);
    c(&mut reg, "node.gen.spoofed", r.gen.spoofed);
    c(&mut reg, "node.gen.legacy", r.gen.legacy);
    c(&mut reg, "node.gen.malformed", r.gen.malformed);
    if let Some(e2e) = &r.e2e {
        let h = reg.hist("node.e2e_latency_ns");
        reg.histogram_mut(h).merge(e2e);
    }
    reg
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    use super::*;
    use crate::TransportKind;

    fn quick_cfg() -> NodeConfig {
        NodeConfig { duration_ms: 80, ..NodeConfig::default() }
    }

    #[test]
    fn loopback_run_reports_goodput_and_latency() {
        let (node, r) = run_loopback(&quick_cfg());
        assert!(r.forwarded > 1000, "loopback must forward packets ({})", r.forwarded);
        assert!(r.pps > 0.0);
        assert_eq!(r.malformed_drops, 0, "clean mix");
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        assert!(node.latency_ns.count() > 0);
    }

    #[test]
    fn loopback_layers_count_the_same_window() {
        // `reset_meters` after warm-up must zero the router's and the
        // scheduler's counters with the node's, or they keep 50 ms more
        // traffic than the frames the node reports.
        let (node, r) = run_loopback(&quick_cfg());
        let (rs, ss) = (&node.router.stats, &node.sched.stats);
        assert!(
            rs.nonce_hits + rs.full_validations <= node.stats.rx_frames,
            "router validated {} + {} packets of {} received",
            rs.nonce_hits,
            rs.full_validations,
            node.stats.rx_frames
        );
        // One dequeued frame may sit in `pending` behind TX backpressure.
        let sent = ss.regular_sent + ss.requests_sent + ss.legacy_sent;
        assert!(
            sent == node.stats.tx_frames || sent == node.stats.tx_frames + 1,
            "scheduler sent {sent}, node transmitted {}",
            node.stats.tx_frames
        );
        assert_eq!(r.forwarded, node.stats.tx_frames);
    }

    #[test]
    fn udp_run_measures_end_to_end() {
        let cfg = NodeConfig {
            duration_ms: 80,
            transport: TransportKind::Udp,
            ..NodeConfig::default()
        };
        let (_node, r) = run_udp(&cfg).expect("loopback sockets");
        assert!(r.forwarded > 100, "udp must forward packets ({})", r.forwarded);
        let e2e = r.e2e.as_ref().unwrap();
        assert!(e2e.count() > 100, "e2e samples must arrive ({})", e2e.count());
        assert!(e2e.quantile(0.5) > 0);
    }

    #[test]
    fn metrics_registry_has_the_headline() {
        let (node, r) = run_loopback(&quick_cfg());
        let reg = metrics_registry(&node, &r);
        assert!(reg.counter_by_name("node.rx_frames").unwrap() > 0);
        assert!(reg.counter_by_name("node.gen.legit").unwrap() > 0);
        let Value::Object(snap) = reg.snapshot() else { panic!() };
        let Some(Value::Object(hists)) = snap.get("histograms") else { panic!() };
        let Some(Value::Object(lat)) = hists.get("node.forward_latency_ns") else { panic!() };
        assert!(matches!(lat.get("p99"), Some(Value::Number(_))));
    }
}
