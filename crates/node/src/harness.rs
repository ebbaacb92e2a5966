//! Run harnesses: wire a [`PktGen`] to a [`NodeEngine`] over a transport,
//! measure, gate, export.
//!
//! * [`run_loopback`] — generator and node share one thread over the SPSC
//!   virtual NIC pair: the maximum-rate configuration (no socket syscalls,
//!   no cross-core traffic), and the one the `node_*` baseline gate tracks.
//! * [`run_udp`] — generator and node on separate threads over loopback
//!   UDP sockets: end-to-end percentiles measured at the generator from
//!   IP-id send stamps.
//!
//! [`merge_bench`] records the loopback headline into `BENCH_sim.json`
//! under the same 10% regression discipline as the simulator benchmarks:
//! pps may not drop, p99 forwarding latency may not rise, beyond 10%
//! (plus a small absolute floor on the near-zero latency side), without
//! `--force`.

use std::time::{Duration, Instant};

use serde_json::{Map, Value};
use tva_bench::alloc;
use tva_obs::{Histogram, Registry};

use crate::node::{NodeClock, NodeEngine};
use crate::pktgen::{GenStats, PktGen};
use crate::transport::{ring_pair, udp_pair, Transport};
use crate::{MixKind, NodeConfig};

/// Fractional change beyond which the gate refuses without `--force`.
const GATE: f64 = 0.10;
/// Absolute p99 slack (ns) added to the ratio gate: sub-microsecond
/// baselines would otherwise trip on scheduler jitter dust.
const P99_FLOOR_NS: f64 = 200.0;
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
    /// Forwarded pps with flow sampling + flow records on (the
    /// telemetry-on A/B leg the `bench` subcommand runs; `None` when that
    /// leg didn't run).
    pub pps_telemetry: Option<f64>,
    /// Forwarded pps with the count-min sketched request limiter (the
    /// `bench` subcommand's third A/B leg; `None` when that leg didn't
    /// run).
    pub pps_sketched: Option<f64>,
    /// Policing-state bytes (flow cache + request channel) of the sketched
    /// leg's router after the run — the flat-memory gate input.
    pub state_bytes_sketched: Option<u64>,
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
        pps_telemetry: None,
        pps_sketched: None,
        state_bytes_sketched: None,
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

/// The single source of truth tying the flat `node_*` keys in
/// `BENCH_sim.json` (what the bench gate reads) to the dotted `node.*`
/// names in the metrics registry (what the daemon's snapshots export).
/// The two namespaces exist because the baseline file is flat
/// key-to-number JSON while the registry separates counters, gauges, and
/// histograms; this table is where they meet. Registry names of the form
/// `"hist:pXX"` resolve to quantile `pXX` of histogram `hist` in the
/// snapshot. `bench_key_resolves` below keeps the mapping honest: every
/// gated BENCH key must resolve against a live registry snapshot.
pub const BENCH_METRIC_MAP: &[(&str, &str)] = &[
    ("node_pps", "node.pps"),
    ("node_pps_telemetry", "node.pps_telemetry"),
    ("node_pps_sketched", "node.pps_sketched"),
    ("node_state_bytes_sketched", "node.state_bytes_sketched"),
    ("node_ns_per_pkt", "node.ns_per_pkt"),
    ("node_p50_ns", "node.forward_latency_ns:p50"),
    ("node_p99_ns", "node.forward_latency_ns:p99"),
    ("node_p999_ns", "node.forward_latency_ns:p999"),
    ("node_forwarded", "node.tx_frames"),
    ("node_run_s", "node.run_s"),
    ("node_allocs_per_pkt", "node.allocs_per_pkt"),
];

/// Whether `name` (a registry metric name from [`BENCH_METRIC_MAP`])
/// resolves in a registry snapshot: a counter, a gauge, or — with the
/// `"hist:pXX"` form — a histogram quantile.
pub fn metric_resolves(snapshot: &Value, name: &str) -> bool {
    let Value::Object(root) = snapshot else { return false };
    let section = |key: &str| match root.get(key) {
        Some(Value::Object(m)) => Some(m),
        _ => None,
    };
    if let Some((hist, q)) = name.split_once(':') {
        return section("histograms")
            .and_then(|h| h.get(hist))
            .is_some_and(|v| matches!(v, Value::Object(m) if m.get(q).is_some()));
    }
    section("counters").is_some_and(|m| m.get(name).is_some())
        || section("gauges").is_some_and(|m| m.get(name).is_some())
}

/// Extracts `"key": <number>` from a flat JSON object (the same minimal
/// parser the `bench` binary uses on `BENCH_sim.json`).
fn metric(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Gates `r` against the existing baseline at `path`. Returns the list of
/// regressions (empty = pass): pps dropping more than 10%, or p99 rising
/// more than 10% + [`P99_FLOOR_NS`].
pub fn gate(r: &NodeReport, path: &str) -> Vec<String> {
    let Ok(old) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut regressions = Vec::new();
    if let Some(old_pps) = metric(&old, "node_pps") {
        if r.pps < old_pps * (1.0 - GATE) {
            regressions.push(format!(
                "node pps: {old_pps:.0} -> {:.0} ({:+.1}%)",
                r.pps,
                (r.pps / old_pps - 1.0) * 100.0
            ));
        }
    }
    if let Some(old_p99) = metric(&old, "node_p99_ns") {
        if r.p99_ns as f64 > old_p99 * (1.0 + GATE) + P99_FLOOR_NS {
            regressions.push(format!(
                "node p99 latency: {old_p99:.0}ns -> {}ns",
                r.p99_ns
            ));
        }
    }
    if let (Some(t), Some(old_t)) = (r.pps_telemetry, metric(&old, "node_pps_telemetry")) {
        if t < old_t * (1.0 - GATE) {
            regressions.push(format!(
                "node pps (telemetry on): {old_t:.0} -> {t:.0} ({:+.1}%)",
                (t / old_t - 1.0) * 100.0
            ));
        }
    }
    if let (Some(s), Some(old_s)) = (r.pps_sketched, metric(&old, "node_pps_sketched")) {
        if s < old_s * (1.0 - GATE) {
            regressions.push(format!(
                "node pps (sketched state): {old_s:.0} -> {s:.0} ({:+.1}%)",
                (s / old_s - 1.0) * 100.0
            ));
        }
    }
    // Flat-memory gate: the bounded-state leg's policing footprint is a
    // deterministic function of its capacities, so any growth beyond the
    // 10% slack means a constant-memory structure stopped being constant.
    if let (Some(b), Some(old_b)) =
        (r.state_bytes_sketched, metric(&old, "node_state_bytes_sketched"))
    {
        if (b as f64) > old_b * (1.0 + GATE) {
            regressions.push(format!(
                "sketched-mode state bytes grew: {old_b:.0} -> {b} (must stay flat)"
            ));
        }
    }
    regressions
}

/// Merges the loopback headline into the flat baseline JSON at `path`
/// (read-modify-write: other benchmarks' keys are preserved).
pub fn merge_bench(r: &NodeReport, path: &str) {
    let mut map =
        match std::fs::read_to_string(path).ok().and_then(|s| serde_json::from_str(&s).ok()) {
            Some(Value::Object(m)) => m,
            _ => Map::new(),
        };
    map.insert("node_pps".into(), Value::Number(r.pps.round()));
    map.insert("node_ns_per_pkt".into(), Value::Number((r.ns_per_pkt * 10.0).round() / 10.0));
    map.insert("node_p50_ns".into(), Value::Number(r.p50_ns as f64));
    map.insert("node_p99_ns".into(), Value::Number(r.p99_ns as f64));
    map.insert("node_p999_ns".into(), Value::Number(r.p999_ns as f64));
    map.insert("node_forwarded".into(), Value::Number(r.forwarded as f64));
    map.insert("node_run_s".into(), Value::Number((r.duration_s * 1000.0).round() / 1000.0));
    if let Some(app) = r.allocs_per_pkt {
        map.insert(
            "node_allocs_per_pkt".into(),
            Value::Number((app * 10_000.0).round() / 10_000.0),
        );
    }
    if let Some(t) = r.pps_telemetry {
        map.insert("node_pps_telemetry".into(), Value::Number(t.round()));
    }
    if let Some(s) = r.pps_sketched {
        map.insert("node_pps_sketched".into(), Value::Number(s.round()));
    }
    if let Some(b) = r.state_bytes_sketched {
        map.insert("node_state_bytes_sketched".into(), Value::Number(b as f64));
    }
    let json = serde_json::to_string_pretty(&Value::Object(map)).expect("serializable");
    std::fs::write(path, json + "\n").expect("write baseline");
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
    if let Some(t) = r.pps_telemetry {
        g(&mut reg, "node.pps_telemetry", t);
    }
    if let Some(s) = r.pps_sketched {
        g(&mut reg, "node.pps_sketched", s);
    }
    if let Some(b) = r.state_bytes_sketched {
        g(&mut reg, "node.state_bytes_sketched", b as f64);
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
    fn gate_trips_on_regression_and_only_then() {
        let dir = std::env::temp_dir().join("tva_node_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let (_, mut r) = run_loopback(&quick_cfg());
        merge_bench(&r, path);
        assert!(gate(&r, path).is_empty(), "self-comparison must pass");
        r.pps /= 2.0;
        assert!(!gate(&r, path).is_empty(), "halved pps must trip");
        let (_, mut r2) = run_loopback(&quick_cfg());
        r2.p99_ns = r.p999_ns * 3 + 10_000;
        assert!(!gate(&r2, path).is_empty(), "tripled p99 must trip");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_key_resolves() {
        // Every gated BENCH node key must have a matching registry metric,
        // and everything merge_bench writes must appear in the map.
        let (node, mut r) = run_loopback(&quick_cfg());
        r.allocs_per_pkt.get_or_insert(0.0);
        r.pps_telemetry = Some(r.pps);
        r.pps_sketched = Some(r.pps);
        r.state_bytes_sketched = Some(1);
        let reg = metrics_registry(&node, &r);
        let snap = reg.snapshot();
        for (bench_key, metric_name) in BENCH_METRIC_MAP {
            assert!(
                metric_resolves(&snap, metric_name),
                "BENCH key {bench_key} maps to {metric_name}, absent from the registry snapshot"
            );
        }
        let dir = std::env::temp_dir().join("tva_node_map_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        merge_bench(&r, path.to_str().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let Value::Object(written) = serde_json::from_str(&text).unwrap() else { panic!() };
        for (key, _) in written.iter() {
            assert!(
                BENCH_METRIC_MAP.iter().any(|(b, _)| b == key),
                "merge_bench writes {key} but BENCH_METRIC_MAP does not document it"
            );
        }
        std::fs::remove_file(&path).ok();
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
