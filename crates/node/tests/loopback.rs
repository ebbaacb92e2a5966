//! The daemon end to end over its two transports: generator → node → sink.
//!
//! Over the ring pair everything runs on one thread, a fixed number of
//! bursts (no wall-clock window): the clean mix is forwarded with nothing
//! malformed, `reset_meters` puts node and scheduler on one counting window,
//! and `NodeEngine::observe` exports the `node.*` names the stats socket
//! serves. (That a warm node forwards without touching the heap is the root
//! `tests/zero_alloc.rs`, whose binary counts allocations.)
//! Over a loopback UDP pair the node runs on its own thread and the generator
//! measures end-to-end latency from IP-id send stamps.
//!
//! These are properties, not rates: the daemon's forwarding rate is the repo
//! benchmark's (`bash benchmark/run.sh`, the `node_*` workloads).

use std::time::{Duration, Instant};

use serde_json::Value;
use tva_node::{
    ring_pair, udp_pair, NodeClock, NodeConfig, NodeEngine, PktGen, RingPort, Transport,
};
use tva_obs::{Histogram, Registry};

/// Bursts before meters reset: enough to populate the packet pool, the flow
/// table and every queue's steady capacity.
const WARMUP_BURSTS: usize = 2_000;
/// Bursts in a measured window (× 64 frames per burst). With the warm-up it
/// stays inside every flow's first capability budget (~13 000 frames × 128
/// flows), so the window holds established flows only.
const BURSTS: usize = 1_000;

/// Generator, node and sink on one thread over the ring pair.
struct Loopback {
    node: NodeEngine,
    gen: PktGen,
    node_port: RingPort,
    wire: RingPort,
    clock: NodeClock,
    batch: usize,
}

impl Loopback {
    fn new(cfg: &NodeConfig) -> Self {
        let clock = NodeClock::new();
        let (node_port, wire) = ring_pair(cfg.ring_depth);
        Loopback {
            node: NodeEngine::new(cfg),
            gen: PktGen::new(cfg, clock.now()),
            node_port,
            wire,
            clock,
            batch: cfg.batch,
        }
    }

    /// A node past warm-up with its meters reset.
    fn warmed(cfg: &NodeConfig) -> Self {
        let mut lb = Loopback::new(cfg);
        lb.run(WARMUP_BURSTS);
        lb.node.reset_meters();
        lb
    }

    /// `bursts` × (one generator burst, one node poll, one sink drain).
    fn run(&mut self, bursts: usize) {
        for _ in 0..bursts {
            self.gen.fill_burst(&mut self.wire, self.batch, self.clock.now());
            self.node.poll(&mut self.node_port, &self.clock, self.batch);
            self.wire.rx_burst(self.batch, &mut |_| ());
        }
    }
}

#[test]
fn clean_mix_is_forwarded_whole() {
    let mut lb = Loopback::warmed(&NodeConfig::default());
    lb.run(BURSTS);
    let node = &lb.node;
    assert!(node.stats.tx_frames > 1000, "loopback must forward ({})", node.stats.tx_frames);
    assert_eq!(node.stats.malformed_drops, 0, "clean mix");
    let q = |p| node.latency_ns.quantile(p);
    assert!(q(0.5) <= q(0.99) && q(0.99) <= q(0.999));
    assert_eq!(node.latency_ns.count(), node.stats.tx_frames);
}

#[test]
fn layers_count_the_same_window() {
    // `reset_meters` after warm-up must zero the scheduler's counters with
    // the node's, or they keep the warm-up's traffic on top of the frames
    // the node reports. (The router's side, and every other identity
    // between the layers, is `tests/conservation.rs`.)
    let mut lb = Loopback::warmed(&NodeConfig::default());
    lb.run(BURSTS);
    let node = &lb.node;
    let ss = &node.sched.stats;
    // One dequeued frame may sit in `pending` behind TX backpressure.
    let sent = ss.regular_sent + ss.requests_sent + ss.legacy_sent;
    assert!(
        sent == node.stats.tx_frames || sent == node.stats.tx_frames + 1,
        "scheduler sent {sent}, node transmitted {}",
        node.stats.tx_frames
    );
}

#[test]
fn observe_exports_the_headline() {
    let mut lb = Loopback::warmed(&NodeConfig::default());
    lb.run(BURSTS);
    let mut reg = Registry::new();
    lb.node.observe(&mut reg);
    assert!(reg.counter_by_name("node.rx_frames").unwrap() > 0);
    let Value::Object(snap) = reg.snapshot() else { panic!() };
    let Some(Value::Object(hists)) = snap.get("histograms") else { panic!() };
    let Some(Value::Object(lat)) = hists.get("node.forward_latency_ns") else { panic!() };
    assert!(matches!(lat.get("p99"), Some(Value::Number(_))));
}

#[test]
fn udp_pair_measures_end_to_end() {
    let cfg = NodeConfig::default();
    let (mut node_port, mut wire) = udp_pair().expect("loopback sockets");
    let clock = NodeClock::new();
    let mut node = NodeEngine::new(&cfg);
    let mut gen = PktGen::new(&cfg, clock.now());
    gen.enable_latency_tracking();
    let batch = cfg.batch;
    let dur = Duration::from_millis(80);
    let mut e2e = Histogram::new();

    let node = std::thread::scope(|s| {
        let handle = s.spawn(move || {
            let clock = NodeClock::new();
            let t0 = Instant::now();
            // Run past the generator's window so in-flight frames drain.
            while t0.elapsed() < dur + Duration::from_millis(50) {
                let (rx, tx) = node.poll(&mut node_port, &clock, batch);
                if rx == 0 && tx == 0 {
                    std::thread::yield_now();
                }
            }
            node
        });

        // Socket-buffer drops are allowed: UDP makes no delivery promise.
        let t0 = Instant::now();
        while t0.elapsed() < dur {
            gen.fill_burst(&mut wire, batch, clock.now());
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

    assert!(node.stats.tx_frames > 100, "udp must forward ({})", node.stats.tx_frames);
    assert!(e2e.count() > 100, "e2e samples must arrive ({})", e2e.count());
    assert!(e2e.quantile(0.5) > 0);
}
