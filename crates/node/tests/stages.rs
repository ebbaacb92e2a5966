//! `NodeEngine::poll` is exactly the sum of its public stages.
//!
//! The repo benchmark's traced runs do not instrument `poll`; they rebuild
//! it from the public functions it is made of — `decode_packet`, `Pkt::new`,
//! `TvaRouter::process`, `TvaScheduler::{enqueue, dequeue}`,
//! `encode_packet_into` — one batch-sized stage at a time, and attribute
//! `poll`'s cost to those stages. That attribution is only honest while
//! `poll` does nothing else. This test holds it: the same seeded generator
//! output goes through `poll` on one node and through the staged
//! composition on an identical second node at the same instants, and the
//! forwarded byte streams and every counter must come out identical. A
//! private fast path forked into `poll` (a fused decode-into-pool, a
//! skipped re-encode) shows up here as a diff, before it shows up as an
//! unexplained `node.stage_cover`.

use std::collections::VecDeque;

use tva_node::{MixKind, NodeClock, NodeConfig, NodeEngine, PktGen, Transport, NODE_INGRESS};
use tva_sim::{Enqueued, Pkt, QueueDisc, SimDuration, SimTime};
use tva_wire::ipcodec::{decode_packet, encode_packet_into};
use tva_wire::Packet;

/// A transport that is two queues: frames to receive, frames sent.
#[derive(Default)]
struct TapPort {
    rx: VecDeque<Vec<u8>>,
    tx: Vec<Vec<u8>>,
}

impl Transport for TapPort {
    fn rx_burst(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
        let n = max.min(self.rx.len());
        for frame in self.rx.drain(..n) {
            sink(&frame);
        }
        n
    }

    fn tx_frame(&mut self, fill: &mut dyn FnMut(&mut Vec<u8>)) -> bool {
        let mut frame = Vec::new();
        fill(&mut frame);
        self.tx.push(frame);
        true
    }
}

/// One `poll`'s worth of work on `node`, composed from the public stages in
/// the order the benchmark's trace runs them. Returns the frames sent.
fn staged_poll(
    node: &mut NodeEngine,
    frames: &[Vec<u8>],
    now: SimTime,
    batch: usize,
) -> Vec<Vec<u8>> {
    let mut decoded: Vec<Packet> = Vec::new();
    for frame in frames {
        node.stats.rx_frames += 1;
        node.stats.rx_bytes += frame.len() as u64;
        match decode_packet(frame) {
            Ok(p) => decoded.push(p),
            Err(_) => {
                node.stats.malformed_drops += 1;
                node.router.stats.malformed_drops += 1;
            }
        }
    }
    let mut held: Vec<Pkt> = decoded.into_iter().map(Pkt::new).collect();
    for pkt in held.iter_mut() {
        node.router.process(pkt, NODE_INGRESS, now);
    }
    for mut pkt in held {
        pkt.set_enqueued_at(now);
        if node.sched.enqueue(pkt, now) == Enqueued::Dropped {
            node.stats.queue_drops += 1;
        }
    }
    let mut out: Vec<Pkt> = Vec::new();
    while out.len() < batch {
        match node.sched.dequeue(now) {
            Some(pkt) => out.push(pkt),
            None => break,
        }
    }
    out.iter()
        .map(|pkt| {
            let mut frame = Vec::new();
            encode_packet_into(pkt, &mut frame);
            node.stats.tx_frames += 1;
            node.stats.tx_bytes += pkt.wire_len() as u64;
            frame
        })
        .collect()
}

fn poll_equals_its_stages(mix: MixKind, link_bps: u64) {
    const BURSTS: usize = 300;
    let cfg = NodeConfig { mix, link_bps, secret_seed: 0x5EED_0014, ..NodeConfig::default() };
    let batch = cfg.batch;
    let mut polled = NodeEngine::new(&cfg);
    let mut staged = NodeEngine::new(&cfg);
    let mut polled_port = TapPort::default();
    let mut staged_tx: Vec<Vec<u8>> = Vec::new();

    // Capabilities carry wall-clock seconds, so start from the real clock;
    // from there time advances 20 µs per burst, identically for both nodes.
    let mut now = NodeClock::new().now();
    let mut gen = PktGen::new(&cfg, now);
    let mut gen_port = TapPort::default();

    // The last bursts offer nothing, so both nodes drain their queues.
    for burst in 0..BURSTS + 40 {
        if burst < BURSTS {
            assert_eq!(gen.fill_burst(&mut gen_port, batch, now), batch);
        }
        let frames = std::mem::take(&mut gen_port.tx);

        polled_port.rx.extend(frames.iter().cloned());
        let (rx, _) = polled.poll(&mut polled_port, &NodeClock::stopped_at(now), batch);
        assert_eq!(rx, frames.len());

        staged_tx.extend(staged_poll(&mut staged, &frames, now, batch));
        now += SimDuration::from_micros(20);
    }

    assert!(polled.stats.tx_frames > 0, "{mix:?}: nothing was forwarded");
    assert_eq!(polled_port.tx.len(), staged_tx.len(), "{mix:?}: frames forwarded");
    for (i, (a, b)) in polled_port.tx.iter().zip(&staged_tx).enumerate() {
        assert_eq!(a, b, "{mix:?}: forwarded frame {i} differs");
    }
    // The stats structs are plain counters without `PartialEq`; their
    // `Debug` rendering names every field.
    let same = |what: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{mix:?}: {what}");
    };
    same("NodeStats", &polled.stats, &staged.stats);
    same("RouterStats", &polled.router.stats, &staged.router.stats);
    same("SchedulerStats", &polled.sched.stats, &staged.sched.stats);
    match mix {
        MixKind::Clean => {
            assert_eq!(polled.stats.tx_frames as usize, BURSTS * batch);
            assert!(polled.router.stats.nonce_hits > 0);
        }
        // On a 1 Gb/s link the request channel is over-subscribed, so the
        // comparison covers pacing and drops, not only the pass-through.
        MixKind::Contested => assert!(polled.sched.stats.requests_dropped > 0),
        MixKind::Dirty => assert!(polled.stats.malformed_drops > 0),
    }
}

#[test]
fn clean_mix_poll_equals_its_stages() {
    poll_equals_its_stages(MixKind::Clean, NodeConfig::default().link_bps);
}

#[test]
fn contested_mix_poll_equals_its_stages() {
    poll_equals_its_stages(MixKind::Contested, 1_000_000_000);
}

#[test]
fn dirty_mix_poll_equals_its_stages() {
    poll_equals_its_stages(MixKind::Dirty, 1_000_000_000);
}
