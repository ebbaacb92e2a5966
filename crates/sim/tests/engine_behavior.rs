//! Engine-level behavioural tests: link timing, bottleneck saturation,
//! rate-limited queues waking the link, and determinism.

use tva_sim::{
    ChannelId, Ctx, DropTail, Enqueued, Node, Pkt, QueueDisc, SimDuration, SimTime,
    SinkNode, TokenBucket, TopologyBuilder,
};
use tva_wire::{Addr, Packet, PacketId};

const SRC: Addr = Addr::new(10, 0, 0, 1);
const DST: Addr = Addr::new(10, 0, 0, 2);

fn data_packet(id: u64, payload: u32) -> Packet {
    Packet { id: PacketId(id), src: SRC, dst: DST, cap: None, tcp: None, payload_len: payload }
}

/// Emits `count` packets of `payload` bytes as fast as the link accepts,
/// recording nothing: pure load.
struct Blaster {
    count: u64,
    payload: u32,
    sent: u64,
}

impl Node for Blaster {
    fn on_packet(&mut self, _pkt: Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut dyn Ctx) {
        // Enqueue everything at t=0; the egress queue serializes.
        while self.sent < self.count {
            let id = ctx.alloc_packet_id();
            let mut p = data_packet(0, self.payload);
            p.id = id;
            ctx.send_new(p);
            self.sent += 1;
        }
    }
}

/// Records arrival times.
#[derive(Default)]
struct Recorder {
    times: Vec<SimTime>,
}

impl Node for Recorder {
    fn on_packet(&mut self, _pkt: Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {
        self.times.push(_ctx.now());
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
}

#[test]
fn serialization_and_propagation_timing_are_exact() {
    // 1000-byte payload → 1020-byte wire packets on a 1 Mb/s link with 10 ms
    // propagation: first arrival at 8.16 ms + 10 ms, then every 8.16 ms.
    let mut t = TopologyBuilder::new();
    let src = t.add_node(Box::new(Blaster { count: 3, payload: 1000, sent: 0 }));
    let dst = t.add_node(Box::<Recorder>::default());
    t.bind_addr(src, SRC);
    t.bind_addr(dst, DST);
    t.link(
        src,
        dst,
        1_000_000,
        SimDuration::from_millis(10),
        Box::new(DropTail::new(1 << 20)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(1);
    sim.kick(src, 0);
    sim.run_until(SimTime::from_secs(10));
    let times = &sim.node::<Recorder>(dst).times;
    assert_eq!(times.len(), 3);
    let tx_ns = 1020u64 * 8 * 1000; // 8.16 ms in ns at 1 Mb/s
    let prop_ns = 10_000_000;
    for (i, &at) in times.iter().enumerate() {
        assert_eq!(at.as_nanos(), (i as u64 + 1) * tx_ns + prop_ns, "packet {i}");
    }
}

#[test]
fn queueing_delay_accounting_is_exact() {
    // Three packets enqueued at t=0 on a 1 Mb/s link: the first transmits
    // immediately (zero wait), the second waits one serialization time,
    // the third two — so sum = 3·tx and max = 2·tx, with tx = 8.16 ms.
    let mut t = TopologyBuilder::new();
    let src = t.add_node(Box::new(Blaster { count: 3, payload: 1000, sent: 0 }));
    let dst = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(src, SRC);
    t.bind_addr(dst, DST);
    let link = t.link(
        src,
        dst,
        1_000_000,
        SimDuration::from_millis(10),
        Box::new(DropTail::new(1 << 20)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(1);
    sim.kick(src, 0);
    sim.run_until(SimTime::from_secs(10));
    let stats = &sim.channel(link.ab).stats;
    let tx_ns = 1020u64 * 8 * 1000;
    assert_eq!(stats.tx_pkts, 3);
    assert_eq!(stats.queued_delay_ns, 3 * tx_ns);
    assert_eq!(stats.queued_delay_max_ns, 2 * tx_ns);
    assert!((stats.mean_queued_delay_s() - tx_ns as f64 / 1e9).abs() < 1e-12);
    // The idle reverse channel transmitted nothing and waited for nothing.
    assert_eq!(sim.channel(link.ba).stats.queued_delay_ns, 0);
}

#[test]
fn bottleneck_throughput_matches_bandwidth() {
    // Saturate a 10 Mb/s link for ~1 s; delivered bytes ≈ 1.25 MB.
    let mut t = TopologyBuilder::new();
    let src = t.add_node(Box::new(Blaster { count: 10_000, payload: 980, sent: 0 }));
    let dst = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(src, SRC);
    t.bind_addr(dst, DST);
    // Queue big enough to hold the backlog: this test is about the
    // serializer, not drops.
    t.link(
        src,
        dst,
        10_000_000,
        SimDuration::from_millis(1),
        Box::new(DropTail::new(100 << 20)),
        Box::new(DropTail::new(100 << 20)),
    );
    let mut sim = t.build(1);
    sim.kick(src, 0);
    sim.run_until(SimTime::from_secs(1));
    let got = sim.node::<SinkNode>(dst).bytes;
    let expect = 1_250_000u64;
    let err = got.abs_diff(expect) as f64 / expect as f64;
    assert!(err < 0.01, "delivered {got} bytes, expected ≈{expect}");
}

/// A rate-limited queue: FIFO gated by a token bucket. Exercises
/// `next_ready` channel wake-ups.
struct RateLimited {
    inner: DropTail,
    bucket: TokenBucket,
}

impl QueueDisc for RateLimited {
    fn enqueue(&mut self, pkt: Pkt, now: SimTime) -> Enqueued {
        self.inner.enqueue(pkt, now)
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Pkt> {
        // Peek via len; DropTail has no peek, so dequeue+reinsert would
        // reorder. Instead check affordability of a nominal head by trying:
        // we know all test packets are the same size.
        if self.inner.len_pkts() == 0 {
            return None;
        }
        let head_len = 1020u32;
        if self.bucket.try_consume(head_len, now) {
            self.inner.dequeue(now)
        } else {
            None
        }
    }
    fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        if self.inner.len_pkts() == 0 {
            return None;
        }
        Some(now + self.bucket.time_until(1020, now))
    }
    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }
    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
}

#[test]
fn rate_limited_queue_wakes_idle_link() {
    // 10 packets through a 10 Mb/s link, but the bucket only allows
    // 10200 bytes/s (10 packets/s): delivery takes ~0.9 s even though the
    // link could do it in ~8 ms.
    let mut t = TopologyBuilder::new();
    let src = t.add_node(Box::new(Blaster { count: 10, payload: 1000, sent: 0 }));
    let dst = t.add_node(Box::<Recorder>::default());
    t.bind_addr(src, SRC);
    t.bind_addr(dst, DST);
    t.link(
        src,
        dst,
        10_000_000,
        SimDuration::from_millis(1),
        Box::new(RateLimited {
            inner: DropTail::new(1 << 20),
            bucket: TokenBucket::new(10_200, 1020),
        }),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(1);
    sim.kick(src, 0);
    sim.run_until(SimTime::from_secs(5));
    let times = &sim.node::<Recorder>(dst).times;
    assert_eq!(times.len(), 10);
    let last = times.last().unwrap().as_secs_f64();
    assert!(
        (0.85..=1.0).contains(&last),
        "last arrival at {last}s, expected ≈0.9s under the 1-packet/100ms limit"
    );
}

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| -> Vec<u64> {
        let mut t = TopologyBuilder::new();
        let src = t.add_node(Box::new(Blaster { count: 50, payload: 700, sent: 0 }));
        let dst = t.add_node(Box::<Recorder>::default());
        t.bind_addr(src, SRC);
        t.bind_addr(dst, DST);
        t.link(
            src,
            dst,
            1_000_000,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(1 << 16)),
            Box::new(DropTail::new(1 << 16)),
        );
        let mut sim = t.build(seed);
        sim.kick(src, 0);
        sim.run_until(SimTime::from_secs(10));
        sim.node::<Recorder>(dst).times.iter().map(|t| t.as_nanos()).collect()
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn droptail_overflow_drops_are_counted() {
    let mut t = TopologyBuilder::new();
    let src = t.add_node(Box::new(Blaster { count: 100, payload: 1000, sent: 0 }));
    let dst = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(src, SRC);
    t.bind_addr(dst, DST);
    // Queue holds only ~10 packets.
    let l = t.link(
        src,
        dst,
        1_000_000,
        SimDuration::from_millis(1),
        Box::new(DropTail::new(10 * 1020)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(1);
    sim.kick(src, 0);
    sim.run_until(SimTime::from_secs(30));
    let stats = &sim.channel(l.ab).stats;
    // 1 in flight + 10 queued accepted initially; some drain during the
    // burst is impossible (all enqueued at t=0), so 89 drop.
    assert_eq!(stats.dropped_pkts + stats.enqueued_pkts, 100);
    assert!(stats.dropped_pkts >= 85, "got {} drops", stats.dropped_pkts);
    assert_eq!(sim.node::<SinkNode>(dst).received, stats.enqueued_pkts);
}

#[test]
fn tracer_observes_every_packet_event() {
    use std::sync::{Arc, Mutex};
    use tva_sim::{TraceCounts, TraceKind};

    let mut t = TopologyBuilder::new();
    let src = t.add_node(Box::new(Blaster { count: 20, payload: 1000, sent: 0 }));
    let dst = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(src, SRC);
    t.bind_addr(dst, DST);
    // A tiny queue so some drops occur.
    t.link(
        src,
        dst,
        1_000_000,
        SimDuration::from_millis(1),
        Box::new(DropTail::packets(5)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(9);
    let counts = Arc::new(Mutex::new(TraceCounts::default()));
    let lines = Arc::new(Mutex::new(Vec::<String>::new()));
    {
        let counts = counts.clone();
        let lines = lines.clone();
        sim.set_tracer(Some(Box::new(move |ev| {
            counts.lock().unwrap().record(ev);
            if ev.kind == TraceKind::Dropped {
                lines.lock().unwrap().push(tva_sim::format_event(ev));
            }
        })));
    }
    sim.kick(src, 0);
    sim.run_until(SimTime::from_secs(5));
    let c = counts.lock().unwrap().clone();
    assert_eq!(c.enqueued + c.dropped, 20, "every offer traced");
    assert!(c.dropped >= 10, "the 5-packet queue must drop most of the burst");
    assert_eq!(c.enqueued, c.tx_start, "all accepted packets transmit");
    assert_eq!(c.tx_start, c.delivered, "all transmitted packets arrive");
    let lines = lines.lock().unwrap();
    assert_eq!(lines.len() as u64, c.dropped);
    assert!(lines[0].starts_with("d "), "drop records use the 'd' sigil: {}", lines[0]);
}
