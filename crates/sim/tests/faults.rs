//! Integration tests for the fault-injection subsystem: wire impairments,
//! runtime link failure with route re-convergence, and the determinism
//! guarantees around both.

use std::sync::{Arc, Mutex};

use tva_sim::{
    format_event, ChannelId, Ctx, DropTail, DutyCycleOutage, Impairments, Node, NodeId, Pkt,
    SimDuration, SimTime, Simulator, SinkNode, TopologyBuilder,
};
use tva_wire::{Addr, Packet, PacketId, WireError};

const SRC: Addr = Addr::new(10, 0, 0, 1);
const DST: Addr = Addr::new(10, 0, 0, 2);

fn q() -> Box<DropTail> {
    Box::new(DropTail::new(1 << 20))
}

fn pkt(id: u64, payload_len: u32) -> Packet {
    Packet { id: PacketId(id), src: SRC, dst: DST, cap: None, tcp: None, payload_len }
}

/// Forwards every arriving packet by destination routing.
struct Fwd;
impl Node for Fwd {
    fn on_packet(&mut self, pkt: Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        ctx.send(pkt);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
}

/// Emits one packet per millisecond until `remaining` runs out.
struct Blaster {
    remaining: u64,
    payload_len: u32,
    sent: u64,
}
impl Blaster {
    fn new(count: u64, payload_len: u32) -> Self {
        Blaster { remaining: count, payload_len, sent: 0 }
    }
}
impl Node for Blaster {
    fn on_packet(&mut self, _pkt: Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut dyn Ctx) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.sent += 1;
        let id = ctx.alloc_packet_id();
        ctx.send_new(Packet {
            id,
            src: SRC,
            dst: DST,
            cap: None,
            tcp: None,
            payload_len: self.payload_len,
        });
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
}

/// A sink that also counts malformed deliveries and records their errors.
#[derive(Default)]
struct MalformedSink {
    received: u64,
    malformed: u64,
    errors: Vec<WireError>,
}
impl Node for MalformedSink {
    fn on_packet(&mut self, _pkt: Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {
        self.received += 1;
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
    fn on_malformed(&mut self, error: WireError, _from: ChannelId, _ctx: &mut dyn Ctx) {
        self.malformed += 1;
        self.errors.push(error);
    }
}

/// Builds src —(impaired link)— dst and blasts `count` packets across it.
fn run_point_to_point(
    imp: Impairments,
    count: u64,
    payload_len: u32,
    seed: u64,
) -> (Simulator, NodeId, tva_sim::LinkHandle) {
    let mut t = TopologyBuilder::new();
    let s = t.add_node(Box::new(Blaster::new(count, payload_len)));
    let d = t.add_node(Box::<MalformedSink>::default());
    t.bind_addr(s, SRC);
    t.bind_addr(d, DST);
    let l = t.link(s, d, 10_000_000, SimDuration::from_millis(1), q(), q());
    t.impair_link(l, imp);
    let mut sim = t.build(seed);
    sim.kick(s, 0);
    sim.run_until(SimTime::from_secs(60));
    (sim, d, l)
}

#[test]
fn random_loss_drops_roughly_the_configured_fraction() {
    let (sim, d, l) = run_point_to_point(Impairments::loss(0.25), 2000, 100, 42);
    let st = &sim.channel(l.ab).stats;
    assert_eq!(st.tx_pkts, 2000);
    assert_eq!(st.lost_pkts + sim.node::<MalformedSink>(d).received, 2000);
    let rate = st.lost_pkts as f64 / 2000.0;
    assert!((0.20..0.30).contains(&rate), "observed loss {rate}");
    assert_eq!(st.corrupted_pkts, 0);
}

#[test]
fn duty_cycle_outage_blacks_out_periodic_windows() {
    // 1 s down out of every 2 s: about half of a steady stream dies,
    // deterministically (no RNG involved).
    let outage =
        DutyCycleOutage::new(SimDuration::from_secs(2), SimDuration::from_secs(1));
    let imp = Impairments { outage: Some(outage), ..Default::default() };
    let (sim, d, l) = run_point_to_point(imp, 2000, 100, 7);
    let st = &sim.channel(l.ab).stats;
    let rate = st.lost_pkts as f64 / 2000.0;
    assert!((0.45..0.55).contains(&rate), "observed outage loss {rate}");
    assert_eq!(
        st.lost_pkts + sim.node::<MalformedSink>(d).received,
        2000,
        "every packet is either lost in a window or delivered"
    );
}

#[test]
fn corruption_reaches_nodes_as_malformed_or_altered_packets() {
    // Zero payload: every flipped bit lands in the IPv4/TVA header, so
    // essentially all corruptions fail the checksum and arrive malformed.
    let (sim, d, l) = run_point_to_point(Impairments::corrupt(0.5), 1000, 0, 11);
    let st = &sim.channel(l.ab).stats;
    let sink = sim.node::<MalformedSink>(d);
    assert!(st.corrupted_pkts > 300, "corruption fired: {}", st.corrupted_pkts);
    assert!(st.malformed_pkts > 0, "some corruptions must fail decode");
    assert_eq!(st.malformed_pkts, sink.malformed, "engine and node agree");
    assert_eq!(
        sink.received + sink.malformed + st.lost_pkts,
        1000,
        "corrupted-but-parseable packets still arrive as packets"
    );
    assert!(!sink.errors.is_empty());
}

#[test]
fn corruption_on_big_payloads_usually_still_parses() {
    // 1000-byte payload: most flips land outside the header and the packet
    // arrives (with corrupted payload) rather than malformed.
    let (sim, d, l) = run_point_to_point(Impairments::corrupt(1.0), 500, 1000, 13);
    let st = &sim.channel(l.ab).stats;
    let sink = sim.node::<MalformedSink>(d);
    assert_eq!(st.corrupted_pkts, 500);
    assert!(sink.received > sink.malformed, "payload flips dominate");
    assert_eq!(sink.received + sink.malformed, 500 - st.lost_pkts);
}

#[test]
fn inject_bytes_routes_malformed_input_to_the_node() {
    let mut t = TopologyBuilder::new();
    let d = t.add_node(Box::<MalformedSink>::default());
    t.bind_addr(d, DST);
    let mut sim = t.build(0);

    let good = tva_wire::ipcodec::encode_packet(&pkt(1, 64));
    sim.inject_bytes(d, ChannelId(0), &good);
    // Truncated header.
    sim.inject_bytes(d, ChannelId(0), &good[..10]);
    // Bit-flipped version byte.
    let mut bad = good.clone();
    bad[0] ^= 0xF0;
    sim.inject_bytes(d, ChannelId(0), &bad);
    sim.run_until(SimTime::from_secs(1));

    let sink = sim.node::<MalformedSink>(d);
    assert_eq!(sink.received, 1);
    assert_eq!(sink.malformed, 2);
}

/// Builds the diamond s → a → d (primary, 2 hops) / s → b → c → d (backup,
/// 3 hops) and returns (sim, source, sink, primary ad-link, backup bc-link).
fn diamond(
    count: u64,
) -> (Simulator, NodeId, NodeId, tva_sim::LinkHandle, tva_sim::LinkHandle) {
    let mut t = TopologyBuilder::new();
    let s = t.add_node(Box::new(Blaster::new(count, 100)));
    let a = t.add_node(Box::new(Fwd));
    let b = t.add_node(Box::new(Fwd));
    let c = t.add_node(Box::new(Fwd));
    let d = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(s, SRC);
    t.bind_addr(d, DST);
    let dl = SimDuration::from_millis(1);
    t.link(s, a, 10_000_000, dl, q(), q());
    t.link(s, b, 10_000_000, dl, q(), q());
    let bc = t.link(b, c, 10_000_000, dl, q(), q());
    let ad = t.link(a, d, 10_000_000, dl, q(), q());
    t.link(c, d, 10_000_000, dl, q(), q());
    let mut sim = t.build(5);
    sim.kick(s, 0);
    (sim, s, d, ad, bc)
}

#[test]
fn link_failure_reconverges_onto_the_backup_path() {
    let (mut sim, _s, d, ad, bc) = diamond(1000);
    // Fail the primary a→d link mid-stream, scheduled through the event
    // loop like any other occurrence.
    sim.schedule_link_down(ad, SimTime::from_nanos(200_000_000));
    sim.run_until(SimTime::from_secs(5));

    assert_eq!(sim.reconvergences(), 1, "one failure, one re-convergence");
    assert!(!sim.channel(ad.ab).is_up());
    let primary = sim.channel(ad.ab).stats.clone();
    let backup = sim.channel(bc.ab).stats.clone();
    assert!(primary.tx_pkts > 0, "primary carried the early packets");
    assert!(backup.tx_pkts > 0, "backup carried the rest");
    // Everything sent is accounted for: delivered, or lost at the instant
    // of failure (in flight / freshly routed before re-convergence).
    let delivered = sim.node::<SinkNode>(d).received;
    assert!(delivered >= 990, "delivered {delivered}");
    assert_eq!(sim.unrouted(), 0);
}

#[test]
fn link_recovery_restores_the_primary_path() {
    let (mut sim, _s, d, ad, bc) = diamond(2000);
    sim.schedule_link_down(ad, SimTime::from_nanos(200_000_000));
    sim.schedule_link_up(ad, SimTime::from_nanos(800_000_000));
    sim.run_until(SimTime::from_secs(5));

    assert_eq!(sim.reconvergences(), 2, "failure and recovery each re-converge");
    assert!(sim.channel(ad.ab).is_up());
    let primary = sim.channel(ad.ab).stats.clone();
    let backup = sim.channel(bc.ab).stats.clone();
    assert!(backup.tx_pkts > 0, "backup used during the outage");
    assert!(
        primary.tx_pkts > backup.tx_pkts,
        "primary resumed after recovery (primary {} vs backup {})",
        primary.tx_pkts,
        backup.tx_pkts
    );
    assert!(sim.node::<SinkNode>(d).received >= 1990);
}

#[test]
fn failing_a_busy_channel_is_safe_and_stale_completions_are_ignored() {
    // Slow link so a packet is mid-serialization when the failure hits.
    let mut t = TopologyBuilder::new();
    let s = t.add_node(Box::new(Blaster::new(50, 1000)));
    let d = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(s, SRC);
    t.bind_addr(d, DST);
    let l = t.link(s, d, 100_000, SimDuration::from_millis(1), q(), q());
    let mut sim = t.build(1);
    sim.kick(s, 0);
    // 1000B at 100 kb/s serializes in 80 ms; fail at 40 ms, mid-packet.
    sim.schedule_link_down(l, SimTime::from_nanos(40_000_000));
    sim.schedule_link_up(l, SimTime::from_nanos(400_000_000));
    sim.run_until(SimTime::from_secs(60));

    let st = sim.channel(l.ab).stats.clone();
    assert!(st.lost_pkts >= 1, "the in-flight packet died with the link");
    // Every packet is accounted for: delivered, lost with the link, or
    // unroutable while re-convergence had removed the only path.
    let delivered = sim.node::<SinkNode>(d).received;
    assert_eq!(delivered + st.lost_pkts + sim.unrouted(), 50);
    // Queued packets were retained and resumed after recovery.
    assert!(delivered >= 35, "delivered {delivered}");
}

/// Runs a fully-impaired diamond and returns the complete trace stream.
fn traced_run(seed: u64, imp: Impairments, fail: bool) -> Vec<String> {
    let mut t = TopologyBuilder::new();
    let s = t.add_node(Box::new(Blaster::new(500, 200)));
    let a = t.add_node(Box::new(Fwd));
    let b = t.add_node(Box::new(Fwd));
    let c = t.add_node(Box::new(Fwd));
    let d = t.add_node(Box::<MalformedSink>::default());
    t.bind_addr(s, SRC);
    t.bind_addr(d, DST);
    let dl = SimDuration::from_millis(1);
    let sa = t.link(s, a, 10_000_000, dl, q(), q());
    t.link(s, b, 10_000_000, dl, q(), q());
    t.link(b, c, 10_000_000, dl, q(), q());
    let ad = t.link(a, d, 10_000_000, dl, q(), q());
    t.link(c, d, 10_000_000, dl, q(), q());
    t.impair_link(sa, imp);
    t.impair_link(ad, imp);
    let mut sim = t.build(seed);
    let trace = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    sim.set_tracer(Some(Box::new(move |ev| {
        sink.lock().unwrap().push(format_event(ev));
    })));
    sim.kick(s, 0);
    if fail {
        sim.schedule_link_down(ad, SimTime::from_nanos(150_000_000));
        sim.schedule_link_up(ad, SimTime::from_nanos(450_000_000));
    }
    sim.run_until(SimTime::from_secs(10));
    drop(sim); // release the tracer's clone of the Arc
    Arc::try_unwrap(trace).unwrap().into_inner().unwrap()
}

#[test]
fn every_impairment_mix_is_deterministic_per_seed() {
    let outage =
        DutyCycleOutage::new(SimDuration::from_millis(100), SimDuration::from_millis(20));
    let mixes = [
        Impairments::loss(0.1),
        Impairments::corrupt(0.2),
        Impairments { outage: Some(outage), ..Default::default() },
        Impairments { loss: 0.05, corrupt: 0.1, outage: Some(outage) },
    ];
    for (i, imp) in mixes.into_iter().enumerate() {
        for fail in [false, true] {
            let t1 = traced_run(99, imp, fail);
            let t2 = traced_run(99, imp, fail);
            assert_eq!(t1, t2, "mix {i} fail={fail}: equal seeds, equal traces");
            assert!(!t1.is_empty());
        }
    }
}

#[test]
fn different_seeds_draw_different_fault_patterns() {
    let a = traced_run(1, Impairments::loss(0.2), false);
    let b = traced_run(2, Impairments::loss(0.2), false);
    assert_ne!(a, b, "the fault stream is seed-dependent");
}

#[test]
fn disabled_impairments_leave_the_run_bit_identical() {
    // A run with an explicit no-op impairment must be indistinguishable
    // from one that never touched the fault API at all.
    let with_noop = traced_run(77, Impairments::default(), false);
    let mut t = TopologyBuilder::new();
    let s = t.add_node(Box::new(Blaster::new(500, 200)));
    let a = t.add_node(Box::new(Fwd));
    let b = t.add_node(Box::new(Fwd));
    let c = t.add_node(Box::new(Fwd));
    let d = t.add_node(Box::<MalformedSink>::default());
    t.bind_addr(s, SRC);
    t.bind_addr(d, DST);
    let dl = SimDuration::from_millis(1);
    t.link(s, a, 10_000_000, dl, q(), q());
    t.link(s, b, 10_000_000, dl, q(), q());
    t.link(b, c, 10_000_000, dl, q(), q());
    t.link(a, d, 10_000_000, dl, q(), q());
    t.link(c, d, 10_000_000, dl, q(), q());
    let mut sim = t.build(77);
    let trace = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    sim.set_tracer(Some(Box::new(move |ev| {
        sink.lock().unwrap().push(format_event(ev));
    })));
    sim.kick(s, 0);
    sim.run_until(SimTime::from_secs(10));
    drop(sim);
    let untouched = Arc::try_unwrap(trace).unwrap().into_inner().unwrap();
    assert_eq!(with_noop, untouched);
}
