//! Router ingress hardening: corrupted on-wire bytes must never panic a
//! router — they are dropped and accounted in `malformed_drops`.

use tva_core::{RouterConfig, TvaRouterNode};
use tva_sim::{
    ChannelId, Ctx, DropTail, Impairments, Node, SimDuration, SimTime, SinkNode,
    TopologyBuilder,
};
use tva_wire::ipcodec::encode_packet;
use tva_wire::{Addr, Packet, PacketId};

const SRC: Addr = Addr::new(20, 0, 0, 1);
const DST: Addr = Addr::new(10, 0, 0, 1);

fn q() -> Box<DropTail> {
    Box::new(DropTail::new(1 << 20))
}

fn legacy(id: u64, payload_len: u32) -> Packet {
    Packet { id: PacketId(id), src: SRC, dst: DST, cap: None, tcp: None, payload_len }
}

/// Emits one small legacy packet per millisecond; counts anything echoed
/// back (a corrupted destination can re-route a packet to its source).
struct Blaster {
    remaining: u64,
    received: u64,
}
impl Node for Blaster {
    fn on_packet(&mut self, _pkt: tva_sim::Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {
        self.received += 1;
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut dyn Ctx) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let id = ctx.alloc_packet_id();
        ctx.send_new(Packet { id, src: SRC, dst: DST, cap: None, tcp: None, payload_len: 0 });
        ctx.set_timer(SimDuration::from_nanos(1_000_000), 0);
    }
}

#[test]
fn truncated_and_bitflipped_ingress_is_dropped_and_counted() {
    // h — r — sink; feed garbage straight at the router's ingress.
    let mut t = TopologyBuilder::new();
    let h = t.add_node(Box::<SinkNode>::default());
    let r = t.add_node(Box::new(TvaRouterNode::new(RouterConfig::default(), 1_000_000)));
    let sink = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(h, SRC);
    t.bind_addr(sink, DST);
    let d = SimDuration::from_nanos(1_000_000);
    let hr = t.link(h, r, 1_000_000, d, q(), q());
    t.link(r, sink, 1_000_000, d, q(), q());
    let mut sim = t.build(3);

    let good = encode_packet(&legacy(1, 64));
    // A valid datagram sails through.
    sim.inject_bytes(r, hr.ab, &good);
    // Truncations at every interesting boundary.
    for cut in [0usize, 1, 4, 10, 19] {
        sim.inject_bytes(r, hr.ab, &good[..cut]);
    }
    // Single bit flips across the whole header.
    for byte in 0..20 {
        let mut bad = good.clone();
        bad[byte] ^= 1 << (byte % 8);
        sim.inject_bytes(r, hr.ab, &bad);
    }
    sim.run_until(SimTime::from_secs(1));

    let stats = &sim.node::<TvaRouterNode>(r).router.stats;
    // 5 truncations and 20 bit flips; every flip lands in the checksummed
    // header so all 25 are malformed.
    assert_eq!(stats.malformed_drops, 25);
    assert_eq!(sim.node::<SinkNode>(sink).received, 1, "only the clean packet survived");
}

#[test]
fn corruption_impairment_through_a_router_never_panics() {
    // h —(corrupting link)— r — sink: zero-payload legacy packets, so every
    // flipped bit hits the header and decodes fail at the router.
    let mut t = TopologyBuilder::new();
    let h = t.add_node(Box::new(Blaster { remaining: 500, received: 0 }));
    let r = t.add_node(Box::new(TvaRouterNode::new(RouterConfig::default(), 10_000_000)));
    let sink = t.add_node(Box::<SinkNode>::default());
    t.bind_addr(h, SRC);
    t.bind_addr(sink, DST);
    let d = SimDuration::from_nanos(1_000_000);
    let hr = t.link(h, r, 10_000_000, d, q(), q());
    t.link(r, sink, 10_000_000, d, q(), q());
    t.impair(hr.ab, Impairments::corrupt(0.4));
    let mut sim = t.build(9);
    sim.kick(h, 0);
    sim.run_until(SimTime::from_secs(5));

    let ch = &sim.channel(hr.ab).stats;
    let stats = &sim.node::<TvaRouterNode>(r).router.stats;
    assert!(ch.corrupted_pkts > 100, "corruption fired: {}", ch.corrupted_pkts);
    assert!(stats.malformed_drops > 0, "router saw malformed ingress");
    assert_eq!(
        stats.malformed_drops, ch.malformed_pkts,
        "router accounting matches the channel's"
    );
    // Everything the router could parse (legacy path) was forwarded —
    // possibly to a corrupted destination (back to the source, or to an
    // address nobody owns, counted as unrouted). A checksum can miss a
    // multi-bit flip, so those cases are real, just rare.
    assert_eq!(
        sim.node::<SinkNode>(sink).received
            + sim.node::<Blaster>(h).received
            + stats.malformed_drops
            + sim.unrouted(),
        500,
        "parse-or-drop: no packet silently vanished inside the router"
    );
}
