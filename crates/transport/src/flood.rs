//! Constant-bit-rate flood sources — the paper's attackers.
//!
//! Every §5 attack is a set of hosts flooding at 1 Mb/s; only the *kind* of
//! packet differs (legacy data, capability requests, or authorized traffic).
//! `FloodNode` emits packets from a caller-supplied factory at a fixed rate,
//! so each experiment chooses the packet shape while the pacing logic stays
//! shared.

use tva_sim::{ChannelId, Ctx, Node, SimDuration, SimTime};
use tva_wire::Packet;

/// Timer token used internally for pacing.
const TOKEN_EMIT: u64 = 0;

/// Builds the next flood packet; receives the emission time and a packet
/// sequence number. Returning `None` skips this emission slot (used by
/// attackers that flood only during on-periods).
pub type PacketFactory = Box<dyn FnMut(SimTime, u64) -> Option<Packet> + Send>;

/// A constant-bit-rate traffic source.
///
/// Pacing is jittered: each inter-packet gap is scaled by a
/// uniform factor in `[0.5, 1.5)` (mean 1, so the average rate is exact).
/// Without jitter, a population of flooders created with identical
/// parameters phase-locks into synchronized bursts that collide with each
/// other at the bottleneck and let foreground traffic slip through the
/// drain windows — an artifact, not an attack model.
pub struct FloodNode {
    factory: PacketFactory,
    rate_bps: u64,
    seq: u64,
    /// Packets actually emitted.
    pub emitted: u64,
    /// Responses received (attackers usually ignore these, but TVA colluder
    /// experiments need to see granted capabilities — those use a custom
    /// node instead).
    pub received: u64,
}

impl FloodNode {
    /// Creates a flooder emitting packets from `factory` at `rate_bps`.
    /// Kick it (any token) to start.
    pub fn new(rate_bps: u64, factory: PacketFactory) -> Self {
        assert!(rate_bps > 0);
        FloodNode {
            factory,
            rate_bps,
            seq: 0,
            emitted: 0,
            received: 0,
        }
    }

    fn emit(&mut self, ctx: &mut dyn Ctx) {
        let now = ctx.now();
        let seq = self.seq;
        self.seq += 1;
        let wire_len = if let Some(mut pkt) = (self.factory)(now, seq) {
            pkt.id = ctx.alloc_packet_id();
            let len = pkt.wire_len();
            ctx.send_new(pkt);
            self.emitted += 1;
            len
        } else {
            // Skipped slot: pace as if an average-size packet went out so
            // the off-period doesn't burst when transmission resumes.
            1000
        };
        // Pace to the configured bit rate based on the bytes just sent,
        // scaled by a uniform factor in [0.5, 1.5): mean 1 preserves the rate.
        let gap = SimDuration::transmission(wire_len, self.rate_bps);
        let u = (ctx.rng().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = SimDuration::from_nanos(((gap.as_nanos() as f64) * (0.5 + u)) as u64);
        ctx.set_timer(gap, TOKEN_EMIT);
    }
}

impl Node for FloodNode {
    fn on_packet(&mut self, _pkt: tva_sim::Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {
        self.received += 1;
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut dyn Ctx) {
        self.emit(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_sim::{DropTail, SinkNode, TopologyBuilder};
    use tva_wire::{Addr, PacketId};

    const SRC: Addr = Addr::new(66, 0, 0, 1);
    const DST: Addr = Addr::new(10, 0, 0, 1);

    fn data_factory(payload: u32) -> PacketFactory {
        Box::new(move |_now, _seq| {
            Some(Packet {
                id: PacketId(0),
                src: SRC,
                dst: DST,
                cap: None,
                tcp: None,
                payload_len: payload,
            })
        })
    }

    #[test]
    fn flood_rate_is_accurate() {
        let mut t = TopologyBuilder::new();
        let atk = t.add_node(Box::new(FloodNode::new(1_000_000, data_factory(980))));
        let sink = t.add_node(Box::<SinkNode>::default());
        t.bind_addr(atk, SRC);
        t.bind_addr(sink, DST);
        t.link(
            atk,
            sink,
            10_000_000,
            SimDuration::from_millis(1),
            Box::new(DropTail::new(1 << 20)),
            Box::new(DropTail::new(1 << 20)),
        );
        let mut sim = t.build(3);
        sim.kick(atk, 0);
        sim.run_until(SimTime::from_secs(10));
        let bytes = sim.node::<SinkNode>(sink).bytes;
        // 1 Mb/s for 10 s = 1.25 MB.
        let expect = 1_250_000f64;
        let err = (bytes as f64 - expect).abs() / expect;
        assert!(err < 0.01, "flooded {bytes} bytes, expected ≈{expect}");
    }

    #[test]
    fn skipped_slots_emit_nothing() {
        let factory: PacketFactory = Box::new(|_, _| None);
        let mut t = TopologyBuilder::new();
        let atk = t.add_node(Box::new(FloodNode::new(1_000_000, factory)));
        let sink = t.add_node(Box::<SinkNode>::default());
        t.bind_addr(atk, SRC);
        t.bind_addr(sink, DST);
        t.link(
            atk,
            sink,
            10_000_000,
            SimDuration::from_millis(1),
            Box::new(DropTail::new(1 << 20)),
            Box::new(DropTail::new(1 << 20)),
        );
        let mut sim = t.build(3);
        sim.kick(atk, 0);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.node::<SinkNode>(sink).received, 0);
    }
}
