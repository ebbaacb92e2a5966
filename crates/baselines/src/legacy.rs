//! The legacy Internet baseline: routers forward everything FIFO with no
//! notion of authorization. Used with [`tva_sim::DropTail`] egress queues,
//! this is the "Internet" line of Figures 8–10.

use tva_sim::{ChannelId, Ctx, Node, Pkt};

/// A plain best-effort IP router.
#[derive(Default)]
pub struct LegacyRouterNode {
    /// Packets forwarded.
    pub(crate) forwarded: u64,
}

impl Node for LegacyRouterNode {
    fn on_packet(&mut self, pkt: Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        self.forwarded += 1;
        ctx.send(pkt);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_sim::{DropTail, SimDuration, SimTime, SinkNode, TopologyBuilder};
    use tva_wire::{Addr, Packet, PacketId};

    #[test]
    fn forwards_by_destination() {
        let mut t = TopologyBuilder::new();
        let r = t.add_node(Box::<LegacyRouterNode>::default());
        let sink = t.add_node(Box::<SinkNode>::default());
        let dst = Addr::new(9, 0, 0, 1);
        t.bind_addr(sink, dst);
        t.link(
            r,
            sink,
            1_000_000,
            SimDuration::from_millis(1),
            Box::new(DropTail::new(1 << 20)),
            Box::new(DropTail::new(1 << 20)),
        );
        let mut sim = t.build(0);
        sim.inject(
            r,
            ChannelId(0),
            Packet {
                id: PacketId(1),
                src: Addr::new(1, 1, 1, 1),
                dst,
                cap: None,
                tcp: None,
                payload_len: 64,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node::<SinkNode>(sink).received, 1);
        assert_eq!(sim.node::<LegacyRouterNode>(r).forwarded, 1);
    }
}
