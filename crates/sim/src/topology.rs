//! Topology construction and automatic shortest-path routing.
//!
//! Experiments declare nodes, duplex links (with a queue discipline per
//! direction) and address bindings; `build` computes hop-count shortest-path
//! routes to every bound address with deterministic tie-breaking and returns
//! a ready [`Simulator`].

use crate::engine::{Channel, Core, Faults, RouteTable, Simulator};
use crate::event::{ChannelId, NodeId};
use crate::fault::Impairments;
use crate::intern::AddrInterner;
use crate::node::Node;
use crate::queue::QueueDisc;
use crate::time::SimDuration;
use tva_wire::Addr;

/// Both directions of a duplex link.
#[derive(Clone, Copy, Debug)]
pub struct LinkHandle {
    /// Channel carrying a→b traffic.
    pub ab: ChannelId,
    /// Channel carrying b→a traffic.
    pub ba: ChannelId,
}

/// A static route row `(node, addr, egress channel)`, ids narrowed to
/// 32 bits: 12 bytes instead of 24, one row per (ancestor, host) pair of a
/// tree topology, retained for the simulator's lifetime.
pub(crate) type StaticRoute = (u32, Addr, u32);

/// Builder for a [`Simulator`].
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<Box<dyn Node>>,
    channels: Vec<Channel>,
    addrs: Vec<(Addr, NodeId)>,
    defaults: Vec<(NodeId, ChannelId)>,
    statics: Vec<StaticRoute>,
}

impl TopologyBuilder {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Sets `node`'s default route: packets for addresses with no exact
    /// match go out `ch`. Useful for stub hosts with a single uplink and
    /// for gateways toward address space the topology does not enumerate.
    pub fn default_route(&mut self, node: NodeId, ch: ChannelId) {
        self.defaults.push((node, ch));
    }

    /// Installs a static route: packets for `addr` arriving at `node` go
    /// out `ch`, no shortest-path computation involved.
    ///
    /// [`TopologyBuilder::bind_addr`] costs one whole-graph BFS per address
    /// at build time, which is prohibitive for internet-scale topologies
    /// (100k hosts × 100k-node graph). Tree-shaped topologies don't need
    /// it: point every node's *default* route up toward the core and
    /// install one static route per (ancestor, host) pair going down —
    /// O(depth) per host, independent of graph size. Static routes are
    /// pinned: they survive link-failure reconvergence unchanged (the
    /// engine cannot recompute knowledge it was handed), so use them for
    /// topologies whose failure behavior you don't simulate, or accept
    /// that a failed static next hop blackholes like a real misconfigured
    /// route would.
    pub fn static_route(&mut self, node: NodeId, addr: Addr, ch: ChannelId) {
        let id = |i: usize| u32::try_from(i).expect("static route ids fit in 32 bits");
        self.statics.push((id(node.0), addr, id(ch.0)));
    }

    /// Declares that `addr` lives at `node` (i.e. packets addressed to
    /// `addr` should be routed toward `node`).
    pub fn bind_addr(&mut self, node: NodeId, addr: Addr) {
        assert!(
            !self.addrs.iter().any(|&(a, _)| a == addr),
            "address {addr} bound twice"
        );
        self.addrs.push((addr, node));
    }

    /// Connects `a` and `b` with a duplex link of the given bandwidth and
    /// propagation delay, using `qa` for the a→b egress and `qb` for b→a.
    pub fn link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_bps: u64,
        delay: SimDuration,
        qa: Box<dyn QueueDisc>,
        qb: Box<dyn QueueDisc>,
    ) -> LinkHandle {
        let ab = ChannelId(self.channels.len());
        self.channels.push(Channel {
            from: a,
            to: b,
            bandwidth_bps,
            delay,
            queue: qa,
            in_flight: None,
            wake_at: None,
            faults: None,
            up: true,
            epoch: 0,
            stats: Default::default(),
        });
        let ba = ChannelId(self.channels.len());
        self.channels.push(Channel {
            from: b,
            to: a,
            bandwidth_bps,
            delay,
            queue: qb,
            in_flight: None,
            wake_at: None,
            faults: None,
            up: true,
            epoch: 0,
            stats: Default::default(),
        });
        LinkHandle { ab, ba }
    }

    /// Configures wire impairments on one channel (see
    /// [`crate::fault::Impairments`]); a no-op configuration clears them.
    pub fn impair(&mut self, ch: ChannelId, imp: Impairments) {
        self.channels[ch.0].faults = Faults::of(imp);
    }

    /// Applies the same impairments to both directions of a link.
    pub fn impair_link(&mut self, l: LinkHandle, imp: Impairments) {
        self.impair(l.ab, imp);
        self.impair(l.ba, imp);
    }

    /// Finishes construction: interns every bound address (in `bind_addr`
    /// order), computes shortest-path routes for each into dense per-node
    /// next-hop arrays, and derives the engine RNG streams from `seed`. The
    /// address bindings and defaults are retained by the simulator so
    /// routes can re-converge when links fail at runtime.
    pub fn build(self, seed: u64) -> Simulator {
        let n = self.nodes.len();
        let mut interner = AddrInterner::new();
        for &(addr, _) in &self.addrs {
            interner.intern(addr);
        }
        for &(_, addr, _) in &self.statics {
            interner.intern(addr);
        }
        let mut routes = compute_routes(n, &self.channels, &self.addrs, &self.defaults, &interner);
        apply_static_routes(&mut routes, &interner, &self.statics);
        Simulator {
            core: Core::new(self.channels, routes, interner, seed),
            nodes: self.nodes,
            addrs: self.addrs,
            defaults: self.defaults,
            statics: self.statics,
            reconvergences: 0,
            link_events: Vec::new(),
        }
    }
}

/// Computes hop-count shortest-path routes to every bound address, skipping
/// channels that are currently down. Reads the channels in place, so
/// [`TopologyBuilder::build`] and [`Simulator::reconverge`] share it.
pub(crate) fn compute_routes(
    n: usize,
    channels: &[Channel],
    addrs: &[(Addr, NodeId)],
    defaults: &[(NodeId, ChannelId)],
    interner: &AddrInterner,
) -> Vec<RouteTable> {
    let mut routes: Vec<RouteTable> = (0..n).map(|_| RouteTable::default()).collect();
    for &(node, ch) in defaults {
        routes[node.0].set_default(Some(ch));
    }

    // Incoming up channels per node, flat (edges reversed for BFS from the
    // destination outward): node v's ids are `in_ids[start[v]..start[v + 1]]`,
    // in ascending order because channels are placed in id order.
    let id = |i: usize| u32::try_from(i).expect("channel and node ids fit in 32 bits");
    let mut start = vec![0u32; n + 1];
    for c in channels.iter().filter(|c| c.up) {
        start[c.to.0 + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut in_ids = vec![0u32; start[n] as usize];
    for (i, c) in channels.iter().enumerate().filter(|(_, c)| c.up) {
        let slot = &mut start[c.to.0];
        in_ids[*slot as usize] = id(i);
        *slot += 1;
    }
    // Placing advanced every start to the next node's; shift them back.
    start.copy_within(0..n, 1);
    start[0] = 0;

    // BFS over reversed edges; dist[v] = hops from v to the target. The
    // queue is a vector read from `head`, and every node it holds is the
    // exact set to reset before the next address.
    const UNSEEN: u32 = u32::MAX;
    let mut dist = vec![UNSEEN; n];
    let mut queue: Vec<u32> = Vec::new();
    for &(addr, target) in addrs {
        let idx = interner.get(addr).expect("bound address is interned");
        for &v in &queue {
            dist[v as usize] = UNSEEN;
        }
        queue.clear();
        dist[target.0] = 0;
        queue.push(id(target.0));
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let (v, dv) = (v as usize, dist[v as usize]);
            // Deterministic order: channel ids ascend.
            for &ch in &in_ids[start[v] as usize..start[v + 1] as usize] {
                let ch = ChannelId(ch as usize);
                let u = channels[ch.0].from.0;
                if dist[u] == UNSEEN {
                    dist[u] = dv + 1;
                    // An entry equal to the node's default route would
                    // resolve identically through the fallback; prune
                    // it so stub hosts keep an empty array.
                    if !routes[u].default_is(ch) {
                        routes[u].insert(idx, ch);
                    }
                    queue.push(id(u));
                }
            }
        }
    }

    routes
}

/// Installs the pinned static routes on top of freshly computed tables.
/// Shared by [`TopologyBuilder::build`] and
/// [`Simulator::reconverge`] (static routes survive reconvergence
/// unchanged — see [`TopologyBuilder::static_route`]).
pub(crate) fn apply_static_routes(
    routes: &mut [RouteTable],
    interner: &AddrInterner,
    statics: &[StaticRoute],
) {
    for &(node, addr, ch) in statics {
        let idx = interner.get(addr).expect("static address is interned");
        routes[node as usize].insert(idx, ChannelId(ch as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SinkNode;
    use crate::queue::DropTail;
    use crate::time::{SimDuration, SimTime};
    use tva_wire::{Packet, PacketId};

    fn q() -> Box<DropTail> {
        Box::new(DropTail::new(1 << 20))
    }

    /// A node that forwards every arriving packet by routing on dst.
    struct Fwd;
    impl Node for Fwd {
        fn on_packet(
            &mut self,
            pkt: crate::pool::Pkt,
            _from: ChannelId,
            ctx: &mut dyn crate::node::Ctx,
        ) {
            ctx.send(pkt);
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn crate::node::Ctx) {}
    }

    #[test]
    fn routes_across_a_chain() {
        // h1 - r1 - r2 - h2; a packet injected at h1 reaches h2.
        let mut t = TopologyBuilder::new();
        let h1 = t.add_node(Box::new(Fwd));
        let r1 = t.add_node(Box::new(Fwd));
        let r2 = t.add_node(Box::new(Fwd));
        let h2 = t.add_node(Box::<SinkNode>::default());
        let a1 = Addr::new(10, 0, 0, 1);
        let a2 = Addr::new(10, 0, 0, 2);
        t.bind_addr(h1, a1);
        t.bind_addr(h2, a2);
        let d = SimDuration::from_millis(1);
        t.link(h1, r1, 1_000_000, d, q(), q());
        t.link(r1, r2, 1_000_000, d, q(), q());
        t.link(r2, h2, 1_000_000, d, q(), q());
        let mut sim = t.build(7);

        let pkt = Packet {
            id: PacketId(1),
            src: a1,
            dst: a2,
            cap: None,
            tcp: None,
            payload_len: 100,
        };
        // Inject as an arrival at h1 (as if from a local application);
        // channel id is irrelevant for Fwd.
        sim.inject(h1, ChannelId(0), pkt);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node::<SinkNode>(h2).received, 1);
        assert_eq!(sim.unrouted(), 0);
    }

    #[test]
    fn shortest_path_is_chosen() {
        // Diamond: s → a → d (2 hops) and s → b → c → d (3 hops).
        let mut t = TopologyBuilder::new();
        let s = t.add_node(Box::new(Fwd));
        let a = t.add_node(Box::new(Fwd));
        let b = t.add_node(Box::new(Fwd));
        let c = t.add_node(Box::new(Fwd));
        let d = t.add_node(Box::<SinkNode>::default());
        let dst = Addr::new(1, 1, 1, 1);
        t.bind_addr(d, dst);
        let dl = SimDuration::from_millis(1);
        let sa = t.link(s, a, 1_000_000, dl, q(), q());
        t.link(s, b, 1_000_000, dl, q(), q());
        t.link(b, c, 1_000_000, dl, q(), q());
        t.link(a, d, 1_000_000, dl, q(), q());
        t.link(c, d, 1_000_000, dl, q(), q());
        let mut sim = t.build(7);
        let pkt = Packet {
            id: PacketId(1),
            src: Addr::new(2, 2, 2, 2),
            dst,
            cap: None,
            tcp: None,
            payload_len: 10,
        };
        sim.inject(s, ChannelId(0), pkt);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node::<SinkNode>(d).received, 1);
        // The s→a channel carried it (shortest path).
        assert_eq!(sim.channel(sa.ab).stats.tx_pkts, 1);
    }

    #[test]
    fn static_routes_forward_without_bfs() {
        // h - r - {d1, d2}: d1/d2 are never bind_addr'ed; r routes to them
        // purely via static entries, h via its default route.
        let mut t = TopologyBuilder::new();
        let h = t.add_node(Box::new(Fwd));
        let r = t.add_node(Box::new(Fwd));
        let d1 = t.add_node(Box::<SinkNode>::default());
        let d2 = t.add_node(Box::<SinkNode>::default());
        let dl = SimDuration::from_millis(1);
        let hr = t.link(h, r, 1_000_000, dl, q(), q());
        let rd1 = t.link(r, d1, 1_000_000, dl, q(), q());
        let rd2 = t.link(r, d2, 1_000_000, dl, q(), q());
        let a1 = Addr::new(10, 0, 0, 1);
        let a2 = Addr::new(10, 0, 0, 2);
        t.default_route(h, hr.ab);
        t.static_route(r, a1, rd1.ab);
        t.static_route(r, a2, rd2.ab);
        let mut sim = t.build(7);
        for dst in [a1, a2, a1] {
            let pkt = Packet {
                id: PacketId(1),
                src: Addr::new(1, 1, 1, 1),
                dst,
                cap: None,
                tcp: None,
                payload_len: 10,
            };
            sim.inject(h, ChannelId(0), pkt);
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node::<SinkNode>(d1).received, 2);
        assert_eq!(sim.node::<SinkNode>(d2).received, 1);
        assert_eq!(sim.unrouted(), 0);
    }

    /// The per-node-list BFS `compute_routes` replaced, kept as the
    /// oracle: a `Vec` of incoming channels per node, a fresh distance
    /// array and queue per bound address.
    fn routes_by_node_lists(
        n: usize,
        links: &[(NodeId, NodeId, bool)],
        addrs: &[(Addr, NodeId)],
        defaults: &[(NodeId, ChannelId)],
        interner: &AddrInterner,
    ) -> Vec<RouteTable> {
        let mut routes: Vec<RouteTable> = (0..n).map(|_| RouteTable::default()).collect();
        let mut in_channels: Vec<Vec<ChannelId>> = vec![Vec::new(); n];
        for (i, &(_, to, up)) in links.iter().enumerate() {
            if up {
                in_channels[to.0].push(ChannelId(i));
            }
        }
        for &(node, ch) in defaults {
            routes[node.0].set_default(Some(ch));
        }
        for &(addr, target) in addrs {
            let idx = interner.get(addr).expect("bound address is interned");
            let mut dist: Vec<Option<u32>> = vec![None; n];
            dist[target.0] = Some(0);
            let mut q = std::collections::VecDeque::new();
            q.push_back(target);
            while let Some(v) = q.pop_front() {
                let dv = dist[v.0].expect("popped node has distance");
                for &ch_id in &in_channels[v.0] {
                    let u = links[ch_id.0].0;
                    if dist[u.0].is_none() {
                        dist[u.0] = Some(dv + 1);
                        if !routes[u.0].default_is(ch_id) {
                            routes[u.0].insert(idx, ch_id);
                        }
                        q.push_back(u);
                    }
                }
            }
        }
        routes
    }

    proptest::proptest! {
        /// The flat in-channel index routes exactly as per-node lists did:
        /// same next hop (tie-breaks included) and default at every node,
        /// with some channels down, several bound addresses, defaults and
        /// statics on top.
        #[test]
        fn flat_index_routes_match_per_node_lists(
            n in 1usize..12,
            links in proptest::collection::vec(
                // A direction is down when its draw is 0 (one in five).
                (0usize..12, 0usize..12, 0u8..5, 0u8..5),
                0..30,
            ),
            bound in proptest::collection::vec((0usize..12, 0u8..8), 0..6),
            defaults in proptest::collection::vec((0usize..12, 0usize..60), 0..6),
            statics in proptest::collection::vec((0usize..12, 0u8..12, 0usize..60), 0..6),
        ) {
            let mut t = TopologyBuilder::new();
            for _ in 0..n {
                t.add_node(Box::<SinkNode>::default());
            }
            let d = SimDuration::from_millis(1);
            for &(a, b, up_ab, up_ba) in &links {
                let l = t.link(NodeId(a % n), NodeId(b % n), 1_000_000, d, q(), q());
                t.channels[l.ab.0].up = up_ab != 0;
                t.channels[l.ba.0].up = up_ba != 0;
            }
            let addr = |k: u8| Addr::new(10, 0, 0, k);
            for &(node, k) in &bound {
                if !t.addrs.iter().any(|&(a, _)| a == addr(k)) {
                    t.bind_addr(NodeId(node % n), addr(k));
                }
            }
            let chans = t.channels.len();
            if chans > 0 {
                for &(node, ch) in &defaults {
                    t.default_route(NodeId(node % n), ChannelId(ch % chans));
                }
                for &(node, k, ch) in &statics {
                    t.static_route(NodeId(node % n), addr(k), ChannelId(ch % chans));
                }
            }
            let mut interner = AddrInterner::new();
            for &(a, _) in &t.addrs {
                interner.intern(a);
            }
            for &(_, a, _) in &t.statics {
                interner.intern(a);
            }
            let triples: Vec<(NodeId, NodeId, bool)> =
                t.channels.iter().map(|c| (c.from, c.to, c.up)).collect();
            let mut got = compute_routes(n, &t.channels, &t.addrs, &t.defaults, &interner);
            let mut want = routes_by_node_lists(n, &triples, &t.addrs, &t.defaults, &interner);
            apply_static_routes(&mut got, &interner, &t.statics);
            apply_static_routes(&mut want, &interner, &t.statics);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_addr_panics() {
        let mut t = TopologyBuilder::new();
        let h = t.add_node(Box::<SinkNode>::default());
        t.bind_addr(h, Addr::new(1, 0, 0, 1));
        t.bind_addr(h, Addr::new(1, 0, 0, 1));
    }

    #[test]
    fn default_route_catches_unknown_destinations() {
        let mut t = TopologyBuilder::new();
        let h = t.add_node(Box::new(Fwd));
        let sink = t.add_node(Box::<SinkNode>::default());
        let l = t.link(h, sink, 1_000_000, SimDuration::from_millis(1), q(), q());
        t.default_route(h, l.ab);
        let mut sim = t.build(0);
        let pkt = Packet {
            id: PacketId(1),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(203, 0, 113, 7), // never bound anywhere
            cap: None,
            tcp: None,
            payload_len: 10,
        };
        sim.inject(h, ChannelId(0), pkt);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node::<SinkNode>(sink).received, 1);
        assert_eq!(sim.unrouted(), 0);
    }

    #[test]
    fn unrouted_packets_are_counted() {
        let mut t = TopologyBuilder::new();
        let h = t.add_node(Box::new(Fwd));
        let mut sim = t.build(0);
        let pkt = Packet {
            id: PacketId(1),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(9, 9, 9, 9),
            cap: None,
            tcp: None,
            payload_len: 10,
        };
        sim.inject(h, ChannelId(0), pkt);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.unrouted(), 1);
    }
}
