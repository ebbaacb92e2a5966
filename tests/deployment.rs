//! §8 incremental deployment: only the router at the congestion point runs
//! TVA ("placing an inline packet processing box adjacent to the legacy
//! router and preceding a step-down in capacity"); the rest of the path is
//! legacy. Capability lists simply have fewer entries; protection at the
//! upgraded bottleneck is undiminished.

use tva::baselines::LegacyRouterNode;
use tva::core::{
    ClientPolicy, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode,
    TvaScheduler,
};
use tva::sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva::transport::{summarize, ClientNode, FloodNode, ServerNode, TOKEN_START};
use tva::wire::{Addr, Grant, Packet, PacketId};

const SERVER: Addr = Addr::new(10, 0, 0, 1);

#[test]
fn single_upgraded_router_at_the_bottleneck_still_defends() {
    let cfg1 = RouterConfig { secret_seed: 31, ..RouterConfig::default() };
    let mut t = TopologyBuilder::new();
    // r1 is the upgraded box at the congestion point; r2 is a legacy router
    // that forwards blindly (it neither stamps nor validates).
    let r1 = t.add_node(Box::new(TvaRouterNode::new(cfg1.clone(), 10_000_000)));
    let r2 = t.add_node(Box::<LegacyRouterNode>::default());
    let server = t.add_node(Box::new(ServerNode::new(
        SERVER,
        Box::new(TvaHostShim::new(
            SERVER,
            Box::new(ServerPolicy::new(
                Grant::from_parts(100, 10),
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(server, SERVER);

    let d = SimDuration::from_millis(10);
    let host_q = || Box::new(DropTail::new(1 << 20));
    // The TVA scheduler sits on the upgraded router's bottleneck egress;
    // everything else is plain FIFO (legacy gear).
    t.link(
        r1,
        r2,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfg1)),
        Box::new(DropTail::packets(50)),
    );
    t.link(r2, server, 100_000_000, d, Box::new(DropTail::packets(50)), host_q());

    let mut clients = Vec::new();
    for i in 0..5 {
        let addr = Addr::new(20, 0, 0, i as u8 + 1);
        let c = t.add_node(Box::new(ClientNode::new(
            addr,
            SERVER,
            20 * 1024,
            50,
            Box::new(TvaHostShim::new(
                addr,
                Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
            )),
        )));
        t.bind_addr(c, addr);
        t.link(c, r1, 100_000_000, d, host_q(), Box::new(TvaScheduler::new(100_000_000, &cfg1)));
        clients.push(c);
    }

    // 40 legacy flooders (4× the bottleneck).
    let mut attackers = Vec::new();
    for i in 0..40 {
        let addr = Addr::new(66, 0, 0, i as u8 + 1);
        let a = t.add_node(Box::new(FloodNode::new(
            1_000_000,
            Box::new(move |_now, _seq| {
                Some(Packet {
                    id: PacketId(0),
                    src: addr,
                    dst: SERVER,
                    cap: None,
                    tcp: None,
                    payload_len: 980,
                })
            }),
        )));
        t.bind_addr(a, addr);
        t.link(a, r1, 100_000_000, d, host_q(), Box::new(TvaScheduler::new(100_000_000, &cfg1)));
        attackers.push(a);
    }

    let mut sim = t.build(55);
    for &c in &clients {
        sim.kick(c, TOKEN_START);
    }
    for &a in &attackers {
        sim.kick(a, 0);
    }
    sim.run_until(SimTime::from_secs(90));

    let mut all = Vec::new();
    for &c in &clients {
        all.extend(sim.node::<ClientNode>(c).records.iter().copied());
    }
    let s = summarize(&all);
    assert_eq!(s.attempts, 250);
    assert!(
        s.completion_fraction > 0.98,
        "partial deployment must still protect, got {}",
        s.completion_fraction
    );
    assert!(
        s.avg_completion_secs < 0.6,
        "transfer time must stay near baseline, got {}",
        s.avg_completion_secs
    );

    // Capability lists really did have a single (r1) entry.
    let r1n = sim.node::<TvaRouterNode>(r1);
    assert!(r1n.router.stats.requests_stamped > 0);
    assert!(r1n.router.stats.nonce_hits > 0);
}

#[test]
fn legacy_hosts_still_communicate_through_capability_routers() {
    // §8: "legacy hosts can communicate with one another unchanged during
    // this deployment because legacy traffic passes through capability
    // routers, albeit at low priority."
    let cfg1 = RouterConfig { secret_seed: 77, ..RouterConfig::default() };
    let mut t = TopologyBuilder::new();
    let r1 = t.add_node(Box::new(TvaRouterNode::new(cfg1.clone(), 10_000_000)));
    let server = t.add_node(Box::new(ServerNode::new(
        SERVER,
        Box::new(tva::transport::NullShim), // legacy host: no capability layer
    )));
    t.bind_addr(server, SERVER);
    let client_addr = Addr::new(20, 0, 0, 9);
    let client = t.add_node(Box::new(ClientNode::new(
        client_addr,
        SERVER,
        20 * 1024,
        10,
        Box::new(tva::transport::NullShim), // legacy host
    )));
    t.bind_addr(client, client_addr);

    let d = SimDuration::from_millis(10);
    t.link(
        client,
        r1,
        10_000_000,
        d,
        Box::new(DropTail::new(1 << 20)),
        Box::new(TvaScheduler::new(10_000_000, &cfg1)),
    );
    t.link(
        r1,
        server,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfg1)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(3);
    sim.kick(client, TOKEN_START);
    sim.run_until(SimTime::from_secs(30));
    let s = summarize(&sim.node::<ClientNode>(client).records);
    assert_eq!(s.attempts, 10);
    assert!(s.completion_fraction > 0.99, "fraction {}", s.completion_fraction);
    // All their traffic traveled the legacy class.
    let r = sim.node::<TvaRouterNode>(r1);
    assert!(r.router.stats.legacy > 100);
    assert_eq!(r.router.stats.requests_stamped, 0);
}
