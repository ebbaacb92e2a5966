//! End-to-end TVA: clients, capability routers and a server assembled on
//! the Figure 7 dumbbell, with and without floods.

use tva_core::{
    AuthorizedFlooder, ClientPolicy, RouterConfig, ServerPolicy, TvaHostShim,
    TvaRouterNode, TvaScheduler,
};
use tva_sim::{DropTail, NodeId, SimDuration, SimTime, Simulator, TopologyBuilder};
use tva_transport::{summarize, ClientNode, FloodNode, ServerNode, TOKEN_START};
use tva_wire::{Addr, Grant, Packet, PacketId};

const SERVER: Addr = Addr::new(10, 0, 0, 1);
const BOTTLENECK_BPS: u64 = 10_000_000;

fn client_addr(i: usize) -> Addr {
    Addr::new(20, 0, (i / 200) as u8, (i % 200) as u8 + 1)
}

fn attacker_addr(i: usize) -> Addr {
    Addr::new(66, 0, (i / 200) as u8, (i % 200) as u8 + 1)
}

fn router_cfg(seed: u64) -> RouterConfig {
    RouterConfig { secret_seed: seed, ..RouterConfig::default() }
}

fn tva_q(cfg: &RouterConfig, bps: u64) -> Box<TvaScheduler> {
    Box::new(TvaScheduler::new(bps, cfg))
}

fn host_q() -> Box<DropTail> {
    Box::new(DropTail::new(1 << 20))
}

struct Testbed {
    sim: Simulator,
    clients: Vec<NodeId>,
    kicks: Vec<NodeId>,
    bottleneck: tva_sim::LinkHandle,
}

/// Builds the dumbbell: clients/attackers — r1 —(10 Mb, TVA-scheduled)— r2 — server.
fn build(
    n_clients: usize,
    transfers: usize,
    grant: Grant,
    add_nodes: impl FnOnce(&mut TopologyBuilder, &RouterConfig, NodeId) -> Vec<NodeId>,
) -> Testbed {
    let cfg1 = router_cfg(101);
    let cfg2 = router_cfg(202);
    let mut t = TopologyBuilder::new();
    let r1 = t.add_node(Box::new(TvaRouterNode::new(cfg1.clone(), BOTTLENECK_BPS)));
    let r2 = t.add_node(Box::new(TvaRouterNode::new(cfg2.clone(), BOTTLENECK_BPS)));

    let server_shim = TvaHostShim::new(
        SERVER,
        Box::new(ServerPolicy::new(grant, SimDuration::from_secs(600))),
    );
    let server = t.add_node(Box::new(ServerNode::new(SERVER, Box::new(server_shim))));
    t.bind_addr(server, SERVER);
    let _ = server;

    // Bottleneck r1→r2 and back, both TVA-scheduled.
    let bottleneck = t.link(
        r1,
        r2,
        BOTTLENECK_BPS,
        SimDuration::from_millis(10),
        tva_q(&cfg1, BOTTLENECK_BPS),
        tva_q(&cfg2, BOTTLENECK_BPS),
    );
    // Server access link (fast; still TVA-scheduled on the router side).
    t.link(
        r2,
        server,
        100_000_000,
        SimDuration::from_millis(10),
        tva_q(&cfg2, 100_000_000),
        host_q(),
    );

    let mut clients = Vec::new();
    for i in 0..n_clients {
        let addr = client_addr(i);
        let shim = TvaHostShim::new(
            addr,
            Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
        );
        let c = t.add_node(Box::new(ClientNode::new(
            addr,
            SERVER,
            20 * 1024,
            transfers,
            Box::new(shim),
        )));
        t.bind_addr(c, addr);
        t.link(
            c,
            r1,
            100_000_000,
            SimDuration::from_millis(10),
            host_q(),
            tva_q(&cfg1, 100_000_000),
        );
        clients.push(c);
    }

    let kicks = add_nodes(&mut t, &cfg1, r1);
    let sim = t.build(1234);
    Testbed { sim, clients, kicks, bottleneck }
}

fn run_and_summarize(bed: &mut Testbed, until: SimTime) -> tva_transport::TransferSummary {
    for &k in &bed.kicks {
        bed.sim.kick(k, 0);
    }
    for &c in bed.clients.clone().iter() {
        bed.sim.kick(c, TOKEN_START);
    }
    bed.sim.run_until(until);
    let mut all = Vec::new();
    for &c in &bed.clients {
        all.extend(bed.sim.node::<ClientNode>(c).records.iter().copied());
    }
    summarize(&all)
}

#[test]
fn tva_clean_network_completes_fast() {
    let mut bed = build(2, 20, Grant::from_parts(100, 10), |_, _, _| Vec::new());
    let s = run_and_summarize(&mut bed, SimTime::from_secs(60));
    assert_eq!(s.attempts, 40);
    assert!(s.completion_fraction > 0.99, "fraction {}", s.completion_fraction);
    assert!(
        (0.25..0.45).contains(&s.avg_completion_secs),
        "avg {}s, expected ≈0.31s",
        s.avg_completion_secs
    );
    // The capability machinery actually engaged: routers saw nonce hits.
    let r1 = bed.sim.node::<TvaRouterNode>(NodeId(0));
    assert!(r1.router.stats.requests_stamped >= 2, "requests were stamped");
    assert!(
        r1.router.stats.nonce_hits > r1.router.stats.full_validations,
        "fast path dominates: {} hits vs {} validations",
        r1.router.stats.nonce_hits,
        r1.router.stats.full_validations
    );
    assert_eq!(bed.sim.unrouted(), 0);
}

#[test]
fn tva_survives_legacy_flood() {
    // 50 legacy flooders at 1 Mb/s (5× the bottleneck): TVA treats them as
    // lowest priority; completions stay ≈100% and time stays ≈0.31 s
    // (Figure 8's TVA line).
    let mut bed = build(5, 10, Grant::from_parts(100, 10), |t, cfg1, r1| {
        let mut kicks = Vec::new();
        for i in 0..50 {
            let addr = attacker_addr(i);
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
            t.link(
                a,
                r1,
                100_000_000,
                SimDuration::from_millis(10),
                host_q(),
                Box::new(TvaScheduler::new(100_000_000, cfg1)),
            );
            kicks.push(a);
        }
        kicks
    });
    let s = run_and_summarize(&mut bed, SimTime::from_secs(120));
    assert_eq!(s.attempts, 50);
    assert!(
        s.completion_fraction > 0.98,
        "TVA must shrug off legacy floods, got {}",
        s.completion_fraction
    );
    assert!(
        s.avg_completion_secs < 0.6,
        "transfer time should stay near baseline, got {}",
        s.avg_completion_secs
    );
    // The flood was actually present and was dropped at the bottleneck.
    let st = &bed.sim.channel(bed.bottleneck.ab).stats;
    assert!(st.dropped_pkts > 100_000, "flood should overwhelm legacy FIFO");
}

#[test]
fn tva_survives_request_flood() {
    // Attackers flood *request* packets; the request class is rate-limited
    // and fair-queued per path id, so legitimate requests still get through
    // (Figure 9's TVA line). The destination refuses attacker requests.
    let mut bed = build(5, 10, Grant::from_parts(100, 10), |t, cfg1, r1| {
        let mut kicks = Vec::new();
        for i in 0..50 {
            let addr = attacker_addr(i);
            let a = t.add_node(Box::new(FloodNode::new(
                1_000_000,
                Box::new(move |_now, _seq| {
                    Some(Packet {
                        id: PacketId(0),
                        src: addr,
                        dst: SERVER,
                        cap: Some(tva_wire::CapHeader::request()),
                        tcp: None,
                        payload_len: 960,
                    })
                }),
            )));
            t.bind_addr(a, addr);
            t.link(
                a,
                r1,
                100_000_000,
                SimDuration::from_millis(10),
                host_q(),
                Box::new(TvaScheduler::new(100_000_000, cfg1)),
            );
            kicks.push(a);
        }
        kicks
    });
    let s = run_and_summarize(&mut bed, SimTime::from_secs(120));
    assert!(
        s.completion_fraction > 0.98,
        "request floods must not block legitimate requests, got {}",
        s.completion_fraction
    );
    assert!(s.avg_completion_secs < 0.6, "avg {}", s.avg_completion_secs);
}

#[test]
fn tva_colluder_flood_shares_bandwidth_per_destination() {
    // Figure 10: attackers get authorized by a colluder behind the same
    // bottleneck and flood at max rate. Per-destination fair queuing splits
    // the bottleneck between the colluder and the real destination, so
    // legitimate transfers all complete with a slightly higher time.
    const COLLUDER: Addr = Addr::new(10, 0, 0, 2);
    let mut bed = build(5, 10, Grant::from_parts(100, 10), |t, cfg1, r1| {
        let cfg2b = router_cfg(202);
        let mut kicks = Vec::new();
        // The colluder sits behind the bottleneck, next to the server,
        // reachable via r2 (node id 1).
        let colluder_shim = TvaHostShim::new(
            COLLUDER,
            Box::new(tva_core::AllowAll { grant: Grant::from_parts(1023, 10) }),
        );
        let colluder = t.add_node(Box::new(ServerNode::new(COLLUDER, Box::new(colluder_shim))));
        t.bind_addr(colluder, COLLUDER);
        t.link(
            NodeId(1), // r2
            colluder,
            100_000_000,
            SimDuration::from_millis(10),
            Box::new(TvaScheduler::new(100_000_000, &cfg2b)),
            Box::new(DropTail::new(1 << 20)),
        );
        for i in 0..20 {
            let addr = attacker_addr(i);
            let a = t.add_node(Box::new(AuthorizedFlooder::new(addr, COLLUDER, 1_000_000)));
            t.bind_addr(a, addr);
            t.link(
                a,
                r1,
                100_000_000,
                SimDuration::from_millis(10),
                Box::new(DropTail::new(1 << 20)),
                Box::new(TvaScheduler::new(100_000_000, cfg1)),
            );
            kicks.push(a);
        }
        kicks
    });
    let s = run_and_summarize(&mut bed, SimTime::from_secs(120));
    assert!(
        s.completion_fraction > 0.98,
        "per-destination FQ must protect the real destination, got {}",
        s.completion_fraction
    );
    // The colluder's flood did get through at roughly half the bottleneck
    // (it is authorized traffic, fairly sharing with the destination).
    let st = &bed.sim.channel(bed.bottleneck.ab).stats;
    assert!(
        st.tx_bytes > 50_000_000,
        "bottleneck should be busy carrying the authorized flood, got {}",
        st.tx_bytes
    );
}

#[test]
fn router_restart_recovers_via_demotion_echo() {
    // §3.8: a router losing its cache and secret mid-run demotes in-flight
    // authorized traffic; destinations echo the demotion and senders
    // re-acquire. Service continues with at most a brief disturbance.
    let mut bed = build(3, 200, Grant::from_parts(100, 10), |_, _, _| Vec::new());
    for &c in bed.clients.clone().iter() {
        bed.sim.kick(c, TOKEN_START);
    }
    bed.sim.run_until(SimTime::from_secs(20));
    // Both routers restart with fresh secrets: worst case for recovery.
    bed.sim.node_mut::<TvaRouterNode>(NodeId(0)).router.restart(0xAAAA);
    bed.sim.node_mut::<TvaRouterNode>(NodeId(1)).router.restart(0xBBBB);
    bed.sim.run_until(SimTime::from_secs(60));

    let mut all = Vec::new();
    for &c in &bed.clients {
        all.extend(bed.sim.node::<ClientNode>(c).records.iter().copied());
    }
    // Transfers that finished after the restart window prove recovery.
    let recovered = all
        .iter()
        .filter(|r| {
            r.finished
                .is_some_and(|f| f > SimTime::from_secs(25))
        })
        .count();
    assert!(
        recovered > 100,
        "transfers must resume after a dual router restart, got {recovered}"
    );
    let s = summarize(&all);
    assert!(
        s.completion_fraction > 0.95,
        "restart must not sink overall completion, got {}",
        s.completion_fraction
    );
    // The demotion-echo machinery actually fired.
    let r1 = bed.sim.node::<TvaRouterNode>(NodeId(0));
    assert!(r1.router.stats.demotions > 0 || r1.router.stats.requests_stamped > 3);
}
