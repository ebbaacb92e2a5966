//! Direction symmetry (§3.2: "each direction is handled independently"):
//! a *download* — the server is the data sender, the user is the
//! destination — while attackers flood the user's access path. The user's
//! client policy grants the server it contacted and refuses everyone else,
//! so the flood is demoted on the user's side of the network exactly as
//! floods at servers are.

use tva::core::{
    RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode,
    TvaScheduler,
};
use tva::sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva::transport::{summarize, ClientNode, FloodNode, ServerNode, TOKEN_START};
use tva::wire::{Addr, Grant, Packet, PacketId};

const USER: Addr = Addr::new(20, 0, 0, 1);
const SERVER: Addr = Addr::new(10, 0, 0, 1);

#[test]
fn downloads_survive_floods_at_the_user_side() {
    // Topology: server — R1 ══ 10 Mb/s ══ R2 — user; attackers attach at
    // R1 and flood the *user*. The "ClientNode" (active opener and data
    // sender) runs at the server machine pushing files to the user — a
    // download from the user's perspective.
    let cfg1 = RouterConfig { secret_seed: 61, ..Default::default() };
    let cfg2 = RouterConfig { secret_seed: 62, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let r1 = t.add_node(Box::new(TvaRouterNode::new(cfg1.clone(), 10_000_000)));
    let r2 = t.add_node(Box::new(TvaRouterNode::new(cfg2.clone(), 10_000_000)));

    // The data pusher at the server site. Its shim uses the *server*
    // policy in the reverse role (it grants the user's ACK-direction
    // requests).
    let pusher = t.add_node(Box::new(ClientNode::new(
        SERVER,
        USER,
        20 * 1024,
        2000,
        Box::new(TvaHostShim::new(
            SERVER,
            Box::new(ServerPolicy::new(
                Grant::from_parts(100, 10),
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(pusher, SERVER);

    // The user receives; its client policy only authorizes peers it has
    // itself contacted — and here the *server* initiates, so the user's
    // policy must grant via the reverse-request match (the SYN carries the
    // server's forward request; the user grants because the connection's
    // packets arrive as part of an exchange it participates in: its shim
    // sees its own outgoing traffic to the server once ACKs flow).
    //
    // For an unsolicited inbound connection a strict firewall-style client
    // would refuse; this user accepts downloads from the well-known server
    // by policy (AllowAll toward that address would be typical; we use the
    // ServerPolicy to model a host that accepts inbound transfers).
    let user = t.add_node(Box::new(ServerNode::new(
        USER,
        Box::new(TvaHostShim::new(
            USER,
            Box::new(ServerPolicy::new(
                Grant::from_parts(100, 10),
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(user, USER);

    let d = SimDuration::from_millis(10);
    let host_q = || Box::new(DropTail::new(1 << 20));
    t.link(
        pusher,
        r1,
        100_000_000,
        d,
        host_q(),
        Box::new(TvaScheduler::new(100_000_000, &cfg1)),
    );
    t.link(
        r1,
        r2,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfg1)),
        Box::new(TvaScheduler::new(10_000_000, &cfg2)),
    );
    t.link(r2, user, 100_000_000, d, Box::new(TvaScheduler::new(100_000_000, &cfg2)), host_q());

    // 40 attackers flood the USER with legacy traffic through the same
    // bottleneck.
    let mut attackers = Vec::new();
    for i in 0..40 {
        let addr = Addr::new(66, 0, 0, i as u8 + 1);
        let a = t.add_node(Box::new(FloodNode::new(
            1_000_000,
            Box::new(move |_now, _seq| {
                Some(Packet {
                    id: PacketId(0),
                    src: addr,
                    dst: USER,
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

    let mut sim = t.build(71);
    sim.kick(pusher, TOKEN_START);
    for &a in &attackers {
        sim.kick(a, 0);
    }
    sim.run_until(SimTime::from_secs(60));

    let recs: Vec<_> = sim
        .node::<ClientNode>(pusher)
        .records
        .iter()
        .filter(|r| r.started >= SimTime::from_secs(10))
        .copied()
        .collect();
    let s = summarize(&recs);
    assert!(s.attempts > 50, "downloads should keep flowing, got {}", s.attempts);
    assert!(
        s.completion_fraction > 0.99,
        "downloads must survive a 4x flood at the user side, got {}",
        s.completion_fraction
    );
    assert!(s.avg_completion_secs < 0.6, "time {}", s.avg_completion_secs);
    assert!(sim.node::<ServerNode>(user).delivered_bytes() > 1_000_000);
}
