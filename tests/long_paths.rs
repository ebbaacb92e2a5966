//! Multi-hop capability mechanics: a chain of four independent TVA routers.
//!
//! Every router occupies its own slot in the capability list (the pointer
//! advances hop by hop), renewals rewrite all four slots with fresh
//! pre-capabilities, and transfers behave exactly as on the two-router
//! dumbbell. This exercises the Figure 5 `capability ptr` machinery at
//! depth, plus secret independence across four routers.

use tva::core::{
    ClientPolicy, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode,
    TvaScheduler,
};
use tva::sim::{DropTail, NodeId, SimDuration, SimTime, TopologyBuilder};
use tva::transport::{summarize, ClientNode, ServerNode, TOKEN_START};
use tva::wire::{Addr, Grant};

const CLIENT: Addr = Addr::new(20, 0, 0, 1);
const SERVER: Addr = Addr::new(10, 0, 0, 1);

#[test]
fn four_router_chain_works_end_to_end() {
    let mut t = TopologyBuilder::new();
    let mut cfgs = Vec::new();
    let mut routers = Vec::new();
    for i in 0..4u64 {
        let cfg = RouterConfig { secret_seed: 1000 + i, ..RouterConfig::default() };
        routers.push(t.add_node(Box::new(TvaRouterNode::new(cfg.clone(), 10_000_000))));
        cfgs.push(cfg);
    }
    let client = t.add_node(Box::new(ClientNode::new(
        CLIENT,
        SERVER,
        20 * 1024,
        50,
        Box::new(TvaHostShim::new(
            CLIENT,
            Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
        )),
    )));
    let server = t.add_node(Box::new(ServerNode::new(
        SERVER,
        Box::new(TvaHostShim::new(
            SERVER,
            Box::new(ServerPolicy::new(
                Grant::from_parts(64, 10), // small: force renewals in flight
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(client, CLIENT);
    t.bind_addr(server, SERVER);

    let d = SimDuration::from_millis(5);
    let host_q = || Box::new(DropTail::new(1 << 20));
    t.link(
        client,
        routers[0],
        10_000_000,
        d,
        host_q(),
        Box::new(TvaScheduler::new(10_000_000, &cfgs[0])),
    );
    for i in 0..3 {
        t.link(
            routers[i],
            routers[i + 1],
            10_000_000,
            d,
            Box::new(TvaScheduler::new(10_000_000, &cfgs[i])),
            Box::new(TvaScheduler::new(10_000_000, &cfgs[i + 1])),
        );
    }
    t.link(
        routers[3],
        server,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfgs[3])),
        host_q(),
    );

    let mut sim = t.build(77);
    sim.kick(client, TOKEN_START);
    sim.run_until(SimTime::from_secs(60));

    let s = summarize(&sim.node::<ClientNode>(client).records);
    assert_eq!(s.attempts, 50);
    assert!(s.completion_fraction > 0.99, "fraction {}", s.completion_fraction);
    // 5 hops × 5 ms each way = 50 ms RTT; ≈ the dumbbell's profile.
    assert!(s.avg_completion_secs < 0.6, "time {}", s.avg_completion_secs);

    // Every router participated: all stamped requests and validated caps at
    // its own position, and renewals were minted at each hop.
    for (i, &r) in routers.iter().enumerate() {
        let st = &sim.node::<TvaRouterNode>(r).router.stats;
        assert!(st.requests_stamped > 0, "router {i} stamped no requests");
        assert!(st.full_validations > 0, "router {i} validated nothing");
        assert!(st.nonce_hits > 0, "router {i} saw no fast-path traffic");
        assert!(st.renewals > 0, "router {i} minted no renewals");
        assert_eq!(
            st.demoted_bad_cap, 0,
            "router {i} rejected caps that should be valid (pointer bug?)"
        );
    }
    let _ = NodeId(0);
}
