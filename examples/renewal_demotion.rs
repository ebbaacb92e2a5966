//! Capability renewal and demotion repair, observed end to end.
//!
//! A single client pushes files long enough to exercise every part of the
//! capability lifecycle: bootstrap, nonce fast path, proactive renewal
//! before the (N, T) budget runs out, and the demotion of stragglers sent
//! under a superseded nonce. Router counters tell the story.
//!
//! Run: `cargo run --release --example renewal_demotion`

use tva::core::{ClientPolicy, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode, TvaScheduler};
use tva::sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva::transport::{ClientNode, ServerNode, TOKEN_START};
use tva::wire::{Addr, Grant};

fn main() {
    const CLIENT: Addr = Addr::new(20, 0, 0, 1);
    const SERVER: Addr = Addr::new(10, 0, 0, 1);
    // A deliberately small grant so renewals happen every couple of
    // transfers.
    let grant = Grant::from_parts(64, 10);

    let rcfg = RouterConfig { secret_seed: 7, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let router = t.add_node(Box::new(TvaRouterNode::new(rcfg.clone(), 10_000_000)));
    let client = t.add_node(Box::new(ClientNode::new(
        CLIENT,
        SERVER,
        20 * 1024,
        200,
        Box::new(TvaHostShim::new(
            CLIENT,
            Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
        )),
    )));
    let server = t.add_node(Box::new(ServerNode::new(
        SERVER,
        Box::new(TvaHostShim::new(
            SERVER,
            Box::new(ServerPolicy::new(grant, SimDuration::from_secs(600))),
        )),
    )));
    t.bind_addr(client, CLIENT);
    t.bind_addr(server, SERVER);
    t.link(
        client,
        router,
        10_000_000,
        SimDuration::from_millis(10),
        Box::new(DropTail::new(1 << 20)),
        Box::new(TvaScheduler::new(10_000_000, &rcfg)),
    );
    t.link(
        router,
        server,
        10_000_000,
        SimDuration::from_millis(10),
        Box::new(TvaScheduler::new(10_000_000, &rcfg)),
        Box::new(DropTail::new(1 << 20)),
    );

    let mut sim = t.build(42);
    sim.kick(client, TOKEN_START);
    sim.run_until(SimTime::from_secs(120));

    let c = sim.node::<ClientNode>(client);
    let completed = c.records.iter().filter(|r| r.finished.is_some()).count();
    println!("client: {completed}/{} transfers completed", c.records.len());
    if std::env::var_os("DBG").is_some() {
        for r in &c.records {
            println!("  start={:.2} dur={:?}", r.started.as_secs_f64(), r.duration_secs());
        }
    }

    let r = &sim.node::<TvaRouterNode>(router).router;
    let s = &r.stats;
    println!("\nrouter counters over the run:");
    println!("  requests stamped        {:>8}", s.requests_stamped);
    println!("  nonce fast-path hits    {:>8}", s.nonce_hits);
    println!("  full validations        {:>8}", s.full_validations);
    println!("  renewals minted         {:>8}", s.renewals);
    println!("  demotions               {:>8}", s.demotions);
    println!("    … stragglers (no caps){:>8}", s.demoted_no_caps);
    println!("    … over budget         {:>8}", s.demoted_over_budget);
    println!("    … expired             {:>8}", s.demoted_expired);
    println!("  flow-table occupancy    {:>8}", r.table().len());

    println!(
        "\nWith a {} KB / {} s grant the sender renews roughly every {} transfers;",
        grant.n.kb(),
        grant.t.secs(),
        (grant.n.bytes() as f64 * 0.75 / (21.0 * 1050.0)).round()
    );
    println!("each renewal mints fresh pre-capabilities in place, and the few");
    println!("packets still in flight under the old nonce arrive demoted — they");
    println!("travel at legacy priority instead of being lost, so TCP never");
    println!("notices (§3.7–3.8).");
}
