//! §3.2's path-identifier defense in depth, on a two-ingress tree:
//!
//! ```text
//! users ──── edgeU ──┐
//!                    ├── core ══ 10 Mb/s ══ dest
//! attackers ─ edgeA ─┘
//! ```
//!
//! * Requests are fair-queued by their most recent tag, so a request flood
//!   from behind one edge contends in *that edge's* queues, not the users'.
//! * "an attacker … who writes arbitrary tags can at most cause queue
//!   contention at the next downstream trust domain": attackers pre-fill
//!   forged tag entries, but every trust boundary appends its own tag and
//!   queuing uses the most recent one, so forgery buys nothing beyond the
//!   attacker's own ingress.
//! * How many ingresses share a 16-bit tag, and so a request queue, at the
//!   fan-out of one scale-tree leaf.
//! * Why the request channel needs no constant-memory variant: a trust
//!   boundary holds at most one request key per input link, however many
//!   tags the attackers forge, so its key table never fills.

use std::any::Any;

use tva::core::{
    ClientPolicy, RouterConfig, ServerPolicy, TvaHostShim, TvaRouter, TvaRouterNode,
    TvaScheduler,
};
use tva::experiments::{run_driven, Attack, BuiltNodes, ScenarioConfig};
use tva::sim::{ChannelId, DropTail, NodeId, SimDuration, SimTime, Simulator, TopologyBuilder};
use tva::transport::{summarize, ClientNode, FloodNode, ServerNode, TOKEN_START};
use tva::wire::{
    Addr, CapHeader, CapPayload, CapValue, Grant, Packet, PacketId, PathId, RequestEntry,
};

const DEST: Addr = Addr::new(10, 0, 0, 1);

/// Builds the tree; `forge_tags` controls whether attackers pre-fill bogus
/// path-identifier entries in their request floods.
fn build(n_attackers: usize, forge_tags: bool) -> (Simulator, Vec<NodeId>, Vec<NodeId>) {
    let cfg_eu = RouterConfig { secret_seed: 1, request_fraction: 0.01, ..Default::default() };
    let cfg_ea = RouterConfig { secret_seed: 2, request_fraction: 0.01, ..Default::default() };
    let cfg_core = RouterConfig { secret_seed: 3, request_fraction: 0.01, ..Default::default() };

    let mut t = TopologyBuilder::new();
    let edge_u = t.add_node(Box::new(TvaRouterNode::new(cfg_eu.clone(), 100_000_000)));
    let edge_a = t.add_node(Box::new(TvaRouterNode::new(cfg_ea.clone(), 100_000_000)));
    let core = t.add_node(Box::new(TvaRouterNode::new(cfg_core.clone(), 10_000_000)));
    let server = t.add_node(Box::new(ServerNode::new(
        DEST,
        Box::new(TvaHostShim::new(
            DEST,
            Box::new(ServerPolicy::new(
                Grant::from_parts(100, 10),
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(server, DEST);

    let d = SimDuration::from_millis(5);
    let host_q = || Box::new(DropTail::new(1 << 20));
    t.link(
        edge_u,
        core,
        100_000_000,
        d,
        Box::new(TvaScheduler::new(100_000_000, &cfg_eu)),
        Box::new(TvaScheduler::new(100_000_000, &cfg_core)),
    );
    t.link(
        edge_a,
        core,
        100_000_000,
        d,
        Box::new(TvaScheduler::new(100_000_000, &cfg_ea)),
        Box::new(TvaScheduler::new(100_000_000, &cfg_core)),
    );
    // The bottleneck: core → dest.
    t.link(
        core,
        server,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfg_core)),
        host_q(),
    );

    let mut users = Vec::new();
    for i in 0..10 {
        let addr = Addr::new(20, 0, 0, i as u8 + 1);
        let c = t.add_node(Box::new(ClientNode::new(
            addr,
            DEST,
            20 * 1024,
            2000,
            Box::new(TvaHostShim::new(
                addr,
                Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
            )),
        )));
        t.bind_addr(c, addr);
        t.link(c, edge_u, 100_000_000, d, host_q(), Box::new(TvaScheduler::new(100_000_000, &cfg_eu)));
        users.push(c);
    }

    let mut attackers = Vec::new();
    for i in 0..n_attackers {
        let addr = Addr::new(66, 0, 0, i as u8 + 1);
        let forged = forge_tags;
        let a = t.add_node(Box::new(FloodNode::new(
            1_000_000,
            Box::new(move |_now, seq| {
                let mut h = CapHeader::request();
                if forged {
                    // Pre-fill bogus tag entries, cycling tag values to try
                    // to smear across queues downstream.
                    if let CapPayload::Request { entries } = &mut h.payload {
                        entries.push(RequestEntry {
                            path_id: PathId((seq % 65_535 + 1) as u16),
                            precap: CapValue::new(0, seq),
                        });
                    }
                }
                Some(Packet {
                    id: PacketId(0),
                    src: addr,
                    dst: DEST,
                    cap: Some(h),
                    tcp: None,
                    payload_len: 960,
                })
            }),
        )));
        t.bind_addr(a, addr);
        t.link(a, edge_a, 100_000_000, d, host_q(), Box::new(TvaScheduler::new(100_000_000, &cfg_ea)));
        attackers.push(a);
    }
    (t.build(23), users, attackers)
}

fn run(n_attackers: usize, forge: bool) -> tva::transport::TransferSummary {
    let (mut sim, users, attackers) = build(n_attackers, forge);
    for &u in &users {
        sim.kick(u, TOKEN_START);
    }
    for &a in &attackers {
        sim.kick(a, 0);
    }
    sim.run_until(SimTime::from_secs(60));
    let mut all = Vec::new();
    for &u in &users {
        all.extend(
            sim.node::<ClientNode>(u)
                .records
                .iter()
                .filter(|r| r.started >= SimTime::from_secs(10))
                .copied(),
        );
    }
    summarize(&all)
}

#[test]
fn request_floods_from_another_ingress_cannot_block_users() {
    let s = run(50, false);
    assert!(s.attempts > 200, "users should stay busy, got {}", s.attempts);
    assert!(s.completion_fraction > 0.99, "fraction {}", s.completion_fraction);
    assert!(s.avg_completion_secs < 0.5, "time {}", s.avg_completion_secs);
}

#[test]
fn forged_path_identifiers_buy_the_attacker_nothing_downstream() {
    // Forged tags are superseded by the attacker's own trust boundary: the
    // most recent tag is edgeA's, so at the core the flood still occupies
    // edgeA's queue, and users behind edgeU are untouched.
    let s = run(50, true);
    assert!(s.completion_fraction > 0.99, "fraction {}", s.completion_fraction);
    assert!(s.avg_completion_secs < 0.5, "time {}", s.avg_completion_secs);
}

#[test]
fn a_trust_boundary_holds_one_request_key_per_input_link() {
    // The dumbbell's R1 re-tags every request with the tag of the link it
    // arrived on, so its bottleneck scheduler's request keys are bounded by
    // R1's input links: forged tags (the storm pre-fills 8 per request from
    // a pool of 64 spoofed sources) never become queue keys, the key table
    // never fills, and no request is demoted for want of a key.
    let storm = Attack::SpoofedRequestStorm { src_pool: 64, fill: 8 };
    for attack in [storm, Attack::Combined] {
        let cfg = ScenarioConfig {
            attack,
            n_attackers: 100,
            transfers_per_user: 1000,
            duration: SimTime::from_secs(20),
            ..ScenarioConfig::default()
        };
        let (mut peak_keys, mut inputs, mut demoted, mut sent) = (0, 0, u64::MAX, 0);
        let r = run_driven(
            &cfg,
            |sim, nodes| {
                let step = SimDuration::from_millis(20);
                let mut t = SimTime::ZERO;
                while t < cfg.duration {
                    t += step;
                    sim.run_until(t);
                    peak_keys = peak_keys.max(bottleneck_sched(sim, nodes).request_keys());
                }
            },
            |sim, nodes| {
                inputs = (0..sim.channel_count())
                    .filter(|&c| sim.channel(ChannelId(c)).to == nodes.r1)
                    .count();
                let stats = &bottleneck_sched(sim, nodes).stats;
                (demoted, sent) = (stats.requests_demoted, stats.requests_sent);
            },
        );
        let name = attack.name();
        println!("{name}: peak {peak_keys} request keys from {inputs} input links, {sent} sent");
        assert_eq!(inputs, 10 + 100 + 1, "{name}: users, attackers and R2 feed R1");
        assert!(sent > 100, "{name}: the request channel carried the flood ({sent})");
        assert!(peak_keys > 1, "{name}: requests queued under more than one key");
        assert!(peak_keys <= inputs, "{name}: {peak_keys} request keys from {inputs} input links");
        assert_eq!(demoted, 0, "{name}: a request was demoted for want of a key");
        assert!(r.summary.completion_fraction > 0.99, "{name}: {:?}", r.summary);
    }
}

fn bottleneck_sched<'a>(sim: &'a Simulator, nodes: &BuiltNodes) -> &'a TvaScheduler {
    let disc: &dyn Any = sim.channel(nodes.bottleneck.ab).queue_disc();
    disc.downcast_ref::<TvaScheduler>().expect("R1's bottleneck egress runs the TVA scheduler")
}

#[test]
fn tags_fill_the_16_bit_space_like_random_draws() {
    // One leaf of the 1 M-host scale tree has 10 000 ingresses. If the
    // keyed hash spreads them like uniform draws from 2^16 tags, the
    // birthday expectation gives the distinct tags, and every tag held by
    // two ingresses is a request queue they share under `Flat`.
    const INGRESSES: usize = 10_000;
    const ROUTERS: u64 = 20;
    const SPACE: f64 = 65_536.0;
    let (mut distinct, mut shared) = (0usize, 0usize);
    for r in 0..ROUTERS {
        let cfg = RouterConfig { secret_seed: 0x1EAF_0000 + r, ..Default::default() };
        let mut router = TvaRouter::new(cfg, 1_000_000_000);
        let mut holders = vec![0u32; 1 << 16];
        for i in 0..INGRESSES {
            holders[router.tag_for(ChannelId(i)).0 as usize] += 1;
        }
        distinct += holders.iter().filter(|&&n| n > 0).count();
        shared += holders.iter().filter(|&&n| n > 1).map(|&n| n as usize).sum::<usize>();
    }
    let n = INGRESSES as f64;
    let mean_distinct = distinct as f64 / ROUTERS as f64;
    let expect_distinct = SPACE * (1.0 - (-n / SPACE).exp());
    let share = shared as f64 / (n * ROUTERS as f64);
    let expect_share = 1.0 - (-(n - 1.0) / SPACE).exp();
    println!(
        "{INGRESSES} ingresses x {ROUTERS} routers: {mean_distinct:.0} distinct tags \
         (birthday {expect_distinct:.0}); {:.2} % share a queue (birthday {:.2} %)",
        share * 100.0,
        expect_share * 100.0
    );
    assert!(
        (mean_distinct - expect_distinct).abs() < 0.01 * expect_distinct,
        "mean distinct tags {mean_distinct:.0}, birthday expectation {expect_distinct:.0}"
    );
    assert!(
        (share - expect_share).abs() < 0.01,
        "shared-queue share {share:.4}, birthday expectation {expect_share:.4}"
    );
}
