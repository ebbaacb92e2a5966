//! The internet-scale workload: a multi-path TVA tree grown two orders of
//! magnitude beyond the fig8 dumbbell.
//!
//! Topology (fig11's shape, scaled): one destination-side **root** router
//! with the server behind a 100 Mb/s bottleneck, `mid_routers` core routers
//! under the root, `leaf_routers_per_mid` access routers under each, and
//! the host population spread evenly across the leaves. Every host is a
//! real node with its own access link and address; attackers (hosts at a
//! fixed stride) flood capability requests at the server while a strided
//! sample of legitimate users runs file transfers — driving 100k hosts'
//! transfers through one 100 Mb/s bottleneck would measure queueing, not
//! the engine, so legitimate activity is sampled while attack traffic runs
//! at full population.
//!
//! Routing uses [`TopologyBuilder::static_route`]: default routes point up
//! the tree, one static entry per (ancestor, host) points down — O(depth)
//! work per host instead of the per-address whole-graph BFS that
//! `bind_addr` costs, which is what makes a 100k-host build finish in
//! seconds. Route tables stay lazily sized, so each router only pays for
//! the address range it actually serves.
//!
//! [`TopologyBuilder::static_route`]: tva_sim::TopologyBuilder::static_route

use std::time::Instant;

use tva_core::{
    ClientPolicy, HostConfig, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva_transport::{ClientNode, FloodNode, ServerNode, TcpConfig, TOKEN_START};
use tva_wire::{Addr, CapHeader, Grant, Packet, PacketId};

/// The server's address (outside the host address block).
const SERVER: Addr = Addr::new(10, 0, 0, 1);
/// Hosts are `Addr(HOST_BASE + i)` (10.x stays reserved for the server).
const HOST_BASE: u32 = 0x1400_0000; // 20.0.0.0

/// Parameters of one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Total hosts at the leaves (attackers included).
    pub hosts: usize,
    /// How many of the hosts flood requests (evenly interleaved).
    pub attackers: usize,
    /// Legitimate hosts actively transferring (the rest stay idle).
    pub active_users: usize,
    /// Core routers under the root.
    pub mid_routers: usize,
    /// Access routers under each core router.
    pub leaf_routers_per_mid: usize,
    /// Simulated horizon in seconds.
    pub sim_secs: u64,
    /// Per-attacker flood rate.
    pub attacker_rate_bps: u64,
    /// Engine seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The full-size benchmark: 1M hosts, 100k attackers (the fig11 shape
    /// at the scale §5's argument is about).
    pub fn full() -> Self {
        ScaleConfig {
            hosts: 1_000_000,
            attackers: 100_000,
            active_users: 500,
            mid_routers: 10,
            leaf_routers_per_mid: 10,
            sim_secs: 2,
            attacker_rate_bps: 100_000,
            seed: 3,
        }
    }

    /// A CI-sized variant (~10k hosts) with the same shape.
    pub fn quick() -> Self {
        ScaleConfig { hosts: 10_000, attackers: 1_000, active_users: 100, ..Self::full() }
    }
}

/// Headline numbers from one scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Hosts built (attackers included).
    pub hosts: usize,
    /// Flooding hosts.
    pub attackers: usize,
    /// Routers built (root + mid + leaf).
    pub routers: usize,
    /// Engine events dispatched.
    pub events: u64,
    /// Seconds spent building the topology (routes included).
    pub build_s: f64,
    /// Seconds spent dispatching events.
    pub run_s: f64,
    /// Events per wall-clock second during dispatch.
    pub events_per_sec: f64,
    /// Packets the bottleneck (root→server) carried.
    pub bottleneck_tx_pkts: u64,
    /// Requests the attackers emitted.
    pub attack_pkts_emitted: u64,
    /// Peak RSS attributable to this run in KiB: the kernel's high-water
    /// mark is reset before the build (see `alloc::reset_peak_rss`), so
    /// this is the run's own footprint, not whatever an earlier phase of
    /// the process happened to touch. Falls back to a before/after delta
    /// when the reset isn't permitted; `None` when procfs is unreadable.
    pub peak_rss_kb: Option<u64>,
    /// Shards the engine ran on (`TVA_SHARDS`, after clamping).
    pub shards: usize,
    /// Events that crossed a shard boundary (0 on one shard).
    pub cross_shard_events: u64,
    /// Invariant violations found when driven under `TVA_CHECK=1`
    /// (`Some(0)` = audited clean); `None` when checking was off.
    pub check_violations: Option<u64>,
}

/// Builds the tree and runs the workload. Honors `TVA_SHARDS` (engine
/// sharding) and `TVA_CHECK` (drives the run under the full invariant
/// auditor set instead of a plain `run_until`).
pub fn run_scale(cfg: ScaleConfig) -> ScaleRun {
    run_scale_with(cfg, tva_sim::shards_from_env())
}

/// [`run_scale`] with an explicit shard count (the repo benchmark pins one
/// shard whatever the environment says; the shard-invariance test compares
/// 1-shard and sharded runs of the same config in one process, where an
/// env knob can't distinguish them). `TVA_CHECK` is still honored.
pub fn run_scale_with(cfg: ScaleConfig, shards: usize) -> ScaleRun {
    assert!(cfg.attackers <= cfg.hosts, "attackers are a subset of hosts");
    let leaves_total = cfg.mid_routers * cfg.leaf_routers_per_mid;
    assert!(leaves_total > 0 && cfg.hosts >= leaves_total, "at least one host per leaf");

    let rss_before = crate::alloc::peak_rss_kb();
    let rss_reset = crate::alloc::reset_peak_rss();
    let t_build = Instant::now();
    let mut t = TopologyBuilder::new();
    let delay = SimDuration::from_millis(5);
    let bottleneck_bps: u64 = 100_000_000;
    let core_bps: u64 = 10_000_000_000;
    let leaf_bps: u64 = 1_000_000_000;
    let access_bps: u64 = 100_000_000;

    let root_cfg = RouterConfig { secret_seed: cfg.seed ^ 0xB007, ..Default::default() };
    let root = t.add_node(Box::new(TvaRouterNode::new(root_cfg.clone(), bottleneck_bps)));

    // Server behind the root: the contended destination.
    let server = t.add_node(Box::new(ServerNode::new(
        SERVER,
        TcpConfig::default(),
        Box::new(TvaHostShim::new(
            SERVER,
            HostConfig::default(),
            Box::new(ServerPolicy::new(Grant::from_parts(100, 10), SimDuration::from_secs(30))),
        )),
    )));
    t.bind_addr(server, SERVER);
    let root_server = t.link(
        root,
        server,
        bottleneck_bps,
        delay,
        Box::new(TvaScheduler::new(bottleneck_bps, &root_cfg)),
        Box::new(DropTail::new(1 << 20)),
    );
    t.default_route(server, root_server.ba);

    // Core and access layers. Every router's default points up; downward
    // reachability comes from the per-host static routes installed below.
    // Tuples: (leaf, leaf_cfg, mid, mid→leaf channel, root→mid channel).
    let mut leaves = Vec::with_capacity(leaves_total);
    for m in 0..cfg.mid_routers {
        let mid_cfg =
            RouterConfig { secret_seed: cfg.seed ^ (0x4D00 + m as u64), ..Default::default() };
        let mid = t.add_node(Box::new(TvaRouterNode::new(mid_cfg.clone(), core_bps)));
        let mid_up = t.link(
            mid,
            root,
            core_bps,
            delay,
            Box::new(TvaScheduler::new(core_bps, &mid_cfg)),
            Box::new(TvaScheduler::new(core_bps, &root_cfg)),
        );
        t.default_route(mid, mid_up.ab);
        for l in 0..cfg.leaf_routers_per_mid {
            let leaf_cfg = RouterConfig {
                secret_seed: cfg.seed ^ (0x1EAF_0000 + (m * 256 + l) as u64),
                ..Default::default()
            };
            let leaf = t.add_node(Box::new(TvaRouterNode::new(leaf_cfg.clone(), leaf_bps)));
            let leaf_up = t.link(
                leaf,
                mid,
                leaf_bps,
                delay,
                Box::new(TvaScheduler::new(leaf_bps, &leaf_cfg)),
                Box::new(TvaScheduler::new(leaf_bps, &mid_cfg)),
            );
            t.default_route(leaf, leaf_up.ab);
            leaves.push((leaf, leaf_cfg, mid, leaf_up.ba, mid_up.ba));
        }
    }

    // Hosts, leaf by leaf. Attackers sit at stride hosts/attackers; active
    // users at stride hosts/active_users offset by one, so both stay spread
    // across every leaf instead of bunching on the first.
    let attack_every = cfg.hosts.checked_div(cfg.attackers).unwrap_or(usize::MAX);
    let active_every = cfg.hosts.checked_div(cfg.active_users).unwrap_or(usize::MAX).max(1);
    let mut kicks = Vec::new();
    let mut attacker_nodes = Vec::with_capacity(cfg.attackers);
    let mut host_idx = 0usize;
    let mut actives = 0usize;
    for (li, &(leaf, ref leaf_cfg, mid, leaf_down, root_down)) in leaves.iter().enumerate() {
        let share = cfg.hosts / leaves_total + usize::from(li < cfg.hosts % leaves_total);
        for _ in 0..share {
            let addr = Addr(HOST_BASE + host_idx as u32);
            let is_attacker = cfg.attackers > 0 && host_idx.is_multiple_of(attack_every);
            let node = if is_attacker {
                let n = t.add_node(Box::new(FloodNode::new(
                    cfg.attacker_rate_bps,
                    Box::new(move |_now, _seq| {
                        // Padded requests (fig7 convention): byte rate at the
                        // target without inflating the event count.
                        Some(Packet {
                            id: PacketId(0),
                            src: addr,
                            dst: SERVER,
                            cap: Some(CapHeader::request()),
                            tcp: None,
                            payload_len: 960,
                        })
                    }),
                )));
                attacker_nodes.push(n);
                kicks.push(n);
                n
            } else {
                let n = t.add_node(Box::new(ClientNode::new(
                    addr,
                    SERVER,
                    20 * 1024,
                    100_000,
                    TcpConfig::default(),
                    Box::new(TvaHostShim::new(
                        addr,
                        HostConfig::default(),
                        Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
                    )),
                )));
                if actives < cfg.active_users && host_idx % active_every == 1 {
                    actives += 1;
                    kicks.push(n);
                }
                n
            };
            let access = t.link(
                node,
                leaf,
                access_bps,
                delay,
                Box::new(DropTail::new(1 << 20)),
                Box::new(TvaScheduler::new(access_bps, leaf_cfg)),
            );
            t.default_route(node, access.ab);
            // Downward path: root → mid → leaf → host.
            t.static_route(leaf, addr, access.ba);
            t.static_route(mid, addr, leaf_down);
            t.static_route(root, addr, root_down);
            host_idx += 1;
        }
    }
    assert_eq!(host_idx, cfg.hosts);

    let routers = 1 + cfg.mid_routers * (1 + cfg.leaf_routers_per_mid);
    let mut sim = t.build_sharded(cfg.seed, shards);
    let build_s = t_build.elapsed().as_secs_f64();

    for n in kicks {
        sim.kick(n, TOKEN_START);
    }
    let end = SimTime::from_secs(cfg.sim_secs);
    let check = tva_check::CheckConfig::from_env();
    let t_run = Instant::now();
    let check_violations = if check.enabled {
        let report = tva_experiments::check::drive_checked(&mut sim, end, &check);
        Some(report.violations.len() as u64)
    } else {
        sim.run_until(end);
        None
    };
    let run_s = t_run.elapsed().as_secs_f64();

    let peak_rss_kb = match (crate::alloc::peak_rss_kb(), rss_reset) {
        (after, true) => after,
        (after, false) => after.zip(rss_before).map(|(a, b)| a.saturating_sub(b)),
    };
    let attack_pkts_emitted =
        attacker_nodes.iter().map(|&n| sim.node::<FloodNode>(n).emitted).sum();
    let events = sim.events_processed();
    ScaleRun {
        hosts: cfg.hosts,
        attackers: cfg.attackers,
        routers,
        events,
        build_s,
        run_s,
        events_per_sec: events as f64 / run_s.max(1e-9),
        bottleneck_tx_pkts: sim.channel(root_server.ab).stats.tx_pkts,
        attack_pkts_emitted,
        peak_rss_kb,
        shards: sim.shard_count(),
        cross_shard_events: sim.cross_shard_events(),
        check_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature tree (same shape, 200 hosts) must carry attack traffic
    /// to the bottleneck and serve legitimate transfers.
    #[test]
    fn miniature_tree_carries_traffic() {
        let cfg = ScaleConfig {
            hosts: 200,
            attackers: 20,
            active_users: 10,
            mid_routers: 2,
            leaf_routers_per_mid: 2,
            sim_secs: 2,
            ..ScaleConfig::full()
        };
        let run = run_scale(cfg);
        assert_eq!(run.routers, 1 + 2 * 3);
        assert!(run.attack_pkts_emitted > 0, "attackers must emit");
        assert!(run.bottleneck_tx_pkts > 0, "bottleneck must carry packets");
        assert!(run.events > run.bottleneck_tx_pkts);
    }

    /// The same miniature tree must produce identical results on 1 and 4
    /// shards — the sharded engine's determinism contract, on the actual
    /// scale workload shape (TVA routers, floods, static routes).
    #[test]
    fn miniature_tree_is_shard_invariant() {
        let cfg = ScaleConfig {
            hosts: 200,
            attackers: 20,
            active_users: 10,
            mid_routers: 2,
            leaf_routers_per_mid: 2,
            sim_secs: 2,
            ..ScaleConfig::full()
        };
        let a = run_scale_with(cfg, 1);
        let b = run_scale_with(cfg, 4);
        assert_eq!(a.shards, 1);
        assert_eq!(b.shards, 4);
        assert!(b.cross_shard_events > 0, "a 4-shard tree must exchange events");
        assert_eq!(a.events, b.events, "event counts must be shard-invariant");
        assert_eq!(a.bottleneck_tx_pkts, b.bottleneck_tx_pkts);
        assert_eq!(a.attack_pkts_emitted, b.attack_pkts_emitted);
    }
}
