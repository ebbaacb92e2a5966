//! The robustness testbed: a diamond topology with a redundant path, wire
//! impairments on the primary link, and an optional mid-run link failure
//! with recovery.
//!
//! ```text
//! n users ── R1 ══ primary (impaired, failable) ══ R2 ── destination
//!              \                                  /
//!               R3 ───────── backup path ────────
//! ```
//!
//! The primary R1–R2 link is one hop, so shortest-path routing prefers it;
//! when it fails, routes re-converge through R3. For TVA that re-route
//! invalidates every capability in flight — capabilities are bound to the
//! router path (§3.1), and R3 has never stamped these flows — so senders
//! must recover via demotion notices and re-request (§3.8). The backup
//! router's `requests_stamped` counter is the direct evidence that they
//! did.

use tva_baselines::{LegacyRouterNode, SiffConfig, SiffRouterNode, SiffScheduler, SiffShim};
use tva_core::{
    ClientPolicy, HostConfig, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode,
    TvaScheduler,
};
use tva_sim::{
    DropTail, DutyCycleOutage, Impairments, NodeId, QueueDisc, SimDuration, SimTime,
    TopologyBuilder,
};
use tva_transport::{
    summarize, ClientNode, NullShim, ServerNode, Shim, TcpConfig, TransferRecord,
    TransferSummary, TOKEN_START,
};
use tva_wire::{Addr, Grant};

use crate::scenario::{Scheme, DEST};

/// A scheduled failure of the primary link.
#[derive(Debug, Clone, Copy)]
pub struct LinkFailure {
    /// When the primary link goes down.
    pub down_at: SimTime,
    /// When it comes back, if it does.
    pub up_at: Option<SimTime>,
}

/// Robustness-run parameters.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Scheme under test (Pushback is not wired into this testbed).
    pub scheme: Scheme,
    /// Random per-packet loss probability on the primary link.
    pub loss: f64,
    /// Random per-packet bit-corruption probability on the primary link.
    pub corrupt: f64,
    /// Periodic outage windows on the primary link.
    pub outage: Option<DutyCycleOutage>,
    /// Mid-run failure (and recovery) of the primary link.
    pub link_failure: Option<LinkFailure>,
    /// Legitimate users; each runs transfers back-to-back for the whole
    /// run, so the failure always lands mid-transfer.
    pub n_users: usize,
    /// Transfer size in bytes.
    pub file_size: u32,
    /// Primary and backup link capacity.
    pub bottleneck_bps: u64,
    /// Grant handed out by the destination.
    pub grant: Grant,
    /// Simulation horizon.
    pub duration: SimTime,
    /// Unresolved transfers older than this at the horizon count as
    /// failures; younger ones are indeterminate and excluded.
    pub failure_grace: SimDuration,
    /// RNG seed (event order and the fault stream both derive from it).
    pub seed: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            scheme: Scheme::Tva,
            loss: 0.0,
            corrupt: 0.0,
            outage: None,
            link_failure: None,
            n_users: 5,
            file_size: 20 * 1024,
            bottleneck_bps: 10_000_000,
            grant: Grant::from_parts(100, 10),
            duration: SimTime::from_secs(120),
            failure_grace: SimDuration::from_secs(30),
            seed: 20050821,
        }
    }
}

/// Outcome of one robustness run.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessResult {
    /// Aggregate transfer metrics over the whole run.
    pub summary: TransferSummary,
    /// Transfers that completed strictly after the scheduled failure —
    /// the liveness half of the recovery story.
    pub completed_after_failure: usize,
    /// Route re-convergence events the engine performed.
    pub reconvergences: u64,
    /// Packets the backup R3→R2 channel carried (any scheme).
    pub backup_pkts: u64,
    /// Requests the backup TVA router stamped (0 for other schemes):
    /// capability re-establishment went through the new path.
    pub backup_requests_stamped: u64,
    /// Regular packets the backup TVA router fully validated (0 for other
    /// schemes): re-issued capabilities were honored there.
    pub backup_validations: u64,
    /// Packets lost on the impaired primary link (random loss, outage
    /// windows, and the failure instant combined).
    pub lost_pkts: u64,
    /// Packets bit-corrupted on the primary link.
    pub corrupted_pkts: u64,
    /// Corrupted packets that no longer parsed at all.
    pub malformed_pkts: u64,
    /// Malformed datagrams dropped and counted by TVA routers.
    pub malformed_drops: u64,
}

const ACCESS_BPS: u64 = 100_000_000;
const LINK_DELAY: SimDuration = SimDuration::from_millis(10);
const HOST_QUEUE: u64 = 1 << 20;
const ROUTER_QUEUE_PKTS: usize = 50;
/// Effectively "keep transferring until the horizon".
const ENDLESS: usize = usize::MAX >> 1;

fn user_addr(i: usize) -> Addr {
    Addr::new(20, 0, (i / 200) as u8, (i % 200) as u8 + 1)
}

struct Routers {
    r1: NodeId,
    r2: NodeId,
    r3: NodeId,
}

/// Runs one robustness configuration to completion.
pub fn run(cfg: &RobustnessConfig) -> RobustnessResult {
    let tva_cfg = |salt: u64| RouterConfig {
        request_fraction: 0.01,
        secret_seed: cfg.seed ^ salt,
        ..RouterConfig::default()
    };
    let siff_cfg = |salt: u64| SiffConfig {
        secret_seed: cfg.seed ^ salt,
        ..SiffConfig::default()
    };
    let tva_cfgs = [tva_cfg(0x1111), tva_cfg(0x2222), tva_cfg(0x3333)];

    let mut topo = TopologyBuilder::new();
    let routers = match cfg.scheme {
        Scheme::Tva => Routers {
            r1: topo.add_node(Box::new(TvaRouterNode::new(
                tva_cfgs[0].clone(),
                cfg.bottleneck_bps,
            ))),
            r2: topo.add_node(Box::new(TvaRouterNode::new(
                tva_cfgs[1].clone(),
                cfg.bottleneck_bps,
            ))),
            r3: topo.add_node(Box::new(TvaRouterNode::new(
                tva_cfgs[2].clone(),
                cfg.bottleneck_bps,
            ))),
        },
        Scheme::Siff => Routers {
            r1: topo.add_node(Box::new(SiffRouterNode::new(siff_cfg(0x4444)))),
            r2: topo.add_node(Box::new(SiffRouterNode::new(siff_cfg(0x5555)))),
            r3: topo.add_node(Box::new(SiffRouterNode::new(siff_cfg(0x6666)))),
        },
        Scheme::Internet | Scheme::Pushback => Routers {
            r1: topo.add_node(Box::<LegacyRouterNode>::default()),
            r2: topo.add_node(Box::<LegacyRouterNode>::default()),
            r3: topo.add_node(Box::<LegacyRouterNode>::default()),
        },
    };
    let Routers { r1, r2, r3 } = routers;

    let router_queue = |which: usize, bps: u64| -> Box<dyn QueueDisc> {
        match cfg.scheme {
            Scheme::Tva => Box::new(TvaScheduler::new(bps, &tva_cfgs[which])),
            Scheme::Siff => Box::new(SiffScheduler::from_config(&siff_cfg(0))),
            Scheme::Internet | Scheme::Pushback => {
                Box::new(DropTail::packets(ROUTER_QUEUE_PKTS))
            }
        }
    };
    let host_queue = || -> Box<dyn QueueDisc> { Box::new(DropTail::new(HOST_QUEUE)) };

    // The diamond. The primary is one hop, the backup two, so routing
    // prefers the primary until it fails.
    let primary = topo.link(
        r1,
        r2,
        cfg.bottleneck_bps,
        LINK_DELAY,
        router_queue(0, cfg.bottleneck_bps),
        router_queue(1, cfg.bottleneck_bps),
    );
    topo.link(
        r1,
        r3,
        cfg.bottleneck_bps,
        LINK_DELAY,
        router_queue(0, cfg.bottleneck_bps),
        router_queue(2, cfg.bottleneck_bps),
    );
    let backup = topo.link(
        r3,
        r2,
        cfg.bottleneck_bps,
        LINK_DELAY,
        router_queue(2, cfg.bottleneck_bps),
        router_queue(1, cfg.bottleneck_bps),
    );
    topo.impair_link(
        primary,
        Impairments { loss: cfg.loss, corrupt: cfg.corrupt, outage: cfg.outage },
    );

    // Destination.
    let siff_refresh = SimDuration::from_secs(115);
    let dest_shim: Box<dyn Shim> = match cfg.scheme {
        Scheme::Tva => Box::new(TvaHostShim::new(
            DEST,
            HostConfig { default_grant: cfg.grant, ..HostConfig::default() },
            Box::new(ServerPolicy::new(cfg.grant, SimDuration::from_secs(30))),
        )),
        Scheme::Siff => Box::new(SiffShim::new(
            DEST,
            Box::new(ServerPolicy::new(cfg.grant, SimDuration::from_secs(30))),
            siff_refresh,
        )),
        Scheme::Internet | Scheme::Pushback => Box::new(NullShim),
    };
    let dest = topo.add_node(Box::new(ServerNode::new(DEST, TcpConfig::default(), dest_shim)));
    topo.bind_addr(dest, DEST);
    topo.link(
        r2,
        dest,
        ACCESS_BPS,
        LINK_DELAY,
        router_queue(1, ACCESS_BPS),
        host_queue(),
    );

    // Users: back-to-back transfers for the whole run.
    let mut clients = Vec::new();
    for i in 0..cfg.n_users {
        let addr = user_addr(i);
        let shim: Box<dyn Shim> = match cfg.scheme {
            Scheme::Tva => Box::new(TvaHostShim::new(
                addr,
                HostConfig::default(),
                Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
            )),
            Scheme::Siff => Box::new(SiffShim::new(
                addr,
                Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
                siff_refresh,
            )),
            Scheme::Internet | Scheme::Pushback => Box::new(NullShim),
        };
        let c = topo.add_node(Box::new(ClientNode::new(
            addr,
            DEST,
            cfg.file_size,
            ENDLESS,
            TcpConfig::default(),
            shim,
        )));
        topo.bind_addr(c, addr);
        topo.link(c, r1, ACCESS_BPS, LINK_DELAY, host_queue(), router_queue(0, ACCESS_BPS));
        clients.push(c);
    }

    let mut sim = topo.build_sharded(cfg.seed, tva_sim::shards_from_env());
    for (i, &c) in clients.iter().enumerate() {
        // Stagger starts across the first 100 ms to avoid phase locking.
        sim.kick_at(c, TOKEN_START, SimTime::from_nanos(1 + (i as u64) * 10_000_000));
    }
    if let Some(f) = cfg.link_failure {
        sim.schedule_link_down(primary, f.down_at);
        if let Some(up_at) = f.up_at {
            sim.schedule_link_up(primary, up_at);
        }
    }
    // The drive step routes through the TVA_CHECK auditors, which are
    // inert (a plain run to the horizon) unless enabled.
    crate::check::robustness_drive(&mut sim, cfg);

    // Collect.
    let failure_at = cfg.link_failure.map(|f| f.down_at);
    let mut transfers: Vec<TransferRecord> = Vec::new();
    let mut completed_after_failure = 0usize;
    for &c in &clients {
        let node = sim.node::<ClientNode>(c);
        transfers.extend(node.records.iter().copied());
        if let Some(at) = failure_at {
            completed_after_failure += node
                .records
                .iter()
                .filter(|t| t.finished.is_some_and(|f| f > at))
                .count();
        }
        if let Some(start) = node.in_flight_started() {
            if cfg.duration.since(start) > cfg.failure_grace {
                transfers.push(TransferRecord { started: start, finished: None });
            }
        }
    }
    let summary = summarize(&transfers);

    let (p_ab, p_ba) = (sim.channel(primary.ab).stats.clone(), sim.channel(primary.ba).stats.clone());
    let tva_stats = |id: NodeId| -> (u64, u64, u64) {
        if cfg.scheme == Scheme::Tva {
            let s = &sim.node::<TvaRouterNode>(id).router.stats;
            (s.requests_stamped, s.full_validations, s.malformed_drops)
        } else {
            (0, 0, 0)
        }
    };
    let (r3_stamped, r3_validated, r3_malformed) = tva_stats(r3);
    let (_, _, r1_malformed) = tva_stats(r1);
    let (_, _, r2_malformed) = tva_stats(r2);

    RobustnessResult {
        summary,
        completed_after_failure,
        reconvergences: sim.reconvergences(),
        backup_pkts: sim.channel(backup.ab).stats.tx_pkts,
        backup_requests_stamped: r3_stamped,
        backup_validations: r3_validated,
        lost_pkts: p_ab.lost_pkts + p_ba.lost_pkts,
        corrupted_pkts: p_ab.corrupted_pkts + p_ba.corrupted_pkts,
        malformed_pkts: p_ab.malformed_pkts + p_ba.malformed_pkts,
        malformed_drops: r1_malformed + r2_malformed + r3_malformed,
    }
}

/// Folds one robustness result into a metrics registry under `prefix.`,
/// so a whole robustness sweep can be exported as a single snapshot
/// document (`results/robustness_metrics.json`). The key set per prefix is
/// schema-stable: every field is always present, even when zero.
pub fn fold_metrics(prefix: &str, r: &RobustnessResult, reg: &mut tva_obs::Registry) {
    let mut c = |name: &str, v: u64| {
        let id = reg.counter(&format!("{prefix}.{name}"));
        reg.set_counter(id, v);
    };
    c("attempts", r.summary.attempts as u64);
    c("completed", r.summary.completed as u64);
    c("completed_after_failure", r.completed_after_failure as u64);
    c("reconvergences", r.reconvergences);
    c("backup_pkts", r.backup_pkts);
    c("backup_requests_stamped", r.backup_requests_stamped);
    c("backup_validations", r.backup_validations);
    c("lost_pkts", r.lost_pkts);
    c("corrupted_pkts", r.corrupted_pkts);
    c("malformed_pkts", r.malformed_pkts);
    c("malformed_drops", r.malformed_drops);
    let mut g = |name: &str, v: f64| {
        let id = reg.gauge(&format!("{prefix}.{name}"));
        reg.set(id, v);
    };
    g("completion_fraction", r.summary.completion_fraction);
    g("avg_completion_secs", r.summary.avg_completion_secs);
    g("p95_secs", r.summary.p95_secs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: Scheme) -> RobustnessConfig {
        RobustnessConfig {
            scheme,
            n_users: 2,
            duration: SimTime::from_secs(30),
            failure_grace: SimDuration::from_secs(10),
            ..RobustnessConfig::default()
        }
    }

    #[test]
    fn fold_metrics_key_set_is_schema_stable() {
        // The robustness snapshot's consumers key on exact metric names:
        // every field must appear under the prefix even when zero.
        let r = RobustnessResult {
            summary: summarize(&[]),
            completed_after_failure: 0,
            reconvergences: 2,
            backup_pkts: 0,
            backup_requests_stamped: 0,
            backup_validations: 0,
            lost_pkts: 0,
            corrupted_pkts: 0,
            malformed_pkts: 0,
            malformed_drops: 0,
        };
        let mut reg = tva_obs::Registry::new();
        fold_metrics("tva.loss0.00", &r, &mut reg);
        for key in [
            "attempts",
            "completed",
            "completed_after_failure",
            "reconvergences",
            "backup_pkts",
            "backup_requests_stamped",
            "backup_validations",
            "lost_pkts",
            "corrupted_pkts",
            "malformed_pkts",
            "malformed_drops",
        ] {
            assert!(
                reg.counter_by_name(&format!("tva.loss0.00.{key}")).is_some(),
                "missing counter {key}"
            );
        }
        assert_eq!(reg.counter_by_name("tva.loss0.00.reconvergences"), Some(2));
        let doc = crate::observe::snapshot_document("robustness", &reg);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        for top in ["\"label\"", "\"schema_version\"", "\"metrics\"", "\"gauges\""] {
            assert!(text.contains(top), "snapshot document missing {top}: {text}");
        }
    }

    #[test]
    fn clean_diamond_completes_on_the_primary() {
        let r = run(&quick(Scheme::Tva));
        assert!(r.summary.completion_fraction > 0.99, "{:?}", r.summary);
        assert_eq!(r.reconvergences, 0);
        assert_eq!(r.backup_pkts, 0, "primary is the shortest path");
    }

    #[test]
    fn loss_on_the_primary_is_survived() {
        let cfg = RobustnessConfig { loss: 0.1, ..quick(Scheme::Tva) };
        let r = run(&cfg);
        assert!(r.lost_pkts > 0);
        assert!(
            r.summary.completion_fraction > 0.9,
            "retransmission rides out 10% loss: {:?}",
            r.summary
        );
    }

    #[test]
    fn tva_recovers_from_a_mid_transfer_link_failure() {
        let cfg = RobustnessConfig {
            link_failure: Some(LinkFailure {
                down_at: SimTime::from_secs(10),
                up_at: Some(SimTime::from_secs(20)),
            }),
            ..quick(Scheme::Tva)
        };
        let r = run(&cfg);
        assert_eq!(r.reconvergences, 2, "failure and recovery");
        assert!(r.backup_pkts > 0, "traffic moved to the backup path");
        assert!(
            r.backup_requests_stamped > 0,
            "capabilities were re-requested through R3: {r:?}"
        );
        assert!(
            r.backup_validations > 0,
            "re-issued capabilities validated at R3: {r:?}"
        );
        assert!(r.completed_after_failure > 0, "transfers kept completing: {r:?}");
    }

    #[test]
    fn legacy_also_reroutes_but_stamps_nothing() {
        let cfg = RobustnessConfig {
            link_failure: Some(LinkFailure {
                down_at: SimTime::from_secs(10),
                up_at: None,
            }),
            ..quick(Scheme::Internet)
        };
        let r = run(&cfg);
        assert_eq!(r.reconvergences, 1);
        assert!(r.backup_pkts > 0);
        assert_eq!(r.backup_requests_stamped, 0);
        assert!(r.completed_after_failure > 0);
    }
}
