//! The end-to-end engine workload: a 5-user TVA dumbbell driven through the
//! full simulator. `tests/alloc_steady.rs` counts its steady-state
//! allocations; the repo benchmark (`bash benchmark/run.sh`,
//! `BENCHMARK.json`) prices the flight recorder from the plain / observed
//! pair (`obs.flight_ns_per_event`).

use tva_core::{
    ClientPolicy, HostConfig, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva_transport::{ClientNode, ServerNode, TcpConfig, TOKEN_START};
use tva_wire::{Addr, Grant};

const SERVER: Addr = Addr::new(10, 0, 0, 1);

/// Outcome of one dumbbell run.
#[derive(Debug, Clone, Copy)]
pub struct DumbbellRun {
    /// Packets the bottleneck channel carried.
    pub bottleneck_tx_pkts: u64,
    /// Total events the engine dispatched.
    pub events: u64,
}

/// Builds a 5-user TVA dumbbell and runs `sim_secs` of simulated time.
pub fn run_dumbbell(sim_secs: u64) -> DumbbellRun {
    run_dumbbell_with(sim_secs, false)
}

/// The same dumbbell with the observability hook live: a tracer is
/// installed and every trace event goes through the flight-recorder ring,
/// the way an obs-enabled run pays for it. The repo benchmark compares
/// this against [`run_dumbbell`] to price the hook; the two must dispatch
/// the same events.
pub fn run_dumbbell_observed(sim_secs: u64) -> DumbbellRun {
    run_dumbbell_with(sim_secs, true)
}

fn run_dumbbell_with(sim_secs: u64, observed: bool) -> DumbbellRun {
    let cfg1 = RouterConfig { secret_seed: 1, ..Default::default() };
    let cfg2 = RouterConfig { secret_seed: 2, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let r1 = t.add_node(Box::new(TvaRouterNode::new(cfg1.clone(), 10_000_000)));
    let r2 = t.add_node(Box::new(TvaRouterNode::new(cfg2.clone(), 10_000_000)));
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
    let d = SimDuration::from_millis(10);
    let link = t.link(
        r1,
        r2,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfg1)),
        Box::new(TvaScheduler::new(10_000_000, &cfg2)),
    );
    t.link(
        r2,
        server,
        100_000_000,
        d,
        Box::new(TvaScheduler::new(100_000_000, &cfg2)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut clients = Vec::new();
    for i in 0..5 {
        let addr = Addr::new(20, 0, 0, i + 1);
        let c = t.add_node(Box::new(ClientNode::new(
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
        t.bind_addr(c, addr);
        t.link(
            c,
            r1,
            100_000_000,
            d,
            Box::new(DropTail::new(1 << 20)),
            Box::new(TvaScheduler::new(100_000_000, &cfg1)),
        );
        clients.push(c);
    }
    let mut sim = t.build(3);
    for &c in &clients {
        sim.kick(c, TOKEN_START);
    }
    if observed {
        tva_obs::install_thread_flight(tva_obs::FLIGHT_EVENTS);
        sim.set_tracer(Some(tva_obs::flight_tracer()));
    }
    sim.run_until(SimTime::from_secs(sim_secs));
    if observed {
        tva_obs::clear_thread_flight();
    }
    DumbbellRun {
        bottleneck_tx_pkts: sim.channel(link.ab).stats.tx_pkts,
        events: sim.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_carries_traffic_and_counts_events() {
        let run = run_dumbbell(2);
        assert!(run.bottleneck_tx_pkts > 0, "bottleneck must carry packets");
        assert!(run.events > run.bottleneck_tx_pkts, "every tx is at least one event");
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let (plain, observed) = (run_dumbbell(10), run_dumbbell_observed(10));
        assert_eq!(plain.events, observed.events);
        assert_eq!(plain.bottleneck_tx_pkts, observed.bottleneck_tx_pkts);
    }
}
