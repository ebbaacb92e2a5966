//! The end-to-end engine workload: a 5-user TVA dumbbell, the scenario
//! harness's Figure 7 testbed with users that keep transferring, driven
//! through the full simulator. The root `tests/zero_alloc.rs` counts its
//! steady-state allocations; the repo benchmark (`bash benchmark/run.sh`,
//! `BENCHMARK.json`) prices the flight recorder from the plain / observed
//! pair (`obs.flight_ns_per_event`).

use tva_experiments::{run_driven, ScenarioConfig};
use tva_sim::SimTime;

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
    let cfg = ScenarioConfig {
        n_users: 5,
        transfers_per_user: 100_000,
        duration: SimTime::from_secs(sim_secs),
        seed: 3,
        ..ScenarioConfig::default()
    };
    let mut run = DumbbellRun { bottleneck_tx_pkts: 0, events: 0 };
    run_driven(
        &cfg,
        |sim, _| {
            if observed {
                tva_obs::install_thread_flight(tva_obs::FLIGHT_EVENTS);
                sim.set_tracer(Some(tva_obs::flight_tracer()));
            }
            sim.run_until(cfg.duration);
            if observed {
                tva_obs::clear_thread_flight();
            }
        },
        |sim, nodes| {
            run.bottleneck_tx_pkts = sim.channel(nodes.bottleneck.ab).stats.tx_pkts;
            run.events = sim.events_processed();
        },
    );
    run
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
