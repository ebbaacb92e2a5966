//! The robustness sweep's view of the scenario harness: the diamond
//! preset (a [`ScenarioConfig`] with `backup_path`, whose users transfer
//! back-to-back for the whole run so a fault always lands mid-transfer)
//! and the export of a run's fault and recovery counters.

use tva_sim::{SimDuration, SimTime};

use crate::scenario::{ScenarioConfig, ScenarioResult, Scheme};

/// The robustness testbed for `scheme`: five users on the diamond, each
/// transferring until the 120 s horizon, no attackers, a clean wire.
/// Callers set `faults` (and `seed`) on top.
pub fn diamond(scheme: Scheme) -> ScenarioConfig {
    ScenarioConfig {
        scheme,
        backup_path: true,
        n_users: 5,
        // Effectively "keep transferring until the horizon" (and exact in
        // a replay artifact's JSON numbers).
        transfers_per_user: u32::MAX as usize,
        duration: SimTime::from_secs(120),
        failure_grace: SimDuration::from_secs(30),
        ..ScenarioConfig::default()
    }
}

/// Folds one robustness result into a metrics registry under `prefix.`,
/// so a whole robustness sweep can be exported as a single snapshot
/// document (`results/robustness_metrics.json`). The key set per prefix is
/// schema-stable: every field is always present, even when zero.
pub fn fold_metrics(prefix: &str, r: &ScenarioResult, reg: &mut tva_obs::Registry) {
    let f = &r.faults;
    let mut c = |name: &str, v: u64| {
        let id = reg.counter(&format!("{prefix}.{name}"));
        reg.set_counter(id, v);
    };
    c("attempts", r.summary.attempts as u64);
    c("completed", r.summary.completed as u64);
    c("completed_after_failure", f.completed_after_failure as u64);
    c("reconvergences", f.reconvergences);
    c("backup_pkts", f.backup_pkts);
    c("backup_requests_stamped", f.backup_requests_stamped);
    c("backup_validations", f.backup_validations);
    c("lost_pkts", f.lost_pkts);
    c("corrupted_pkts", f.corrupted_pkts);
    c("malformed_pkts", f.malformed_pkts);
    c("malformed_drops", f.malformed_drops);
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
    use crate::scenario::{run, FaultCounters, LinkFaults};

    fn quick(scheme: Scheme) -> ScenarioConfig {
        ScenarioConfig {
            n_users: 2,
            duration: SimTime::from_secs(30),
            failure_grace: SimDuration::from_secs(10),
            ..diamond(scheme)
        }
    }

    fn failing(up_at: Option<SimTime>) -> LinkFaults {
        LinkFaults { down_at: Some(SimTime::from_secs(10)), up_at, ..LinkFaults::default() }
    }

    #[test]
    fn fold_metrics_key_set_is_schema_stable() {
        // The robustness snapshot's consumers key on exact metric names:
        // every field must appear under the prefix even when zero.
        let r = ScenarioResult {
            summary: tva_transport::summarize(&[]),
            transfers: Vec::new(),
            per_user: Vec::new(),
            bottleneck_drop_rate: 0.0,
            bottleneck_utilization: 0.0,
            faults: FaultCounters { reconvergences: 2, ..FaultCounters::default() },
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
        assert_eq!(r.faults.reconvergences, 0);
        assert_eq!(r.faults.backup_pkts, 0, "primary is the shortest path");
    }

    #[test]
    fn the_backup_path_is_invisible_until_the_primary_fails() {
        // One property the two-harness split could not state: on a clean
        // wire the diamond and the dumbbell complete the same transfers.
        for scheme in Scheme::ALL {
            let diamond = run(&quick(scheme));
            let dumbbell = run(&ScenarioConfig { backup_path: false, ..quick(scheme) });
            assert_eq!(diamond.transfers, dumbbell.transfers, "{scheme:?}");
            assert!(diamond.summary.completed > 0, "{scheme:?}: {:?}", diamond.summary);
            assert_eq!(diamond.faults, FaultCounters::default(), "{scheme:?}");
        }
    }

    #[test]
    fn loss_on_the_primary_is_survived() {
        let faults = LinkFaults { loss_ppm: 100_000, ..LinkFaults::default() };
        let r = run(&ScenarioConfig { faults, ..quick(Scheme::Tva) });
        assert!(r.faults.lost_pkts > 0);
        assert!(
            r.summary.completion_fraction > 0.9,
            "retransmission rides out 10% loss: {:?}",
            r.summary
        );
    }

    #[test]
    fn tva_recovers_from_a_mid_transfer_link_failure() {
        let faults = failing(Some(SimTime::from_secs(20)));
        let r = run(&ScenarioConfig { faults, ..quick(Scheme::Tva) }).faults;
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
        let r = run(&ScenarioConfig { faults: failing(None), ..quick(Scheme::Internet) }).faults;
        assert_eq!(r.reconvergences, 1);
        assert!(r.backup_pkts > 0);
        assert_eq!(r.backup_requests_stamped, 0);
        assert!(r.completed_after_failure > 0);
    }
}
