//! Chaos tests: the full stack under fuzzed wire input and every impairment
//! mix. Three properties hold no matter what the wire does:
//!
//! 1. no input — however corrupted — panics a router;
//! 2. every transfer resolves (completes, or aborts by the transport's own
//!    timeout rules) — nothing wedges or vanishes;
//! 3. equal seeds give identical runs under any impairment mix.

use proptest::prelude::*;

use tva::core::{RouterConfig, TvaRouterNode};
use tva::experiments::robustness::diamond;
use tva::experiments::{run, LinkFaults, ScenarioConfig, Scheme};
use tva::sim::{
    DropTail, DutyCycleOutage, SimDuration, SimTime, SinkNode, TopologyBuilder,
};
use tva::wire::ipcodec::decode_packet;
use tva::wire::Addr;

/// Loss and corruption are per-mille, as the proptest draws them.
fn chaos_cfg(
    scheme: Scheme,
    loss_pm: u32,
    corrupt_pm: u32,
    outage: bool,
    fail: bool,
    seed: u64,
) -> ScenarioConfig {
    ScenarioConfig {
        faults: LinkFaults {
            loss_ppm: loss_pm * 1000,
            corrupt_ppm: corrupt_pm * 1000,
            outage: outage.then(|| {
                DutyCycleOutage::new(SimDuration::from_secs(7), SimDuration::from_secs(1))
            }),
            down_at: fail.then(|| SimTime::from_secs(8)),
            up_at: fail.then(|| SimTime::from_secs(14)),
        },
        n_users: 2,
        duration: SimTime::from_secs(20),
        failure_grace: SimDuration::from_secs(8),
        seed,
        ..diamond(scheme)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes fed to a router's ingress never panic it, and every
    /// datagram is either parsed (and forwarded or dropped by routing) or
    /// counted in `malformed_drops` — exactly as `decode_packet` predicts.
    #[test]
    fn routers_never_panic_on_fuzzed_ingress(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..16)
    ) {
        let mut t = TopologyBuilder::new();
        let r = t.add_node(Box::new(TvaRouterNode::new(
            RouterConfig::default(), 1_000_000)));
        let sink = t.add_node(Box::<SinkNode>::default());
        t.bind_addr(sink, Addr::new(10, 0, 0, 1));
        let l = t.link(r, sink, 1_000_000, SimDuration::from_nanos(1_000_000),
            Box::new(DropTail::new(1 << 20)), Box::new(DropTail::new(1 << 20)));
        let mut sim = t.build(1);
        let expect_malformed =
            frames.iter().filter(|f| decode_packet(f).is_err()).count() as u64;
        for f in &frames {
            sim.inject_bytes(r, l.ba, f);
        }
        sim.run_until(SimTime::from_secs(1));
        prop_assert_eq!(
            sim.node::<TvaRouterNode>(r).router.stats.malformed_drops,
            expect_malformed
        );
    }

    /// Any mix of loss, corruption, outage windows and a mid-run link
    /// failure: the run finishes, nothing panics, and every started
    /// transfer resolved or is demonstrably still in flight — the
    /// transport's own complete-or-abort rules hold under chaos.
    #[test]
    fn transfers_resolve_under_any_impairment_mix(
        loss_pm in 0u32..250,
        corrupt_pm in 0u32..150,
        outage in any::<bool>(),
        fail in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let cfg = chaos_cfg(Scheme::Tva, loss_pm, corrupt_pm, outage, fail, seed);
        let r = run(&cfg);
        prop_assert!(r.summary.attempts > 0, "clients made attempts: {:?}", r.summary);
        // The summary only ever contains resolved records plus over-grace
        // stragglers; a wedged stack would strand transfers silently.
        prop_assert!(r.summary.completed <= r.summary.attempts);
        if fail {
            prop_assert!(r.faults.reconvergences >= 1, "failure must re-converge");
        }
    }
}

/// Equal seeds ⇒ identical results for every impairment mix, including
/// with a mid-run failure; a different seed diverges microscopically.
#[test]
fn impairment_mixes_are_deterministic_end_to_end() {
    let mixes = [
        (100, 0, false, false),
        (0, 100, false, false),
        (0, 0, true, false),
        (50, 50, true, true),
    ];
    for (i, &(loss, corrupt, outage, fail)) in mixes.iter().enumerate() {
        for &scheme in &[Scheme::Tva, Scheme::Internet] {
            let cfg = chaos_cfg(scheme, loss, corrupt, outage, fail, 42 + i as u64);
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a, b, "mix {i} {scheme:?}: equal seeds, equal runs");
        }
    }
    let base = chaos_cfg(Scheme::Tva, 100, 0, false, false, 1);
    let other = ScenarioConfig { seed: 2, ..base.clone() };
    assert_ne!(run(&base), run(&other), "the fault stream is seed-dependent");
}

/// End-to-end failover through the facade: TVA's path-bound capabilities
/// are invalidated by re-convergence and re-established via re-request
/// over the backup router, and transfers keep completing.
#[test]
fn tva_failover_recovers_end_to_end() {
    let cfg = chaos_cfg(Scheme::Tva, 0, 0, false, true, 7);
    let r = run(&cfg).faults;
    assert_eq!(r.reconvergences, 2);
    assert!(r.backup_pkts > 0, "backup path carried traffic: {r:?}");
    assert!(r.backup_requests_stamped > 0, "re-requests crossed R3: {r:?}");
    assert!(r.backup_validations > 0, "new caps validated at R3: {r:?}");
    assert!(r.completed_after_failure > 0, "{r:?}");
}
