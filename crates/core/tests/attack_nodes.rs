//! Behavioral tests for the adversary models themselves: the authorized
//! flooder's lifecycle (request → flood → renew → give up), the window
//! scheduling used by Figure 11's staged attacks, and the request backoff
//! every cadence shares.

use tva_core::{
    AllowAll, AuthorizedFlooder, Cadence, GrantPolicy, RequestInfo, RouterConfig,
    TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva_transport::ServerNode;
use tva_wire::{Addr, Grant};

const ATTACKER: Addr = Addr::new(66, 0, 0, 1);
const COLLUDER: Addr = Addr::new(10, 0, 0, 2);

/// Grants only while `open <= now < close` — lets a test refuse the
/// attacker for a while and then relent (or never relent).
struct GrantWindow {
    open: SimTime,
    close: SimTime,
    grant: Grant,
}

impl GrantPolicy for GrantWindow {
    fn decide(&mut self, _req: RequestInfo, now: SimTime) -> Option<Grant> {
        (now >= self.open && now < self.close).then_some(self.grant)
    }
}

/// One attacker flooding on `cadence`, one TVA router, one always-granting
/// colluder.
fn build(
    cadence: Cadence,
    grant: Grant,
) -> (
    tva_sim::Simulator,
    tva_sim::NodeId,
    tva_sim::NodeId,
    tva_sim::NodeId,
    tva_sim::LinkHandle,
) {
    build_with_policy(cadence, Box::new(AllowAll { grant }))
}

/// Same topology as [`build`], but the colluder decides requests with an
/// arbitrary policy (used to exercise the refused-attacker probe path).
fn build_with_policy(
    cadence: Cadence,
    policy: Box<dyn GrantPolicy>,
) -> (
    tva_sim::Simulator,
    tva_sim::NodeId,
    tva_sim::NodeId,
    tva_sim::NodeId,
    tva_sim::LinkHandle,
) {
    let cfg = RouterConfig { secret_seed: 5, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let router = t.add_node(Box::new(TvaRouterNode::new(cfg.clone(), 10_000_000)));
    let shim = TvaHostShim::new(COLLUDER, policy);
    let colluder = t.add_node(Box::new(ServerNode::new(COLLUDER, Box::new(shim))));
    t.bind_addr(colluder, COLLUDER);
    let flooder = AuthorizedFlooder::new(ATTACKER, COLLUDER, 1_000_000).with_cadence(cadence);
    let attacker = t.add_node(Box::new(flooder));
    t.bind_addr(attacker, ATTACKER);
    let d = SimDuration::from_millis(5);
    let up = t.link(
        attacker,
        router,
        100_000_000,
        d,
        Box::new(DropTail::new(1 << 20)),
        Box::new(TvaScheduler::new(100_000_000, &cfg)),
    );
    t.link(
        router,
        colluder,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &cfg)),
        Box::new(DropTail::new(1 << 20)),
    );
    let sim = t.build(4);
    (sim, attacker, colluder, router, up)
}

#[test]
fn flooder_acquires_caps_then_floods_at_rate() {
    let (mut sim, attacker, colluder, _, _) = build(Cadence::Always, Grant::from_parts(1023, 10));
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(20));
    let f = sim.node::<AuthorizedFlooder>(attacker);
    // ~1 Mb/s for ~20 s ≈ 2.5 MB, renewed along the way.
    assert!(
        f.flooded_bytes > 1_500_000,
        "flooder should sustain its rate, got {} bytes",
        f.flooded_bytes
    );
    let c = sim.node::<ServerNode>(colluder);
    let _ = c; // flood is raw data, not TCP: delivered_bytes stays 0
}

#[test]
fn flooder_respects_its_window() {
    let window = Cadence::Window { start: SimTime::from_secs(5), end: SimTime::from_secs(8) };
    let (mut sim, attacker, _, _, up) = build(window, Grant::from_parts(1023, 10));
    sim.kick(attacker, 0);
    // Nothing before the window (requests included: attackers stay quiet).
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(sim.channel(up.ab).stats.tx_pkts, 0, "silent before the window");
    sim.run_until(SimTime::from_secs(30));
    let f = sim.node::<AuthorizedFlooder>(attacker);
    // ~3 s of 1 Mb/s ≈ 375 KB; generous bounds either side.
    assert!(
        (150_000..700_000).contains(&f.flooded_bytes),
        "window-bounded flood, got {} bytes",
        f.flooded_bytes
    );
}

#[test]
fn flooder_is_throttled_by_small_grants() {
    // A 32 KB / 10 s grant with renewals: the *router-admitted* rate is
    // bounded by one fresh capability per second (pre-capabilities are
    // deterministic per (src, dst, second)), i.e. ≈ 32–64 KB/s, far below
    // the attacker's 1 Mb/s line rate. The attacker may *emit* more —
    // everything past the budget is demoted to legacy priority, harmless
    // under contention.
    let (mut sim, attacker, _, router, _) = build(Cadence::Always, Grant::from_parts(32, 10));
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(20));
    let r = sim.node::<TvaRouterNode>(router);
    let admitted = r.router.stats.regular_bytes;
    assert!(
        admitted < 1_500_000,
        "the router must admit ≲64 KB/s of a small-grant flood, got {admitted} bytes"
    );
    assert!(admitted > 200_000, "but the granted budgets are honored, got {admitted}");
    let f = sim.node::<AuthorizedFlooder>(attacker);
    assert!(f.flooded_bytes >= admitted, "emission includes the demoted excess");
}

/// One of each cadence, with a gate that never closes within these tests'
/// horizons: whatever a cadence adds, the request backoff underneath is
/// shared.
fn open_cadences() -> [Cadence; 5] {
    let secs = SimDuration::from_secs;
    [
        Cadence::Always,
        Cadence::Window { start: SimTime::ZERO, end: SimTime::from_secs(1_000_000) },
        Cadence::Periodic { period: secs(1), on: secs(1), phase: SimDuration::ZERO },
        Cadence::Bursts { bytes: u64::MAX, think: secs(1) },
        Cadence::Rotating { pool: 1, every: secs(1_000_000), spoof: false },
    ]
}

#[test]
fn refused_flooder_backs_off_probes_to_the_cap() {
    // The colluder never grants, so the only packets on the wire are the
    // attacker's request probes, and their schedule is the pure backoff
    // chain: 0, 0.4, 1.2, 2.8, 6.0, 12.4, 25.2, 50.8 s (the interval
    // doubles after every unanswered probe), then one every 60 s (the cap).
    let grant = Grant::from_parts(1023, 10);
    let never = SimTime::from_secs(1_000_000);
    for cadence in open_cadences() {
        let (mut sim, attacker, _, _, up) = build_with_policy(
            cadence,
            Box::new(GrantWindow { open: never, close: never, grant }),
        );
        sim.kick(attacker, 0);
        sim.run_until(SimTime::from_secs(180));
        let early = sim.channel(up.ab).stats.tx_pkts;
        sim.run_until(SimTime::from_secs(300));
        let late = sim.channel(up.ab).stats.tx_pkts;
        // 8 doubling probes + capped probes at 110.8 and 170.8 s = 10 by
        // 180 s. A flooder that forgot to back off would send ~900 (one per
        // 200 ms).
        assert_eq!(early, 10, "{cadence:?}: 10 probes in the first 180 s");
        // Once capped, exactly one probe per 60 s: 230.8 and 290.8 s.
        assert_eq!(late - early, 2, "{cadence:?}: two probes per 120 s window");
        let f = sim.node::<AuthorizedFlooder>(attacker);
        assert_eq!(f.flooded_bytes, 0, "{cadence:?}: never authorized, never floods");
    }
}

#[test]
fn backoff_resets_when_capabilities_arrive() {
    // The colluder relents between 30 and 60 s: the probe at 50.8 s is
    // granted, the flood runs until the capabilities lapse (the last
    // renewal decided before 60 s keeps them alive to ~70 s), and then the
    // probing must restart from the 200 ms base — not from the capped 60 s
    // interval it had reached before the grant.
    let grant = Grant::from_parts(1023, 10);
    for cadence in open_cadences() {
        let (mut sim, attacker, _, _, up) = build_with_policy(
            cadence,
            Box::new(GrantWindow {
                open: SimTime::from_secs(30),
                close: SimTime::from_secs(60),
                grant,
            }),
        );
        sim.kick(attacker, 0);
        sim.run_until(SimTime::from_secs(66));
        let f = sim.node::<AuthorizedFlooder>(attacker);
        assert!(
            f.flooded_bytes > 500_000,
            "{cadence:?}: the 50.8 s probe is granted and the flood runs, got {} bytes",
            f.flooded_bytes
        );
        // After the capabilities lapse (≤ ~70 s) only probes remain. With
        // the interval reset on arrival, the restarted chain puts 2–5
        // probes in (74, 100]; stuck at the 60 s cap it would put none
        // before ~130 s.
        sim.run_until(SimTime::from_secs(74));
        let a = sim.channel(up.ab).stats.tx_pkts;
        sim.run_until(SimTime::from_secs(100));
        let b = sim.channel(up.ab).stats.tx_pkts;
        assert!(
            (2..=6).contains(&(b - a)),
            "{cadence:?}: reset backoff re-probes from the base interval, got {} probes",
            b - a
        );
    }
}

#[test]
fn open_cadences_flood_like_always() {
    // A gate that never closes must be invisible: the same packets, the
    // same events, the same RNG draws as the plain flood.
    let run = |cadence: Cadence| {
        let (mut sim, attacker, _, _, up) = build(cadence, Grant::from_parts(1023, 10));
        sim.kick(attacker, 0);
        sim.run_until(SimTime::from_secs(20));
        let wire = &sim.channel(up.ab).stats;
        let f = sim.node::<AuthorizedFlooder>(attacker);
        (wire.tx_pkts, wire.tx_bytes, sim.events_processed(), f.flooded_bytes)
    };
    let always = run(Cadence::Always);
    assert!(always.3 > 0, "the reference flood must run");
    for cadence in open_cadences() {
        assert_eq!(run(cadence), always, "{cadence:?} must flood exactly like Always");
    }
}
