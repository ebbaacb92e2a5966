//! Behavioral tests for the strategic adversaries — the authorized
//! flooder's cadences plus the forged request storm: wave gating and
//! round-robin spraying (colluder ring), off-phase silence (shrew pulse),
//! burst/think cycling (flash-crowd mimicry), forged request storms, and
//! identity churn with authorization-state forgetting.

use tva_core::{
    AllowAll, AuthorizedFlooder, Cadence, RouterConfig, SpoofedRequestFlooder,
    TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{DropTail, Node, SimDuration, SimTime, TopologyBuilder};
use tva_transport::{NullShim, ServerNode, Shim};
use tva_wire::{Addr, Grant};

const ATTACKER: Addr = Addr::new(66, 0, 0, 1);
const T1: Addr = Addr::new(10, 0, 1, 1);
const T2: Addr = Addr::new(10, 0, 1, 2);

fn grant() -> Grant {
    Grant::from_parts(1023, 10)
}

/// A TVA shim that grants everything and never blacklists — both the
/// attacker's sender side and the colluding servers' destination side.
fn tva_shim(local: Addr) -> Box<dyn Shim> {
    Box::new(TvaHostShim::new(local, Box::new(AllowAll { grant: grant() })))
}

/// Attacker → TVA router → one always-granting server per address in
/// `servers`. Returns (sim, attacker, router, up-link, per-server links).
fn build(
    attacker_node: Box<dyn Node>,
    servers: &[Addr],
) -> (
    tva_sim::Simulator,
    tva_sim::NodeId,
    tva_sim::NodeId,
    tva_sim::LinkHandle,
    Vec<tva_sim::LinkHandle>,
) {
    let cfg = RouterConfig { secret_seed: 5, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let router = t.add_node(Box::new(TvaRouterNode::new(cfg.clone(), 10_000_000)));
    let d = SimDuration::from_millis(5);
    let mut down = Vec::new();
    for &addr in servers {
        let s = t.add_node(Box::new(ServerNode::new(addr, tva_shim(addr))));
        t.bind_addr(s, addr);
        let l = t.link(
            router,
            s,
            10_000_000,
            d,
            Box::new(TvaScheduler::new(10_000_000, &cfg)),
            Box::new(DropTail::new(1 << 20)),
        );
        down.push(l);
    }
    let attacker = t.add_node(attacker_node);
    t.bind_addr(attacker, ATTACKER);
    let up = t.link(
        attacker,
        router,
        100_000_000,
        d,
        Box::new(DropTail::new(1 << 20)),
        Box::new(TvaScheduler::new(100_000_000, &cfg)),
    );
    let sim = t.build(4);
    (sim, attacker, router, up, down)
}

#[test]
fn ring_flooder_sprays_every_target_and_respects_its_wave() {
    // 500 ms waves at 50% duty: the flood must reach both ring members
    // (round-robin) while emitting roughly half of an always-on budget.
    let wave = Cadence::Periodic {
        period: SimDuration::from_millis(500),
        on: SimDuration::from_millis(250),
        phase: SimDuration::ZERO,
    };
    let node = AuthorizedFlooder::with_shim(ATTACKER, T1, 4_000_000, tva_shim(ATTACKER))
        .with_targets(vec![T1, T2])
        .with_cadence(wave);
    let (mut sim, attacker, _, _, down) = build(Box::new(node), &[T1, T2]);
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(10));
    let f = sim.node::<AuthorizedFlooder>(attacker);
    assert!(f.flooded > 0, "ring member must acquire capabilities and flood");
    for l in &down {
        assert!(
            sim.channel(l.ab).stats.tx_bytes > 100_000,
            "round-robin must reach every ring member"
        );
    }
    // Always-on at 4 Mb/s for 10 s would be ~5 MB; 50% duty halves it.
    let f = sim.node::<AuthorizedFlooder>(attacker);
    assert!(
        (1_000_000..3_800_000).contains(&f.flooded_bytes),
        "wave gating bounds the emission, got {} bytes",
        f.flooded_bytes
    );
}

#[test]
fn pulse_flooder_is_silent_off_phase() {
    // 100 ms bursts once per second at 10 Mb/s peak: ~1.25 MB over 10 s.
    // An attacker that ignored the phase would emit ~12.5 MB.
    let pulse = Cadence::Periodic {
        period: SimDuration::from_millis(1000),
        on: SimDuration::from_millis(100),
        phase: SimDuration::ZERO,
    };
    let node = AuthorizedFlooder::with_shim(ATTACKER, T1, 10_000_000, Box::new(NullShim))
        .with_cadence(pulse);
    let (mut sim, attacker, _, _, _) = build(Box::new(node), &[T1]);
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(10));
    let f = sim.node::<AuthorizedFlooder>(attacker);
    assert!(
        (400_000..3_000_000).contains(&f.flooded_bytes),
        "10% duty cycle bounds the pulse budget, got {} bytes",
        f.flooded_bytes
    );
}

#[test]
fn mimic_flooder_cycles_bursts_and_thinks() {
    let bursts = Cadence::Bursts { bytes: 64 * 1024, think: SimDuration::from_millis(500) };
    let node = AuthorizedFlooder::with_shim(ATTACKER, T1, 8_000_000, Box::new(NullShim))
        .with_cadence(bursts);
    let (mut sim, attacker, _, _, _) = build(Box::new(node), &[T1]);
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(10));
    let f = sim.node::<AuthorizedFlooder>(attacker);
    // ~65 ms per 64 KB burst + ~500 ms think ≈ 0.57 s per cycle.
    assert!(
        (8..=30).contains(&f.bursts),
        "burst/think cycling paces the mimic, got {} bursts",
        f.bursts
    );
    assert!(
        f.flooded_bytes >= f.bursts * 64 * 1024,
        "every completed burst carried its {} bytes (got {} over {} bursts)",
        64 * 1024,
        f.flooded_bytes,
        f.bursts
    );
}

#[test]
fn spoofed_request_flooder_storms_the_request_channel() {
    // Forged requests with pre-filled tagged entries: every one of them is
    // a request at the router (stamped or demoted), none are data.
    let node = SpoofedRequestFlooder::new(ATTACKER, T1, 2_000_000, 32, 8);
    let (mut sim, attacker, router, _, _) = build(Box::new(node), &[T1]);
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(5));
    let f = sim.node::<SpoofedRequestFlooder>(attacker);
    assert!(f.requests > 500, "the storm must sustain its rate, got {}", f.requests);
    assert!(f.request_bytes > 0);
    let r = sim.node::<TvaRouterNode>(router);
    // 8 forged entries + the router's own leaves room under the slot cap:
    // the requests are stamped, not demoted, and hit the request queue.
    assert!(
        r.router.stats.requests_stamped > 500,
        "forged requests must reach and load the request channel, got {}",
        r.router.stats.requests_stamped
    );
}

#[test]
fn rotating_flooder_churns_identities_and_rebootstraps() {
    // Real source (the SIFF-style no-spoof mode) so replies route back;
    // rotation still drops authorization state via Shim::forget, forcing a
    // fresh request per identity.
    let churn = Cadence::Rotating { pool: 8, every: SimDuration::from_millis(1000), spoof: false };
    let node = AuthorizedFlooder::with_shim(ATTACKER, T1, 2_000_000, tva_shim(ATTACKER))
        .with_cadence(churn);
    let (mut sim, attacker, router, _, _) = build(Box::new(node), &[T1]);
    sim.kick(attacker, 0);
    sim.run_until(SimTime::from_secs(10));
    let f = sim.node::<AuthorizedFlooder>(attacker);
    assert!(
        (8..=12).contains(&f.rotations),
        "one rotation per second, got {}",
        f.rotations
    );
    assert!(f.flooded_bytes > 500_000, "flooding resumes after every rotation");
    let r = sim.node::<TvaRouterNode>(router);
    // A non-forgetting flooder sends one bootstrap request plus ~1 renewal
    // per 8 s; forced re-bootstrap pushes the request count to ≥ 1 per
    // rotation.
    assert!(
        r.router.stats.requests_stamped >= f.rotations,
        "every rotation must force a fresh capability request ({} requests, {} rotations)",
        r.router.stats.requests_stamped,
        f.rotations
    );
}
