//! The §7 spoofed-source attack:
//!
//! > "an attacker and a colluder can spoof authorized traffic as if it were
//! > sent by a different sender S … This attack is harmful if per-source
//! > queuing is used at a congested link … This attack has little effect on
//! > a sender's traffic if per-destination queueing is used, which is TVA's
//! > default."
//!
//! Attackers request capabilities with the victim's source address, the
//! colluder leaks the granted capabilities to the attackers' real
//! addresses, and the attackers flood authorized traffic "from" the victim.

use tva_core::{
    AuthorizedFlooder, ClientPolicy, RegularQueueKey, RouterConfig, ServerPolicy,
    SpoofColluder, TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva_transport::{summarize, ClientNode, ServerNode, TransferSummary, TOKEN_START};
use tva_wire::{Addr, Grant};

const VICTIM: Addr = Addr::new(20, 0, 0, 1);
const DEST: Addr = Addr::new(10, 0, 0, 1);
const BOTTLENECK: u64 = 10_000_000;

fn colluder_addr(i: usize) -> Addr {
    Addr::new(10, 0, 1, i as u8 + 1)
}

fn attacker_addr(i: usize) -> Addr {
    Addr::new(66, 0, 0, i as u8 + 1)
}

/// Number of colluding destinations. One is not enough: a pre-capability
/// is a deterministic function of (src, dst, second, secret), so a single
/// flow can acquire at most ~N of fresh budget per second — the
/// fine-grained capability design inherently caps any one flow at about
/// `N_max / 1 s ≈ 8.4 Mb/s` no matter how cooperative its destination is.
/// The spoofed flood therefore needs several (victim → colluder_i) flows
/// to exceed the bottleneck.
const N_COLLUDERS: usize = 4;

/// Runs the attack under the given regular-class queuing key and returns
/// the victim's transfer summary.
fn run_with(key: RegularQueueKey) -> TransferSummary {
    let cfg1 = RouterConfig { regular_queue_key: key, secret_seed: 101, ..Default::default() };
    let cfg2 = RouterConfig { regular_queue_key: key, secret_seed: 202, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let r1 = t.add_node(Box::new(TvaRouterNode::new(cfg1.clone(), BOTTLENECK)));
    let r2 = t.add_node(Box::new(TvaRouterNode::new(cfg2.clone(), BOTTLENECK)));

    let dest = t.add_node(Box::new(ServerNode::new(
        DEST,
        Box::new(TvaHostShim::new(
            DEST,
            Box::new(ServerPolicy::new(
                Grant::from_parts(100, 10),
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(dest, DEST);

    let mut colluders = Vec::new();
    for i in 0..N_COLLUDERS {
        let c = t.add_node(Box::new(SpoofColluder::new(
            colluder_addr(i),
            vec![attacker_addr(i)],
            Grant::from_parts(1023, 10),
        )));
        t.bind_addr(c, colluder_addr(i));
        colluders.push(c);
    }

    let d = SimDuration::from_millis(10);
    let host_q = || Box::new(DropTail::new(1 << 20));
    let bottleneck = t.link(
        r1,
        r2,
        BOTTLENECK,
        d,
        Box::new(TvaScheduler::new(BOTTLENECK, &cfg1)),
        Box::new(TvaScheduler::new(BOTTLENECK, &cfg2)),
    );
    t.link(r2, dest, 100_000_000, d, Box::new(TvaScheduler::new(100_000_000, &cfg2)), host_q());
    for &c in &colluders {
        t.link(
            r2,
            c,
            100_000_000,
            d,
            Box::new(TvaScheduler::new(100_000_000, &cfg2)),
            host_q(),
        );
    }

    // The victim: an ordinary user transferring to the destination.
    let victim = t.add_node(Box::new(ClientNode::new(
        VICTIM,
        DEST,
        20 * 1024,
        2000,
        Box::new(TvaHostShim::new(
            VICTIM,
            Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
        )),
    )));
    t.bind_addr(victim, VICTIM);
    t.link(victim, r1, 100_000_000, d, host_q(), Box::new(TvaScheduler::new(100_000_000, &cfg1)));

    // One attacker per colluder, each flooding a distinct spoofed
    // (victim → colluder_i) flow at ~7 Mb/s: ~28 Mb/s of authorized flood
    // claiming to come from the victim. One origin per flow keeps each
    // attacker's renewal cadence matched to the routers' byte counts.
    let mut attackers = Vec::new();
    for i in 0..N_COLLUDERS {
        let a = t.add_node(Box::new(
            AuthorizedFlooder::new(attacker_addr(i), colluder_addr(i), 7_000_000)
                .with_spoofed_source(VICTIM),
        ));
        t.bind_addr(a, attacker_addr(i));
        t.link(a, r1, 100_000_000, d, host_q(), Box::new(TvaScheduler::new(100_000_000, &cfg1)));
        attackers.push(a);
    }

    let mut sim = t.build(17);
    sim.kick(victim, TOKEN_START);
    for &a in &attackers {
        sim.kick(a, 0);
    }
    sim.run_until(SimTime::from_secs(60));

    // The attack genuinely ran: the colluders absorbed authorized flood.
    let mut absorbed = 0;
    let mut granted = 0;
    for &c in &colluders {
        let c = sim.node::<SpoofColluder>(c);
        absorbed += c.absorbed;
        granted += c.granted;
    }
    assert!(granted > 0, "colluders must have granted capabilities");
    assert!(
        absorbed > 30_000_000,
        "spoofed authorized flood must have reached the colluders, got {absorbed} bytes"
    );
    let _ = bottleneck;
    let v = sim.node::<ClientNode>(victim);
    summarize(&v.records)
}

#[test]
fn per_destination_queuing_shrugs_off_spoofed_floods() {
    let s = run_with(RegularQueueKey::PerDestination);
    assert!(
        s.completion_fraction > 0.99,
        "victim completion under per-destination queuing: {}",
        s.completion_fraction
    );
    assert!(
        s.avg_completion_secs < 0.6,
        "victim time under per-destination queuing: {}",
        s.avg_completion_secs
    );
}

#[test]
fn per_source_queuing_is_vulnerable_to_spoofed_floods() {
    let dst = run_with(RegularQueueKey::PerDestination);
    let src = run_with(RegularQueueKey::PerSource);
    // Under per-source queuing the spoofed flood shares the victim's queue:
    // the victim's own traffic is crowded out.
    assert!(
        src.avg_completion_secs > 2.0 * dst.avg_completion_secs
            || src.completion_fraction < 0.9,
        "per-source queuing should visibly hurt the victim: per-dst ({:.3}, {:.3}s) \
         vs per-src ({:.3}, {:.3}s)",
        dst.completion_fraction,
        dst.avg_completion_secs,
        src.completion_fraction,
        src.avg_completion_secs,
    );
}
