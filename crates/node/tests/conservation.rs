//! Counter conservation across the daemon's layers: node frames, router
//! verdicts and scheduler classes must add up after every poll.
//!
//! `NodeEngine` is driven over random `PktGen` mixes (clean, contested,
//! dirty), seeds, flow counts, batch sizes, link rates and clock steps,
//! through a transport that refuses TX at random. Every identity below is
//! exact: each frame is counted once by each layer it reaches, and a frame
//! the scheduler has dequeued but the transport refused is `held` (at most
//! one, retried first on the next poll).
//!
//! Ingress (node → router):
//! * `rx_frames = node.malformed_drops + legacy + requests_stamped
//!   + nonce_hits + full_validations + demotions`
//! * `node.malformed_drops = router.malformed_drops`
//! * `demotions = demoted_expired + demoted_over_budget + demoted_no_caps
//!   + demoted_bad_cap` (exact: `PktGen` never sends a full stamp list)
//! * `queue_drops = requests_dropped + regular_dropped + legacy_dropped`
//!
//! Router → scheduler → transport:
//! * `requests_stamped = sched.requests_offered()`
//! * `nonce_hits + full_validations = sched.regular_offered()`
//! * `rx_frames − malformed = Σ *_sent + Σ *_dropped + sched.len_pkts()`
//! * `Σ *_sent = tx_frames + held`, `held` 1 exactly when the last TX
//!   attempt was refused; with nothing held, `Σ bytes_sent_* = tx_bytes`
//!
//! Transport-side tallies: `rx_bytes`, `tx_bytes` and `tx_backpressure`
//! equal what the transport saw.
//!
//! A run may `reset_meters` once mid-way. The ingress identities must keep
//! holding over the new window (node, router and scheduler reset together);
//! the others count packets queued before the reset and are checked only
//! on runs that have not reset.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tva_node::{
    ring_pair, MixKind, NodeClock, NodeConfig, NodeEngine, PktGen, RingPort, Transport,
};
use tva_sim::{QueueDisc, SimDuration, SimTime};

/// The node's port: a ring that also refuses TX at random, and tallies what
/// crossed it.
struct Flaky {
    inner: RingPort,
    rng: SmallRng,
    refuse_pct: u32,
    last_refused: bool,
    refusals: u64,
    rx_bytes: u64,
    tx_bytes: u64,
}

impl Transport for Flaky {
    fn rx_burst(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
        let seen = &mut self.rx_bytes;
        self.inner.rx_burst(max, &mut |frame| {
            *seen += frame.len() as u64;
            sink(frame)
        })
    }

    fn tx_frame(&mut self, fill: &mut dyn FnMut(&mut Vec<u8>)) -> bool {
        let mut len = 0;
        let sent = self.rng.next_u32() % 100 >= self.refuse_pct
            && self.inner.tx_frame(&mut |buf| {
                fill(buf);
                len = buf.len() as u64;
            });
        self.last_refused = !sent;
        if sent {
            self.tx_bytes += len;
        } else {
            self.refusals += 1;
        }
        sent
    }
}

const MIXES: [MixKind; 3] = [MixKind::Clean, MixKind::Contested, MixKind::Dirty];
const LINKS_BPS: [u64; 3] = [1_000_000, 100_000_000, 10_000_000_000];

fn check(node: &NodeEngine, port: &Flaky, reset: bool) -> Result<(), TestCaseError> {
    let (n, r, s) = (&node.stats, &node.router.stats, &node.sched.stats);
    prop_assert_eq!(
        n.rx_frames,
        n.malformed_drops
            + r.legacy
            + r.requests_stamped
            + r.nonce_hits
            + r.full_validations
            + r.demotions
    );
    prop_assert_eq!(n.malformed_drops, r.malformed_drops);
    prop_assert_eq!(
        r.demotions,
        r.demoted_expired + r.demoted_over_budget + r.demoted_no_caps + r.demoted_bad_cap
    );
    prop_assert_eq!(n.queue_drops, s.requests_dropped + s.regular_dropped + s.legacy_dropped);
    prop_assert_eq!(n.rx_bytes, port.rx_bytes);
    prop_assert_eq!(n.tx_bytes, port.tx_bytes);
    prop_assert_eq!(n.tx_backpressure, port.refusals);
    if reset {
        return Ok(());
    }
    prop_assert_eq!(r.requests_stamped, node.sched.requests_offered());
    prop_assert_eq!(r.nonce_hits + r.full_validations, node.sched.regular_offered());
    let sent = s.requests_sent + s.regular_sent + s.legacy_sent;
    let dropped = s.requests_dropped + s.regular_dropped + s.legacy_dropped;
    prop_assert_eq!(n.rx_frames - n.malformed_drops, sent + dropped + node.sched.len_pkts() as u64);
    let held = u64::from(port.last_refused);
    prop_assert_eq!(sent, n.tx_frames + held);
    if held == 0 {
        prop_assert_eq!(
            s.bytes_sent_requests + s.bytes_sent_regular + s.bytes_sent_legacy,
            n.tx_bytes
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layers_conserve_every_frame(
        mix in 0usize..3,
        seed in any::<u64>(),
        flows in 1usize..48,
        batch in 1usize..80,
        link in 0usize..3,
        refuse_pct in 0u32..70,
        step_ms in 0u64..4_000,
        polls in 20usize..160,
        reset_at in proptest::option::of(5usize..60),
    ) {
        let cfg = NodeConfig {
            mix: MIXES[mix],
            secret_seed: seed,
            flows,
            batch,
            link_bps: LINKS_BPS[link],
            ..NodeConfig::default()
        };
        let mut now = SimTime::from_secs(1_700_000_000);
        let mut node = NodeEngine::new(&cfg);
        let mut gen = PktGen::new(&cfg, now);
        let (node_ring, mut wire) = ring_pair(256);
        let mut port = Flaky {
            inner: node_ring,
            rng: SmallRng::seed_from_u64(seed.rotate_left(17)),
            refuse_pct,
            last_refused: false,
            refusals: 0,
            rx_bytes: 0,
            tx_bytes: 0,
        };
        let mut reset = false;
        for i in 0..polls {
            if reset_at == Some(i) {
                node.reset_meters();
                (port.refusals, port.rx_bytes, port.tx_bytes) = (0, 0, 0);
                reset = true;
            }
            gen.fill_burst(&mut wire, batch + i % 7, now);
            node.poll(&mut port, &NodeClock::stopped_at(now), batch);
            // Leave the wire undrained now and then, so the ring itself
            // pushes back too.
            if i % 5 != 4 {
                wire.rx_burst(usize::MAX, &mut |_| ());
            }
            check(&node, &port, reset)?;
            now += SimDuration::from_millis(step_ms);
        }
    }
}
