//! Property tests for the transport: liveness under arbitrary loss, and
//! receiver reassembly correctness under arbitrary delivery orders.

use proptest::prelude::*;
use tva_sim::{SimDuration, SimTime};
use tva_transport::{ReceiverConn, TcpEvent, TcpStack};
use tva_wire::{Addr, TcpFlags, TcpSegment};

const A: Addr = Addr::new(1, 0, 0, 1);
const B: Addr = Addr::new(2, 0, 0, 1);

/// Drives two stacks over a lossy constant-delay wire until quiescence.
/// Returns the events seen by the initiating stack and whether the run
/// *wedged* (went silent — no pending wire traffic and no pending timers —
/// without resolving the transfer).
fn run_lossy(
    file_size: u32,
    drop_pattern: &[bool],
    horizon: SimTime,
) -> (Vec<TcpEvent>, bool) {
    let mut a = TcpStack::new(A);
    let mut b = TcpStack::new(B);
    a.open(B, file_size, SimTime::ZERO);
    let delay = SimDuration::from_millis(25);
    let mut wire: Vec<(SimTime, bool, tva_sim::Pkt)> = Vec::new();
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    let mut drop_idx = 0usize;
    let should_drop = |idx: &mut usize| {
        let d = drop_pattern.get(*idx).copied().unwrap_or(false);
        *idx = (*idx + 1) % drop_pattern.len().max(1);
        d
    };
    loop {
        for p in a.take_out() {
            if !should_drop(&mut drop_idx) {
                wire.push((now + delay, false, p));
            }
        }
        for p in b.take_out() {
            if !should_drop(&mut drop_idx) {
                wire.push((now + delay, true, p));
            }
        }
        events.extend(a.take_events());
        b.take_events();
        let t_wire = wire.iter().map(|(t, _, _)| *t).min();
        let t_timer = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
        let Some(next) = [t_wire, t_timer].into_iter().flatten().min() else {
            // Quiescent: a wedge iff the transfer never resolved.
            events.extend(a.take_events());
            let wedged = events.is_empty();
            return (events, wedged);
        };
        if next > horizon {
            break;
        }
        now = next;
        let (ready, rest): (Vec<_>, Vec<_>) = wire.into_iter().partition(|(t, _, _)| *t <= now);
        wire = rest;
        for (_, to_a, p) in ready {
            if to_a {
                a.on_packet(&p, now);
            } else {
                b.on_packet(&p, now);
            }
        }
        a.on_tick(now);
        b.on_tick(now);
    }
    events.extend(a.take_events());
    (events, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Liveness: under ANY loss pattern, the connection never *wedges* —
    /// at every moment it has either resolved (completed or aborted) or
    /// still has a timer or packet in flight driving it forward. (It may
    /// legitimately crawl past any fixed horizon: heavy periodic loss
    /// yields slow progress that keeps resetting the RTO backoff, and TCP
    /// only aborts when a single segment exhausts its budget.)
    #[test]
    fn transfer_never_wedges(file_kb in 1u32..40,
                             pattern in proptest::collection::vec(any::<bool>(), 1..24)) {
        let horizon = SimTime::from_secs(300);
        let (_events, wedged) = run_lossy(file_kb * 1024, &pattern, horizon);
        prop_assert!(!wedged, "connection went silent without resolving");
    }

    /// Mostly-clean wires always complete (light periodic loss is inside
    /// TCP's recovery envelope).
    #[test]
    fn light_loss_always_completes(file_kb in 1u32..40, drop_one_in in 8usize..24) {
        let mut pattern = vec![false; drop_one_in];
        pattern[0] = true;
        let (events, _) = run_lossy(file_kb * 1024, &pattern, SimTime::from_secs(400));
        prop_assert!(
            events
                .iter()
                .any(|e| matches!(e, TcpEvent::TransferComplete { .. })),
            "light loss must not abort: {events:?}"
        );
    }

    /// The receiver reassembles the same prefix regardless of segment
    /// arrival order, and its cumulative ACK never exceeds contiguous data.
    #[test]
    fn receiver_reassembly_is_order_independent(
        order in Just(()).prop_perturb(|_, mut rng| {
            let mut idx: Vec<usize> = (0..12).collect();
            // Fisher-Yates with proptest's rng for a random permutation.
            for i in (1..idx.len()).rev() {
                let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
                idx.swap(i, j);
            }
            idx
        })
    ) {
        let seg_len = 500u32;
        let total_segs = 12u32;
        let key = tva_transport::ConnKey { peer: A, local_port: 80, peer_port: 1000 };
        let mut r = ReceiverConn::new(key, B);
        let mut out = Vec::new();
        for &i in &order {
            let seq = 1 + i as u32 * seg_len;
            let seg = TcpSegment {
                src_port: 1000,
                dst_port: 80,
                seq,
                ack: 1,
                flags: TcpFlags { ack: true, ..Default::default() },
            };
            r.on_segment(&seg, seg_len, &mut out);
            // The cumulative ACK emitted never runs ahead of what has
            // actually arrived contiguously.
            let acked = out.last().unwrap().tcp.unwrap().ack;
            prop_assert!(acked <= 1 + total_segs * seg_len);
        }
        prop_assert_eq!(r.rcv_nxt, 1 + total_segs * seg_len, "all data reassembled");
        prop_assert_eq!(r.delivered, (total_segs * seg_len) as u64);
    }
}
