//! The TCP stack: connection demultiplexing, timers, and event reporting.


use tva_sim::{Pkt, SimTime};
use tva_wire::{Addr, DetHashMap, Packet};

use crate::config::{RECEIVER_IDLE_TIMEOUT, SERVER_PORT};
use crate::conn::{AbortReason, ConnKey, ReceiverConn, SenderConn, SenderEvent, SenderState};

/// Events the stack reports to the application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpEvent {
    /// A sender connection delivered all its bytes.
    TransferComplete {
        /// The connection.
        key: ConnKey,
        /// When it was opened.
        opened_at: SimTime,
        /// When the last byte was acknowledged.
        completed_at: SimTime,
    },
    /// A sender connection gave up.
    TransferAborted {
        /// The connection.
        key: ConnKey,
        /// When it was opened.
        opened_at: SimTime,
        /// Why.
        reason: AbortReason,
    },
}

/// A host's TCP state: any number of active (sending) and passive
/// (receiving) connections.
pub struct TcpStack {
    local: Addr,
    senders: DetHashMap<ConnKey, SenderConn>,
    receivers: DetHashMap<ConnKey, ReceiverConn>,
    out: Vec<Pkt>,
    events: Vec<TcpEvent>,
    /// One finished sender kept around so the next `open` can reuse its
    /// hash-map storage (clients run transfers back-to-back; see
    /// [`SenderConn::open`]). Never observable: it is not in `senders`.
    spare_sender: Option<SenderConn>,
    next_port: u16,
    /// Packets seen since the last idle-receiver sweep.
    prune_countdown: u32,
    /// Total payload bytes delivered in order across all receiver
    /// connections (including ones already closed).
    pub(crate) delivered_bytes: u64,
}

/// How many packets between idle-receiver sweeps on the receive path.
const PRUNE_EVERY: u32 = 1024;

impl TcpStack {
    /// Creates a stack for a host with address `local`.
    pub fn new(local: Addr) -> Self {
        TcpStack {
            local,
            senders: DetHashMap::default(),
            receivers: DetHashMap::default(),
            out: Vec::new(),
            events: Vec::new(),
            spare_sender: None,
            next_port: 1024,
            prune_countdown: PRUNE_EVERY,
            delivered_bytes: 0,
        }
    }

    fn prune_idle_receivers(&mut self, now: SimTime) {
        self.receivers.retain(|_, c| now.since(c.last_activity) < RECEIVER_IDLE_TIMEOUT);
    }

    /// Opens a connection pushing `bytes` to `peer`; returns its key.
    pub fn open(&mut self, peer: Addr, bytes: u32, now: SimTime) -> ConnKey {
        let key = ConnKey { peer, local_port: self.next_port, peer_port: SERVER_PORT };
        self.next_port = self.next_port.checked_add(1).expect("port space exhausted");
        let recycled = self.spare_sender.take();
        let conn = SenderConn::open(key, self.local, bytes, now, &mut self.out, recycled);
        self.senders.insert(key, conn);
        key
    }

    /// Processes an arriving packet (after any capability-shim handling).
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime) {
        // Pure receivers never arm timers, so the idle sweep must also run
        // from the receive path.
        self.prune_countdown -= 1;
        if self.prune_countdown == 0 {
            self.prune_countdown = PRUNE_EVERY;
            self.prune_idle_receivers(now);
        }
        let Some(seg) = pkt.tcp else { return };
        let key = ConnKey { peer: pkt.src, local_port: seg.dst_port, peer_port: seg.src_port };

        if seg.flags.syn && !seg.flags.ack {
            // Passive open (or retransmitted SYN).
            let local = self.local;
            let conn = self
                .receivers
                .entry(key)
                .or_insert_with(|| ReceiverConn::new(key, local));
            conn.last_activity = now;
            conn.on_segment(&seg, 0, &mut self.out);
            return;
        }

        if let Some(conn) = self.senders.get_mut(&key) {
            let before = conn.state;
            let ev = conn.on_segment(&seg, now, &mut self.out);
            self.report(key, before, ev);
            if self.senders.get(&key).is_some_and(|c| c.finished()) {
                self.spare_sender = self.senders.remove(&key);
            }
            return;
        }

        if let Some(conn) = self.receivers.get_mut(&key) {
            let delivered_before = conn.delivered;
            conn.last_activity = now;
            conn.on_segment(&seg, pkt.payload_len, &mut self.out);
            self.delivered_bytes += conn.delivered - delivered_before;
            if conn.closed {
                self.receivers.remove(&key);
            }
        }
        // Unknown connection: silently ignored (e.g. late FIN ACKs).
    }

    fn report(&mut self, key: ConnKey, _before: SenderState, ev: SenderEvent) {
        match ev {
            SenderEvent::None => {}
            SenderEvent::DataComplete => {
                let conn = self.senders.get(&key).expect("conn exists during event");
                self.events.push(TcpEvent::TransferComplete {
                    key,
                    opened_at: conn.opened_at,
                    completed_at: conn.completed_at.expect("completed_at set"),
                });
            }
            SenderEvent::Aborted(reason) => {
                let conn = self.senders.get(&key).expect("conn exists during event");
                // An abort after every data byte was acknowledged is a
                // failed *close* handshake, not a failed transfer — the
                // completion was already reported; don't contradict it.
                if conn.completed_at.is_none() {
                    self.events.push(TcpEvent::TransferAborted {
                        key,
                        opened_at: conn.opened_at,
                        reason,
                    });
                }
            }
        }
    }

    /// Fires any timers due at `now`, and prunes receiver connections whose
    /// sender went silent without a FIN.
    pub fn on_tick(&mut self, now: SimTime) {
        self.prune_idle_receivers(now);
        let due: Vec<ConnKey> = self
            .senders
            .iter()
            .filter(|(_, c)| c.timer.is_some_and(|t| t <= now))
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let conn = self.senders.get_mut(&key).expect("key from scan");
            let before = conn.state;
            let ev = conn.on_timeout(now, &mut self.out);
            self.report(key, before, ev);
            if self.senders.get(&key).is_some_and(|c| c.finished()) {
                self.spare_sender = self.senders.remove(&key);
            }
        }
    }

    /// The earliest pending timer deadline, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.senders.values().filter_map(|c| c.timer).min()
    }

    /// Drains packets the stack wants transmitted. The internal buffer
    /// keeps its capacity, so steady-state pumping does not allocate.
    pub(crate) fn drain_out(&mut self) -> std::vec::Drain<'_, Pkt> {
        self.out.drain(..)
    }

    /// Drains packets the stack wants transmitted into a fresh `Vec`
    /// (convenience for tests; the host pump uses [`TcpStack::drain_out`]).
    pub fn take_out(&mut self) -> Vec<Pkt> {
        self.out.drain(..).collect()
    }

    /// Drains application events.
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr::new(1, 0, 0, 1);
    const B: Addr = Addr::new(2, 0, 0, 1);

    /// Runs two stacks against each other with a perfect, zero-loss,
    /// fixed-delay wire, firing timers as they come due. Returns events
    /// seen by stack `a`.
    fn run_loopback(a: &mut TcpStack, b: &mut TcpStack, until: SimTime) -> Vec<TcpEvent> {
        let mut now = SimTime::ZERO;
        let delay = tva_sim::SimDuration::from_millis(30); // one-way
        // In-flight packets: (deliver_at, to_a, packet).
        let mut wire: Vec<(SimTime, bool, Pkt)> = Vec::new();
        let mut events = Vec::new();
        loop {
            for p in a.take_out() {
                wire.push((now + delay, false, p));
            }
            for p in b.take_out() {
                wire.push((now + delay, true, p));
            }
            events.extend(a.take_events());
            b.take_events();
            // Next event: earliest wire delivery or timer.
            let t_wire = wire.iter().map(|(t, _, _)| *t).min();
            let t_timer = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
            let next = [t_wire, t_timer].into_iter().flatten().min();
            let Some(next) = next else { break };
            if next > until {
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
        events
    }

    #[test]
    fn transfer_completes_over_perfect_wire() {
        let mut a = TcpStack::new(A);
        let mut b = TcpStack::new(B);
        a.open(B, 20_480, SimTime::ZERO);
        let events = run_loopback(&mut a, &mut b, SimTime::from_secs(30));
        assert_eq!(events.len(), 1);
        match events[0] {
            TcpEvent::TransferComplete { completed_at, .. } => {
                let secs = completed_at.as_secs_f64();
                // 20 KB, 60 ms RTT, init cwnd 2: handshake (1 RTT) + 4 data
                // rounds ≈ 0.3 s. Allow generous slack.
                assert!(
                    (0.2..0.45).contains(&secs),
                    "completed at {secs}s, expected ≈0.3s"
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(b.delivered_bytes, 20_480);
        // Connections fully cleaned up after FIN handshake.
        assert_eq!(a.senders.len(), 0);
    }

    #[test]
    fn unreachable_peer_aborts_after_nine_syns() {
        let mut a = TcpStack::new(A);
        a.open(B, 1000, SimTime::ZERO);
        // Fire SYN timers by hand; no peer exists.
        let mut aborted_at = None;
        for _ in 0..20 {
            let Some(t) = a.next_timer() else { break };
            a.on_tick(t);
            for ev in a.take_events() {
                if let TcpEvent::TransferAborted { reason, .. } = ev {
                    assert_eq!(reason, AbortReason::SynTimeout);
                    aborted_at = Some(t);
                }
            }
        }
        assert_eq!(
            aborted_at,
            Some(SimTime::from_secs(9)),
            "9 SYNs at 1s intervals, abort on the 9th timeout"
        );
        assert_eq!(a.senders.len(), 0);
    }

    #[test]
    fn multiple_parallel_transfers() {
        let mut a = TcpStack::new(A);
        let mut b = TcpStack::new(B);
        for _ in 0..5 {
            a.open(B, 5_000, SimTime::ZERO);
        }
        let events = run_loopback(&mut a, &mut b, SimTime::from_secs(30));
        let completed = events
            .iter()
            .filter(|e| matches!(e, TcpEvent::TransferComplete { .. }))
            .count();
        assert_eq!(completed, 5);
        assert_eq!(b.delivered_bytes, 25_000);
    }

    #[test]
    fn ports_are_unique_across_opens() {
        let mut a = TcpStack::new(A);
        let k1 = a.open(B, 100, SimTime::ZERO);
        let k2 = a.open(B, 100, SimTime::ZERO);
        assert_ne!(k1.local_port, k2.local_port);
    }

    #[test]
    fn idle_receivers_are_pruned() {
        use tva_wire::{PacketId, TcpSegment};
        let mut b = TcpStack::new(B);
        // A bare SYN creates receiver state; the sender then vanishes.
        let syn = Packet {
            id: PacketId(0),
            src: A,
            dst: B,
            cap: None,
            tcp: Some(TcpSegment::syn(1000, 80, 0)),
            payload_len: 0,
        };
        b.on_packet(&syn, SimTime::ZERO);
        assert_eq!(b.receivers.len(), 1);
        // Long after the idle timeout, traffic for another connection
        // triggers the periodic sweep.
        let later = SimTime::from_secs(600);
        let other = Packet {
            id: PacketId(1),
            src: Addr::new(3, 0, 0, 1),
            dst: B,
            cap: None,
            tcp: Some(TcpSegment::syn(1001, 80, 0)),
            payload_len: 0,
        };
        for _ in 0..1100 {
            b.on_packet(&other, later);
        }
        assert_eq!(b.receivers.len(), 1, "the stale receiver is gone, the live one stays");
    }
}
