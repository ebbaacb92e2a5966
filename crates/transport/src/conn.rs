//! Per-connection TCP state machines.
//!
//! [`SenderConn`] is the active side: it opens with a SYN, pushes a fixed
//! number of bytes with slow start / congestion avoidance / fast retransmit,
//! then closes with a FIN. [`ReceiverConn`] is the passive side: it answers
//! SYNs, acknowledges every arriving segment cumulatively, and reassembles
//! out-of-order data.
//!
//! Sequence space: the SYN consumes sequence 0, data occupies
//! `1..=bytes_total`, the FIN consumes `bytes_total + 1`.

use std::collections::BTreeMap;

use tva_sim::{Pkt, SimDuration, SimTime};
use tva_wire::{Addr, DetHashMap, Packet, PacketId, TcpFlags, TcpSegment};

use crate::config::{
    ABORT_RTO, DUPACK_THRESHOLD, INITIAL_RTO, INIT_CWND, INIT_SSTHRESH, MAX_SEG_TX, MIN_RTO, MSS,
    SYN_MAX_TX, SYN_TIMEOUT,
};

/// Identifies a connection from the local host's perspective.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnKey {
    /// Remote host.
    pub peer: Addr,
    /// Local port.
    pub local_port: u16,
    /// Remote port.
    pub peer_port: u16,
}

/// Why a sender connection ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// All SYN transmissions timed out.
    SynTimeout,
    /// The backed-off data RTO exceeded the 64-second abort threshold.
    RtoTooLarge,
    /// One segment was transmitted more than the 10-transmission limit.
    TooManyRetx,
    /// The peer refused the connection (RST).
    Refused,
}

/// Sender connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SenderState {
    /// SYN sent, awaiting SYN/ACK.
    SynSent,
    /// Handshake done; pushing data.
    Established,
    /// All data acked; FIN in flight.
    Finishing,
    /// FIN acked — fully closed.
    Closed,
    /// Aborted (see [`AbortReason`]).
    Aborted(AbortReason),
}

/// What a sender connection reports upward after processing input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SenderEvent {
    /// Nothing of note.
    None,
    /// All payload bytes are acknowledged — the transfer is complete (the
    /// FIN exchange continues in the background).
    DataComplete,
    /// The connection aborted.
    Aborted(AbortReason),
}

/// The active (sending) side of a connection.
pub(crate) struct SenderConn {
    /// Connection identity.
    pub(crate) key: ConnKey,
    /// Local address (packet source).
    pub(crate) local: Addr,
    /// Current state.
    pub(crate) state: SenderState,
    /// When `open` was called (for transfer metrics).
    pub(crate) opened_at: SimTime,
    /// When the last data byte was acknowledged.
    pub(crate) completed_at: Option<SimTime>,

    bytes_total: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Congestion window in segments (fractional during congestion
    /// avoidance).
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// Smoothed RTT state: (srtt, rttvar) in seconds.
    rtt: Option<(f64, f64)>,
    /// Base RTO from the estimator (before backoff).
    base_rto: SimDuration,
    /// Consecutive timeout backoff exponent.
    backoff: u32,
    /// Retransmission / SYN timer deadline.
    pub(crate) timer: Option<SimTime>,
    syn_tx: u32,
    /// Transmission counts per segment start sequence.
    tx_counts: DetHashMap<u32, u32>,
    /// Send times for RTT sampling (only first transmissions are sampled).
    send_times: DetHashMap<u32, SimTime>,
}

impl SenderConn {
    /// Opens a connection to push `bytes_total` bytes; emits the initial SYN
    /// into `out`. `recycled` donates the hash-map storage of a finished
    /// connection (cleared here) so steady transfer churn stops allocating;
    /// every other field is freshly initialised either way.
    pub(crate) fn open(
        key: ConnKey,
        local: Addr,
        bytes_total: u32,
        now: SimTime,
        out: &mut Vec<Pkt>,
        recycled: Option<SenderConn>,
    ) -> Self {
        assert!(bytes_total > 0, "empty transfers are not modeled");
        let (mut tx_counts, mut send_times) = match recycled {
            Some(old) => (old.tx_counts, old.send_times),
            None => Default::default(),
        };
        tx_counts.clear();
        send_times.clear();
        let mut c = SenderConn {
            key,
            local,
            state: SenderState::SynSent,
            opened_at: now,
            completed_at: None,
            bytes_total,
            snd_una: 0,
            snd_nxt: 1,
            cwnd: INIT_CWND as f64,
            ssthresh: INIT_SSTHRESH as f64,
            dup_acks: 0,
            rtt: None,
            base_rto: INITIAL_RTO,
            backoff: 0,
            timer: None,
            syn_tx: 0,
            tx_counts,
            send_times,
        };
        c.send_syn(now, out);
        c
    }

    fn fin_seq(&self) -> u32 {
        self.bytes_total + 1
    }

    fn send_syn(&mut self, now: SimTime, out: &mut Vec<Pkt>) {
        self.syn_tx += 1;
        self.timer = Some(now + SYN_TIMEOUT);
        out.push(Pkt::new(Packet {
            id: PacketId(0),
            src: self.local,
            dst: self.key.peer,
            cap: None,
            tcp: Some(TcpSegment::syn(self.key.local_port, self.key.peer_port, 0)),
            payload_len: 0,
        }));
    }

    fn seg_packet(&self, seq: u32, len: u32, fin: bool) -> Packet {
        out_packet(self.local, self.key, seq, 1, len, fin)
    }

    /// The effective RTO including backoff.
    fn rto(&self) -> SimDuration {
        let base = self.base_rto.max(MIN_RTO);
        base * (1u64 << self.backoff.min(16))
    }

    /// Bytes in flight.
    fn flight(&self) -> u32 {
        self.snd_nxt - self.snd_una.max(1)
    }

    /// Transmits (or retransmits) the segment starting at `seq`; returns
    /// false if the transmission budget is exhausted (caller aborts).
    fn transmit_seg(
        &mut self,
        seq: u32,
        now: SimTime,
        out: &mut Vec<Pkt>,
    ) -> bool {
        let count = self.tx_counts.entry(seq).or_insert(0);
        if *count >= MAX_SEG_TX {
            return false;
        }
        *count += 1;
        if *count == 1 {
            self.send_times.insert(seq, now);
        } else {
            // Karn's rule: never RTT-sample retransmitted segments.
            self.send_times.remove(&seq);
        }
        let (len, fin) = if seq == self.fin_seq() {
            (0, true)
        } else {
            ((self.bytes_total + 1 - seq).min(MSS), false)
        };
        out.push(Pkt::new(self.seg_packet(seq, len, fin)));
        true
    }

    /// Fills the congestion window with new segments.
    fn push_window(&mut self, now: SimTime, out: &mut Vec<Pkt>) {
        let cwnd_bytes = (self.cwnd * MSS as f64) as u32;
        while self.snd_nxt <= self.bytes_total && self.flight() < cwnd_bytes {
            let seq = self.snd_nxt;
            let len = (self.bytes_total + 1 - seq).min(MSS);
            if !self.transmit_seg(seq, now, out) {
                break; // budget exhausted; timeout path will abort
            }
            self.snd_nxt += len;
        }
        // FIN once all data is out and acked.
        if self.state == SenderState::Finishing
            && self.snd_nxt == self.fin_seq()
            && self.transmit_seg(self.fin_seq(), now, out)
        {
            self.snd_nxt += 1;
        }
        if self.timer.is_none() && self.flight() > 0 {
            self.timer = Some(now + self.rto());
        }
    }

    /// Handles an arriving segment addressed to this connection.
    pub(crate) fn on_segment(
        &mut self,
        seg: &TcpSegment,
        now: SimTime,
        out: &mut Vec<Pkt>,
    ) -> SenderEvent {
        match self.state {
            SenderState::SynSent => {
                if seg.flags.rst {
                    self.state = SenderState::Aborted(AbortReason::Refused);
                    self.timer = None;
                    return SenderEvent::Aborted(AbortReason::Refused);
                }
                if seg.flags.syn && seg.flags.ack && seg.ack >= 1 {
                    self.state = SenderState::Established;
                    self.snd_una = 1;
                    self.timer = None;
                    // Sample handshake RTT from the last SYN only if it was
                    // the first (Karn).
                    if self.syn_tx == 1 {
                        self.rtt_sample(now.since(self.opened_at));
                    }
                    self.push_window(now, out);
                }
                SenderEvent::None
            }
            SenderState::Established | SenderState::Finishing => {
                if !seg.flags.ack {
                    return SenderEvent::None;
                }
                self.process_ack(seg.ack, now, out)
            }
            SenderState::Closed | SenderState::Aborted(_) => SenderEvent::None,
        }
    }

    fn process_ack(
        &mut self,
        ack: u32,
        now: SimTime,
        out: &mut Vec<Pkt>,
    ) -> SenderEvent {
        if ack > self.snd_nxt {
            // Acknowledges data never sent: corrupt or forged (RFC 9293
            // would reply with an ACK; dropping suffices here). Accepting
            // it would push snd_una past snd_nxt and wreck the window
            // arithmetic.
            return SenderEvent::None;
        }
        if ack > self.snd_una {
            // New data acknowledged.
            if let Some(sent) = self.send_times.remove(&self.snd_una) {
                self.rtt_sample(now.since(sent));
            }
            // Drop bookkeeping for fully acked segments.
            self.tx_counts.retain(|&seq, _| seq >= ack);
            self.send_times.retain(|&seq, _| seq >= ack);
            self.snd_una = ack;
            self.dup_acks = 0;
            self.backoff = 0;
            // Congestion window growth.
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
            } else {
                self.cwnd += 1.0 / self.cwnd; // congestion avoidance
            }
            // Restart the retransmission timer.
            self.timer =
                if self.snd_una < self.snd_nxt { Some(now + self.rto()) } else { None };

            if self.state == SenderState::Established && self.snd_una == self.fin_seq() {
                // All data acked.
                self.state = SenderState::Finishing;
                self.completed_at = Some(now);
                self.push_window(now, out);
                return SenderEvent::DataComplete;
            }
            if self.state == SenderState::Finishing && ack > self.fin_seq() {
                self.state = SenderState::Closed;
                self.timer = None;
                return SenderEvent::None;
            }
            self.push_window(now, out);
            SenderEvent::None
        } else if ack == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD {
                // Fast retransmit + multiplicative decrease.
                let flight_segs = (self.flight() as f64 / MSS as f64).max(1.0);
                self.ssthresh = (flight_segs / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                let seq = self.snd_una.max(1);
                if !self.transmit_seg(seq, now, out) {
                    return self.abort(AbortReason::TooManyRetx);
                }
                self.timer = Some(now + self.rto());
            }
            SenderEvent::None
        } else {
            SenderEvent::None
        }
    }

    /// Handles timer expiry; call only when `timer` is due.
    pub(crate) fn on_timeout(
        &mut self,
        now: SimTime,
        out: &mut Vec<Pkt>,
    ) -> SenderEvent {
        self.timer = None;
        match self.state {
            SenderState::SynSent => {
                if self.syn_tx >= SYN_MAX_TX {
                    return self.abort(AbortReason::SynTimeout);
                }
                // Fixed timeout, no backoff (paper §5).
                self.send_syn(now, out);
                SenderEvent::None
            }
            SenderState::Established | SenderState::Finishing => {
                if self.flight() == 0 {
                    return SenderEvent::None;
                }
                // Backed-off RTO; abort if it exceeds the paper's 64 s cap.
                self.backoff += 1;
                if self.rto() > ABORT_RTO {
                    return self.abort(AbortReason::RtoTooLarge);
                }
                self.ssthresh = ((self.flight() as f64 / MSS as f64) / 2.0).max(2.0);
                self.cwnd = 1.0;
                self.dup_acks = 0;
                let seq = self.snd_una.max(1);
                if !self.transmit_seg(seq, now, out) {
                    return self.abort(AbortReason::TooManyRetx);
                }
                self.timer = Some(now + self.rto());
                SenderEvent::None
            }
            SenderState::Closed | SenderState::Aborted(_) => SenderEvent::None,
        }
    }

    fn abort(&mut self, reason: AbortReason) -> SenderEvent {
        self.state = SenderState::Aborted(reason);
        self.timer = None;
        SenderEvent::Aborted(reason)
    }

    fn rtt_sample(&mut self, sample: SimDuration) {
        let r = sample.as_secs_f64();
        let (srtt, rttvar) = match self.rtt {
            None => (r, r / 2.0),
            Some((srtt, rttvar)) => {
                let rttvar = 0.75 * rttvar + 0.25 * (srtt - r).abs();
                let srtt = 0.875 * srtt + 0.125 * r;
                (srtt, rttvar)
            }
        };
        self.rtt = Some((srtt, rttvar));
        let rto = srtt + 4.0 * rttvar;
        self.base_rto = SimDuration::from_secs_f64(rto).max(MIN_RTO);
    }

    /// True once the connection needs no further processing.
    pub(crate) fn finished(&self) -> bool {
        matches!(self.state, SenderState::Closed | SenderState::Aborted(_))
    }
}

/// The passive (receiving) side of a connection.
pub struct ReceiverConn {
    /// Connection identity.
    pub(crate) key: ConnKey,
    /// Local address.
    pub(crate) local: Addr,
    /// Next contiguous byte expected.
    pub rcv_nxt: u32,
    /// Out-of-order segments: start seq → length.
    ooo: BTreeMap<u32, u32>,
    /// Total payload bytes delivered in order.
    pub delivered: u64,
    /// Set once the FIN is acknowledged; the stack then discards the state.
    pub(crate) closed: bool,
    /// Last time the peer was heard from; idle receivers whose FIN never
    /// arrives (aborted senders) are pruned by the stack so server memory
    /// does not grow with every aborted inbound connection.
    pub(crate) last_activity: SimTime,
}

impl ReceiverConn {
    /// Creates receiver state upon an initial SYN.
    pub fn new(key: ConnKey, local: Addr) -> Self {
        ReceiverConn {
            key,
            local,
            rcv_nxt: 1,
            ooo: BTreeMap::new(),
            delivered: 0,
            closed: false,
            last_activity: SimTime::ZERO,
        }
    }

    /// Handles a segment from the peer, emitting SYN/ACKs and ACKs.
    pub fn on_segment(&mut self, seg: &TcpSegment, payload_len: u32, out: &mut Vec<Pkt>) {
        if seg.flags.syn {
            // (Re)answer the handshake: SYN/ACK with our seq 0, ack 1.
            let mut p = out_packet(self.local, self.key, 0, 1, 0, false);
            let t = p.tcp.as_mut().expect("out_packet always sets tcp");
            t.flags.syn = true;
            out.push(Pkt::new(p));
            return;
        }
        if payload_len > 0 {
            let seq = seg.seq;
            if seq == self.rcv_nxt {
                self.rcv_nxt += payload_len;
                self.delivered += payload_len as u64;
                // Drain contiguous out-of-order data.
                while let Some((&s, &l)) = self.ooo.first_key_value() {
                    if s > self.rcv_nxt {
                        break;
                    }
                    self.ooo.pop_first();
                    if s + l > self.rcv_nxt {
                        let advance = s + l - self.rcv_nxt;
                        self.rcv_nxt += advance;
                        self.delivered += advance as u64;
                    }
                }
            } else if seq > self.rcv_nxt {
                self.ooo.insert(seq, payload_len);
            } // else: old duplicate, just re-ACK
            out.push(Pkt::new(out_packet(self.local, self.key, 1, self.rcv_nxt, 0, false)));
        } else if seg.flags.fin {
            if seg.seq == self.rcv_nxt {
                // FIN consumes one sequence number.
                self.rcv_nxt += 1;
                self.closed = true;
            }
            out.push(Pkt::new(out_packet(self.local, self.key, 1, self.rcv_nxt, 0, false)));
        }
        // Pure ACKs from the peer carry nothing for a receiver.
    }
}

/// Builds an outgoing packet for a connection; `seq`/`ack` per the caller,
/// ACK flag always set (every post-SYN segment acknowledges).
fn out_packet(local: Addr, key: ConnKey, seq: u32, ack: u32, payload: u32, fin: bool) -> Packet {
    Packet {
        id: PacketId(0),
        src: local,
        dst: key.peer,
        cap: None,
        tcp: Some(TcpSegment {
            src_port: key.local_port,
            dst_port: key.peer_port,
            seq,
            ack,
            flags: TcpFlags { syn: false, ack: true, fin, rst: false },
        }),
        payload_len: payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ConnKey {
        ConnKey { peer: Addr::new(2, 0, 0, 1), local_port: 1000, peer_port: 80 }
    }

    const LOCAL: Addr = Addr::new(1, 0, 0, 1);

    fn synack() -> TcpSegment {
        TcpSegment {
            src_port: 80,
            dst_port: 1000,
            seq: 0,
            ack: 1,
            flags: TcpFlags { syn: true, ack: true, fin: false, rst: false },
        }
    }

    fn ack(n: u32) -> TcpSegment {
        TcpSegment {
            src_port: 80,
            dst_port: 1000,
            seq: 1,
            ack: n,
            flags: TcpFlags { syn: false, ack: true, fin: false, rst: false },
        }
    }

    #[test]
    fn open_emits_syn() {
        let mut out = Vec::new();
        let c = SenderConn::open(key(), LOCAL, 5000, SimTime::ZERO, &mut out, None);
        assert_eq!(out.len(), 1);
        assert!(out[0].tcp.unwrap().flags.syn);
        assert_eq!(c.state, SenderState::SynSent);
        assert_eq!(c.timer, Some(SimTime::from_secs(1)));
    }

    #[test]
    fn synack_opens_initial_window() {
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 5000, SimTime::ZERO, &mut out, None);
        out.clear();
        let t = SimTime::from_nanos(60_000_000);
        c.on_segment(&synack(), t, &mut out);
        assert_eq!(c.state, SenderState::Established);
        // init_cwnd = 2 segments.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload_len, 1000);
        assert_eq!(out[0].tcp.unwrap().seq, 1);
        assert_eq!(out[1].tcp.unwrap().seq, 1001);
    }

    #[test]
    fn acks_grow_window_and_complete() {
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 3000, SimTime::ZERO, &mut out, None);
        let mut now = SimTime::from_nanos(60_000_000);
        c.on_segment(&synack(), now, &mut out);
        // ACK first segment: window grows, third (final) segment flows.
        out.clear();
        now += SimDuration::from_millis(60);
        let ev = c.on_segment(&ack(1001), now, &mut out);
        assert_eq!(ev, SenderEvent::None);
        assert_eq!(out.len(), 1, "third segment sent");
        // ACK everything: DataComplete and FIN emitted.
        out.clear();
        now += SimDuration::from_millis(60);
        let ev = c.on_segment(&ack(3001), now, &mut out);
        assert_eq!(ev, SenderEvent::DataComplete);
        assert_eq!(c.completed_at, Some(now));
        assert_eq!(out.len(), 1);
        assert!(out[0].tcp.unwrap().flags.fin);
        // ACK the FIN: closed.
        let ev = c.on_segment(&ack(3002), now, &mut out);
        assert_eq!(ev, SenderEvent::None);
        assert_eq!(c.state, SenderState::Closed);
        assert!(c.finished());
    }

    #[test]
    fn syn_retransmits_fixed_interval_then_aborts() {
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 1000, SimTime::ZERO, &mut out, None);
        for i in 1..9 {
            out.clear();
            let due = c.timer.expect("SYN timer armed");
            assert_eq!(due, SimTime::from_secs(i), "fixed 1s timeout, no backoff");
            let ev = c.on_timeout(due, &mut out);
            assert_eq!(ev, SenderEvent::None);
            assert_eq!(out.len(), 1, "SYN retransmission {i}");
        }
        // 9th transmission done; next timeout aborts.
        let due = c.timer.unwrap();
        let ev = c.on_timeout(due, &mut out);
        assert_eq!(ev, SenderEvent::Aborted(AbortReason::SynTimeout));
        assert!(c.finished());
    }

    #[test]
    fn triple_dupack_fast_retransmits() {
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 10_000, SimTime::ZERO, &mut out, None);
        let now = SimTime::from_nanos(60_000_000);
        c.on_segment(&synack(), now, &mut out);
        // Grow the window a bit.
        c.on_segment(&ack(1001), now, &mut out);
        out.clear();
        for _ in 0..2 {
            c.on_segment(&ack(1001), now, &mut out);
            assert!(out.is_empty(), "below dupack threshold");
        }
        c.on_segment(&ack(1001), now, &mut out);
        assert_eq!(out.len(), 1, "fast retransmit fired");
        assert_eq!(out[0].tcp.unwrap().seq, 1001);
    }

    #[test]
    fn rto_backoff_reaches_abort_threshold() {
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 10_000, SimTime::ZERO, &mut out, None);
        let now = SimTime::from_nanos(60_000_000);
        c.on_segment(&synack(), now, &mut out);
        // Repeated timeouts double the RTO until it passes 64 s.
        let mut aborted = false;
        for _ in 0..20 {
            let due = c.timer.expect("timer armed");
            out.clear();
            match c.on_timeout(due, &mut out) {
                SenderEvent::Aborted(AbortReason::RtoTooLarge) => {
                    aborted = true;
                    break;
                }
                SenderEvent::Aborted(r) => panic!("unexpected abort {r:?}"),
                _ => {}
            }
        }
        assert!(aborted, "RTO backoff must eventually abort");
    }

    #[test]
    fn max_transmissions_aborts() {
        // Timeouts alone trip RtoTooLarge after nine transmissions (200 ms
        // doubled past 64 s). Fast retransmits count transmissions without
        // backing off the RTO, so three duplicate ACKs before every timeout
        // reach the tenth transmission first.
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 1000, SimTime::ZERO, &mut out, None);
        let mut now = SimTime::from_nanos(60_000_000);
        c.on_segment(&synack(), now, &mut out);
        let mut aborted = None;
        for _ in 0..20 {
            for _ in 0..DUPACK_THRESHOLD {
                if let SenderEvent::Aborted(r) = c.on_segment(&ack(1), now, &mut out) {
                    aborted = Some(r);
                }
            }
            if aborted.is_some() {
                break;
            }
            now = c.timer.expect("timer armed");
            if let SenderEvent::Aborted(r) = c.on_timeout(now, &mut out) {
                aborted = Some(r);
                break;
            }
        }
        assert_eq!(aborted, Some(AbortReason::TooManyRetx));
    }

    #[test]
    fn forged_ack_beyond_snd_nxt_is_ignored() {
        let mut out = Vec::new();
        let mut c = SenderConn::open(key(), LOCAL, 10_000, SimTime::ZERO, &mut out, None);
        let now = SimTime::from_nanos(60_000_000);
        c.on_segment(&synack(), now, &mut out);
        out.clear();
        // An attacker acks far beyond anything sent: must be a no-op.
        let ev = c.on_segment(&ack(1_000_000), now, &mut out);
        assert_eq!(ev, SenderEvent::None);
        assert!(out.is_empty(), "no retransmission or window burst");
        assert_eq!(c.state, SenderState::Established);
        // The connection still works with a legitimate ACK.
        let ev = c.on_segment(&ack(1001), now, &mut out);
        assert_eq!(ev, SenderEvent::None);
        assert!(!out.is_empty(), "window advances normally afterwards");
    }

    #[test]
    fn receiver_acks_in_order_data() {
        let mut out = Vec::new();
        let k = ConnKey { peer: LOCAL, local_port: 80, peer_port: 1000 };
        let server = Addr::new(2, 0, 0, 1);
        let mut r = ReceiverConn::new(k, server);
        let seg = TcpSegment {
            src_port: 1000,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags { ack: true, ..Default::default() },
        };
        r.on_segment(&seg, 1000, &mut out);
        assert_eq!(r.rcv_nxt, 1001);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tcp.unwrap().ack, 1001);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut out = Vec::new();
        let k = ConnKey { peer: LOCAL, local_port: 80, peer_port: 1000 };
        let server = Addr::new(2, 0, 0, 1);
        let mut r = ReceiverConn::new(k, server);
        let seg = |seq| TcpSegment {
            src_port: 1000,
            dst_port: 80,
            seq,
            ack: 1,
            flags: TcpFlags { ack: true, ..Default::default() },
        };
        // Segment 2 before segment 1: dup ack of 1, then jump to 2001.
        r.on_segment(&seg(1001), 1000, &mut out);
        assert_eq!(out.pop().unwrap().tcp.unwrap().ack, 1);
        r.on_segment(&seg(1), 1000, &mut out);
        assert_eq!(out.pop().unwrap().tcp.unwrap().ack, 2001);
        assert_eq!(r.delivered, 2000);
    }

    #[test]
    fn receiver_handles_fin() {
        let mut out = Vec::new();
        let k = ConnKey { peer: LOCAL, local_port: 80, peer_port: 1000 };
        let server = Addr::new(2, 0, 0, 1);
        let mut r = ReceiverConn::new(k, server);
        let data = TcpSegment {
            src_port: 1000,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags { ack: true, ..Default::default() },
        };
        r.on_segment(&data, 500, &mut out);
        let fin = TcpSegment {
            src_port: 1000,
            dst_port: 80,
            seq: 501,
            ack: 1,
            flags: TcpFlags { ack: true, fin: true, ..Default::default() },
        };
        out.clear();
        r.on_segment(&fin, 0, &mut out);
        assert!(r.closed);
        assert_eq!(out[0].tcp.unwrap().ack, 502);
    }
}
