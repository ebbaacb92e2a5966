//! The streaming trace auditor: engine sanity + packet conservation.
//!
//! Installed as the run's [`tva_sim::Tracer`] (via a thread-local, like the
//! flight recorder — tracers must be `Send` but each run is single-threaded
//! on its own thread). It watches every Enqueued / Dropped / TxStart /
//! Delivered / Lost / Corrupted event and maintains, per channel, both
//! event counts and a model of the wire:
//!
//! * **Time monotonicity** — trace timestamps never decrease.
//! * **FIFO delivery** — a channel transmits serially and propagation
//!   delay is constant, so deliveries must occur in TxStart order. The
//!   only packets allowed to vanish from the order are corrupted ones
//!   (a corrupted frame that fails decode is counted `malformed` and
//!   never delivered).
//! * **Conservation** — at end of run, every TxStart'd packet is
//!   accounted: delivered, lost (traced), malformed, still serializing,
//!   or still propagating (pending `Arrival` events); and the auditor's
//!   own event counts must equal the engine's [`tva_sim::ChannelStats`]
//!   ledgers exactly.

use std::cell::RefCell;
use std::collections::VecDeque;

use tva_sim::{ChannelId, SimTime, Simulator, TraceEvent, TraceKind};
use tva_wire::PacketId;

use crate::{Violation, MAX_VIOLATIONS};

/// Per-channel audit state.
#[derive(Default)]
struct ChanAudit {
    enqueued: u64,
    dropped: u64,
    tx: u64,
    delivered: u64,
    lost: u64,
    corrupted: u64,
    /// Lost events whose packet never started transmission — offers to a
    /// failed link, which the engine loses at the queue door.
    at_offer_lost: u64,
    /// Corrupted packets skipped over by a later delivery (they became
    /// malformed frames and legitimately left the FIFO order).
    vanished: u64,
    /// Packets past TxStart and not yet delivered/lost, in transmission
    /// order. The flag marks corruption (the packet may legitimately
    /// vanish as a malformed frame).
    wire: VecDeque<(PacketId, bool)>,
}

/// The streaming auditor. Create via [`install_thread_auditor`], feed via
/// [`thread_audit_record`], harvest via [`take_thread_auditor`].
#[derive(Default)]
pub(crate) struct TraceAuditor {
    last_time: Option<SimTime>,
    channels: Vec<ChanAudit>,
    violations: Vec<Violation>,
    events_seen: u64,
}

impl TraceAuditor {
    fn violation(&mut self, time: SimTime, invariant: &'static str, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { time, invariant, detail });
        }
    }

    fn chan(&mut self, ch: ChannelId) -> &mut ChanAudit {
        if self.channels.len() <= ch.0 {
            self.channels.resize_with(ch.0 + 1, ChanAudit::default);
        }
        &mut self.channels[ch.0]
    }

    /// Feeds one trace event.
    pub(crate) fn record(&mut self, ev: &TraceEvent) {
        self.events_seen += 1;
        match self.last_time {
            Some(t) if ev.time < t => self.violation(
                ev.time,
                "time-monotonicity",
                format!("trace time went backwards: {t:?} -> {:?} (pkt {:?})", ev.time, ev.id),
            ),
            _ => self.last_time = Some(ev.time),
        }
        let (id, time, ch) = (ev.id, ev.time, ev.channel);
        let c = self.chan(ch);
        match ev.kind {
            TraceKind::Enqueued => c.enqueued += 1,
            TraceKind::Dropped => c.dropped += 1,
            TraceKind::TxStart => {
                c.tx += 1;
                c.wire.push_back((id, false));
            }
            TraceKind::Delivered => {
                c.delivered += 1;
                // Corrupted-then-malformed packets silently leave the wire;
                // skip them, but nothing else may be overtaken.
                while c.wire.front().is_some_and(|&(fid, vanish)| vanish && fid != id) {
                    c.wire.pop_front();
                    c.vanished += 1;
                }
                match c.wire.front() {
                    Some(&(fid, _)) if fid == id => {
                        c.wire.pop_front();
                    }
                    other => {
                        let detail = format!(
                            "channel {}: delivered {id:?} but wire front is {other:?}",
                            ch.0
                        );
                        self.violation(time, "fifo-delivery", detail);
                    }
                }
            }
            TraceKind::Lost => {
                c.lost += 1;
                // In-flight losses (wire loss, link failure) remove the
                // packet from the order; a Lost for a packet that never
                // transmitted is an at-offer loss on a downed link.
                match c.wire.iter().position(|&(fid, _)| fid == id) {
                    Some(pos) => {
                        c.wire.remove(pos);
                    }
                    None => c.at_offer_lost += 1,
                }
            }
            TraceKind::Corrupted => {
                c.corrupted += 1;
                match c.wire.iter_mut().find(|(fid, _)| *fid == id) {
                    Some(entry) => entry.1 = true,
                    None => {
                        let detail = format!(
                            "channel {}: corruption traced for {id:?} which is not on the wire",
                            ch.0
                        );
                        self.violation(time, "conservation", detail);
                    }
                }
            }
        }
    }

    /// Total events audited.
    pub(crate) fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// End-of-run reconciliation against the paused simulator: trace
    /// counts vs `ChannelStats`, and the wire model vs what the engine
    /// still holds (serializing + propagating + malformed).
    pub(crate) fn reconcile(&mut self, sim: &Simulator) {
        let now = sim.now();
        if self.channels.len() > sim.channel_count() {
            let (got, have) = (self.channels.len(), sim.channel_count());
            self.violation(
                now,
                "conservation",
                format!("traced {got} channels but simulator has {have}"),
            );
            return;
        }
        let pending = sim.pending_arrivals_by_channel();
        #[allow(clippy::needless_range_loop)] // `self.channels[i]` is re-borrowed after `violation`
        for i in 0..self.channels.len() {
            let ch = sim.channel(ChannelId(i));
            let s = &ch.stats;
            let c = &self.channels[i];
            for (what, traced, counted) in [
                ("enqueued", c.enqueued, s.enqueued_pkts),
                ("dropped", c.dropped, s.dropped_pkts),
                ("tx", c.tx, s.tx_pkts),
                ("lost", c.lost, s.lost_pkts),
                ("corrupted", c.corrupted, s.corrupted_pkts),
            ] {
                if traced != counted {
                    let detail = format!(
                        "channel {i}: traced {traced} {what} events but stats ledger says {counted}"
                    );
                    self.violation(now, "conservation", detail);
                }
            }
            // Every packet still in the wire model must be in the engine's
            // hands: serializing, propagating, or consumed as malformed.
            let expected = ch.in_flight_pkts() as u64
                + pending[i]
                + s.malformed_pkts.saturating_sub(self.channels[i].vanished);
            let residue = self.channels[i].wire.len() as u64;
            if residue != expected {
                let c = &self.channels[i];
                let detail = format!(
                    "channel {i}: {residue} packets unaccounted on the wire model, engine \
                     holds {} in flight + {} propagating + {} malformed ({} already vanished)",
                    ch.in_flight_pkts(),
                    pending[i],
                    s.malformed_pkts,
                    c.vanished,
                );
                self.violation(now, "conservation", detail);
            }
        }
    }

    /// The violations, consuming the auditor.
    pub(crate) fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}

thread_local! {
    static AUDITOR: RefCell<Option<TraceAuditor>> = const { RefCell::new(None) };
}

/// Installs (or resets) this thread's trace auditor.
pub(crate) fn install_thread_auditor() {
    AUDITOR.with(|a| *a.borrow_mut() = Some(TraceAuditor::default()));
}

/// Feeds one event to this thread's auditor, if installed.
#[inline]
pub(crate) fn thread_audit_record(ev: &TraceEvent) {
    AUDITOR.with(|a| {
        if let Some(audit) = a.borrow_mut().as_mut() {
            audit.record(ev);
        }
    });
}

/// Removes and returns this thread's auditor.
pub(crate) fn take_thread_auditor() -> Option<TraceAuditor> {
    AUDITOR.with(|a| a.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::Addr;

    fn ev(kind: TraceKind, t: u64, ch: usize, id: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            kind,
            channel: ChannelId(ch),
            id: PacketId(id),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(2, 0, 0, 2),
            wire_len: 100,
        }
    }

    #[test]
    fn clean_sequence_has_no_violations() {
        let mut a = TraceAuditor::default();
        for (k, t, id) in [
            (TraceKind::Enqueued, 0, 1),
            (TraceKind::TxStart, 0, 1),
            (TraceKind::Enqueued, 1, 2),
            (TraceKind::TxStart, 5, 2),
            (TraceKind::Delivered, 10, 1),
            (TraceKind::Delivered, 15, 2),
        ] {
            a.record(&ev(k, t, 0, id));
        }
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.channels[0].wire.is_empty());
    }

    #[test]
    fn out_of_order_delivery_is_flagged() {
        let mut a = TraceAuditor::default();
        a.record(&ev(TraceKind::TxStart, 0, 0, 1));
        a.record(&ev(TraceKind::TxStart, 1, 0, 2));
        a.record(&ev(TraceKind::Delivered, 2, 0, 2));
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].invariant, "fifo-delivery");
    }

    #[test]
    fn time_regression_is_flagged() {
        let mut a = TraceAuditor::default();
        a.record(&ev(TraceKind::Enqueued, 10, 0, 1));
        a.record(&ev(TraceKind::Enqueued, 5, 0, 2));
        assert_eq!(a.violations[0].invariant, "time-monotonicity");
    }

    #[test]
    fn corrupted_packet_may_vanish_without_violation() {
        let mut a = TraceAuditor::default();
        a.record(&ev(TraceKind::TxStart, 0, 0, 1));
        a.record(&ev(TraceKind::Corrupted, 1, 0, 1));
        a.record(&ev(TraceKind::TxStart, 2, 0, 2));
        a.record(&ev(TraceKind::Delivered, 3, 0, 2));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.channels[0].vanished, 1);
    }

    #[test]
    fn lost_after_tx_leaves_order_silently() {
        let mut a = TraceAuditor::default();
        a.record(&ev(TraceKind::TxStart, 0, 0, 1));
        a.record(&ev(TraceKind::TxStart, 1, 0, 2));
        a.record(&ev(TraceKind::Lost, 2, 0, 1));
        a.record(&ev(TraceKind::Delivered, 3, 0, 2));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.channels[0].at_offer_lost, 0);
    }

    #[test]
    fn at_offer_loss_is_distinguished() {
        let mut a = TraceAuditor::default();
        a.record(&ev(TraceKind::Lost, 0, 0, 9));
        assert!(a.violations.is_empty());
        assert_eq!(a.channels[0].at_offer_lost, 1);
    }
}
