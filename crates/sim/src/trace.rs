//! Packet tracing: an optional per-event callback for debugging and
//! analysis, in the spirit of ns-2 trace files.
//!
//! Tracing sees every queue decision and delivery in the whole simulation.
//! It is off by default and costs one branch per event when off.

use crate::event::ChannelId;
use crate::time::SimTime;
use tva_wire::{Addr, PacketId};

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Accepted into an egress queue.
    Enqueued,
    /// Refused by an egress queue (drop).
    Dropped,
    /// Started serializing onto the wire.
    TxStart,
    /// Arrived at the receiving node.
    Delivered,
    /// Lost on the wire (random loss, outage window, or failed link).
    Lost,
    /// Corrupted on the wire (bits flipped; may or may not still parse).
    Corrupted,
}

/// One trace record. Carries a summary, not the packet, so tracing never
/// perturbs ownership or timing.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// When.
    pub time: SimTime,
    /// What.
    pub kind: TraceKind,
    /// Where (the channel involved).
    pub channel: ChannelId,
    /// Packet identity.
    pub id: PacketId,
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// On-wire size.
    pub wire_len: u32,
}

/// The tracer callback type.
pub type Tracer = Box<dyn FnMut(&TraceEvent) + Send>;

/// A convenience tracer that counts events by kind (useful in tests).
#[derive(Debug, Default, Clone)]
pub struct TraceCounts {
    /// Enqueued packets.
    pub enqueued: u64,
    /// Dropped packets.
    pub dropped: u64,
    /// Transmissions started.
    pub tx_start: u64,
    /// Deliveries.
    pub delivered: u64,
    /// Wire losses.
    pub(crate) lost: u64,
    /// Wire corruptions.
    pub(crate) corrupted: u64,
}

impl TraceCounts {
    /// Folds one event into the counts.
    pub fn record(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::Enqueued => self.enqueued += 1,
            TraceKind::Dropped => self.dropped += 1,
            TraceKind::TxStart => self.tx_start += 1,
            TraceKind::Delivered => self.delivered += 1,
            TraceKind::Lost => self.lost += 1,
            TraceKind::Corrupted => self.corrupted += 1,
        }
    }
}

/// Formats an event as a classic single-line trace record
/// (`+ 1.000042 ch3 10.0.0.1>10.0.0.2 1040B`).
pub fn format_event(ev: &TraceEvent) -> String {
    let sigil = match ev.kind {
        TraceKind::Enqueued => '+',
        TraceKind::Dropped => 'd',
        TraceKind::TxStart => '-',
        TraceKind::Delivered => 'r',
        TraceKind::Lost => 'x',
        TraceKind::Corrupted => 'c',
    };
    format!(
        "{sigil} {:.6} ch{} {}>{} {}B #{}",
        ev.time.as_secs_f64(),
        ev.channel.0,
        ev.src,
        ev.dst,
        ev.wire_len,
        ev.id.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_is_stable() {
        let ev = TraceEvent {
            time: SimTime::from_secs(1),
            kind: TraceKind::Dropped,
            channel: ChannelId(3),
            id: PacketId(42),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            wire_len: 1040,
        };
        assert_eq!(format_event(&ev), "d 1.000000 ch3 10.0.0.1>10.0.0.2 1040B #42");
    }

    #[test]
    fn counts_fold() {
        let mut c = TraceCounts::default();
        for kind in [
            TraceKind::Enqueued,
            TraceKind::Enqueued,
            TraceKind::Dropped,
            TraceKind::TxStart,
            TraceKind::Delivered,
        ] {
            c.record(&TraceEvent {
                time: SimTime::ZERO,
                kind,
                channel: ChannelId(0),
                id: PacketId(0),
                src: Addr(0),
                dst: Addr(0),
                wire_len: 0,
            });
        }
        assert_eq!((c.enqueued, c.dropped, c.tx_start, c.delivered), (2, 1, 1, 1));
    }
}
