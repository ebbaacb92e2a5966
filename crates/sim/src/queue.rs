//! Queue disciplines: the interface every egress scheduler implements, plus
//! the basic drop-tail FIFO.
//!
//! The TVA router of Figure 2 is, from the link's point of view, just
//! another [`QueueDisc`]: packets are offered on enqueue and the link asks
//! for the next packet to serialize on dequeue. Rate-limited schedulers may
//! hold packets back even while the link is idle; [`QueueDisc::next_ready`]
//! lets them tell the link when to poll again.

use std::any::Any;

use crate::pool::Pkt;
use crate::time::SimTime;

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// The packet was accepted and will eventually be dequeued (unless the
    /// discipline later drops it internally, which none of ours do).
    Accepted,
    /// The packet was dropped (queue full or policy drop).
    Dropped,
}

impl Enqueued {
    /// True if accepted.
    pub fn is_accepted(self) -> bool {
        matches!(self, Enqueued::Accepted)
    }
}

/// An egress queue discipline. `Any` lets auditors that inspect specific
/// scheduler types (e.g. cross-checking a TVA scheduler's per-class
/// counters against its router's validation counters) downcast a
/// `&dyn QueueDisc` with `downcast_ref`.
pub trait QueueDisc: Any + Send {
    /// Offers a packet at time `now`.
    fn enqueue(&mut self, pkt: Pkt, now: SimTime) -> Enqueued;

    /// Takes the next packet to transmit at time `now`, or `None` if nothing
    /// is currently eligible.
    fn dequeue(&mut self, now: SimTime) -> Option<Pkt>;

    /// If `dequeue` returned `None` while packets are held back (e.g. by a
    /// rate limiter), the earliest future instant at which a dequeue could
    /// succeed. `None` means "nothing pending — no wake-up needed".
    fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        let _ = now;
        None
    }

    /// Packets currently held.
    fn len_pkts(&self) -> usize;

    /// Bytes currently held.
    fn len_bytes(&self) -> u64;

    /// Verifies the discipline's internal accounting — byte/packet ledgers
    /// against the packets actually held, plus any key-table bookkeeping.
    /// Cold path: called only by the `TVA_CHECK` runtime auditors, never on
    /// the forwarding path. The default is fine for disciplines without
    /// derived ledgers.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Packet capacity of every router FIFO: the Internet and pushback egress
/// queues, SIFF's two classes and the TVA scheduler's legacy class. ns-2's
/// default DropTail (the paper's §5 simulator) limits packets, not bytes,
/// and holds 50 (DESIGN §3a, item 1).
pub const ROUTER_QUEUE_PKTS: usize = 50;

/// A bounded drop-tail FIFO — the legacy Internet's queue and the building
/// block inside fancier disciplines. Limits may be imposed in bytes, in
/// packets (ns-2's default `Queue/DropTail` counts packets, which matters:
/// a byte-limited queue under a large-packet flood silently privileges
/// small packets like TCP SYNs), or both.
pub struct DropTail {
    queue: std::collections::VecDeque<Pkt>,
    bytes: u64,
    capacity_bytes: u64,
    capacity_pkts: usize,
}

impl DropTail {
    /// Creates a FIFO holding at most `capacity_bytes` of packets (no
    /// packet-count limit).
    pub fn new(capacity_bytes: u64) -> Self {
        DropTail {
            queue: std::collections::VecDeque::new(),
            bytes: 0,
            capacity_bytes,
            capacity_pkts: usize::MAX,
        }
    }

    /// Creates a FIFO holding at most `n` packets (ns-2 style; no byte
    /// limit).
    pub fn packets(n: usize) -> Self {
        DropTail {
            queue: std::collections::VecDeque::new(),
            bytes: 0,
            capacity_bytes: u64::MAX,
            capacity_pkts: n,
        }
    }
}

impl QueueDisc for DropTail {
    fn enqueue(&mut self, pkt: Pkt, _now: SimTime) -> Enqueued {
        let len = pkt.wire_len() as u64;
        if self.bytes + len > self.capacity_bytes || self.queue.len() >= self.capacity_pkts {
            return Enqueued::Dropped;
        }
        self.bytes += len;
        self.queue.push_back(pkt);
        Enqueued::Accepted
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Pkt> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.wire_len() as u64;
        Some(pkt)
    }

    fn len_pkts(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn audit(&self) -> Result<(), String> {
        let held: u64 = self.queue.iter().map(|p| p.wire_len() as u64).sum();
        if held != self.bytes {
            return Err(format!("droptail: byte ledger {} != held bytes {held}", self.bytes));
        }
        if self.bytes > self.capacity_bytes || self.queue.len() > self.capacity_pkts {
            return Err(format!(
                "droptail: holding {} bytes / {} pkts over caps {} / {}",
                self.bytes,
                self.queue.len(),
                self.capacity_bytes,
                self.capacity_pkts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::{Addr, Packet, PacketId};

    fn pkt(bytes: u32) -> Pkt {
        Pkt::new(Packet {
            id: PacketId(0),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(2, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: bytes.saturating_sub(20), // minus IP header
        })
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTail::new(100_000);
        for i in 0..5u32 {
            let mut p = pkt(100);
            p.id = PacketId(i as u64);
            assert!(q.enqueue(p, SimTime::ZERO).is_accepted());
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|p| p.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drops_when_full() {
        let mut q = DropTail::new(250);
        assert!(q.enqueue(pkt(100), SimTime::ZERO).is_accepted());
        assert!(q.enqueue(pkt(100), SimTime::ZERO).is_accepted());
        // Third packet would exceed 250 bytes.
        assert_eq!(q.enqueue(pkt(100), SimTime::ZERO), Enqueued::Dropped);
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 200);
    }

    #[test]
    fn packet_limit_drops_regardless_of_size() {
        let mut q = DropTail::packets(2);
        assert!(q.enqueue(pkt(1000), SimTime::ZERO).is_accepted());
        assert!(q.enqueue(pkt(1000), SimTime::ZERO).is_accepted());
        // A tiny packet is dropped just the same: no small-packet bias.
        assert_eq!(q.enqueue(pkt(40), SimTime::ZERO), Enqueued::Dropped);
    }

    #[test]
    fn byte_accounting() {
        let mut q = DropTail::new(10_000);
        q.enqueue(pkt(100), SimTime::ZERO);
        q.enqueue(pkt(200), SimTime::ZERO);
        assert_eq!(q.len_bytes(), 300);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.len_bytes(), 200);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.len_bytes(), 0);
        assert!(q.dequeue(SimTime::ZERO).is_none());
    }
}
