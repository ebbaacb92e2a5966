//! SIFF's two-class egress scheduler: verified data packets get strict
//! priority; explorers and legacy traffic share a single low-priority FIFO.
//! There is **no** rate limit on either class and **no** per-destination
//! balancing — the two omissions the TVA paper's Figures 9 and 10 exploit.

use std::collections::VecDeque;

use tva_sim::{Enqueued, Pkt, QueueDisc, SimTime, ROUTER_QUEUE_PKTS};
use tva_wire::{CapPayload, Packet};

/// The SIFF egress queue: two FIFOs of [`ROUTER_QUEUE_PKTS`] packets each
/// (ns-2 style packet counts: no small-packet bias under large-packet
/// floods).
#[derive(Default)]
pub struct SiffScheduler {
    high: VecDeque<Pkt>,
    high_bytes: u64,
    low: VecDeque<Pkt>,
    low_bytes: u64,
    /// Packets dropped per class (high, low).
    pub(crate) drops: [u64; 2],
}

impl SiffScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_verified_data(pkt: &Packet) -> bool {
        // The SIFF router drops bad marks, so any surviving Regular packet
        // is verified. Requests (explorers) and legacy ride the low queue.
        matches!(
            pkt.cap.as_ref().map(|c| &c.payload),
            Some(CapPayload::Regular { .. })
        )
    }
}

impl QueueDisc for SiffScheduler {
    fn enqueue(&mut self, pkt: Pkt, _now: SimTime) -> Enqueued {
        let len = pkt.wire_len() as u64;
        if Self::is_verified_data(&pkt) {
            if self.high.len() >= ROUTER_QUEUE_PKTS {
                self.drops[0] += 1;
                return Enqueued::Dropped;
            }
            self.high_bytes += len;
            self.high.push_back(pkt);
        } else {
            if self.low.len() >= ROUTER_QUEUE_PKTS {
                self.drops[1] += 1;
                return Enqueued::Dropped;
            }
            self.low_bytes += len;
            self.low.push_back(pkt);
        }
        Enqueued::Accepted
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Pkt> {
        if let Some(p) = self.high.pop_front() {
            self.high_bytes -= p.wire_len() as u64;
            return Some(p);
        }
        if let Some(p) = self.low.pop_front() {
            self.low_bytes -= p.wire_len() as u64;
            return Some(p);
        }
        None
    }

    fn len_pkts(&self) -> usize {
        self.high.len() + self.low.len()
    }

    fn len_bytes(&self) -> u64 {
        self.high_bytes + self.low_bytes
    }

    fn audit(&self) -> Result<(), String> {
        for (name, q, bytes) in [
            ("high", &self.high, self.high_bytes),
            ("low", &self.low, self.low_bytes),
        ] {
            let held: u64 = q.iter().map(|p| p.wire_len() as u64).sum();
            if held != bytes {
                return Err(format!("siff-sched {name}: byte ledger {bytes} != held {held}"));
            }
            if q.len() > ROUTER_QUEUE_PKTS {
                return Err(format!(
                    "siff-sched {name}: {} pkts over cap {ROUTER_QUEUE_PKTS}",
                    q.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::{Addr, CapHeader, FlowNonce, Grant, PacketId};

    fn pkt(cap: Option<CapHeader>) -> Packet {
        Packet {
            id: PacketId(0),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(2, 0, 0, 2),
            cap,
            tcp: None,
            payload_len: 100,
        }
    }

    #[test]
    fn data_preempts_explorers_and_legacy() {
        let mut s = SiffScheduler::new();
        let now = SimTime::ZERO;
        s.enqueue((pkt(None)).into(), now); // legacy
        s.enqueue((pkt(Some(CapHeader::request()))).into(), now); // explorer
        s.enqueue(
            pkt(Some(CapHeader::regular_with_caps(
                FlowNonce::new(0),
                Grant::from_parts(1, 1),
                vec![],
            )))
            .into(),
            now,
        );
        let first = s.dequeue(now).unwrap();
        assert!(matches!(
            first.cap.as_ref().map(|c| &c.payload),
            Some(CapPayload::Regular { .. })
        ));
        // Low queue drains FIFO: legacy then explorer.
        assert!(s.dequeue(now).unwrap().cap.is_none());
        assert!(s.dequeue(now).unwrap().cap.is_some());
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn explorers_share_fate_with_legacy_floods() {
        // Fill the low queue with legacy; an explorer then drops — the
        // weakness Figure 8/9 shows for SIFF.
        let mut s = SiffScheduler::new();
        let now = SimTime::ZERO;
        for _ in 0..ROUTER_QUEUE_PKTS {
            assert!(s.enqueue((pkt(None)).into(), now).is_accepted());
        }
        assert_eq!(s.enqueue((pkt(Some(CapHeader::request()))).into(), now), Enqueued::Dropped);
        assert_eq!(s.drops[1], 1);
    }
}
