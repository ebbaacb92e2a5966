//! Fair-queuing strawmen from the paper's §2 analysis.
//!
//! > "even if we assume ingress filtering … k hosts attacking a destination
//! > limit a good connection to 1/k of the bandwidth … The problem is worse
//! > if fair queuing is performed across source and destination address
//! > pairs. Then, an attacker in control of k well-positioned hosts can
//! > create a large number of flows to limit the useful traffic to only
//! > 1/k² of the congested link."
//!
//! These schedulers exist to demonstrate that argument empirically (the
//! `repro strawmen` artifact, `tva_experiments::strawmen`); they are not
//! part of TVA.

use tva_sim::{Drr, Enqueued, Pkt, QueueDisc, SimTime};
use tva_wire::{Addr, Packet};

/// What identifies a "flow" for the fair queuing strawman.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FqKey {
    /// One queue per source address (spoofable!).
    BySource,
    /// One queue per (source, destination) pair — the 1/k² scheme.
    BySourceDest,
}

/// A plain DRR fair queue over the configured key.
pub struct FqScheduler {
    key: FqKey,
    drr: Drr<(Addr, Addr)>,
}

impl FqScheduler {
    /// Creates a fair-queuing scheduler.
    ///
    /// `max_queues` bounds memory; beyond it new flows drop (the unbounded
    /// state requirement is itself one of the paper's critiques of this
    /// approach).
    pub fn new(key: FqKey, quantum: u32, per_queue_cap: u64, max_queues: usize) -> Self {
        FqScheduler { key, drr: Drr::new(quantum, per_queue_cap, max_queues) }
    }

    fn key_of(&self, pkt: &Packet) -> (Addr, Addr) {
        match self.key {
            FqKey::BySource => (pkt.src, Addr::UNSPECIFIED),
            FqKey::BySourceDest => (pkt.src, pkt.dst),
        }
    }
}

impl QueueDisc for FqScheduler {
    fn enqueue(&mut self, pkt: Pkt, _now: SimTime) -> Enqueued {
        let key = self.key_of(&pkt);
        if self.drr.enqueue(key, pkt) {
            Enqueued::Accepted
        } else {
            Enqueued::Dropped
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Pkt> {
        self.drr.dequeue()
    }

    fn len_pkts(&self) -> usize {
        self.drr.len_pkts()
    }

    fn len_bytes(&self) -> u64 {
        self.drr.len_bytes()
    }

    fn audit(&self) -> Result<(), String> {
        self.drr.audit().map_err(|e| format!("fq: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::PacketId;

    fn pkt(src: u32, dst: u32, bytes: u32) -> Packet {
        Packet {
            id: PacketId(0),
            src: Addr(src),
            dst: Addr(dst),
            cap: None,
            tcp: None,
            payload_len: bytes,
        }
    }

    #[test]
    fn by_source_gives_one_share_per_source() {
        let mut q = FqScheduler::new(FqKey::BySource, 1500, 1 << 20, 64);
        let now = SimTime::ZERO;
        // Source 1 floods; source 2 sends 5.
        for _ in 0..50 {
            q.enqueue((pkt(1, 9, 1000)).into(), now);
        }
        for _ in 0..5 {
            q.enqueue((pkt(2, 9, 1000)).into(), now);
        }
        let mut from2 = 0;
        for _ in 0..10 {
            if q.dequeue(now).unwrap().src == Addr(2) {
                from2 += 1;
            }
        }
        assert!(from2 >= 4, "source 2 got {from2}/10");
    }

    #[test]
    fn by_pair_lets_one_source_claim_many_shares() {
        // The 1/k² attack: one source spraying many destinations gets many
        // queues; a single legitimate pair gets one.
        let mut q = FqScheduler::new(FqKey::BySourceDest, 1500, 1 << 20, 64);
        let now = SimTime::ZERO;
        for d in 0..10u32 {
            for _ in 0..10 {
                q.enqueue((pkt(1, 100 + d, 1000)).into(), now);
            }
        }
        for _ in 0..10 {
            q.enqueue((pkt(2, 200, 1000)).into(), now);
        }
        // Over one DRR round of 11 backlogged queues, the legitimate pair
        // gets ~1/11 of service.
        let mut legit = 0;
        for _ in 0..22 {
            if q.dequeue(now).unwrap().src == Addr(2) {
                legit += 1;
            }
        }
        assert_eq!(legit, 2, "1 of 11 queues → 2 of 22 dequeues");
    }
}
