//! Deficit round-robin fair queuing over a dynamic set of queues.
//!
//! TVA fair-queues capability requests by path identifier and regular
//! packets by destination address (Figure 2, §3.2, §3.9). Both queue sets
//! are dynamic — keys appear when traffic arrives and disappear when queues
//! drain — and bounded, so an attacker cannot exhaust router memory by
//! manufacturing keys. DRR gives each backlogged key an equal byte share
//! (within one quantum) at O(1) work per packet.

use std::collections::VecDeque;
use std::hash::Hash;

use crate::pool::Pkt;
use tva_wire::DetHashMap;

/// A DRR scheduler over queues keyed by `K`.
///
/// The key table uses the seeded deterministic hasher: service order is
/// decided by the `active` ring (never by map iteration), and the fixed
/// seed keeps the hot-path hashing cheap and process-independent.
pub struct Drr<K: Hash + Eq + Clone> {
    queues: DetHashMap<K, SubQueue>,
    /// Round-robin order of backlogged keys.
    active: VecDeque<K>,
    /// Ring buffers salvaged from drained queues, ready for reuse. Keys
    /// still leave the table when their queue empties (the memory bound and
    /// the DRR semantics are unchanged); only the heap storage is kept, so
    /// the enqueue→drain→enqueue cycle of an uncongested link stops
    /// allocating once warm.
    spare: Vec<VecDeque<Pkt>>,
    quantum: u32,
    per_queue_cap: u64,
    max_queues: usize,
    total_bytes: u64,
    total_pkts: usize,
}

/// Drained ring buffers kept for reuse per scheduler (beyond this they are
/// freed). Small: spares only cycle through the uncongested single-flow
/// case, where one buffer per concurrently-draining key suffices.
const SPARE_QUEUES_MAX: usize = 32;

struct SubQueue {
    pkts: VecDeque<Pkt>,
    bytes: u64,
    deficit: u32,
    /// Whether the key is in `active` (it is iff the queue is non-empty).
    backlogged: bool,
}

impl<K: Hash + Eq + Clone> Drr<K> {
    /// Creates a DRR scheduler.
    ///
    /// * `quantum` — bytes added to a queue's deficit per round; use the MTU
    ///   so any head packet can eventually be sent.
    /// * `per_queue_cap` — byte cap per key (drop-tail within a key).
    /// * `max_queues` — bound on distinct keys; packets for new keys beyond
    ///   the bound are dropped, which bounds memory no matter how many keys
    ///   an attacker manufactures.
    pub fn new(quantum: u32, per_queue_cap: u64, max_queues: usize) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        Drr {
            queues: DetHashMap::default(),
            active: VecDeque::new(),
            spare: Vec::new(),
            quantum,
            per_queue_cap,
            max_queues,
            total_bytes: 0,
            total_pkts: 0,
        }
    }

    /// Offers a packet under `key`. Returns false (a drop, which the caller
    /// counts) if the key's queue is full or the key table is exhausted.
    ///
    /// All admission checks run *before* any state for a new key is created:
    /// a rejected first packet must leave no trace, or an attacker sending
    /// one oversized packet per manufactured key could pin stub entries in
    /// the key table until `max_queues` is exhausted.
    pub fn enqueue(&mut self, key: K, pkt: Pkt) -> bool {
        let len = pkt.wire_len() as u64;
        match self.queues.get_mut(&key) {
            Some(q) => {
                if q.bytes + len > self.per_queue_cap {
                    return false;
                }
                q.bytes += len;
                q.pkts.push_back(pkt);
                if !q.backlogged {
                    q.backlogged = true;
                    q.deficit = 0;
                    self.active.push_back(key);
                }
            }
            None => {
                if self.queues.len() >= self.max_queues || len > self.per_queue_cap {
                    return false;
                }
                let mut pkts = self.spare.pop().unwrap_or_default();
                pkts.push_back(pkt);
                self.queues.insert(
                    key.clone(),
                    SubQueue { pkts, bytes: len, deficit: 0, backlogged: true },
                );
                self.active.push_back(key);
            }
        }
        self.total_bytes += len;
        self.total_pkts += 1;
        true
    }

    /// Takes the next packet in DRR order.
    pub fn dequeue(&mut self) -> Option<Pkt> {
        // Each outer iteration visits one backlogged queue; a queue whose
        // deficit cannot cover its head packet gets a quantum and goes to the
        // back of the round. Terminates because every visit either emits a
        // packet or strictly increases one queue's deficit toward its head
        // packet size (bounded by per_queue_cap).
        loop {
            let key = self.active.pop_front()?;
            let q = self.queues.get_mut(&key).expect("active key has queue");
            let head_len = q.pkts.front().expect("backlogged queue non-empty").wire_len();
            if q.deficit >= head_len {
                let pkt = q.pkts.pop_front().expect("checked non-empty");
                q.deficit -= head_len;
                q.bytes -= head_len as u64;
                self.total_bytes -= head_len as u64;
                self.total_pkts -= 1;
                if q.pkts.is_empty() {
                    // Idle queues keep no deficit (standard DRR) and leave
                    // the round; drop the key entirely to bound memory,
                    // salvaging the ring buffer for the next key.
                    if let Some(sq) = self.queues.remove(&key) {
                        if self.spare.len() < SPARE_QUEUES_MAX && sq.pkts.capacity() > 0 {
                            self.spare.push(sq.pkts);
                        }
                    }
                } else {
                    self.active.push_front(key);
                }
                return Some(pkt);
            }
            q.deficit += self.quantum;
            self.active.push_back(key);
        }
    }

    /// Packets held across all queues.
    pub fn len_pkts(&self) -> usize {
        self.total_pkts
    }

    /// Bytes held across all queues.
    pub fn len_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Distinct backlogged keys.
    pub fn active_queues(&self) -> usize {
        self.queues.len()
    }

    /// Whether `key` currently owns a sub-queue.
    pub fn contains_key(&self, key: &K) -> bool {
        self.queues.contains_key(key)
    }

    /// Whether the key table can admit one more distinct key. Callers that
    /// want to reroute (rather than drop) traffic for keys beyond the bound
    /// — e.g. demoting requests when an attacker sweeps manufactured path
    /// identifiers — probe this before `enqueue`.
    pub fn can_admit_new_key(&self) -> bool {
        self.queues.len() < self.max_queues
    }

    /// Verifies the scheduler's internal accounting (cold path; used by the
    /// `tva-check` runtime auditors). Checks that:
    ///
    /// * `total_bytes` / `total_pkts` equal the sums over held packets;
    /// * every sub-queue is non-empty and marked backlogged — an empty
    ///   entry is a stub pinning a key slot (the class of state-exhaustion
    ///   bug this auditor exists to catch);
    /// * per-queue byte ledgers match their packets and respect the cap;
    /// * the `active` ring and the key table are in exact bijection.
    pub fn audit(&self) -> Result<(), String> {
        let mut bytes = 0u64;
        let mut pkts = 0usize;
        for q in self.queues.values() {
            if q.pkts.is_empty() {
                return Err("drr: empty sub-queue stub pinned in key table".into());
            }
            if !q.backlogged {
                return Err("drr: non-empty sub-queue not marked backlogged".into());
            }
            let qb: u64 = q.pkts.iter().map(|p| p.wire_len() as u64).sum();
            if qb != q.bytes {
                return Err(format!("drr: sub-queue ledger {} != held bytes {qb}", q.bytes));
            }
            if q.bytes > self.per_queue_cap {
                return Err(format!(
                    "drr: sub-queue holds {} bytes over cap {}",
                    q.bytes, self.per_queue_cap
                ));
            }
            bytes += qb;
            pkts += q.pkts.len();
        }
        if bytes != self.total_bytes {
            return Err(format!("drr: total_bytes {} != held bytes {bytes}", self.total_bytes));
        }
        if pkts != self.total_pkts {
            return Err(format!("drr: total_pkts {} != held packets {pkts}", self.total_pkts));
        }
        if self.queues.len() > self.max_queues {
            return Err(format!(
                "drr: {} keys exceed max_queues {}",
                self.queues.len(),
                self.max_queues
            ));
        }
        if self.active.len() != self.queues.len() {
            return Err(format!(
                "drr: active ring has {} keys, table has {}",
                self.active.len(),
                self.queues.len()
            ));
        }
        let mut seen: DetHashMap<K, ()> = DetHashMap::default();
        for key in &self.active {
            if !self.queues.contains_key(key) {
                return Err("drr: active ring references a key missing from the table".into());
            }
            if seen.insert(key.clone(), ()).is_some() {
                return Err("drr: key appears twice in the active ring".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::{Addr, Packet, PacketId};

    fn pkt(id: u64, bytes: u32) -> Pkt {
        Pkt::new(Packet {
            id: PacketId(id),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(2, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: bytes.saturating_sub(20),
        })
    }

    #[test]
    fn equal_shares_for_equal_packets() {
        let mut d: Drr<u32> = Drr::new(1500, 1 << 20, 64);
        // Key 0 floods 100 packets; keys 1..=4 have 10 each.
        for i in 0..100 {
            d.enqueue(0, pkt(i, 1000));
        }
        for k in 1..=4u32 {
            for i in 0..10 {
                d.enqueue(k, pkt(1000 + k as u64 * 100 + i, 1000));
            }
        }
        // Dequeue 50 packets: each of the 5 backlogged keys should get 10.
        let mut counts = [0u32; 5];
        for _ in 0..50 {
            let p = d.dequeue().unwrap();
            let key = if p.id.0 < 100 { 0 } else { (p.id.0 - 1000) / 100 };
            counts[key as usize] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10, 10]);
    }

    #[test]
    fn byte_fairness_with_unequal_sizes() {
        // Key 0 sends 1500-byte packets, key 1 sends 500-byte packets; over
        // a long run each key should get ~equal bytes, i.e. key 1 sends ~3x
        // as many packets.
        let mut d: Drr<u32> = Drr::new(1500, 10 << 20, 8);
        for i in 0..300 {
            d.enqueue(0, pkt(i, 1500));
        }
        for i in 0..900 {
            d.enqueue(1, pkt(10_000 + i, 500));
        }
        let mut bytes = [0u64; 2];
        let mut sent = 0;
        while sent < 600_000 {
            let p = d.dequeue().unwrap();
            let k = if p.id.0 < 300 { 0 } else { 1 };
            bytes[k] += p.wire_len() as u64;
            sent += p.wire_len() as u64;
        }
        let diff = bytes[0].abs_diff(bytes[1]);
        assert!(diff <= 3000, "byte shares {bytes:?} differ by {diff}");
    }

    #[test]
    fn key_table_bound_drops_new_keys() {
        let mut d: Drr<u32> = Drr::new(1500, 1 << 20, 2);
        let mut drops = 0;
        let mut offer = |key: u32, id: u64| {
            let accepted = d.enqueue(key, pkt(id, 100));
            drops += usize::from(!accepted);
            accepted
        };
        assert!(offer(1, 1));
        assert!(offer(2, 2));
        assert!(!offer(3, 3), "third key must be rejected");
        assert!(offer(1, 4), "existing keys still accept");
        assert_eq!(drops, 1);
    }

    #[test]
    fn per_queue_cap_drops() {
        let mut d: Drr<u32> = Drr::new(1500, 250, 8);
        assert!(d.enqueue(1, pkt(1, 100)));
        assert!(d.enqueue(1, pkt(2, 100)));
        assert!(!d.enqueue(1, pkt(3, 100)));
        assert_eq!(d.len_pkts(), 2);
    }

    #[test]
    fn drained_keys_are_forgotten() {
        let mut d: Drr<u32> = Drr::new(1500, 1 << 20, 2);
        d.enqueue(1, pkt(1, 100));
        d.enqueue(2, pkt(2, 100));
        while d.dequeue().is_some() {}
        assert_eq!(d.active_queues(), 0);
        // Capacity is freed for new keys.
        assert!(d.enqueue(3, pkt(3, 100)));
    }

    #[test]
    fn rejected_first_packet_leaves_no_stub_key() {
        // Regression: an oversized *first* packet for a fresh key used to
        // insert an empty SubQueue before the per-queue-cap check; the stub
        // was never removed (dequeue only removes backlogged keys) and
        // permanently consumed a key slot — attacker-reachable state
        // exhaustion defeating the bounded-memory claim.
        let mut d: Drr<u32> = Drr::new(1500, 250, 2);
        let drops = usize::from(!d.enqueue(1, pkt(1, 500)));
        assert_eq!(drops, 1, "oversized first packet must be dropped");
        assert_eq!(d.active_queues(), 0, "dropped first packet must not pin a key slot");
        d.audit().expect("accounting clean after rejected first packet");
        // Both key slots remain usable by well-behaved keys.
        assert!(d.enqueue(2, pkt(2, 100)));
        assert!(d.enqueue(3, pkt(3, 100)));
        assert_eq!(d.active_queues(), 2);
        d.audit().expect("accounting clean after refill");
    }

    #[test]
    fn attacker_cannot_exhaust_key_table_with_oversized_firsts() {
        // Pre-fix, `max_queues` oversized first packets from distinct keys
        // permanently filled the table with stubs, locking legitimate keys
        // out forever. Post-fix the table stays empty.
        let mut d: Drr<u32> = Drr::new(1500, 250, 4);
        let drops = (0..100u32).filter(|&k| !d.enqueue(k, pkt(k as u64, 500))).count();
        assert_eq!(d.active_queues(), 0);
        assert_eq!(drops, 100);
        for k in 0..4u32 {
            assert!(d.enqueue(1000 + k, pkt(1000 + k as u64, 100)), "legitimate key {k} locked out");
        }
        d.audit().expect("accounting clean");
    }

    #[test]
    fn audit_checks_pass_through_churn() {
        let mut d: Drr<u32> = Drr::new(1500, 4000, 8);
        for round in 0..50u64 {
            for k in 0..8u32 {
                d.enqueue(k, pkt(round * 100 + k as u64, 200 + (k * 37) % 800));
            }
            for _ in 0..6 {
                d.dequeue();
            }
            d.audit().expect("accounting stays clean under churn");
        }
        while d.dequeue().is_some() {}
        d.audit().expect("accounting clean when drained");
        assert_eq!(d.len_pkts(), 0);
        assert_eq!(d.len_bytes(), 0);
        assert_eq!(d.active_queues(), 0);
    }

    #[test]
    fn single_queue_is_fifo() {
        let mut d: Drr<u32> = Drr::new(1500, 1 << 20, 4);
        for i in 0..10 {
            d.enqueue(7, pkt(i, 300));
        }
        let ids: Vec<u64> = std::iter::from_fn(|| d.dequeue()).map(|p| p.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }
}
