//! The packet pool: a thread-local free list of heap-allocated packet
//! boxes, so the forwarding fast path recycles packet storage instead of
//! allocating and dropping per hop.
//!
//! With the first four entries of each capability list stored inline (see
//! `tva_wire::InlineList`), a [`Packet`] on any path this repository runs
//! is one flat 192-byte block of plain data — three cache lines, cheap to
//! build but still too big to memcpy through event slab, queues and
//! channels at every step. [`Pkt`] boxes the packet once and moves the
//! handle instead; dropping a `Pkt` returns its box to a thread-local free
//! list, and the next packet construction reuses it. After warm-up the data
//! path performs zero allocations per forwarded packet. (A packet whose
//! list is longer than four entries owns one heap block per such list; the
//! block is freed when the recycled box is overwritten.)
//!
//! Determinism is unaffected: the pool only recycles *storage*. A recycled
//! box is fully overwritten with the new packet before it is ever read, so
//! packet contents never depend on pool state, and the pool itself is never
//! consulted for anything but spare capacity. Each thread has its own free
//! list (simulations are single-threaded; sweeps run one simulation per
//! thread), so there is no cross-thread ordering to influence results.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::time::SimTime;
use tva_wire::Packet;

/// Free boxes retained per thread. Bounds pool memory at `48 KiB` per
/// thread (256 boxes of 192 bytes); busier simulations are bounded by their
/// own in-flight packet population, not by this cap.
const MAX_FREE: usize = 256;

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool { free: Vec::new(), allocs: 0, reuses: 0 }) };
}

struct Pool {
    // Boxes, not bare Packets: the pool's whole job is handing out the
    // same heap storage repeatedly; `Vec<Packet>` would re-box (allocate)
    // on every reuse.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Packet>>,
    allocs: u64,
    reuses: u64,
}

/// A snapshot of this thread's pool counters (diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Boxes allocated from the heap (pool misses).
    pub allocs: u64,
    /// Boxes reused from the free list (pool hits).
    pub reuses: u64,
    /// Boxes currently on the free list.
    pub free: usize,
}

/// This thread's pool counters.
pub fn pool_stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats { allocs: p.allocs, reuses: p.reuses, free: p.free.len() }
    })
}

/// A pooled, heap-backed packet: the unit of ownership on the simulator's
/// data path. Derefs to [`Packet`], so field access and `&Packet` APIs work
/// unchanged; cloning allocates from the pool; dropping recycles the box.
///
/// The handle also carries the instant the engine last enqueued it, so
/// dequeue can account queueing delay without a side table — correct even
/// under non-FIFO disciplines that reorder packets.
pub struct Pkt {
    slot: Option<Box<Packet>>,
    /// When the engine accepted this packet into its current egress queue.
    pub(crate) enqueued_at: SimTime,
}

impl Pkt {
    /// Wraps a packet, reusing a pooled box when one is free.
    pub fn new(pkt: Packet) -> Self {
        let recycled = POOL.with(|p| {
            let mut p = p.borrow_mut();
            match p.free.pop() {
                Some(b) => {
                    p.reuses += 1;
                    Some(b)
                }
                None => {
                    p.allocs += 1;
                    None
                }
            }
        });
        let slot = match recycled {
            Some(mut b) => {
                *b = pkt;
                Some(b)
            }
            None => Some(Box::new(pkt)),
        };
        Pkt { slot, enqueued_at: SimTime::ZERO }
    }

    /// When this packet was last accepted into a queue (engine egress, or a
    /// daemon's RX stamp). [`SimTime::ZERO`] until first stamped.
    #[inline]
    pub fn enqueued_at(&self) -> SimTime {
        self.enqueued_at
    }

    /// Stamps the enqueue instant. The sim engine stamps on egress offer;
    /// the forwarding daemon stamps at RX so TX can account the full
    /// in-node latency without a side table.
    #[inline]
    pub fn set_enqueued_at(&mut self, t: SimTime) {
        self.enqueued_at = t;
    }

    #[inline]
    fn packet(&self) -> &Packet {
        self.slot.as_deref().expect("Pkt emptied only in Drop")
    }

    #[inline]
    fn packet_mut(&mut self) -> &mut Packet {
        self.slot.as_deref_mut().expect("Pkt emptied only in Drop")
    }
}

impl From<Packet> for Pkt {
    fn from(pkt: Packet) -> Self {
        Pkt::new(pkt)
    }
}

impl Deref for Pkt {
    type Target = Packet;

    #[inline]
    fn deref(&self) -> &Packet {
        self.packet()
    }
}

impl DerefMut for Pkt {
    #[inline]
    fn deref_mut(&mut self) -> &mut Packet {
        self.packet_mut()
    }
}

impl Clone for Pkt {
    fn clone(&self) -> Self {
        let mut p = Pkt::new(self.packet().clone());
        p.enqueued_at = self.enqueued_at;
        p
    }
}

impl Drop for Pkt {
    fn drop(&mut self) {
        if let Some(b) = self.slot.take() {
            // `try_with`: during thread teardown the pool may already be
            // gone; the box then just drops normally.
            let _ = POOL.try_with(|p| {
                let mut p = p.borrow_mut();
                if p.free.len() < MAX_FREE {
                    p.free.push(b);
                }
            });
        }
    }
}

impl fmt::Debug for Pkt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.packet(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::{Addr, PacketId};

    fn sample(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(2, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: 100,
        }
    }

    #[test]
    fn derefs_to_packet() {
        let p = Pkt::new(sample(7));
        assert_eq!(p.id, PacketId(7));
        assert_eq!(p.wire_len(), 120);
    }

    #[test]
    fn recycles_storage() {
        let before = pool_stats();
        drop(Pkt::new(sample(1)));
        let p2 = Pkt::new(sample(2));
        let after = pool_stats();
        assert!(after.reuses > before.reuses || after.allocs == before.allocs + 1);
        assert_eq!(p2.id, PacketId(2), "recycled box fully overwritten");
    }

    #[test]
    fn steady_state_is_allocation_free() {
        // Warm the pool, then cycle: no new boxes should be created.
        drop(Pkt::new(sample(0)));
        let a0 = pool_stats().allocs;
        for i in 0..1000 {
            let p = Pkt::new(sample(i));
            assert_eq!(p.id, PacketId(i));
        }
        assert_eq!(pool_stats().allocs, a0, "steady-state cycling must not allocate boxes");
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Pkt::new(sample(1));
        let b = a.clone();
        a.payload_len = 999;
        assert_eq!(b.payload_len, 100);
        assert_eq!(a.id, b.id);
    }
}
