//! A single-thread ring of byte frames: one direction of the "virtual NIC"
//! pair ([`crate::ring_pair`]) the loopback benchmark runs the forwarding
//! path over.
//!
//! Each slot owns a `Vec<u8>` frame buffer that is written in place by the
//! sending port and read in place by the receiving one, so after every slot
//! has been touched once the ring moves frames with zero allocations: push
//! is a `clear` + `extend_from_slice` (or an in-place encode) into retained
//! capacity, pop hands the reader a borrowed `&[u8]`.
//!
//! `head` is the next slot to read and `tail` the next to fill. Both only
//! grow (wrapping `usize`) and are masked into the power-of-two slot array,
//! so `tail - head` is the number of frames waiting and full is told from
//! empty without a spare slot. Both ends run on one thread; a frame that
//! must cross threads goes over [`crate::UdpPort`].

use crate::MAX_FRAME;

/// A ring of at least `depth` frame slots (rounded up to a power of two,
/// minimum 2), each pre-reserving [`MAX_FRAME`] bytes so steady traffic
/// never reallocates.
pub(crate) struct Ring {
    slots: Vec<Vec<u8>>,
    head: usize,
    tail: usize,
}

impl Ring {
    pub(crate) fn new(depth: usize) -> Self {
        let depth = depth.max(2).next_power_of_two();
        Ring { slots: (0..depth).map(|_| Vec::with_capacity(MAX_FRAME)).collect(), head: 0, tail: 0 }
    }

    /// Fills the next free slot via `fill`. Returns `false` (without
    /// calling `fill`) when the ring is full. `fill` is handed the
    /// slot's retained buffer and must leave the complete frame in it;
    /// callers clear-and-write (e.g. [`tva_wire::ipcodec::encode_packet_into`]).
    #[inline]
    pub(crate) fn try_push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> bool {
        let mask = self.slots.len() - 1;
        if self.tail.wrapping_sub(self.head) > mask {
            return false;
        }
        fill(&mut self.slots[self.tail & mask]);
        self.tail = self.tail.wrapping_add(1);
        true
    }

    /// Reads the oldest frame via `read`, then frees its slot. Returns
    /// `None` when the ring is empty. The borrow handed to `read` is valid
    /// only for the call — copy out what must outlive it.
    #[inline]
    pub(crate) fn try_pop_with<R>(&mut self, read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if self.head == self.tail {
            return None;
        }
        let r = read(&self.slots[self.head & (self.slots.len() - 1)]);
        self.head = self.head.wrapping_add(1);
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_in_order() {
        let mut ring = Ring::new(4);
        for i in 0u8..3 {
            assert!(ring.try_push_with(|b| {
                b.clear();
                b.extend_from_slice(&[i; 5]);
            }));
        }
        for i in 0u8..3 {
            let got = ring.try_pop_with(|f| f.to_vec()).unwrap();
            assert_eq!(got, vec![i; 5]);
        }
        assert!(ring.try_pop_with(|_| ()).is_none());
    }

    #[test]
    fn full_ring_rejects_without_calling_fill() {
        let mut ring = Ring::new(2);
        assert!(ring.try_push_with(|b| b.push(1)));
        assert!(ring.try_push_with(|b| {
            b.clear();
            b.push(2)
        }));
        let mut called = false;
        assert!(!ring.try_push_with(|_| called = true));
        assert!(!called, "fill must not run on a full ring");
        assert_eq!(ring.try_pop_with(|f| f[0]), Some(1));
        assert!(ring.try_push_with(|b| {
            b.clear();
            b.push(3)
        }));
    }

    #[test]
    fn wraps_many_times_reusing_capacity() {
        let mut ring = Ring::new(8);
        for round in 0u32..10_000 {
            assert!(ring.try_push_with(|b| {
                b.clear();
                b.extend_from_slice(&round.to_be_bytes());
            }));
            let got = ring.try_pop_with(|f| u32::from_be_bytes(f.try_into().unwrap()));
            assert_eq!(got, Some(round));
        }
        assert!(ring.slots.iter().all(|s| s.capacity() == MAX_FRAME), "no slot reallocated");
    }
}
