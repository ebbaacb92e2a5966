//! The event queue: a 4-ary implicit min-heap over a payload slab, with a
//! total order that does not depend on push order.
//!
//! Every event carries an [`EventKey`] `(time, gen, tie)`:
//!
//! * `time` — the simulated instant the event fires.
//! * `gen` — dispatch generation within one instant: an event pushed *at
//!   the current time* from inside a dispatch gets its parent's generation
//!   plus one, so causal chains at a single instant stay ordered parents
//!   before children. Pushes to a strictly later time restart at 0.
//! * `tie` — `lane_seq * total_lanes + lane`, where the *lane* is the
//!   entity acting when the push happened (a node, or a channel numbered
//!   after the nodes) and `lane_seq` is that lane's private push counter.
//!   A key therefore depends only on its pusher's own history, never on
//!   how pushes from different lanes interleave, so the dispatch order is
//!   a pure function of the model and the seed (DESIGN.md §4f).
//!
//! The heap pops in exactly ascending key order, nothing else. Because a
//! push from inside a dispatch always produces a key strictly greater
//! than the key being dispatched (later time, or same time and higher
//! generation), pop order equals the total key order over all events ever
//! queued.
//!
//! Layout: the heap itself holds only 24-byte entries `{ hi, lo, slot }`
//! with the key packed as `hi = time_ns << 16 | gen`, `lo = tie`, so one
//! `u128` compare of `(hi, lo)` orders two entries exactly as `EventKey`'s
//! derived order does whenever `time < 2^48` ns (about 78 h of simulated
//! time; [`EventQueue::push`] asserts it). The [`EventKind`] payloads
//! (which embed whole packets) live in a slab indexed by `slot` and never
//! move while queued, so sift operations copy small `Copy` entries instead
//! of ~packet-sized events. The 4-ary shape halves the tree depth while
//! keeping each node's four children on one or two cache lines. A pop
//! walks the hole left by the top down to a leaf along the minimum child
//! (three branch-free compares per level), then sifts the displaced last
//! entry up from that leaf: it came from the bottom level, so it rarely
//! climbs far. Freed slab slots are recycled through a free list, so the
//! steady state allocates nothing per event.

use crate::pool::Pkt;
use crate::time::SimTime;

/// Identifies a node registered with the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a unidirectional channel (one direction of a link).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

/// The total dispatch order: time, then generation within the instant,
/// then the lane-derived tiebreak (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct EventKey {
    pub(crate) time: SimTime,
    pub(crate) gen: u16,
    pub(crate) tie: u64,
}

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A packet finishes propagating and arrives at a node.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// The channel it arrived on.
        from: ChannelId,
        /// The packet (pooled: its storage is recycled after dispatch).
        packet: Pkt,
    },
    /// A node timer fires.
    Timer {
        /// The node that set the timer.
        node: NodeId,
        /// Opaque token the node chose.
        token: u64,
    },
    /// A channel finishes serializing the packet currently on the wire.
    TxComplete {
        /// The transmitting channel.
        channel: ChannelId,
        /// The channel's failure epoch when serialization started; a link
        /// failure bumps the epoch, turning any in-flight completion into
        /// a recognizable stale event.
        epoch: u64,
    },
    /// A channel's queue asked to be polled again (e.g. a rate limiter's
    /// tokens have refilled).
    ChannelWake {
        /// The channel to poll.
        channel: ChannelId,
    },
    /// Corrupted bytes that no longer parse as a packet arrive at a node
    /// (dispatched to [`crate::node::Node::on_malformed`]).
    Malformed {
        /// Receiving node.
        node: NodeId,
        /// The channel the bytes arrived on.
        from: ChannelId,
        /// Why the decode failed.
        error: tva_wire::WireError,
    },
}

pub(crate) struct Event {
    pub(crate) key: EventKey,
    pub(crate) kind: EventKind,
}

/// Event times must stay below this many nanoseconds (2^48 ns, about 78 h
/// of simulated time) so that `time_ns << 16 | gen` fits in a `u64`.
const TIME_LIMIT_NS: u64 = 1 << 48;

/// A heap entry: the packed ordering key plus the slab slot holding the
/// payload. `(hi, lo)` read as one `u128` orders exactly as [`EventKey`]
/// does for every time below [`TIME_LIMIT_NS`].
#[derive(Clone, Copy)]
struct Entry {
    /// `time_ns << 16 | gen`.
    hi: u64,
    /// `tie`.
    lo: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn new(key: EventKey, slot: u32) -> Self {
        Entry { hi: key.time.as_nanos() << 16 | key.gen as u64, lo: key.tie, slot }
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos(self.hi >> 16)
    }

    #[inline]
    fn key(&self) -> EventKey {
        EventKey { time: self.time(), gen: self.hi as u16, tie: self.lo }
    }

    #[inline]
    fn packed(&self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }
}

/// `a` fires before `b`: one `u128` compare, no branch.
#[inline(always)]
fn before(a: &Entry, b: &Entry) -> bool {
    a.packed() < b.packed()
}

/// Children of heap slot `i` live at `4i + 1 ..= 4i + 4`; its parent at
/// `(i - 1) / 4`.
const ARITY: usize = 4;

/// The priority queue of pending events.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: Vec<Entry>,
    /// Payload slab; `None` slots are on the free list.
    kinds: Vec<Option<EventKind>>,
    free: Vec<u32>,
}

impl EventQueue {
    // `new` and the unfused `pop` are exercised only by this module's
    // tests; the engine uses `Default` and the fused pops.
    #[allow(dead_code)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, key: EventKey, kind: EventKind) {
        let ns = key.time.as_nanos();
        assert!(ns < TIME_LIMIT_NS, "event at {ns} ns is past the queue's 2^48 ns (~78 h) horizon");
        let slot = match self.free.pop() {
            Some(s) => {
                self.kinds[s as usize] = Some(kind);
                s
            }
            None => {
                self.kinds.push(Some(kind));
                (self.kinds.len() - 1) as u32
            }
        };
        let e = Entry::new(key, slot);
        self.heap.push(e);
        self.sift_up(self.heap.len() - 1, e);
    }

    #[allow(dead_code)]
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let top = *self.heap.first()?;
        Some(self.remove_top(top))
    }

    /// Fused peek+pop: pops the earliest event only if it fires at or
    /// before `limit` — one heap-top read instead of a peek/pop pair per
    /// dispatched event.
    #[inline]
    pub(crate) fn pop_at_or_before(&mut self, limit: SimTime) -> Option<Event> {
        let top = *self.heap.first()?;
        if top.time() > limit {
            return None;
        }
        Some(self.remove_top(top))
    }

    /// Fused peek+pop against a full-key bound (exclusive): pops the
    /// earliest event only if its key is strictly below `bound`. The run
    /// loop uses this to stop just short of a link-event barrier.
    #[inline]
    pub(crate) fn pop_below(&mut self, bound: EventKey) -> Option<Event> {
        let top = *self.heap.first()?;
        if top.key() >= bound {
            return None;
        }
        Some(self.remove_top(top))
    }

    fn remove_top(&mut self, top: Entry) -> Event {
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            let leaf = self.sift_down();
            self.sift_up(leaf, last);
        }
        let kind = self.kinds[top.slot as usize].take().expect("queued slot is occupied");
        self.free.push(top.slot);
        Event { key: top.key(), kind }
    }

    /// Iterates the pending event payloads in slab (not dispatch) order.
    /// Cold path: used by the runtime auditors to count engine-held packets.
    pub(crate) fn iter_kinds(&self) -> impl Iterator<Item = &EventKind> {
        self.kinds.iter().filter_map(|k| k.as_ref())
    }

    /// Writes `e` into the hole at `i`, first moving the hole up past
    /// every parent that fires after `e`.
    fn sift_up(&mut self, mut i: usize, e: Entry) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !before(&e, &self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = e;
    }

    /// Walks the hole left at the root down to a leaf, filling it at each
    /// level with the minimum child, and returns the leaf. A full level
    /// picks its child with three compares that select rather than branch;
    /// only the last parent can have fewer than four children.
    fn sift_down(&mut self) -> usize {
        let heap = &mut self.heap[..];
        let n = heap.len();
        let mut i = 0;
        loop {
            let first = i * ARITY + 1;
            let best = if first + ARITY <= n {
                let kids = &heap[first..first + ARITY];
                let a = before(&kids[1], &kids[0]) as usize;
                let b = 2 + before(&kids[3], &kids[2]) as usize;
                first + if before(&kids[b], &kids[a]) { b } else { a }
            } else if first < n {
                (first + 1..n).fold(first, |m, c| if before(&heap[c], &heap[m]) { c } else { m })
            } else {
                return i;
            };
            heap[i] = heap[best];
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer { node: NodeId(node), token }
    }

    fn key(time: SimTime, tie: u64) -> EventKey {
        EventKey { time, gen: 0, tie }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(SimTime::from_secs(3), 0), timer(0, 3));
        q.push(key(SimTime::from_secs(1), 1), timer(0, 1));
        q.push(key(SimTime::from_secs(2), 2), timer(0, 2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_in_tie_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(key(t, i), timer(0, i));
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn generation_orders_within_an_instant() {
        // Same time, ties descending but generations ascending: generation
        // dominates the tiebreak (parents before children at one instant).
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for g in 0..5u16 {
            q.push(EventKey { time: t, gen: g, tie: (10 - g) as u64 }, timer(0, g as u64));
        }
        assert_eq!(drain_tokens(&mut q), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heap_orders_across_all_arity_shapes() {
        // Sizes straddling 4-ary level boundaries (1+4, 1+4+16, ...).
        for n in [1u64, 4, 5, 6, 20, 21, 22, 85, 86, 100, 341] {
            let mut q = EventQueue::new();
            // Insert times in a scrambled but deterministic order.
            for i in 0..n {
                let t = (i * 7919) % n; // permutation when gcd(7919, n) == 1
                q.push(key(SimTime::from_nanos(t * 1_000_000), t), timer(0, t));
            }
            let out = drain_tokens(&mut q);
            let mut expect = out.clone();
            expect.sort();
            assert_eq!(out, expect, "n={n}");
        }
    }

    #[test]
    fn fused_pops_respect_their_bounds() {
        let mut q = EventQueue::new();
        q.push(key(SimTime::from_secs(1), 0), timer(0, 10));
        q.push(key(SimTime::from_secs(3), 1), timer(0, 30));
        assert!(q.pop_at_or_before(SimTime::from_nanos(500_000_000)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1)).unwrap().key.time, SimTime::from_secs(1));
        // Exclusive full-key bound: equal key does not pop.
        let bound = EventKey { time: SimTime::from_secs(3), gen: 0, tie: 1 };
        assert!(q.pop_below(bound).is_none());
        assert!(q.pop_below(EventKey { tie: 2, ..bound }).is_some());
        assert!(q.pop().is_none());
    }

    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Spreads `0..40` over the whole horizon, ending at `2^48 - 1` ns, so
    /// that draws still collide on time and exercise `gen` and `tie`.
    fn horizon_time(t: u64) -> SimTime {
        SimTime::from_nanos(t * ((TIME_LIMIT_NS - 1) / 39))
    }

    fn gens() -> impl Strategy<Value = u16> {
        prop_oneof![0u16..4, u16::MAX - 3..=u16::MAX]
    }

    proptest! {
        /// Under arbitrary interleavings of pushes and pops, every pop must
        /// return exactly the minimum `(time, gen, tie)` element currently
        /// queued — checked against a `BTreeSet` reference model. Times
        /// reach `2^48 - 1` ns, generations `u16::MAX` and ties `u64::MAX`;
        /// a tie's low 32 bits count pushes, so ties stay unique.
        #[test]
        fn prop_pops_min_key_under_interleaving(
            ops in proptest::collection::vec((0u64..40, gens(), any::<u32>(), any::<bool>()), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model: BTreeSet<(SimTime, u16, u64)> = BTreeSet::new();
            let mut pushes = 0u64;
            let read = |e: Event| (e.key.time, e.key.gen, e.key.tie);
            for &(t, gen, tie_hi, is_pop) in &ops {
                if is_pop {
                    prop_assert_eq!(q.pop().map(read), model.pop_first());
                } else {
                    let (time, tie) = (horizon_time(t), (tie_hi as u64) << 32 | pushes);
                    q.push(EventKey { time, gen, tie }, timer(0, tie));
                    model.insert((time, gen, tie));
                    pushes += 1;
                }
            }
            while let Some(e) = q.pop() {
                prop_assert_eq!(Some(read(e)), model.pop_first());
            }
            prop_assert!(model.is_empty());
        }

        /// The packed compare is `EventKey`'s `<` on the whole horizon.
        /// The second key copies each field of the first with probability
        /// one half, so equal times, generations and whole keys all occur.
        #[test]
        fn packed_order_matches_event_key(
            a in (0u64..TIME_LIMIT_NS, gens(), any::<u64>()),
            b in (0u64..TIME_LIMIT_NS, gens(), any::<u64>()),
            same in (any::<bool>(), any::<bool>(), any::<bool>()),
        ) {
            let ka = EventKey { time: SimTime::from_nanos(a.0), gen: a.1, tie: a.2 };
            let kb = EventKey {
                time: if same.0 { ka.time } else { SimTime::from_nanos(b.0) },
                gen: if same.1 { ka.gen } else { b.1 },
                tie: if same.2 { ka.tie } else { b.2 },
            };
            let (ea, eb) = (Entry::new(ka, 0), Entry::new(kb, 1));
            prop_assert_eq!(ea.key(), ka);
            prop_assert_eq!(before(&ea, &eb), ka < kb);
            prop_assert_eq!(before(&eb, &ea), kb < ka);
        }
    }

    /// The heap moves whole entries at every level of every sift.
    #[test]
    fn heap_entry_stays_small() {
        assert!(std::mem::size_of::<Entry>() <= 24, "{}", std::mem::size_of::<Entry>());
    }

    #[test]
    #[should_panic(expected = "2^48 ns")]
    fn push_past_the_horizon_panics() {
        let mut q = EventQueue::new();
        q.push(key(SimTime::from_nanos(TIME_LIMIT_NS), 0), timer(0, 0));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(key(SimTime::from_secs(5), 0), timer(0, 50));
        q.push(key(SimTime::from_secs(1), 1), timer(0, 10));
        assert_eq!(q.pop().unwrap().key.time, SimTime::from_secs(1));
        q.push(key(SimTime::from_secs(2), 2), timer(0, 20));
        q.push(key(SimTime::from_secs(5), 3), timer(0, 51)); // same time as first
        assert_eq!(drain_tokens(&mut q), vec![20, 50, 51]);
    }
}
