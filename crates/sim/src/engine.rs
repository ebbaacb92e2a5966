//! The simulation engine: channels, routing, and the event dispatch loop.
//!
//! One event loop pops events in [`EventKey`] order and dispatches each to
//! its node or channel. The key is a total order built so that a run is a
//! pure function of its seed and topology, independent of the order in
//! which events happened to be pushed: the tiebreak is numbered by the
//! *lane* (node or channel) that pushed the event and that lane's own push
//! count, every RNG stream is a pure function of `(seed, consumer id)`, and
//! packet ids are allocated per node. Scheduled link transitions sit in a
//! separate barrier list, keyed the same way: the loop runs strictly below
//! the next one's key, applies it, and re-converges routes. See DESIGN.md
//! §4f.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::event::{ChannelId, Event, EventKey, EventKind, EventQueue, NodeId};
use crate::fault::{self, stream_seed, Impairments, FAULT_STREAM};
use crate::intern::AddrInterner;
use crate::node::{Ctx, Node};
use crate::pool::Pkt;
use crate::queue::QueueDisc;
use crate::stats::ChannelStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::LinkHandle;
use crate::trace::{TraceEvent, TraceKind, Tracer};
use tva_wire::{Addr, Packet, PacketId};

/// Salt deriving per-node RNG streams from the simulation seed (disjoint
/// from [`FAULT_STREAM`], which derives the per-channel fault streams).
const NODE_STREAM: u64 = 0x00DE_5EED_0ADE_CAFE;

/// Packet ids are `node_id << PKT_NODE_SHIFT | per-node counter`: unique
/// without any global counter.
const PKT_NODE_SHIFT: u32 = 40;

/// One direction of a link: an egress queue, a serializer of fixed
/// bandwidth, and a propagation delay to the peer node.
pub struct Channel {
    /// Node that transmits on this channel.
    pub from: NodeId,
    /// Node that receives from this channel.
    pub to: NodeId,
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    pub(crate) queue: Box<dyn QueueDisc>,
    pub(crate) busy: bool,
    pub(crate) in_flight: Option<Pkt>,
    pub(crate) wake_at: Option<SimTime>,
    /// Wire impairments; `None` (the default) costs one branch per packet.
    pub(crate) impair: Option<Impairments>,
    /// This channel's private fault stream, seeded lazily from
    /// `(seed, channel id)` on the first impaired draw. Per-channel (not
    /// global) so fault draws are independent of which other channels are
    /// impaired.
    pub(crate) fault_rng: Option<Box<SmallRng>>,
    /// `false` while the link is failed: the channel loses everything
    /// offered to it and starts no new transmissions. Queued packets are
    /// retained (a router holding its output buffer) and resume on recovery.
    pub(crate) up: bool,
    /// Bumped on every failure so completions scheduled before the failure
    /// are recognized as stale (see `EventKind::TxComplete`).
    pub(crate) epoch: u64,
    /// Counters.
    pub stats: ChannelStats,
}

impl Channel {
    /// Whether the channel is currently up (not in a failed state; duty-
    /// cycle outages do not affect this).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Packets currently waiting in the egress queue (excludes the one in
    /// flight on the wire) — the instantaneous queue depth for sampling.
    pub fn queue_pkts(&self) -> usize {
        self.queue.len_pkts()
    }

    /// Bytes currently waiting in the egress queue.
    pub fn queue_bytes(&self) -> u64 {
        self.queue.len_bytes()
    }

    /// Packets currently being serialized (0 or 1).
    pub fn in_flight_pkts(&self) -> usize {
        usize::from(self.in_flight.is_some())
    }

    /// The egress queue discipline, for downcasting by auditors.
    pub fn queue_disc(&self) -> &dyn QueueDisc {
        &*self.queue
    }

    /// Verifies this channel's accounting (cold path; used by the
    /// `TVA_CHECK` runtime auditors): the egress queue's own ledgers, the
    /// busy/in-flight pairing, and the [`ChannelStats`] conservation
    /// identities — packets and bytes accepted minus transmitted must equal
    /// exactly what the queue still holds.
    pub fn audit(&self) -> Result<(), String> {
        self.queue.audit()?;
        if self.busy != self.in_flight.is_some() {
            return Err(format!(
                "channel: busy={} but in_flight={}",
                self.busy,
                self.in_flight.is_some()
            ));
        }
        let held_pkts = self.queue.len_pkts() as u64;
        match self.stats.enqueued_pkts.checked_sub(self.stats.tx_pkts) {
            Some(d) if d == held_pkts => {}
            got => {
                return Err(format!(
                    "channel: enqueued {} - tx {} != {} pkts held (delta {got:?})",
                    self.stats.enqueued_pkts, self.stats.tx_pkts, held_pkts
                ));
            }
        }
        let held_bytes = self.queue.len_bytes();
        match self.stats.enqueued_bytes.checked_sub(self.stats.tx_bytes) {
            Some(d) if d == held_bytes => {}
            got => {
                return Err(format!(
                    "channel: enqueued {} - tx {} != {} bytes held (delta {got:?})",
                    self.stats.enqueued_bytes, self.stats.tx_bytes, held_bytes
                ));
            }
        }
        Ok(())
    }
}

/// What the wire did to a packet that finished serializing.
enum WireFate {
    Deliver,
    Lost,
    Corrupt,
}

/// Decides what the wire does to a packet on an impaired channel.
/// Outages are a pure function of time; loss and corruption draw from the
/// channel's private fault stream.
fn wire_fate(now: SimTime, imp: &Impairments, rng: &mut SmallRng) -> WireFate {
    if imp.outage.is_some_and(|o| o.is_down(now)) {
        return WireFate::Lost;
    }
    if imp.loss > 0.0 && fault::unit_f64(rng) < imp.loss {
        return WireFate::Lost;
    }
    if imp.corrupt > 0.0 && fault::unit_f64(rng) < imp.corrupt {
        return WireFate::Corrupt;
    }
    WireFate::Deliver
}

/// Sentinel for "no route" in the compact route tables.
const NO_ROUTE: u32 = u32::MAX;

/// Per-node routing state: a base-offset dense next-hop array indexed by
/// interned address index, plus an optional default route. Entries are
/// 4-byte channel ids (not 16-byte `Option<ChannelId>`), the array covers
/// only the `[base, base+len)` index range the node actually routes, and
/// entries matching the default route are pruned at build time — so stub
/// hosts carry an empty array and a million-host tree's leaf routers pay
/// only for their own subtree's contiguous address block.
#[derive(Clone)]
pub(crate) struct RouteTable {
    base: u32,
    next_hop: Vec<u32>,
    default: u32,
}

impl Default for RouteTable {
    fn default() -> Self {
        RouteTable { base: 0, next_hop: Vec::new(), default: NO_ROUTE }
    }
}

impl RouteTable {
    /// Installs an exact route for interned address index `idx`.
    pub fn insert(&mut self, idx: u32, ch: ChannelId) {
        let hop = ch.0 as u32;
        debug_assert!(hop != NO_ROUTE, "channel id collides with the NO_ROUTE sentinel");
        if self.next_hop.is_empty() {
            self.base = idx;
            self.next_hop.push(hop);
            return;
        }
        if idx < self.base {
            let grow = (self.base - idx) as usize;
            self.next_hop.splice(0..0, std::iter::repeat_n(NO_ROUTE, grow));
            self.base = idx;
        } else if (idx - self.base) as usize >= self.next_hop.len() {
            self.next_hop.resize((idx - self.base) as usize + 1, NO_ROUTE);
        }
        self.next_hop[(idx - self.base) as usize] = hop;
    }

    /// Sets or clears the default route.
    pub fn set_default(&mut self, ch: Option<ChannelId>) {
        self.default = ch.map_or(NO_ROUTE, |c| c.0 as u32);
    }

    /// Whether `ch` is exactly this table's default route.
    pub fn default_is(&self, ch: ChannelId) -> bool {
        self.default == ch.0 as u32
    }

    /// Resolves an interned destination (`None` = address never bound) to
    /// an egress channel, falling back to the default route.
    #[inline]
    fn lookup(&self, idx: Option<u32>) -> Option<ChannelId> {
        let hop = match idx {
            // Out-of-range offsets wrap to a huge value and miss `get`.
            Some(i) => *self
                .next_hop
                .get(i.wrapping_sub(self.base) as usize)
                .unwrap_or(&NO_ROUTE),
            None => NO_ROUTE,
        };
        let hop = if hop == NO_ROUTE { self.default } else { hop };
        (hop != NO_ROUTE).then_some(ChannelId(hop as usize))
    }
}

/// The engine state nodes interact with through [`Ctx`]: the clock, the
/// event queue, the channels and route tables, and the dispatch-context
/// fields that key every push. Per-node vectors are indexed by [`NodeId`],
/// `channels` by [`ChannelId`].
pub(crate) struct Core {
    now: SimTime,
    events: EventQueue,
    channels: Vec<Channel>,
    routes: Vec<RouteTable>,
    /// Destination-address index assigned at topology build.
    interner: AddrInterner,
    /// Per-node RNG streams, created lazily (most hosts never draw).
    rng: Vec<Option<Box<SmallRng>>>,
    /// Per-node packet-id counters.
    pkt_seq: Vec<u64>,
    /// Per-lane push counters: nodes first, then channels.
    lane_seq: Vec<u64>,
    /// Lane count (`nodes + channels`), the tie-key multiplier.
    lanes: u64,
    seed: u64,
    /// Packets discarded because a node had no route.
    unrouted: u64,
    /// Events dispatched so far.
    events_dispatched: u64,
    /// Key of the event currently being dispatched (or the synthetic
    /// context of a link transition).
    cur_key: EventKey,
    /// Lane of the current dispatch (an index into `lane_seq`).
    cur_lane: usize,
    tracer: Option<Tracer>,
}

impl Core {
    /// A core at time zero over built channels and per-node route tables
    /// (one per node, so `routes.len()` is the node count).
    pub(crate) fn new(
        channels: Vec<Channel>,
        routes: Vec<RouteTable>,
        interner: AddrInterner,
        seed: u64,
    ) -> Self {
        let n = routes.len();
        let lanes = n + channels.len();
        Core {
            now: SimTime::ZERO,
            events: EventQueue::default(),
            channels,
            routes,
            interner,
            rng: (0..n).map(|_| None).collect(),
            pkt_seq: vec![0; n],
            lane_seq: vec![0; lanes],
            lanes: lanes as u64,
            seed,
            unrouted: 0,
            events_dispatched: 0,
            cur_key: EventKey { time: SimTime::ZERO, gen: 0, tie: 0 },
            cur_lane: 0,
            tracer: None,
        }
    }

    /// A channel's lane: channels are numbered after the nodes.
    #[inline]
    fn chan_lane(&self, ch: ChannelId) -> usize {
        self.routes.len() + ch.0
    }

    /// Allocates the next key on an explicit lane (driver pushes and link
    /// transitions).
    fn key_for_lane(&mut self, time: SimTime, gen: u16, lane: usize) -> EventKey {
        let seq = self.lane_seq[lane];
        self.lane_seq[lane] = seq + 1;
        EventKey { time, gen, tie: seq * self.lanes + lane as u64 }
    }

    /// Allocates the next key from the current dispatch context: pushes
    /// at the current instant inherit generation + 1 (children after
    /// parents), pushes to a later time restart at generation 0.
    #[inline]
    fn push_key(&mut self, time: SimTime) -> EventKey {
        let gen = if time == self.now { self.cur_key.gen.saturating_add(1) } else { 0 };
        self.key_for_lane(time, gen, self.cur_lane)
    }

    /// Emits a trace event from fields the caller copied out *before* the
    /// packet's ownership moved (into a queue or onto the wire) — no
    /// packet clone on the trace path.
    #[inline]
    fn trace_fields(
        &mut self,
        kind: TraceKind,
        ch: ChannelId,
        id: PacketId,
        src: Addr,
        dst: Addr,
        wire_len: u32,
    ) {
        if let Some(f) = self.tracer.as_mut() {
            f(&TraceEvent { time: self.now, kind, channel: ch, id, src, dst, wire_len });
        }
    }

    /// Offers a packet to a channel's queue and kicks the transmitter.
    fn offer(&mut self, ch: ChannelId, mut pkt: Pkt) -> bool {
        pkt.enqueued_at = self.now;
        // Copy the identifying fields out first: the packet moves into the
        // queue before the trace event is emitted.
        let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
        let wire_len = pkt.wire_len();
        let c = &mut self.channels[ch.0];
        if !c.up {
            // A failed link loses everything offered to it.
            c.stats.lost_pkts += 1;
            c.stats.lost_bytes += wire_len as u64;
            self.trace_fields(TraceKind::Lost, ch, id, src, dst, wire_len);
            return false;
        }
        if c.queue.enqueue(pkt, self.now).is_accepted() {
            c.stats.enqueued_pkts += 1;
            c.stats.enqueued_bytes += wire_len as u64;
            self.trace_fields(TraceKind::Enqueued, ch, id, src, dst, wire_len);
            self.try_start(ch);
            true
        } else {
            c.stats.dropped_pkts += 1;
            c.stats.dropped_bytes += wire_len as u64;
            self.trace_fields(TraceKind::Dropped, ch, id, src, dst, wire_len);
            false
        }
    }

    /// Starts serializing the next eligible packet if the channel is idle.
    fn try_start(&mut self, ch: ChannelId) {
        let now = self.now;
        let c = &mut self.channels[ch.0];
        if c.busy || !c.up {
            return;
        }
        match c.queue.dequeue(now) {
            Some(pkt) => {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                let tx = SimDuration::transmission(wire_len, c.bandwidth_bps);
                let waited = now.since(pkt.enqueued_at).as_nanos();
                c.stats.queued_delay_ns += waited;
                c.stats.queued_delay_max_ns = c.stats.queued_delay_max_ns.max(waited);
                c.stats.tx_pkts += 1;
                c.stats.tx_bytes += wire_len as u64;
                c.busy = true;
                c.in_flight = Some(pkt);
                c.wake_at = None;
                let epoch = c.epoch;
                let key = self.push_key(now + tx);
                self.events.push(key, EventKind::TxComplete { channel: ch, epoch });
                self.trace_fields(TraceKind::TxStart, ch, id, src, dst, wire_len);
            }
            None => {
                // Nothing eligible now; if the discipline is holding packets
                // back (rate limiting), poll again when it says to.
                if let Some(wake) = c.queue.next_ready(now) {
                    let wake = wake.max(now);
                    if c.wake_at.is_none_or(|w| wake < w) {
                        c.wake_at = Some(wake);
                        let key = self.push_key(wake);
                        self.events.push(key, EventKind::ChannelWake { channel: ch });
                    }
                }
            }
        }
    }

    fn on_tx_complete(&mut self, ch: ChannelId, epoch: u64) {
        let c = &mut self.channels[ch.0];
        if c.epoch != epoch {
            // Stale completion scheduled before a link failure; the failure
            // handler already reclaimed the in-flight packet.
            return;
        }
        let pkt = c.in_flight.take().expect("TxComplete without packet in flight");
        c.busy = false;
        let arrival = self.now + c.delay;
        let node = c.to;
        let fate = match c.impair {
            None => WireFate::Deliver,
            Some(imp) => {
                let (seed, now) = (self.seed, self.now);
                let rng = c.fault_rng.get_or_insert_with(|| {
                    Box::new(SmallRng::seed_from_u64(stream_seed(
                        seed,
                        FAULT_STREAM,
                        ch.0 as u64,
                    )))
                });
                wire_fate(now, &imp, rng)
            }
        };
        match fate {
            WireFate::Deliver => {
                let key = self.push_key(arrival);
                self.events.push(key, EventKind::Arrival { node, from: ch, packet: pkt });
            }
            WireFate::Lost => {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                let c = &mut self.channels[ch.0];
                c.stats.lost_pkts += 1;
                c.stats.lost_bytes += wire_len as u64;
                self.trace_fields(TraceKind::Lost, ch, id, src, dst, wire_len);
            }
            WireFate::Corrupt => {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                self.channels[ch.0].stats.corrupted_pkts += 1;
                self.trace_fields(TraceKind::Corrupted, ch, id, src, dst, wire_len);
                // Real corruption: flip bits in the actual on-wire encoding
                // and let the codec decide what survives.
                let mut bytes = tva_wire::encode_packet(&pkt);
                let rng = self.channels[ch.0]
                    .fault_rng
                    .as_mut()
                    .expect("fault stream initialized by the fate draw");
                fault::corrupt_bytes(&mut bytes, rng);
                match tva_wire::decode_packet(&bytes) {
                    Ok(decoded) => {
                        // Reuse the packet's own storage for the decoded
                        // bytes, but restore the id: the codec truncates the
                        // simulator's 64-bit packet id to the 16-bit on-wire
                        // field, and traces must stay attributable.
                        let id = pkt.id;
                        let mut pkt = pkt;
                        *pkt = decoded;
                        pkt.id = id;
                        let key = self.push_key(arrival);
                        self.events.push(key, EventKind::Arrival { node, from: ch, packet: pkt });
                    }
                    Err(error) => {
                        self.channels[ch.0].stats.malformed_pkts += 1;
                        let key = self.push_key(arrival);
                        self.events.push(key, EventKind::Malformed {
                            node,
                            from: ch,
                            error,
                            wire_len,
                        });
                    }
                }
            }
        }
        self.try_start(ch);
    }

    /// Fails or restores one channel; returns whether the state changed.
    /// On failure the in-flight packet (if any) is lost and the epoch is
    /// bumped so its pending completion event becomes stale. The caller
    /// establishes the dispatch context first.
    fn set_channel_up(&mut self, ch: ChannelId, up: bool) -> bool {
        let c = &mut self.channels[ch.0];
        if c.up == up {
            return false;
        }
        c.up = up;
        if up {
            self.try_start(ch);
        } else {
            c.epoch += 1;
            c.busy = false;
            if let Some(pkt) = c.in_flight.take() {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                let c = &mut self.channels[ch.0];
                c.stats.lost_pkts += 1;
                c.stats.lost_bytes += wire_len as u64;
                self.trace_fields(TraceKind::Lost, ch, id, src, dst, wire_len);
            }
        }
        true
    }

    fn on_wake(&mut self, ch: ChannelId) {
        let c = &mut self.channels[ch.0];
        if c.wake_at.is_some_and(|w| w <= self.now) {
            c.wake_at = None;
        }
        self.try_start(ch);
    }
}

struct EngineCtx<'a> {
    core: &'a mut Core,
    node: NodeId,
}

impl Ctx for EngineCtx<'_> {
    fn now(&self) -> SimTime {
        self.core.now
    }

    fn node_id(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, pkt: Pkt) -> bool {
        let idx = self.core.interner.get(pkt.dst);
        match self.core.routes[self.node.0].lookup(idx) {
            Some(ch) => self.core.offer(ch, pkt),
            None => {
                self.core.unrouted += 1;
                false
            }
        }
    }

    fn send_via(&mut self, ch: ChannelId, pkt: Pkt) -> bool {
        self.core.offer(ch, pkt)
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let t = self.core.now + delay;
        let key = self.core.push_key(t);
        self.core.events.push(key, EventKind::Timer { node: self.node, token });
    }

    fn route(&self, dst: Addr) -> Option<ChannelId> {
        self.core.routes[self.node.0].lookup(self.core.interner.get(dst))
    }

    fn channel_stats(&self, ch: ChannelId) -> &ChannelStats {
        &self.core.channels[ch.0].stats
    }

    fn alloc_packet_id(&mut self) -> PacketId {
        let seq = self.core.pkt_seq[self.node.0];
        self.core.pkt_seq[self.node.0] = seq + 1;
        PacketId(((self.node.0 as u64) << PKT_NODE_SHIFT) | seq)
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        let (seed, id) = (self.core.seed, self.node.0 as u64);
        self.core.rng[self.node.0]
            .get_or_insert_with(|| {
                Box::new(SmallRng::seed_from_u64(stream_seed(seed, NODE_STREAM, id)))
            })
            .as_mut()
    }
}

/// A scheduled duplex link transition, held outside the event queue:
/// applying it re-converges routing for every node, so the loop runs
/// strictly below its key, applies it, then resumes.
pub(crate) struct LinkEvent {
    pub key: EventKey,
    pub ab: ChannelId,
    pub ba: ChannelId,
    pub up: bool,
}

/// The simulator: the engine core, the nodes (kept apart from the core so
/// a node callback can borrow the core mutably through [`Ctx`]) and the
/// retained topology that link failures re-converge from. Build one with
/// [`crate::topology::TopologyBuilder`].
pub struct Simulator {
    pub(crate) core: Core,
    pub(crate) nodes: Vec<Box<dyn Node>>,
    /// Address bindings from the topology, retained so routes can be
    /// recomputed when links fail or recover.
    pub(crate) addrs: Vec<(Addr, NodeId)>,
    /// Default routes from the topology (same retention rationale).
    pub(crate) defaults: Vec<(NodeId, ChannelId)>,
    /// Static routes installed by the topology (node, addr, egress).
    pub(crate) statics: Vec<(NodeId, Addr, ChannelId)>,
    /// Times the dense next-hop tables have been recomputed at runtime.
    pub(crate) reconvergences: u64,
    /// Pending scheduled link transitions, sorted by key.
    pub(crate) link_events: Vec<LinkEvent>,
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Runs until the event queue drains or `limit` is reached, whichever
    /// is first. The clock ends at exactly `limit` if events remained.
    pub fn run_until(&mut self, limit: SimTime) {
        loop {
            let link_key = self.link_events.first().map(|l| l.key).filter(|k| k.time <= limit);
            match link_key {
                Some(k) => {
                    while let Some(ev) = self.core.events.pop_below(k) {
                        self.dispatch(ev);
                    }
                    self.apply_next_link_event();
                }
                None => {
                    // One fused heap probe per event.
                    while let Some(ev) = self.core.events.pop_at_or_before(limit) {
                        self.dispatch(ev);
                    }
                    break;
                }
            }
        }
        self.core.now = limit;
    }

    /// Dispatches one event, establishing the lane context its pushes are
    /// keyed under.
    fn dispatch(&mut self, ev: Event) {
        let Event { key, kind } = ev;
        let core = &mut self.core;
        debug_assert!(key.time >= core.now, "events dispatch in time order");
        core.now = key.time;
        core.events_dispatched += 1;
        core.cur_key = key;
        match kind {
            EventKind::Arrival { node, from, packet } => {
                core.cur_lane = node.0;
                if core.tracer.is_some() {
                    let (id, src, dst) = (packet.id, packet.src, packet.dst);
                    let wire_len = packet.wire_len();
                    core.trace_fields(TraceKind::Delivered, from, id, src, dst, wire_len);
                }
                self.nodes[node.0].on_packet(packet, from, &mut EngineCtx { core, node });
            }
            EventKind::Timer { node, token } => {
                core.cur_lane = node.0;
                self.nodes[node.0].on_timer(token, &mut EngineCtx { core, node });
            }
            EventKind::TxComplete { channel, epoch } => {
                core.cur_lane = core.chan_lane(channel);
                core.on_tx_complete(channel, epoch);
            }
            EventKind::ChannelWake { channel } => {
                core.cur_lane = core.chan_lane(channel);
                core.on_wake(channel);
            }
            EventKind::Malformed { node, from, error, wire_len: _ } => {
                core.cur_lane = node.0;
                self.nodes[node.0].on_malformed(error, from, &mut EngineCtx { core, node });
            }
        }
    }

    /// Applies the earliest scheduled link transition (both directions),
    /// then re-converges routes if anything changed. The caller has
    /// already dispatched every event keyed below it.
    fn apply_next_link_event(&mut self) {
        let le = self.link_events.remove(0);
        let a = self.apply_channel_state(le.ab, le.up, le.key.time);
        let b = self.apply_channel_state(le.ba, le.up, le.key.time);
        if a || b {
            self.reconverge();
        }
    }

    /// Link-transition channel flip under a synthetic dispatch context
    /// (the channel's own lane, generation 0), so any events it pushes are
    /// keyed like any other channel push.
    fn apply_channel_state(&mut self, ch: ChannelId, up: bool, at: SimTime) -> bool {
        let core = &mut self.core;
        core.now = at.max(core.now);
        core.cur_key = EventKey { time: core.now, gen: 0, tie: 0 };
        core.cur_lane = core.chan_lane(ch);
        core.set_channel_up(ch, up)
    }

    /// Pushes a driver-originated event (kick/injection), keyed on the
    /// target node's lane.
    fn push_driver_event(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        let key = self.core.key_for_lane(at, 0, node.0);
        self.core.events.push(key, kind);
    }

    /// Delivers a synthetic timer event to `node` at the current time; the
    /// standard way to kick off node activity at t=0.
    pub fn kick(&mut self, node: NodeId, token: u64) {
        self.push_driver_event(self.core.now, node, EventKind::Timer { node, token });
    }

    /// Delivers a synthetic timer event to `node` at an absolute time (must
    /// not be in the past).
    pub fn kick_at(&mut self, node: NodeId, token: u64, at: SimTime) {
        assert!(at >= self.core.now, "kick_at in the past");
        self.push_driver_event(at, node, EventKind::Timer { node, token });
    }

    /// Injects a packet as if it arrived at `node` (for tests).
    pub fn inject(&mut self, node: NodeId, from: ChannelId, packet: Packet) {
        self.push_driver_event(
            self.core.now,
            node,
            EventKind::Arrival { node, from, packet: Pkt::new(packet) },
        );
    }

    /// Injects raw on-wire bytes as if they arrived at `node`: bytes that
    /// parse become a normal arrival, bytes that do not become a malformed
    /// delivery. This is the fuzzing entry point — arbitrary input can
    /// never panic the engine or a node.
    pub fn inject_bytes(&mut self, node: NodeId, from: ChannelId, bytes: &[u8]) {
        match tva_wire::decode_packet(bytes) {
            Ok(packet) => self.inject(node, from, packet),
            Err(error) => self.push_driver_event(
                self.core.now,
                node,
                EventKind::Malformed { node, from, error, wire_len: bytes.len() as u32 },
            ),
        }
    }

    /// Sets (or clears, when `imp.is_noop()`) one channel's impairments.
    /// Channels without impairments pay a single branch per packet.
    pub fn set_impairments(&mut self, ch: ChannelId, imp: Impairments) {
        self.core.channels[ch.0].impair = if imp.is_noop() { None } else { Some(imp) };
    }

    /// Applies the same impairments to both directions of a link.
    pub fn impair_link(&mut self, l: LinkHandle, imp: Impairments) {
        self.set_impairments(l.ab, imp);
        self.set_impairments(l.ba, imp);
    }

    /// Schedules both directions of `l` to transition at `at`, keyed on
    /// the `ab` channel's lane.
    fn push_link_event(&mut self, l: LinkHandle, at: SimTime, up: bool) {
        let lane = self.core.chan_lane(l.ab);
        let key = self.core.key_for_lane(at, 0, lane);
        let pos = self.link_events.partition_point(|e| e.key < key);
        self.link_events.insert(pos, LinkEvent { key, ab: l.ab, ba: l.ba, up });
    }

    /// Schedules both directions of `l` to fail at `at` (event-driven, so
    /// failures interleave deterministically with traffic).
    pub fn schedule_link_down(&mut self, l: LinkHandle, at: SimTime) {
        assert!(at >= self.core.now, "schedule_link_down in the past");
        self.push_link_event(l, at, false);
    }

    /// Schedules both directions of `l` to recover at `at`.
    pub fn schedule_link_up(&mut self, l: LinkHandle, at: SimTime) {
        assert!(at >= self.core.now, "schedule_link_up in the past");
        self.push_link_event(l, at, true);
    }

    /// Recomputes every node's dense next-hop table from the retained
    /// topology, excluding channels that are currently down. Called
    /// automatically on link failure/recovery; public for tests.
    pub fn reconverge(&mut self) {
        let links: Vec<(NodeId, NodeId, bool)> =
            self.core.channels.iter().map(|c| (c.from, c.to, c.up)).collect();
        let mut routes = crate::topology::compute_routes(
            self.nodes.len(),
            &links,
            &self.addrs,
            &self.defaults,
            &self.core.interner,
        );
        crate::topology::apply_static_routes(&mut routes, &self.core.interner, &self.statics);
        self.core.routes = routes;
        self.reconvergences += 1;
    }

    /// How many times routes have been recomputed at runtime.
    pub fn reconvergences(&self) -> u64 {
        self.reconvergences
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.try_node(id).expect("node type mismatch")
    }

    /// Immutable access to a node if (and only if) it has concrete type
    /// `T` — the non-panicking variant of [`Simulator::node`], for auditors
    /// scanning heterogeneous node sets.
    pub fn try_node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0].as_any().downcast_ref::<T>()
    }

    /// Number of nodes, for iterating `NodeId(0..n)`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Per-channel count of packets inside pending `Arrival` events —
    /// transmitted, propagating, not yet delivered to the receiving node.
    /// Cold path: one pass over the event slab, used by the
    /// packet-conservation auditor.
    pub fn pending_arrivals_by_channel(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.core.channels.len()];
        for kind in self.core.events.iter_kinds() {
            if let EventKind::Arrival { from, .. } = kind {
                counts[from.0] += 1;
            }
        }
        counts
    }

    /// Audits every channel's accounting (see [`Channel::audit`]); the
    /// error names the offending channel.
    pub fn audit_channels(&self) -> Result<(), String> {
        for (i, c) in self.core.channels.iter().enumerate() {
            c.audit().map_err(|e| format!("channel {i} ({:?}->{:?}): {e}", c.from, c.to))?;
        }
        Ok(())
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0].as_any_mut().downcast_mut::<T>().expect("node type mismatch")
    }

    /// Channel metadata and statistics.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.core.channels[id.0]
    }

    /// Total number of channels, for iterating `ChannelId(0..n)` when
    /// sampling every link.
    pub fn channel_count(&self) -> usize {
        self.core.channels.len()
    }

    /// Count of packets dropped for lack of a route (should be zero in a
    /// well-configured experiment).
    pub fn unrouted(&self) -> u64 {
        self.core.unrouted
    }

    /// Installs a packet tracer that observes every enqueue/drop/transmit/
    /// delivery in the simulation (see [`crate::trace`]). Pass `None` to
    /// disable.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.core.tracer = tracer;
    }

    /// Total events dispatched by [`Simulator::run_until`] so far — the
    /// denominator for engine-throughput (events/sec) measurements.
    pub fn events_processed(&self) -> u64 {
        self.core.events_dispatched
    }
}
