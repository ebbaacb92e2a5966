//! The simulation engine: channels, routing, and the sharded event
//! dispatch loop.
//!
//! The engine is *always* sharded: a simulation is a set of [`Shard`]s
//! (each owning a contiguous partition of the nodes, every channel whose
//! transmitter lives there, and a private event queue) plus a coordinator
//! that advances them under conservative lookahead (Chandy–Misra style).
//! One shard — the default — degenerates to the classic single event
//! loop with no synchronization cost. With more shards, each burns down
//! its queue on its own scoped thread to a safe horizon `T_min + L`
//! (`T_min` = the global earliest pending event, `L` = the minimum
//! cross-shard link delay), cross-shard arrivals are exchanged in batches
//! at horizon barriers, and scheduled link events act as global barriers
//! so route reconvergence stays coherent. See DESIGN.md "Sharded engine".
//!
//! Determinism survives sharding exactly: event keys ([`EventKey`]) are
//! derived from globally-numbered lanes, every RNG stream is a pure
//! function of `(seed, entity id)`, and packet ids are allocated
//! per-node — so a `TVA_SHARDS=4` run produces byte-identical trace
//! streams and ledgers to the same seed on one shard.

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
/// and shard-invariant without any global counter.
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
    /// impaired — and of how the topology is sharded.
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

/// Packed shard/local-index location: `shard << LOC_SHIFT | local`.
/// Bounds both the shard count (64) and per-shard entity count (2^26).
const LOC_SHIFT: u32 = 26;
const LOC_MASK: u32 = (1 << LOC_SHIFT) - 1;
/// Hard ceiling on the shard count, from the packed-location layout.
pub const MAX_SHARDS: usize = 64;

#[inline]
pub(crate) fn loc_shard(loc: u32) -> usize {
    (loc >> LOC_SHIFT) as usize
}

#[inline]
pub(crate) fn loc_local(loc: u32) -> usize {
    (loc & LOC_MASK) as usize
}

#[inline]
pub(crate) fn pack_loc(shard: usize, local: usize) -> u32 {
    debug_assert!(shard < MAX_SHARDS && local <= LOC_MASK as usize);
    ((shard as u32) << LOC_SHIFT) | local as u32
}

/// Read-only state shared by every shard (and so by every worker thread of
/// a multi-shard run): the address interner and the global→local location
/// maps. Nothing here mutates after assembly.
pub(crate) struct Shared {
    /// Destination-address index assigned at topology build.
    pub interner: AddrInterner,
    /// Global node id → packed (shard, local index).
    pub node_loc: Vec<u32>,
    /// Global channel id → packed (shard, local index).
    pub chan_loc: Vec<u32>,
    /// Total node count (channel lanes are numbered after node lanes).
    pub n_nodes: u64,
    /// Total lane count (`n_nodes + n_channels`), the tie-key multiplier.
    pub lanes: u64,
}

/// Where trace events go during a shard run: nowhere, straight to the
/// user's tracer (single-shard fast path and coordinator barriers), or
/// into the shard's key-tagged buffer for the deterministic cross-shard
/// merge at the next horizon.
pub(crate) enum TraceSink<'a> {
    Off,
    Direct(&'a mut Tracer),
    Buffer,
}

/// A buffered trace event: the dispatch key it was emitted under plus its
/// emission index within that dispatch, which together give the exact
/// single-loop emission order when merged across shards.
pub(crate) struct BufTrace {
    key: EventKey,
    intra: u32,
    ev: TraceEvent,
}

/// The per-shard engine state nodes interact with through [`Ctx`]: the
/// shard's clock, event queue, owned channels and route tables, and the
/// dispatch-context fields that key every push.
pub(crate) struct ShardCore {
    pub id: usize,
    pub now: SimTime,
    pub events: EventQueue,
    pub channels: Vec<Channel>,
    /// Route tables, indexed by local node.
    pub routes: Vec<RouteTable>,
    /// Local node → global node id.
    pub node_gid: Vec<u32>,
    /// Local channel → global channel id.
    pub chan_gid: Vec<u32>,
    /// Per-node RNG streams, created lazily (most hosts never draw).
    pub rng: Vec<Option<Box<SmallRng>>>,
    /// Per-node packet-id counters.
    pub pkt_seq: Vec<u64>,
    /// Per-lane push counters: local nodes first, then local channels.
    pub lane_seq: Vec<u64>,
    /// Copies from [`Shared`] so the hot path never chases a second ref.
    pub lanes: u64,
    pub n_nodes_total: u64,
    pub seed: u64,
    /// Packets discarded because a node had no route.
    pub unrouted: u64,
    /// Events dispatched on this shard.
    pub events_dispatched: u64,
    /// Key of the event currently being dispatched (or the synthetic
    /// coordinator context during barriers/driver calls).
    pub cur_key: EventKey,
    /// Acting lane of the current dispatch: global lane number and the
    /// index of its `lane_seq` counter.
    pub cur_lane_gid: u64,
    pub cur_lane_idx: u32,
    /// Trace events emitted so far within the current dispatch.
    pub trace_intra: u32,
    /// Key-tagged trace events awaiting the cross-shard merge.
    pub trace_buf: Vec<BufTrace>,
    /// Events produced here but owned by another shard, exchanged at the
    /// next horizon barrier.
    pub outbox: Vec<(EventKey, EventKind)>,
}

impl ShardCore {
    /// Number of local nodes (the channel lane-counter offset).
    #[inline]
    fn n_local_nodes(&self) -> usize {
        self.node_gid.len()
    }

    /// Allocates the next key on an explicit lane (driver pushes and
    /// coordinator barriers).
    pub(crate) fn key_for_lane(
        &mut self,
        time: SimTime,
        gen: u16,
        lane_gid: u64,
        lane_idx: usize,
    ) -> EventKey {
        let seq = self.lane_seq[lane_idx];
        self.lane_seq[lane_idx] = seq + 1;
        EventKey { time, gen, tie: seq * self.lanes + lane_gid }
    }

    /// Allocates the next key from the current dispatch context: pushes
    /// at the current instant inherit generation + 1 (children after
    /// parents), pushes to a later time restart at generation 0.
    #[inline]
    fn push_key(&mut self, time: SimTime) -> EventKey {
        let gen = if time == self.now { self.cur_key.gen.saturating_add(1) } else { 0 };
        let idx = self.cur_lane_idx as usize;
        let seq = self.lane_seq[idx];
        self.lane_seq[idx] = seq + 1;
        EventKey { time, gen, tie: seq * self.lanes + self.cur_lane_gid }
    }

    #[inline]
    fn set_node_lane(&mut self, node: NodeId, local: usize) {
        self.cur_lane_gid = node.0 as u64;
        self.cur_lane_idx = local as u32;
    }

    #[inline]
    fn set_chan_lane(&mut self, ch: ChannelId, local: usize) {
        self.cur_lane_gid = self.n_nodes_total + ch.0 as u64;
        self.cur_lane_idx = (self.n_local_nodes() + local) as u32;
    }

    /// Routes an event to its owning shard: the local queue, or the
    /// outbox for the coordinator to deliver at the next horizon.
    #[inline]
    fn push_to_node(&mut self, shared: &Shared, node: NodeId, key: EventKey, kind: EventKind) {
        if loc_shard(shared.node_loc[node.0]) == self.id {
            self.events.push(key, kind);
        } else {
            self.outbox.push((key, kind));
        }
    }

    /// Emits a trace event from fields the caller copied out *before* the
    /// packet's ownership moved (into a queue or onto the wire) — no
    /// packet clone on the trace path.
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat copies of pre-move packet fields
    fn trace_fields(
        &mut self,
        t: &mut TraceSink,
        kind: TraceKind,
        ch: ChannelId,
        id: PacketId,
        src: Addr,
        dst: Addr,
        wire_len: u32,
    ) {
        match t {
            TraceSink::Off => {}
            TraceSink::Direct(f) => {
                f(&TraceEvent { time: self.now, kind, channel: ch, id, src, dst, wire_len });
            }
            TraceSink::Buffer => {
                let ev =
                    TraceEvent { time: self.now, kind, channel: ch, id, src, dst, wire_len };
                self.trace_buf.push(BufTrace { key: self.cur_key, intra: self.trace_intra, ev });
                self.trace_intra += 1;
            }
        }
    }

    /// Offers a packet to a channel's queue and kicks the transmitter.
    /// `ch` is the global channel id; the channel is always shard-local
    /// (nodes only transmit on their own egress channels).
    fn offer(&mut self, shared: &Shared, t: &mut TraceSink, ch: ChannelId, mut pkt: Pkt) -> bool {
        let loc = shared.chan_loc[ch.0];
        debug_assert_eq!(loc_shard(loc), self.id, "egress channel is shard-local");
        let li = loc_local(loc);
        pkt.enqueued_at = self.now;
        // Copy the identifying fields out first: the packet moves into the
        // queue before the trace event is emitted.
        let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
        let wire_len = pkt.wire_len();
        let c = &mut self.channels[li];
        if !c.up {
            // A failed link loses everything offered to it.
            c.stats.lost_pkts += 1;
            c.stats.lost_bytes += wire_len as u64;
            self.trace_fields(t, TraceKind::Lost, ch, id, src, dst, wire_len);
            return false;
        }
        if c.queue.enqueue(pkt, self.now).is_accepted() {
            c.stats.enqueued_pkts += 1;
            c.stats.enqueued_bytes += wire_len as u64;
            self.trace_fields(t, TraceKind::Enqueued, ch, id, src, dst, wire_len);
            self.try_start(t, ch, li);
            true
        } else {
            c.stats.dropped_pkts += 1;
            c.stats.dropped_bytes += wire_len as u64;
            self.trace_fields(t, TraceKind::Dropped, ch, id, src, dst, wire_len);
            false
        }
    }

    /// Starts serializing the next eligible packet if the channel is idle.
    fn try_start(&mut self, t: &mut TraceSink, ch: ChannelId, li: usize) {
        let now = self.now;
        let c = &mut self.channels[li];
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
                self.trace_fields(t, TraceKind::TxStart, ch, id, src, dst, wire_len);
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

    fn on_tx_complete(&mut self, shared: &Shared, t: &mut TraceSink, ch: ChannelId, epoch: u64) {
        let li = loc_local(shared.chan_loc[ch.0]);
        let c = &mut self.channels[li];
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
                let c = &mut self.channels[li];
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
                self.push_to_node(shared, node, key, EventKind::Arrival {
                    node,
                    from: ch,
                    packet: pkt,
                });
            }
            WireFate::Lost => {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                let c = &mut self.channels[li];
                c.stats.lost_pkts += 1;
                c.stats.lost_bytes += wire_len as u64;
                self.trace_fields(t, TraceKind::Lost, ch, id, src, dst, wire_len);
            }
            WireFate::Corrupt => {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                self.channels[li].stats.corrupted_pkts += 1;
                self.trace_fields(t, TraceKind::Corrupted, ch, id, src, dst, wire_len);
                // Real corruption: flip bits in the actual on-wire encoding
                // and let the codec decide what survives.
                let mut bytes = tva_wire::encode_packet(&pkt);
                let rng = self.channels[li]
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
                        self.push_to_node(shared, node, key, EventKind::Arrival {
                            node,
                            from: ch,
                            packet: pkt,
                        });
                    }
                    Err(error) => {
                        self.channels[li].stats.malformed_pkts += 1;
                        let key = self.push_key(arrival);
                        self.push_to_node(shared, node, key, EventKind::Malformed {
                            node,
                            from: ch,
                            error,
                            wire_len,
                        });
                    }
                }
            }
        }
        self.try_start(t, ch, li);
    }

    /// Fails or restores one channel; returns whether the state changed.
    /// On failure the in-flight packet (if any) is lost and the epoch is
    /// bumped so its pending completion event becomes stale. Called only
    /// from the coordinator, which establishes the dispatch context first.
    fn set_channel_up(&mut self, t: &mut TraceSink, ch: ChannelId, li: usize, up: bool) -> bool {
        let c = &mut self.channels[li];
        if c.up == up {
            return false;
        }
        c.up = up;
        if up {
            self.try_start(t, ch, li);
        } else {
            c.epoch += 1;
            c.busy = false;
            if let Some(pkt) = c.in_flight.take() {
                let (id, src, dst) = (pkt.id, pkt.src, pkt.dst);
                let wire_len = pkt.wire_len();
                let c = &mut self.channels[li];
                c.stats.lost_pkts += 1;
                c.stats.lost_bytes += wire_len as u64;
                self.trace_fields(t, TraceKind::Lost, ch, id, src, dst, wire_len);
            }
        }
        true
    }

    fn on_wake(&mut self, t: &mut TraceSink, ch: ChannelId, li: usize) {
        let c = &mut self.channels[li];
        if c.wake_at.is_some_and(|w| w <= self.now) {
            c.wake_at = None;
        }
        self.try_start(t, ch, li);
    }
}

/// One shard: its engine core plus the nodes it owns (kept separate so a
/// node callback can borrow the core mutably through [`Ctx`]).
pub(crate) struct Shard {
    pub core: ShardCore,
    pub nodes: Vec<Box<dyn Node>>,
}

impl Shard {
    /// Dispatches one event, establishing the lane context its pushes and
    /// traces are keyed under.
    fn dispatch(&mut self, ev: Event, shared: &Shared, t: &mut TraceSink) {
        let Event { key, kind } = ev;
        debug_assert!(key.time >= self.core.now, "events dispatch in time order");
        self.core.now = key.time;
        self.core.events_dispatched += 1;
        self.core.cur_key = key;
        self.core.trace_intra = 0;
        match kind {
            EventKind::Arrival { node, from, packet } => {
                let li = loc_local(shared.node_loc[node.0]);
                self.core.set_node_lane(node, li);
                if !matches!(t, TraceSink::Off) {
                    let (id, src, dst) = (packet.id, packet.src, packet.dst);
                    let wire_len = packet.wire_len();
                    self.core
                        .trace_fields(t, TraceKind::Delivered, from, id, src, dst, wire_len);
                }
                let mut ctx =
                    EngineCtx { core: &mut self.core, shared, sink: t, node, node_local: li };
                self.nodes[li].on_packet(packet, from, &mut ctx);
            }
            EventKind::Timer { node, token } => {
                let li = loc_local(shared.node_loc[node.0]);
                self.core.set_node_lane(node, li);
                let mut ctx =
                    EngineCtx { core: &mut self.core, shared, sink: t, node, node_local: li };
                self.nodes[li].on_timer(token, &mut ctx);
            }
            EventKind::TxComplete { channel, epoch } => {
                let li = loc_local(shared.chan_loc[channel.0]);
                self.core.set_chan_lane(channel, li);
                self.core.on_tx_complete(shared, t, channel, epoch);
            }
            EventKind::ChannelWake { channel } => {
                let li = loc_local(shared.chan_loc[channel.0]);
                self.core.set_chan_lane(channel, li);
                self.core.on_wake(t, channel, li);
            }
            EventKind::Malformed { node, from, error, wire_len: _ } => {
                let li = loc_local(shared.node_loc[node.0]);
                self.core.set_node_lane(node, li);
                let mut ctx =
                    EngineCtx { core: &mut self.core, shared, sink: t, node, node_local: li };
                self.nodes[li].on_malformed(error, from, &mut ctx);
            }
        }
    }

    /// Burns the shard down: dispatches every event at or before `limit`
    /// (the single-shard fast path — one fused heap probe per event).
    fn run_at_or_before(&mut self, limit: SimTime, shared: &Shared, t: &mut TraceSink) {
        while let Some(ev) = self.core.events.pop_at_or_before(limit) {
            self.dispatch(ev, shared, t);
        }
    }

    /// Dispatches every event with key strictly below `bound` (a safe
    /// horizon or a link-event barrier).
    fn run_below(&mut self, bound: EventKey, shared: &Shared, t: &mut TraceSink) {
        while let Some(ev) = self.core.events.pop_below(bound) {
            self.dispatch(ev, shared, t);
        }
    }
}

struct EngineCtx<'a, 'b> {
    core: &'a mut ShardCore,
    shared: &'a Shared,
    sink: &'a mut TraceSink<'b>,
    node: NodeId,
    node_local: usize,
}

impl Ctx for EngineCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.core.now
    }

    fn node_id(&self) -> NodeId {
        self.node
    }

    fn send(&mut self, pkt: Pkt) -> bool {
        let idx = self.shared.interner.get(pkt.dst);
        match self.core.routes[self.node_local].lookup(idx) {
            Some(ch) => self.core.offer(self.shared, self.sink, ch, pkt),
            None => {
                self.core.unrouted += 1;
                false
            }
        }
    }

    fn send_via(&mut self, ch: ChannelId, pkt: Pkt) -> bool {
        self.core.offer(self.shared, self.sink, ch, pkt)
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let t = self.core.now + delay;
        let key = self.core.push_key(t);
        self.core.events.push(key, EventKind::Timer { node: self.node, token });
    }

    fn route(&self, dst: Addr) -> Option<ChannelId> {
        self.core.routes[self.node_local].lookup(self.shared.interner.get(dst))
    }

    fn channel_stats(&self, ch: ChannelId) -> &ChannelStats {
        let loc = self.shared.chan_loc[ch.0];
        debug_assert_eq!(loc_shard(loc), self.core.id, "stats queries are shard-local");
        &self.core.channels[loc_local(loc)].stats
    }

    fn alloc_packet_id(&mut self) -> PacketId {
        let seq = self.core.pkt_seq[self.node_local];
        self.core.pkt_seq[self.node_local] = seq + 1;
        PacketId(((self.node.0 as u64) << PKT_NODE_SHIFT) | seq)
    }

    fn rng(&mut self) -> &mut dyn rand::RngCore {
        let (seed, gid) = (self.core.seed, self.node.0 as u64);
        self.core.rng[self.node_local]
            .get_or_insert_with(|| {
                Box::new(SmallRng::seed_from_u64(stream_seed(seed, NODE_STREAM, gid)))
            })
            .as_mut()
    }
}

/// A scheduled duplex link transition, held by the coordinator (not a
/// shard queue): applying it re-converges *global* routing state, so it
/// acts as a barrier — every shard runs strictly below its key first.
pub(crate) struct LinkEvent {
    pub key: EventKey,
    pub ab: ChannelId,
    pub ba: ChannelId,
    pub up: bool,
}

/// Coordinator-owned state: everything that is global to the simulation
/// rather than owned by one shard.
pub(crate) struct Global {
    /// Address bindings from the topology, retained so routes can be
    /// recomputed when links fail or recover.
    pub addrs: Vec<(Addr, NodeId)>,
    /// Default routes from the topology (same retention rationale).
    pub defaults: Vec<(NodeId, ChannelId)>,
    /// Static routes installed by the topology (node, addr, egress).
    pub statics: Vec<(NodeId, Addr, ChannelId)>,
    /// Times the dense next-hop tables have been recomputed at runtime.
    pub reconvergences: u64,
    pub tracer: Option<Tracer>,
    /// Pending scheduled link transitions, sorted by key.
    pub link_events: Vec<LinkEvent>,
    /// Minimum cross-shard link delay — the conservative lookahead bound.
    /// `None` when no channel crosses a shard boundary.
    pub lookahead: Option<SimDuration>,
    /// The coordinator clock (equals every shard's clock between runs).
    pub now: SimTime,
    /// Events that crossed a shard boundary through the outboxes.
    pub cross_shard_events: u64,
}

/// The simulator: sharded engine state plus the coordinator. Build one
/// with [`crate::topology::TopologyBuilder`].
pub struct Simulator {
    pub(crate) shards: Vec<Shard>,
    pub(crate) shared: Shared,
    pub(crate) global: Global,
}

/// Shard count requested via the `TVA_SHARDS` environment variable
/// (default 1, clamped to [`MAX_SHARDS`]). Harness seams pass this to
/// [`crate::topology::TopologyBuilder::build_sharded`].
pub fn shards_from_env() -> usize {
    (env_u64("TVA_SHARDS", 1) as usize).clamp(1, MAX_SHARDS)
}

/// Truthy environment flag (`1`, `true`, anything non-empty except `0` /
/// `false`). The one parser behind every boolean `TVA_*` knob.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
    })
}

/// `u64` environment knob — decimal or `0x` hex, `_` separators allowed;
/// `default` when unset. A value that does not parse is reported on stderr
/// by variable and value, then `default` is used. The one parser behind
/// every numeric `TVA_*` knob.
pub fn env_u64(name: &str, default: u64) -> u64 {
    let Ok(v) = std::env::var(name) else { return default };
    let digits = v.trim().replace('_', "");
    let parsed = match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => digits.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("warning: ignoring unparseable {name}={v:?}, using {default}");
        default
    })
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.global.now
    }

    /// Runs until the event queues drain or `limit` is reached, whichever
    /// is first. The clock ends at exactly `limit` if events remained.
    ///
    /// With one shard this is the classic sequential loop. With more, the
    /// coordinator repeatedly computes the safe horizon `T_min + L`, lets
    /// every shard burn down to it on its own scoped thread, exchanges
    /// cross-shard events, merges buffered traces in key order, and applies
    /// any due link barrier — producing exactly the single-loop dispatch
    /// order.
    pub fn run_until(&mut self, limit: SimTime) {
        if self.shards.len() == 1 {
            self.run_single(limit);
        } else {
            self.run_horizons(limit);
        }
        self.global.now = limit;
        for s in &mut self.shards {
            s.core.now = limit;
        }
    }

    fn run_single(&mut self, limit: SimTime) {
        loop {
            let link_key = self
                .global
                .link_events
                .first()
                .map(|l| l.key)
                .filter(|k| k.time <= limit);
            {
                let mut sink = match self.global.tracer.as_mut() {
                    Some(f) => TraceSink::Direct(f),
                    None => TraceSink::Off,
                };
                let shard = &mut self.shards[0];
                match link_key {
                    Some(k) => shard.run_below(k, &self.shared, &mut sink),
                    None => shard.run_at_or_before(limit, &self.shared, &mut sink),
                }
            }
            if link_key.is_some() {
                self.apply_next_link_event();
            } else {
                return;
            }
        }
    }

    fn run_horizons(&mut self, limit: SimTime) {
        let limit_bound = EventKey::end_of(limit);
        loop {
            let link_key = self
                .global
                .link_events
                .first()
                .map(|l| l.key)
                .filter(|k| k.time <= limit);
            let t_min = self
                .shards
                .iter()
                .filter_map(|s| s.core.events.peek_key())
                .min()
                .filter(|k| k.time <= limit);
            if t_min.is_none() && link_key.is_none() {
                return;
            }
            let horizon = match (t_min, self.global.lookahead) {
                (Some(k), Some(l)) => EventKey {
                    time: k.time.saturating_add(l),
                    gen: 0,
                    tie: 0,
                }
                .min(limit_bound),
                _ => limit_bound,
            };
            let bound = match link_key {
                Some(k) if k < horizon => k,
                _ => horizon,
            };

            let buffered = self.global.tracer.is_some();
            let shared = &self.shared;
            std::thread::scope(|scope| {
                for shard in &mut self.shards {
                    scope.spawn(move || {
                        let mut sink = if buffered { TraceSink::Buffer } else { TraceSink::Off };
                        shard.run_below(bound, shared, &mut sink);
                    });
                }
            });

            // Exchange cross-shard events. Every outbox entry's time is at
            // least `T_min + L >= bound.time`, so no receiver has passed it.
            for si in 0..self.shards.len() {
                let outbox = std::mem::take(&mut self.shards[si].core.outbox);
                self.global.cross_shard_events += outbox.len() as u64;
                for (key, kind) in outbox {
                    let node = match &kind {
                        EventKind::Arrival { node, .. } | EventKind::Malformed { node, .. } => {
                            *node
                        }
                        _ => unreachable!("only deliveries cross shards"),
                    };
                    let ti = loc_shard(self.shared.node_loc[node.0]);
                    debug_assert!(key.time >= self.shards[ti].core.now);
                    self.shards[ti].core.events.push(key, kind);
                }
            }

            if buffered {
                self.flush_traces();
            }
            if link_key.is_some_and(|k| k == bound) {
                self.apply_next_link_event();
            }
        }
    }

    /// Merges the shards' key-tagged trace buffers into the user's tracer
    /// in global `(key, intra)` order — exactly the emission order a
    /// single-shard run produces.
    fn flush_traces(&mut self) {
        let Some(tracer) = self.global.tracer.as_mut() else {
            for s in &mut self.shards {
                s.core.trace_buf.clear();
            }
            return;
        };
        let mut cursors = vec![0usize; self.shards.len()];
        loop {
            let mut best: Option<(usize, (EventKey, u32))> = None;
            for (i, s) in self.shards.iter().enumerate() {
                if let Some(bt) = s.core.trace_buf.get(cursors[i]) {
                    let k = (bt.key, bt.intra);
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((i, k));
                    }
                }
            }
            match best {
                Some((i, _)) => {
                    tracer(&self.shards[i].core.trace_buf[cursors[i]].ev);
                    cursors[i] += 1;
                }
                None => break,
            }
        }
        for s in &mut self.shards {
            s.core.trace_buf.clear();
        }
    }

    /// Applies the earliest scheduled link transition (both directions),
    /// then re-converges routes if anything changed. Callers have already
    /// run every shard strictly below the event's key.
    fn apply_next_link_event(&mut self) {
        let le = self.global.link_events.remove(0);
        let a = self.apply_channel_state(le.ab, le.up, le.key.time);
        let b = self.apply_channel_state(le.ba, le.up, le.key.time);
        if a || b {
            self.reconverge();
        }
    }

    /// Coordinator-context channel transition: establishes a deterministic
    /// dispatch context on the owning shard (the channel's own lane,
    /// generation 0) so any events it pushes are keyed identically across
    /// shard counts, then flips the channel.
    fn apply_channel_state(&mut self, ch: ChannelId, up: bool, at: SimTime) -> bool {
        let loc = self.shared.chan_loc[ch.0];
        let (si, li) = (loc_shard(loc), loc_local(loc));
        let s = &mut self.shards[si];
        s.core.now = at.max(s.core.now);
        s.core.cur_key = EventKey { time: s.core.now, gen: 0, tie: 0 };
        s.core.set_chan_lane(ch, li);
        s.core.trace_intra = 0;
        let mut sink = match self.global.tracer.as_mut() {
            Some(f) => TraceSink::Direct(f),
            None => TraceSink::Off,
        };
        s.core.set_channel_up(&mut sink, ch, li, up)
    }

    /// Pushes a driver-originated event (kick/injection) onto the owning
    /// shard's queue, keyed on the target node's lane.
    fn push_driver_event(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        let loc = self.shared.node_loc[node.0];
        let s = &mut self.shards[loc_shard(loc)];
        let key = s.core.key_for_lane(at, 0, node.0 as u64, loc_local(loc));
        s.core.events.push(key, kind);
    }

    /// Delivers a synthetic timer event to `node` at the current time; the
    /// standard way to kick off node activity at t=0.
    pub fn kick(&mut self, node: NodeId, token: u64) {
        self.push_driver_event(self.global.now, node, EventKind::Timer { node, token });
    }

    /// Delivers a synthetic timer event to `node` at an absolute time (must
    /// not be in the past).
    pub fn kick_at(&mut self, node: NodeId, token: u64, at: SimTime) {
        assert!(at >= self.global.now, "kick_at in the past");
        self.push_driver_event(at, node, EventKind::Timer { node, token });
    }

    /// Injects a packet as if it arrived at `node` (for tests).
    pub fn inject(&mut self, node: NodeId, from: ChannelId, packet: Packet) {
        self.push_driver_event(
            self.global.now,
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
                self.global.now,
                node,
                EventKind::Malformed { node, from, error, wire_len: bytes.len() as u32 },
            ),
        }
    }

    /// Sets (or clears, when `imp.is_noop()`) one channel's impairments.
    /// Channels without impairments pay a single branch per packet.
    pub fn set_impairments(&mut self, ch: ChannelId, imp: Impairments) {
        let loc = self.shared.chan_loc[ch.0];
        self.shards[loc_shard(loc)].core.channels[loc_local(loc)].impair =
            if imp.is_noop() { None } else { Some(imp) };
    }

    /// Applies the same impairments to both directions of a link.
    pub fn impair_link(&mut self, l: LinkHandle, imp: Impairments) {
        self.set_impairments(l.ab, imp);
        self.set_impairments(l.ba, imp);
    }

    /// Schedules both directions of `l` to transition at `at`, keyed on
    /// the `ab` channel's lane so the barrier's position in the global
    /// event order is identical across shard counts.
    fn push_link_event(&mut self, l: LinkHandle, at: SimTime, up: bool) {
        let loc = self.shared.chan_loc[l.ab.0];
        let s = &mut self.shards[loc_shard(loc)];
        let lane_gid = self.shared.n_nodes + l.ab.0 as u64;
        let lane_idx = s.core.n_local_nodes() + loc_local(loc);
        let key = s.core.key_for_lane(at, 0, lane_gid, lane_idx);
        let pos = self.global.link_events.partition_point(|e| e.key < key);
        self.global.link_events.insert(pos, LinkEvent { key, ab: l.ab, ba: l.ba, up });
    }

    /// Schedules both directions of `l` to fail at `at` (event-driven, so
    /// failures interleave deterministically with traffic).
    pub fn schedule_link_down(&mut self, l: LinkHandle, at: SimTime) {
        assert!(at >= self.global.now, "schedule_link_down in the past");
        self.push_link_event(l, at, false);
    }

    /// Schedules both directions of `l` to recover at `at`.
    pub fn schedule_link_up(&mut self, l: LinkHandle, at: SimTime) {
        assert!(at >= self.global.now, "schedule_link_up in the past");
        self.push_link_event(l, at, true);
    }

    /// Recomputes every node's dense next-hop table from the retained
    /// topology, excluding channels that are currently down. Called
    /// automatically on link failure/recovery; public for tests.
    pub fn reconverge(&mut self) {
        let n = self.shared.node_loc.len();
        let mut links = vec![(NodeId(0), NodeId(0), false); self.shared.chan_loc.len()];
        for s in &self.shards {
            for (li, c) in s.core.channels.iter().enumerate() {
                links[s.core.chan_gid[li] as usize] = (c.from, c.to, c.up);
            }
        }
        let mut routes = crate::topology::compute_routes(
            n,
            &links,
            &self.global.addrs,
            &self.global.defaults,
            &self.shared.interner,
        );
        crate::topology::apply_static_routes(
            &mut routes,
            &self.shared.interner,
            &self.global.statics,
        );
        for s in &mut self.shards {
            for (li, &gid) in s.core.node_gid.iter().enumerate() {
                s.core.routes[li] = std::mem::take(&mut routes[gid as usize]);
            }
        }
        self.global.reconvergences += 1;
    }

    /// How many times routes have been recomputed at runtime.
    pub fn reconvergences(&self) -> u64 {
        self.global.reconvergences
    }

    /// Immutable access to a node, downcast to its concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.try_node(id).expect("node type mismatch")
    }

    /// Immutable access to a node if (and only if) it has concrete type
    /// `T` — the non-panicking variant of [`Simulator::node`], for auditors
    /// scanning heterogeneous node sets.
    pub fn try_node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let loc = self.shared.node_loc[id.0];
        self.shards[loc_shard(loc)].nodes[loc_local(loc)]
            .as_any()
            .downcast_ref::<T>()
    }

    /// Number of nodes, for iterating `NodeId(0..n)`.
    pub fn node_count(&self) -> usize {
        self.shared.node_loc.len()
    }

    /// Per-channel count of packets inside pending `Arrival` events —
    /// transmitted, propagating, not yet delivered to the receiving node.
    /// Cold path: one pass over the event slabs (and any undrained
    /// outboxes), used by the packet-conservation auditor.
    pub fn pending_arrivals_by_channel(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.shared.chan_loc.len()];
        for s in &self.shards {
            for kind in s.core.events.iter_kinds() {
                if let EventKind::Arrival { from, .. } = kind {
                    counts[from.0] += 1;
                }
            }
            for (_, kind) in &s.core.outbox {
                if let EventKind::Arrival { from, .. } = kind {
                    counts[from.0] += 1;
                }
            }
        }
        counts
    }

    /// Audits every channel's accounting (see [`Channel::audit`]); the
    /// error names the offending channel.
    pub fn audit_channels(&self) -> Result<(), String> {
        for s in &self.shards {
            for (li, c) in s.core.channels.iter().enumerate() {
                c.audit().map_err(|e| {
                    format!(
                        "channel {} ({:?}->{:?}): {e}",
                        s.core.chan_gid[li], c.from, c.to
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Verifies the sharding layer's own bookkeeping (cold path, used by
    /// tva-check's cross-shard reconciliation): the location maps and the
    /// shards' contents mirror each other exactly, every channel lives in
    /// its transmitter's shard, every cross-shard channel respects the
    /// lookahead bound, outboxes and trace buffers are drained, and the
    /// link-event barrier queue is ordered.
    pub fn audit_sharding(&self) -> Result<(), String> {
        let (mut nodes_seen, mut chans_seen) = (0usize, 0usize);
        for (si, s) in self.shards.iter().enumerate() {
            if s.core.id != si {
                return Err(format!("shard {si} carries id {}", s.core.id));
            }
            if s.nodes.len() != s.core.node_gid.len()
                || s.nodes.len() != s.core.routes.len()
                || s.core.channels.len() != s.core.chan_gid.len()
                || s.core.lane_seq.len() != s.nodes.len() + s.core.channels.len()
            {
                return Err(format!("shard {si}: inconsistent local table lengths"));
            }
            nodes_seen += s.nodes.len();
            chans_seen += s.core.channels.len();
            for (li, &gid) in s.core.node_gid.iter().enumerate() {
                let loc = self.shared.node_loc[gid as usize];
                if loc_shard(loc) != si || loc_local(loc) != li {
                    return Err(format!("node {gid}: location map disagrees with shard {si}"));
                }
            }
            for (li, &gid) in s.core.chan_gid.iter().enumerate() {
                let loc = self.shared.chan_loc[gid as usize];
                if loc_shard(loc) != si || loc_local(loc) != li {
                    return Err(format!(
                        "channel {gid}: location map disagrees with shard {si}"
                    ));
                }
                let c = &s.core.channels[li];
                if loc_shard(self.shared.node_loc[c.from.0]) != si {
                    return Err(format!(
                        "channel {gid}: owned by shard {si} but transmitter {:?} lives elsewhere",
                        c.from
                    ));
                }
                if loc_shard(self.shared.node_loc[c.to.0]) != si {
                    match self.global.lookahead {
                        Some(l) if c.delay >= l => {}
                        Some(l) => {
                            return Err(format!(
                                "channel {gid}: cross-shard delay {:?} below lookahead {l:?}",
                                c.delay
                            ));
                        }
                        None => {
                            return Err(format!(
                                "channel {gid}: crosses shards but no lookahead is set"
                            ));
                        }
                    }
                }
            }
            if !s.core.outbox.is_empty() {
                return Err(format!("shard {si}: {} undrained outbox events", s.core.outbox.len()));
            }
            if !s.core.trace_buf.is_empty() {
                return Err(format!(
                    "shard {si}: {} unflushed trace events",
                    s.core.trace_buf.len()
                ));
            }
        }
        if nodes_seen != self.shared.node_loc.len() || chans_seen != self.shared.chan_loc.len() {
            return Err(format!(
                "shards hold {nodes_seen} nodes / {chans_seen} channels, maps say {} / {}",
                self.shared.node_loc.len(),
                self.shared.chan_loc.len()
            ));
        }
        if !self.global.link_events.windows(2).all(|w| w[0].key <= w[1].key) {
            return Err("link-event barrier queue out of order".into());
        }
        Ok(())
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        let loc = self.shared.node_loc[id.0];
        self.shards[loc_shard(loc)].nodes[loc_local(loc)]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Channel metadata and statistics.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        let loc = self.shared.chan_loc[id.0];
        &self.shards[loc_shard(loc)].core.channels[loc_local(loc)]
    }

    /// Total number of channels, for iterating `ChannelId(0..n)` when
    /// sampling every link.
    pub fn channel_count(&self) -> usize {
        self.shared.chan_loc.len()
    }

    /// Count of packets dropped for lack of a route (should be zero in a
    /// well-configured experiment).
    pub fn unrouted(&self) -> u64 {
        self.shards.iter().map(|s| s.core.unrouted).sum()
    }

    /// Installs a packet tracer that observes every enqueue/drop/transmit/
    /// delivery in the simulation (see [`crate::trace`]). Pass `None` to
    /// disable.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.global.tracer = tracer;
    }

    /// Total events dispatched by [`Simulator::run_until`] so far — the
    /// denominator for engine-throughput (events/sec) measurements.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.core.events_dispatched).sum()
    }

    /// How many shards this simulation runs on.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Events that crossed a shard boundary through the horizon exchange.
    pub fn cross_shard_events(&self) -> u64 {
        self.global.cross_shard_events
    }

    /// The conservative lookahead bound (minimum cross-shard link delay),
    /// or `None` when no channel crosses a shard boundary.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.global.lookahead
    }
}
