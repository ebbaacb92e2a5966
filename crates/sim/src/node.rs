//! The node abstraction: anything that receives packets and timer callbacks.
//!
//! Hosts, TVA routers, SIFF routers, pushback routers and attackers are all
//! `Node` implementations; the engine neither knows nor cares which scheme a
//! node speaks. Nodes interact with the world only through [`Ctx`], which
//! keeps them deterministic and testable in isolation.

use std::any::Any;

use crate::event::{ChannelId, NodeId};
use crate::pool::Pkt;
use crate::time::SimTime;
use tva_wire::Packet;

/// A simulated network element.
///
/// `Send` so a built simulator can move to another thread (a sweep
/// worker, say); the engine itself runs every node on one thread. `Any`
/// so [`crate::Simulator::node`] can hand back the concrete type for
/// post-simulation inspection.
pub trait Node: Any + Send {
    /// Called when a packet arrives at this node on channel `from`.
    fn on_packet(&mut self, pkt: Pkt, from: ChannelId, ctx: &mut dyn Ctx);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx);

    /// Called when corrupted on-wire bytes arrive that no longer parse as a
    /// packet. The default silently drops them — the engine never panics on
    /// malformed input; nodes that account for it (routers) override this.
    fn on_malformed(&mut self, error: tva_wire::WireError, from: ChannelId, ctx: &mut dyn Ctx) {
        let _ = (error, from, ctx);
    }
}

/// The services the engine offers a node during a callback.
///
/// This is a trait (rather than a concrete struct) so node logic can be unit
/// tested against a mock without constructing a whole simulator.
pub trait Ctx {
    /// Current simulation time.
    fn now(&self) -> SimTime;

    /// This node's id.
    fn node_id(&self) -> NodeId;

    /// Routes `pkt` by destination address and offers it to the egress
    /// channel. Returns `false` if this node has no route to the
    /// destination (the packet is counted and discarded).
    fn send(&mut self, pkt: Pkt) -> bool;

    /// Offers `pkt` directly to channel `ch` (bypassing routing); used by
    /// forwarding elements that have already made their decision.
    fn send_via(&mut self, ch: ChannelId, pkt: Pkt) -> bool;

    /// Convenience for packet *construction* sites: wraps a freshly built
    /// [`Packet`] in pooled storage and sends it. Forwarders should pass
    /// the [`Pkt`] they received to [`Ctx::send`] instead, which keeps the
    /// hot path free of packet copies.
    fn send_new(&mut self, pkt: Packet) -> bool {
        self.send(Pkt::new(pkt))
    }

    /// Schedules `on_timer(token)` after `delay`.
    fn set_timer(&mut self, delay: crate::time::SimDuration, token: u64);

    /// The egress channel this node's routing table would use for `dst`
    /// (exact match, then default route).
    fn route(&self, dst: tva_wire::Addr) -> Option<ChannelId>;

    /// A channel's counters (available to any node; pushback uses this to
    /// observe congestion on its own egress links). Returned by reference —
    /// copy out the scalars you need rather than cloning the whole struct.
    fn channel_stats(&self, ch: ChannelId) -> &crate::stats::ChannelStats;

    /// A fresh globally unique packet id (deterministic).
    fn alloc_packet_id(&mut self) -> tva_wire::PacketId;

    /// Deterministic per-simulation random source.
    fn rng(&mut self) -> &mut dyn rand::RngCore;
}

/// A no-op node: drops everything. Useful as a placeholder and in tests.
#[derive(Default)]
pub struct SinkNode {
    /// Packets received (and dropped).
    pub received: u64,
    /// Bytes received.
    pub bytes: u64,
}

impl Node for SinkNode {
    fn on_packet(&mut self, pkt: Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {
        self.received += 1;
        self.bytes += pkt.wire_len() as u64;
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
}
