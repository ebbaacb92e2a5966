//! Host nodes: a file-transfer client and a file-transfer server, each a
//! [`tva_sim::Node`] wiring a [`TcpStack`] to a capability [`Shim`].
//!
//! The client reproduces the paper's workload driver: it sends a fixed-size
//! file to the server a configured number of times, "the next transfer
//! starting after the previous one completes or aborts due to excessive
//! loss" (§5).

use tva_sim::{Ctx, Node, Pkt, SimTime};
use tva_wire::Addr;

use crate::metrics::TransferRecord;
use crate::shim::Shim;
use crate::stack::{TcpEvent, TcpStack};

/// Timer token that starts the client's transfer loop.
pub const TOKEN_START: u64 = 0;
/// Timer token for TCP tick processing.
pub(crate) const TOKEN_TICK: u64 = 1;

/// Drains a stack's output through the shim onto the wire and (re)arms the
/// host's tick timer. Returns the TCP events produced.
fn pump(
    stack: &mut TcpStack,
    shim: &mut dyn Shim,
    timer_armed: &mut Option<SimTime>,
    ctx: &mut dyn Ctx,
) -> Vec<TcpEvent> {
    let now = ctx.now();
    for mut pkt in stack.drain_out() {
        pkt.id = ctx.alloc_packet_id();
        shim.on_send(&mut pkt, now);
        ctx.send(pkt);
    }
    for mut pkt in shim.take_outbox() {
        pkt.id = ctx.alloc_packet_id();
        ctx.send(Pkt::new(pkt));
    }
    if let Some(next) = stack.next_timer() {
        let stale = timer_armed.is_none_or(|armed| armed <= now || armed > next);
        if stale {
            ctx.set_timer(next.since(now), TOKEN_TICK);
            *timer_armed = Some(next);
        }
    }
    stack.take_events()
}

/// The TCP stack in `slot`, built for `addr` on first use.
fn lazy_stack(slot: &mut Option<Box<TcpStack>>, addr: Addr) -> &mut TcpStack {
    slot.get_or_insert_with(|| Box::new(TcpStack::new(addr)))
}

/// A legitimate user: repeatedly pushes `file_size` bytes to `server`.
///
/// The TCP stack is built on the first `open` or the first packet, so a
/// client that is never kicked and never addressed holds its address and a
/// null pointer instead of a stack (DESIGN §4c).
pub struct ClientNode {
    addr: Addr,
    stack: Option<Box<TcpStack>>,
    shim: Box<dyn Shim>,
    server: Addr,
    file_size: u32,
    transfers_target: usize,
    /// Outcome of every attempt so far.
    pub records: Vec<TransferRecord>,
    started: usize,
    /// When the currently in-flight transfer was opened (None when idle).
    in_flight_started: Option<SimTime>,
    timer_armed: Option<SimTime>,
}

impl ClientNode {
    /// Creates a client that will perform `transfers_target` transfers of
    /// `file_size` bytes each. Kick it with [`TOKEN_START`] to begin.
    pub fn new(
        addr: Addr,
        server: Addr,
        file_size: u32,
        transfers_target: usize,
        shim: Box<dyn Shim>,
    ) -> Self {
        ClientNode {
            addr,
            stack: None,
            shim,
            server,
            file_size,
            transfers_target,
            records: Vec::new(),
            started: 0,
            in_flight_started: None,
            timer_armed: None,
        }
    }

    /// Pumps the stack through the shim and handles the events it reports.
    fn pump(&mut self, ctx: &mut dyn Ctx) {
        let stack = lazy_stack(&mut self.stack, self.addr);
        let events = pump(stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
        self.handle_events(events, ctx.now());
    }

    /// True once all transfers have been attempted and resolved.
    pub fn done(&self) -> bool {
        self.records.len() >= self.transfers_target
    }

    /// When the currently unresolved transfer was opened, if one is in
    /// flight (metrics for experiments that end mid-transfer).
    pub fn in_flight_started(&self) -> Option<SimTime> {
        if self.started > self.records.len() {
            self.in_flight_started
        } else {
            None
        }
    }

    fn maybe_open_next(&mut self, now: SimTime) {
        if self.started < self.transfers_target && self.started == self.records.len() {
            lazy_stack(&mut self.stack, self.addr).open(self.server, self.file_size, now);
            self.started += 1;
            self.in_flight_started = Some(now);
        }
    }

    fn handle_events(&mut self, events: Vec<TcpEvent>, now: SimTime) {
        for ev in events {
            match ev {
                TcpEvent::TransferComplete { opened_at, completed_at, .. } => {
                    self.records.push(TransferRecord {
                        started: opened_at,
                        finished: Some(completed_at),
                    });
                }
                TcpEvent::TransferAborted { opened_at, .. } => {
                    self.records
                        .push(TransferRecord { started: opened_at, finished: None });
                }
            }
            self.maybe_open_next(now);
        }
    }
}

impl Node for ClientNode {
    fn on_packet(&mut self, mut pkt: Pkt, _from: tva_sim::ChannelId, ctx: &mut dyn Ctx) {
        if !self.shim.on_receive(&mut pkt, ctx.now()) {
            return;
        }
        lazy_stack(&mut self.stack, self.addr).on_packet(&pkt, ctx.now());
        self.pump(ctx);
        // An event may have opened the next transfer; flush its SYN.
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        let now = ctx.now();
        match token {
            TOKEN_START => self.maybe_open_next(now),
            TOKEN_TICK => {
                self.timer_armed = None;
                lazy_stack(&mut self.stack, self.addr).on_tick(now);
            }
            _ => {}
        }
        self.pump(ctx);
        self.pump(ctx);
    }
}

/// A destination host: accepts connections and receives files.
pub struct ServerNode {
    stack: TcpStack,
    shim: Box<dyn Shim>,
    timer_armed: Option<SimTime>,
}

impl ServerNode {
    /// Creates a server at `addr`.
    pub fn new(addr: Addr, shim: Box<dyn Shim>) -> Self {
        ServerNode { stack: TcpStack::new(addr), shim, timer_armed: None }
    }

    /// Total payload bytes delivered in order.
    pub fn delivered_bytes(&self) -> u64 {
        self.stack.delivered_bytes
    }
}

impl Node for ServerNode {
    fn on_packet(&mut self, mut pkt: Pkt, _from: tva_sim::ChannelId, ctx: &mut dyn Ctx) {
        if !self.shim.on_receive(&mut pkt, ctx.now()) {
            return;
        }
        self.stack.on_packet(&pkt, ctx.now());
        pump(&mut self.stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        if token == TOKEN_TICK {
            self.timer_armed = None;
            self.stack.on_tick(ctx.now());
        }
        pump(&mut self.stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::NullShim;

    /// Most clients of a large tree are never kicked: an idle client holds
    /// its address and no TCP stack.
    #[test]
    fn idle_client_stays_small() {
        assert!(std::mem::size_of::<ClientNode>() <= 112, "{}", std::mem::size_of::<ClientNode>());
        let addr = Addr::new(1, 0, 0, 1);
        let c = ClientNode::new(addr, Addr::new(2, 0, 0, 1), 1000, 1, Box::new(NullShim));
        assert!(c.stack.is_none());
        assert_eq!(c.addr, addr);
    }
}
