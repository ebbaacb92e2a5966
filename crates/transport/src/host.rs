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
pub const TOKEN_TICK: u64 = 1;

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

/// A legitimate user: repeatedly pushes `file_size` bytes to `server`.
pub struct ClientNode {
    stack: TcpStack,
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
            stack: TcpStack::new(addr),
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

    /// This client's address.
    pub fn addr(&self) -> Addr {
        self.stack.local_addr()
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
            self.stack.open(self.server, self.file_size, now);
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
        self.stack.on_packet(&pkt, ctx.now());
        let events = pump(&mut self.stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
        self.handle_events(events, ctx.now());
        // An event may have opened the next transfer; flush its SYN.
        let events = pump(&mut self.stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
        self.handle_events(events, ctx.now());
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        let now = ctx.now();
        match token {
            TOKEN_START => self.maybe_open_next(now),
            TOKEN_TICK => {
                self.timer_armed = None;
                self.stack.on_tick(now);
            }
            _ => {}
        }
        let events = pump(&mut self.stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
        self.handle_events(events, now);
        let events = pump(&mut self.stack, self.shim.as_mut(), &mut self.timer_armed, ctx);
        self.handle_events(events, now);
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

    /// This server's address.
    pub fn addr(&self) -> Addr {
        self.stack.local_addr()
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
