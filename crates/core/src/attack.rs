//! Adversary models used by the evaluation (§5.3–§5.4).
//!
//! The *authorized flood* attacker first obtains capabilities like any
//! well-behaved sender — from a colluder that grants everything (Figure 10)
//! or from a destination with an imprecise policy (Figure 11) — and then
//! floods at its full line rate, renewing when a cooperative destination
//! will let it.

pub mod strategies;

use std::any::Any;

use tva_sim::{ChannelId, Ctx, Node, SimDuration, SimTime};
use tva_transport::Shim;
use tva_wire::{Addr, Packet};

use crate::config::HostConfig;
use crate::policy::AllowAll;
use crate::shim::TvaHostShim;
use tva_wire::Grant;

const TOKEN_EMIT: u64 = 0;

/// An attacker that acquires capabilities through the normal TVA handshake
/// and then floods authorized traffic at a configured rate.
pub struct AuthorizedFlooder {
    shim: Box<dyn Shim>,
    local: Addr,
    target: Addr,
    rate_bps: u64,
    payload: u32,
    /// Flood only within this window; requests are also suppressed outside
    /// it. `None` floods forever.
    window: Option<(SimTime, SimTime)>,
    /// While unauthorized, probe with a request at this interval; doubles
    /// after every unanswered probe (up to 60 s) so a refused attacker goes
    /// quiet instead of squatting the rate-limited request channel, and
    /// resets once capabilities arrive.
    request_interval: SimDuration,
    base_request_interval: SimDuration,
    last_request: Option<SimTime>,
    /// Whether a pacing timer is outstanding (guards against parallel
    /// timer chains multiplying the flood rate).
    pacing_armed: bool,
    /// Whether the outstanding timer is a backoff *probe* wait (possibly
    /// 60 s out). Capability arrival supersedes it — see [`Node::on_packet`].
    probe_armed: bool,
    /// Timer generation: each armed timer carries the current epoch as its
    /// token, and stale epochs are ignored on delivery. Bumping the epoch
    /// is how a superseded probe timer is "cancelled".
    epoch: u64,
    /// Spoof this source address on flood and request packets (§7).
    spoof_src: Option<Addr>,
    /// Packets flooded with capabilities attached.
    pub flooded: u64,
    /// Authorized bytes emitted.
    pub flooded_bytes: u64,
}

impl AuthorizedFlooder {
    /// Creates a TVA flooder at `local` attacking `target` at `rate_bps`.
    pub fn new(local: Addr, target: Addr, rate_bps: u64) -> Self {
        // The attacker's own shim: its destination policy is irrelevant (it
        // never grants anyone useful service), AllowAll keeps it simple.
        let shim = TvaHostShim::new(
            local,
            HostConfig::default(),
            Box::new(AllowAll { grant: Grant::from_parts(1023, 10) }),
        );
        Self::with_shim(local, target, rate_bps, Box::new(shim))
    }

    /// Creates a flooder that speaks some other capability scheme (e.g.
    /// SIFF) through `shim`. The shim's
    /// [`Shim::ready_to_send`] gates flooding vs. request probing.
    pub fn with_shim(local: Addr, target: Addr, rate_bps: u64, shim: Box<dyn Shim>) -> Self {
        AuthorizedFlooder {
            shim,
            local,
            target,
            rate_bps,
            payload: 980,
            window: None,
            request_interval: SimDuration::from_millis(200),
            base_request_interval: SimDuration::from_millis(200),
            last_request: None,
            pacing_armed: false,
            probe_armed: false,
            epoch: TOKEN_EMIT,
            spoof_src: None,
            flooded: 0,
            flooded_bytes: 0,
        }
    }

    /// Restricts flooding to `[start, end)`.
    pub fn with_window(mut self, start: SimTime, end: SimTime) -> Self {
        self.window = Some((start, end));
        self
    }

    fn active(&self, now: SimTime) -> bool {
        match self.window {
            None => true,
            Some((s, e)) => now >= s && now < e,
        }
    }

    fn arm(&mut self, ctx: &mut dyn Ctx, delay: SimDuration) {
        self.pacing_armed = true;
        ctx.set_timer(delay, self.epoch);
    }

    fn emit(&mut self, ctx: &mut dyn Ctx) {
        let now = ctx.now();
        if let Some((start, end)) = self.window {
            if now >= end {
                return; // done forever
            }
            if now < start {
                self.arm(ctx, start.since(now));
                return;
            }
        }
        if !self.active(now) {
            return;
        }
        if self.shim.ready_to_send(self.target, now) {
            // Authorized: flood at full rate.
            let mut pkt = Packet {
                id: ctx.alloc_packet_id(),
                src: self.spoof_src.unwrap_or(self.local),
                dst: self.target,
                cap: None,
                tcp: None,
                payload_len: self.payload,
            };
            self.shim.on_send(&mut pkt, now);
            let len = pkt.wire_len();
            ctx.send_new(pkt);
            self.flooded += 1;
            self.flooded_bytes += len as u64;
            // Jittered pacing (see FloodNode for why jitter matters).
            let base = SimDuration::transmission(len, self.rate_bps);
            let u = (ctx.rng().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let gap = SimDuration::from_nanos((base.as_nanos() as f64 * (0.5 + u)) as u64);
            self.probe_armed = false;
            self.arm(ctx, gap);
        } else {
            // Unauthorized: probe with a request periodically. The shim
            // turns a bare packet into a request automatically.
            if self.last_request.is_none_or(|t| now.since(t) >= self.request_interval) {
                self.last_request = Some(now);
                let mut pkt = Packet {
                    id: ctx.alloc_packet_id(),
                    src: self.spoof_src.unwrap_or(self.local),
                    dst: self.target,
                    cap: None,
                    tcp: None,
                    payload_len: 0,
                };
                self.shim.on_send(&mut pkt, now);
                ctx.send_new(pkt);
                // Unanswered so far: back off.
                self.request_interval =
                    (self.request_interval * 2).min(SimDuration::from_secs(60));
            }
            self.probe_armed = true;
            self.arm(ctx, self.request_interval);
        }
    }
}

impl Node for AuthorizedFlooder {
    fn on_packet(&mut self, mut pkt: tva_sim::Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        // Harvest granted capabilities (and anything else the shim tracks).
        let _ = self.shim.on_receive(&mut pkt, ctx.now());
        for mut out in self.shim.take_outbox() {
            out.id = ctx.alloc_packet_id();
            ctx.send_new(out);
        }
        // If we just became authorized, start (or resume) flooding now —
        // but never grow a second pacing chain. A pending backoff *probe*
        // timer (up to 60 s out) is superseded, not waited for: bump the
        // epoch so it lands dead, and emit immediately.
        if self.shim.ready_to_send(self.target, ctx.now()) {
            self.request_interval = self.base_request_interval;
            if self.probe_armed {
                self.epoch = self.epoch.wrapping_add(1);
                self.probe_armed = false;
                self.pacing_armed = false;
            }
            if !self.pacing_armed {
                self.emit(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        if token != self.epoch {
            return; // a superseded probe timer firing late
        }
        self.pacing_armed = false;
        self.emit(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl AuthorizedFlooder {
    /// Spoofs a victim's address on all *flood* packets (§7): the
    /// capability request also travels with the spoofed source — the
    /// pre-capabilities must bind to it — while the colluding destination
    /// returns the capabilities to this attacker's real address
    /// out-of-band (see [`SpoofColluder`]).
    pub fn with_spoofed_source(mut self, victim: Addr) -> Self {
        self.spoof_src = Some(victim);
        self
    }
}

/// A colluding destination for the §7 spoofed-source attack: it grants
/// every request and renewal, but returns the capability list to its
/// *accomplices'* real addresses rather than to the (spoofed) source of
/// the request.
pub struct SpoofColluder {
    local: Addr,
    accomplices: Vec<Addr>,
    grant: Grant,
    /// Grants issued.
    pub granted: u64,
    /// Authorized bytes absorbed.
    pub absorbed: u64,
}

impl SpoofColluder {
    /// Creates a colluder at `local` that leaks capabilities to every
    /// address in `accomplices`.
    pub fn new(local: Addr, accomplices: Vec<Addr>, grant: Grant) -> Self {
        SpoofColluder { local, accomplices, grant, granted: 0, absorbed: 0 }
    }
}

impl Node for SpoofColluder {
    fn on_packet(&mut self, pkt: tva_sim::Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        use tva_wire::{CapHeader, CapPayload, ReturnInfo};
        let Some(header) = pkt.cap.as_ref() else { return };
        // Harvest pre-capabilities from requests and renewal packets.
        let precaps: Vec<tva_wire::CapValue> = match &header.payload {
            CapPayload::Request { entries } => entries.iter().map(|e| e.precap).collect(),
            CapPayload::Regular { renewal: true, caps: Some((_, list)), .. } => list.to_vec(),
            CapPayload::Regular { .. } => {
                self.absorbed += pkt.wire_len() as u64;
                return;
            }
        };
        if precaps.is_empty() {
            return;
        }
        let caps: tva_wire::CapList = precaps
            .iter()
            .map(|&pc| crate::capability::mint_cap(pc, self.grant))
            .collect();
        self.granted += 1;
        // Leak the capabilities to every accomplice's real address.
        for &accomplice in &self.accomplices {
            let mut reply = CapHeader::request();
            reply.return_info =
                Some(ReturnInfo::Capabilities { grant: self.grant, caps: caps.clone() });
            let id = ctx.alloc_packet_id();
            ctx.send_new(Packet {
                id,
                src: self.local,
                dst: accomplice,
                cap: Some(reply),
                tcp: None,
                payload_len: 0,
            });
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
