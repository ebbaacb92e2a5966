//! Adversary models used by the evaluation (§5.3–§5.4) and its strategic
//! extensions.
//!
//! The *authorized flood* attacker first obtains capabilities like any
//! well-behaved sender — from a colluder that grants everything (Figure 10)
//! or from a destination with an imprecise policy (Figure 11) — and then
//! floods at its full line rate, renewing when a cooperative destination
//! will let it. [`AuthorizedFlooder`] is the one node that does this; the
//! strategic adversaries the later literature suggests (NetFence's colluder
//! ring, the shrew attack, flash-crowd mimicry, identity churn) differ from
//! it only in *when* they flood, which is its [`Cadence`].
//! [`strategies`] holds the attackers that never hold a capability.

pub(crate) mod strategies;

use tva_sim::{ChannelId, Ctx, Node, SimDuration, SimTime};
use tva_transport::Shim;
use tva_wire::{Addr, Grant, Packet};

use crate::policy::AllowAll;
use crate::shim::TvaHostShim;
use strategies::spoofed_identity;

const TOKEN_EMIT: u64 = 0;

/// Minimum pacing delay: keeps degenerate parameters (zero-length waves,
/// absurd rates) from collapsing into a zero-delay timer loop.
const MIN_ARM: SimDuration = SimDuration::from_nanos(1_000);

/// `base` scaled by a uniform factor in `[0.5, 1.5)` drawn from the node's
/// own deterministic stream (see `FloodNode` for why jitter matters).
fn jittered(ctx: &mut dyn Ctx, base: SimDuration) -> SimDuration {
    let u = (ctx.rng().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    SimDuration::from_nanos((base.as_nanos() as f64 * (0.5 + u)) as u64)
}

/// When an [`AuthorizedFlooder`] floods. Every schedule derives from the
/// shared simulation clock or the node's own RNG stream, so a cohort of
/// attackers coordinates without exchanging a packet, and no attacker's
/// draws depend on when another one draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Flood forever (§5.3).
    Always,
    /// Flood only within `[start, end)`; requests are also suppressed
    /// outside it (§5.4's staged attack).
    Window {
        /// First instant of the window.
        start: SimTime,
        /// First instant past it: the attacker goes quiet for good.
        end: SimTime,
    },
    /// Flood while `(now + phase) mod period < on`, silent otherwise.
    /// With phase 0 and several targets this is a colluder *ring*: every
    /// member bursts in the same wave, and per-destination fair queuing
    /// hands `C` colluders `C/(C+1)` of the bottleneck. With `period` near
    /// the transport's retransmission timeout (200 ms min RTO, 1 s initial,
    /// doubling) it is a shrew: each burst lands exactly when the victims
    /// retransmit, for a fraction of a constant flood's byte budget.
    Periodic {
        /// Wave period.
        period: SimDuration,
        /// Active part of each period.
        on: SimDuration,
        /// Offset added to the clock.
        phase: SimDuration,
    },
    /// Flash-crowd mimicry: transfer `bytes`, think a jittered `think`,
    /// repeat. At the policy layer this is an eager legitimate user; the
    /// damage is aggregate volume, the flash-crowd ambiguity the paper
    /// concedes capabilities cannot resolve (§9).
    Bursts {
        /// Bytes per burst.
        bytes: u64,
        /// Mean think time between bursts.
        think: SimDuration,
    },
    /// Identity churn: every `every`, switch to the next of `pool` spoofed
    /// sources (or, with `spoof` false, keep the real source and only drop
    /// authorization state) and re-acquire capabilities. Each rotation
    /// plants a fresh entry in every router's bounded flow table; under TVA
    /// the grants come back via a [`SpoofColluder`].
    Rotating {
        /// Identities cycled through.
        pool: u32,
        /// Rotation interval.
        every: SimDuration,
        /// Whether the identities are spoofed source addresses.
        spoof: bool,
    },
}

/// First interval of the request-probe backoff.
const PROBE_BASE: SimDuration = SimDuration::from_millis(200);

/// The request-probe backoff: while unauthorized, probe at a doubling
/// interval capped at 60 s (so a refused attacker goes quiet instead of
/// squatting the rate-limited request channel), reset to the base once
/// capabilities arrive.
struct RequestProber {
    interval: SimDuration,
    last: Option<SimTime>,
}

impl RequestProber {
    fn new() -> Self {
        RequestProber { interval: PROBE_BASE, last: None }
    }

    /// Restarts the backoff from the base interval. With `now_due` the
    /// last probe time is forgotten too, so the next round goes out at once.
    fn reset(&mut self, now_due: bool) {
        self.interval = PROBE_BASE;
        if now_due {
            self.last = None;
        }
    }

    /// Whether a probe round is due at `now`. A due round is charged at
    /// once: unanswered so far, so the interval doubles.
    fn due(&mut self, now: SimTime) -> bool {
        if self.last.is_some_and(|t| now.since(t) < self.interval) {
            return false;
        }
        self.last = Some(now);
        self.interval = (self.interval * 2).min(SimDuration::from_secs(60));
        true
    }
}

/// Pacing-timer bookkeeping: one outstanding timer at a time (parallel
/// chains would multiply the emission rate), with an epoch token so a
/// pending backoff-probe wait — which can sit 60 s out — is superseded the
/// moment capabilities arrive instead of being waited for. Timers carry the
/// epoch as their token; a bumped epoch makes the stale timer land dead.
struct Pacing {
    armed: bool,
    probe: bool,
    epoch: u64,
}

impl Pacing {
    /// Arms the single pacing timer; `probe` marks a backoff-probe wait
    /// that capability arrival may supersede.
    fn arm(&mut self, ctx: &mut dyn Ctx, delay: SimDuration, probe: bool) {
        self.armed = true;
        self.probe = probe;
        ctx.set_timer(delay.max(MIN_ARM), self.epoch);
    }

    /// A timer fired: true iff it belongs to the live chain (which is now
    /// disarmed and should emit).
    fn fired(&mut self, token: u64) -> bool {
        if token != self.epoch {
            return false;
        }
        self.armed = false;
        true
    }

    /// Capabilities just arrived: invalidate a pending probe wait. Returns
    /// true if the caller should emit now (no live timer remains).
    fn preempt_probe(&mut self) -> bool {
        if self.probe {
            self.epoch = self.epoch.wrapping_add(1);
            self.armed = false;
            self.probe = false;
        }
        !self.armed
    }
}

/// An attacker that acquires capabilities through the normal TVA handshake
/// and then floods authorized traffic at a configured rate, round-robin
/// over its targets, on its [`Cadence`].
pub struct AuthorizedFlooder {
    shim: Box<dyn Shim>,
    local: Addr,
    targets: Vec<Addr>,
    next_target: usize,
    rate_bps: u64,
    payload: u32,
    cadence: Cadence,
    prober: RequestProber,
    pacing: Pacing,
    /// `flooded_bytes` when the current burst began (`Cadence::Bursts`).
    burst_mark: u64,
    /// When the current identity began (`Cadence::Rotating`).
    rotated_at: SimTime,
    /// Spoof this source address on flood and request packets (§7).
    spoof_src: Option<Addr>,
    /// Packets flooded with capabilities attached.
    pub flooded: u64,
    /// Authorized bytes emitted.
    pub flooded_bytes: u64,
    /// Completed bursts (`Cadence::Bursts`).
    pub bursts: u64,
    /// Identity rotations performed (`Cadence::Rotating`).
    pub rotations: u64,
}

impl AuthorizedFlooder {
    /// Creates a TVA flooder at `local` attacking `target` at `rate_bps`.
    pub fn new(local: Addr, target: Addr, rate_bps: u64) -> Self {
        // The attacker's own shim: its destination policy is irrelevant (it
        // never grants anyone useful service), AllowAll keeps it simple.
        let shim = TvaHostShim::new(
            local,
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
            targets: vec![target],
            next_target: 0,
            rate_bps: rate_bps.max(1),
            payload: 980,
            cadence: Cadence::Always,
            prober: RequestProber::new(),
            pacing: Pacing { armed: false, probe: false, epoch: TOKEN_EMIT },
            burst_mark: 0,
            rotated_at: SimTime::ZERO,
            spoof_src: None,
            flooded: 0,
            flooded_bytes: 0,
            bursts: 0,
            rotations: 0,
        }
    }

    /// Floods on `cadence` instead of always.
    pub fn with_cadence(mut self, cadence: Cadence) -> Self {
        self.cadence = cadence;
        self
    }

    /// Floods round-robin over `targets` (non-empty) instead of the one
    /// target it was created with.
    pub fn with_targets(mut self, targets: Vec<Addr>) -> Self {
        assert!(!targets.is_empty(), "a flooder needs a target");
        self.targets = targets;
        self
    }

    /// Spoofs a victim's address on all *flood* packets (§7): the
    /// capability request also travels with the spoofed source — the
    /// pre-capabilities must bind to it — while the colluding destination
    /// returns the capabilities to this attacker's real address
    /// out-of-band (see [`SpoofColluder`]).
    pub fn with_spoofed_source(mut self, victim: Addr) -> Self {
        self.spoof_src = Some(victim);
        self
    }

    fn src(&self) -> Addr {
        match self.cadence {
            Cadence::Rotating { pool, spoof: true, .. } => {
                spoofed_identity(self.local, self.rotations as u32 % pool.max(1))
            }
            _ => self.spoof_src.unwrap_or(self.local),
        }
    }

    fn any_ready(&self, now: SimTime) -> bool {
        self.targets.iter().any(|&t| self.shim.ready_to_send(t, now))
    }

    fn any_unready(&self, now: SimTime) -> bool {
        self.targets.iter().any(|&t| !self.shim.ready_to_send(t, now))
    }

    /// Sends one packet to `dst` through the shim (a bare one becomes a
    /// capability request); returns its wire length.
    fn send(&mut self, ctx: &mut dyn Ctx, dst: Addr, payload_len: u32) -> u32 {
        let now = ctx.now();
        let mut pkt = Packet {
            id: ctx.alloc_packet_id(),
            src: self.src(),
            dst,
            cap: None,
            tcp: None,
            payload_len,
        };
        self.shim.on_send(&mut pkt, now);
        let len = pkt.wire_len();
        ctx.send_new(pkt);
        len
    }

    fn emit(&mut self, ctx: &mut dyn Ctx) {
        let now = ctx.now();
        match self.cadence {
            Cadence::Always | Cadence::Bursts { .. } => {}
            Cadence::Window { start, end } => {
                if now >= end {
                    return; // done forever
                }
                if now < start {
                    self.pacing.arm(ctx, start.since(now), false);
                    return;
                }
            }
            Cadence::Periodic { period, on, phase } => {
                // Phase from the shared clock: every member of a cohort
                // sees the same schedule. Silence is the point off phase.
                let p = period.as_nanos().max(1);
                let pos = (now.as_nanos() + phase.as_nanos()) % p;
                if pos >= on.as_nanos() {
                    self.pacing.arm(ctx, SimDuration::from_nanos(p - pos), false);
                    return;
                }
            }
            Cadence::Rotating { every, .. } => {
                if now.since(self.rotated_at) >= every {
                    // Capabilities were bound to the old source: useless
                    // now. Drop them and probe eagerly under the new one.
                    self.rotated_at = now;
                    self.rotations += 1;
                    for &t in &self.targets {
                        self.shim.forget(t);
                    }
                    self.prober.reset(true);
                }
            }
        }
        // Probe every target we are not yet authorized toward, on one
        // backoff clock for the lot (a ring grants in one round trip).
        if self.any_unready(now) {
            if self.prober.due(now) {
                for i in 0..self.targets.len() {
                    let t = self.targets[i];
                    if !self.shim.ready_to_send(t, now) {
                        self.send(ctx, t, 0);
                    }
                }
            }
            if !self.any_ready(now) {
                let mut delay = self.prober.interval;
                if let Cadence::Rotating { every, .. } = self.cadence {
                    // Never sleep past the next rotation: churn is the point.
                    delay = delay.min(every);
                }
                self.pacing.arm(ctx, delay, true);
                return;
            }
        }
        if let Cadence::Bursts { bytes, think } = self.cadence {
            if self.flooded_bytes - self.burst_mark >= bytes {
                // Burst done: think, then come back for another round.
                self.burst_mark = self.flooded_bytes;
                self.bursts += 1;
                let delay = jittered(ctx, think);
                self.pacing.arm(ctx, delay, false);
                return;
            }
        }
        // Authorized: flood round-robin across the ready targets.
        let shim = &self.shim;
        let mut ready = self.targets.iter().copied().filter(|&t| shim.ready_to_send(t, now));
        let k = self.next_target % ready.clone().count();
        let t = ready.nth(k).expect("a ready target");
        self.next_target = self.next_target.wrapping_add(1);
        let len = self.send(ctx, t, self.payload);
        self.flooded += 1;
        self.flooded_bytes += u64::from(len);
        let gap = jittered(ctx, SimDuration::transmission(len, self.rate_bps));
        self.pacing.arm(ctx, gap, false);
    }
}

impl Node for AuthorizedFlooder {
    fn on_packet(&mut self, mut pkt: tva_sim::Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        // Harvest granted capabilities (and anything else the shim tracks).
        let now = ctx.now();
        let _ = self.shim.on_receive(&mut pkt, now);
        for mut out in self.shim.take_outbox() {
            out.id = ctx.alloc_packet_id();
            ctx.send_new(out);
        }
        // If we just became authorized, start (or resume) flooding now —
        // but never grow a second pacing chain. A pending backoff probe
        // timer is superseded, not waited for. Targets that have not
        // granted yet (a ring's other members) are re-probed at once; with
        // every target authorized, the last probe time stands, so probe
        // rounds stay at least the base interval apart.
        if self.any_ready(now) {
            self.prober.reset(self.any_unready(now));
            if self.pacing.preempt_probe() {
                self.emit(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        if self.pacing.fired(token) {
            self.emit(ctx);
        }
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
}
