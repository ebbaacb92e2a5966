//! Attackers that never hold a capability.
//!
//! Every strategy that *acquires* capabilities — the paper's constant
//! authorized flood and the colluder-ring, shrew, flash-crowd and
//! identity-churn adversaries the later literature suggests — is one
//! [`AuthorizedFlooder`](crate::AuthorizedFlooder) on a different
//! [`Cadence`](crate::Cadence). What remains here attacks the request
//! channel itself:
//!
//! - [`SpoofedRequestFlooder`]: request-channel exhaustion with forged
//!   path-identifier entries (the path-validation survey's spoofing
//!   concern) and a rotating spoofed source pool, aimed at the request
//!   fair-queuer's key table.
//! - [`spoofed_identity`]: the source pool it and the rotating-identity
//!   cadence draw from.
//!
//! The node draws only from its own per-node RNG stream (`ctx.rng()`), so
//! its draws do not depend on when any other node draws — the engine's
//! determinism contract that the attack-search loop depends on.

use tva_sim::{ChannelId, Ctx, Node, SimDuration};
use tva_wire::{Addr, CapHeader, CapPayload, CapValue, Packet, PathId, RequestEntry};

use super::{jittered, MIN_ARM, TOKEN_EMIT};

/// The `k`-th spoofed identity derived from `base`. The XOR lands in the
/// middle octets so the pool stays inside the attacker's own address block
/// (an attacker can forge sources, but its ingress pins the prefix it can
/// plausibly claim — §3.2) and never collides with another attacker's pool
/// (the low octet is preserved). Identity 0 is the real address.
pub(crate) fn spoofed_identity(base: Addr, k: u32) -> Addr {
    Addr(base.0 ^ ((k & 0xFFFF) << 8))
}

/// A request-channel exhaustion attacker: floods hand-crafted capability
/// requests whose entry lists are pre-seeded with *forged* path-identifier
/// tags, from a rotating pool of spoofed sources.
///
/// The forged tags aim at the request fair-queuer's key table — each
/// distinct most-recent tag claims a sub-queue — and the pre-filled entries
/// burn slots toward `MAX_PATH_ROUTERS`, at which point real routers demote
/// the request. Ingress re-tagging at a trust boundary neutralizes the
/// forged keys (the boundary's genuine tag lands *after* them and wins),
/// and the scheduler demotes rather than drops on key-table exhaustion;
/// this attacker exists to prove both defenses hold under pressure.
pub struct SpoofedRequestFlooder {
    local: Addr,
    target: Addr,
    rate_bps: u64,
    src_pool: u32,
    fill: usize,
    seq: u64,
    /// Forged requests emitted.
    pub requests: u64,
    /// Request bytes emitted.
    pub request_bytes: u64,
}

impl SpoofedRequestFlooder {
    /// Creates a storm source at `local` aimed at `target`, rotating
    /// through `src_pool` spoofed sources and forging `fill` tagged
    /// entries per request (clamped to the wire format's slot count).
    pub fn new(local: Addr, target: Addr, rate_bps: u64, src_pool: u32, fill: usize) -> Self {
        SpoofedRequestFlooder {
            local,
            target,
            rate_bps: rate_bps.max(1),
            src_pool: src_pool.max(1),
            fill: fill.min(tva_wire::MAX_PATH_ROUTERS),
            seq: 0,
            requests: 0,
            request_bytes: 0,
        }
    }

    fn emit(&mut self, ctx: &mut dyn Ctx) {
        let k = (self.seq % u64::from(self.src_pool)) as u32;
        self.seq = self.seq.wrapping_add(1);
        let src = spoofed_identity(self.local, k);
        let mut header = CapHeader::request();
        if let CapPayload::Request { entries } = &mut header.payload {
            for _ in 0..self.fill {
                // Forged tag + junk pre-capability, both from this node's
                // own stream: distinct keys to sweep the key table, never
                // the NONE sentinel.
                let r = ctx.rng().next_u64();
                entries.push(RequestEntry {
                    path_id: PathId(1 + (r % 0xFFFE) as u16),
                    precap: CapValue::new((r >> 16) as u8, r >> 24),
                });
            }
        }
        let pkt = Packet {
            id: ctx.alloc_packet_id(),
            src,
            dst: self.target,
            cap: Some(header),
            tcp: None,
            payload_len: 0,
        };
        let len = pkt.wire_len();
        ctx.send_new(pkt);
        self.requests += 1;
        self.request_bytes += len as u64;
        let base = SimDuration::transmission(len, self.rate_bps);
        let gap = jittered(ctx, base);
        ctx.set_timer(gap.max(MIN_ARM), TOKEN_EMIT);
    }
}

impl Node for SpoofedRequestFlooder {
    fn on_packet(&mut self, _pkt: tva_sim::Pkt, _from: ChannelId, _ctx: &mut dyn Ctx) {
        // Replies go to spoofed sources; anything that reaches us is noise.
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut dyn Ctx) {
        self.emit(ctx);
    }
}
