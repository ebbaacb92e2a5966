//! The SIFF router: stateless 2-bit marking and verification.

use tva_crypto::{keyed56, HashInput, SipKey};
use tva_sim::{ChannelId, Ctx, Node, Pkt, SimTime};
use tva_wire::{Addr, CapPayload, CapValue, Packet, PathId, RequestEntry};

use super::{SiffConfig, MARK_MASK};

tva_sim::counters! {
    /// Router counters.
    #[derive(Debug, Default, Clone)]
    pub struct SiffStats {
        /// Explorer packets marked.
        pub explorers_marked: u64,
        /// Data packets whose mark verified.
        pub data_verified: u64,
        /// Data packets dropped for a bad mark.
        pub data_dropped: u64,
        /// Legacy packets forwarded.
        pub legacy: u64,
    }
}

/// How the router disposed of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiffVerdict {
    /// Forward as an explorer (low priority, shared with legacy).
    Explorer,
    /// Forward as verified data (high priority).
    Data,
    /// Forward as legacy.
    Legacy,
    /// Drop: the mark did not verify. (SIFF drops rather than demoting.)
    Drop,
}

/// SIFF packet processing, separated from the node for benches/tests.
pub struct SiffRouter {
    cfg: SiffConfig,
    /// Counters.
    pub stats: SiffStats,
}

impl SiffRouter {
    /// Creates a SIFF router.
    pub fn new(cfg: SiffConfig) -> Self {
        SiffRouter { cfg, stats: SiffStats::default() }
    }

    fn key_for_generation(&self, g: u64) -> SipKey {
        SipKey::from_halves(self.cfg.secret_seed ^ g, self.cfg.secret_seed.rotate_left(17) ^ g)
    }

    fn generation(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.cfg.key_rotation.as_nanos().max(1)
    }

    /// The 2-bit mark this router computes for (src → dst) under key
    /// generation `g`.
    pub(crate) fn mark(&self, src: Addr, dst: Addr, g: u64) -> u64 {
        let mut input = HashInput::new();
        input.push_u32(src.to_u32());
        input.push_u32(dst.to_u32());
        keyed56(self.key_for_generation(g), input.as_bytes()) & MARK_MASK
    }

    /// Processes one packet in place.
    pub fn process(&mut self, pkt: &mut Packet, now: SimTime) -> SiffVerdict {
        let (src, dst) = (pkt.src, pkt.dst);
        let g = self.generation(now);
        let Some(cap) = pkt.cap.as_mut() else {
            self.stats.legacy += 1;
            return SiffVerdict::Legacy;
        };
        match &mut cap.payload {
            CapPayload::Request { entries } => {
                if entries.len() >= tva_wire::MAX_PATH_ROUTERS {
                    return SiffVerdict::Drop;
                }
                let mark = self.mark(src, dst, g);
                entries.push(RequestEntry {
                    path_id: PathId::NONE, // SIFF has no path identifiers
                    precap: CapValue::new(0, mark),
                });
                self.stats.explorers_marked += 1;
                SiffVerdict::Explorer
            }
            CapPayload::Regular { ptr, caps, .. } => {
                let Some((_, list)) = caps else {
                    // SIFF data packets always carry their marks.
                    self.stats.data_dropped += 1;
                    return SiffVerdict::Drop;
                };
                let idx = *ptr as usize;
                let Some(carried) = list.get(idx) else {
                    self.stats.data_dropped += 1;
                    return SiffVerdict::Drop;
                };
                let carried = carried.hash56() & MARK_MASK;
                let ok = carried == self.mark(src, dst, g)
                    || (self.cfg.accept_previous
                        && g > 0
                        && carried == self.mark(src, dst, g - 1));
                if ok {
                    *ptr = ptr.saturating_add(1);
                    self.stats.data_verified += 1;
                    SiffVerdict::Data
                } else {
                    self.stats.data_dropped += 1;
                    SiffVerdict::Drop
                }
            }
        }
    }
}

/// The [`Node`] wrapper.
pub struct SiffRouterNode {
    /// The processing pipeline.
    pub router: SiffRouter,
}

impl SiffRouterNode {
    /// Creates a SIFF router node.
    pub fn new(cfg: SiffConfig) -> Self {
        SiffRouterNode { router: SiffRouter::new(cfg) }
    }
}

impl Node for SiffRouterNode {
    fn on_packet(&mut self, mut pkt: Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        match self.router.process(&mut pkt, ctx.now()) {
            SiffVerdict::Drop => {}
            _ => {
                ctx.send(pkt);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::{CapHeader, FlowNonce, Grant, PacketId};

    const SRC: Addr = Addr::new(1, 0, 0, 1);
    const DST: Addr = Addr::new(2, 0, 0, 2);

    fn dummy_grant() -> Grant {
        Grant::from_parts(1023, 63) // SIFF ignores N and T
    }

    fn pkt(cap: Option<CapHeader>) -> Packet {
        Packet { id: PacketId(0), src: SRC, dst: DST, cap, tcp: None, payload_len: 100 }
    }

    #[test]
    fn explorer_collects_marks_and_data_verifies() {
        let mut r = SiffRouter::new(SiffConfig::default());
        let now = SimTime::from_secs(1);
        let mut p = pkt(Some(CapHeader::request()));
        assert_eq!(r.process(&mut p, now), SiffVerdict::Explorer);
        let CapPayload::Request { entries } = &p.cap.as_ref().unwrap().payload else {
            panic!()
        };
        let mark = entries[0].precap;
        assert!(mark.hash56() <= MARK_MASK, "marks are 2 bits");

        let mut d = pkt(Some(CapHeader::regular_with_caps(
            FlowNonce::new(0),
            dummy_grant(),
            vec![mark],
        )));
        assert_eq!(r.process(&mut d, now), SiffVerdict::Data);
    }

    #[test]
    fn wrong_mark_usually_drops_but_2_bits_forge_at_quarter_rate() {
        // The TVA paper's critique: 2-bit marks are brute-forceable. Of the
        // four possible marks exactly one verifies.
        let mut r = SiffRouter::new(SiffConfig {
            accept_previous: false,
            ..SiffConfig::default()
        });
        let now = SimTime::from_secs(1);
        let mut passed = 0;
        for guess in 0..4u64 {
            let mut d = pkt(Some(CapHeader::regular_with_caps(
                FlowNonce::new(0),
                dummy_grant(),
                vec![CapValue::new(0, guess)],
            )));
            if r.process(&mut d, now) == SiffVerdict::Data {
                passed += 1;
            }
        }
        assert_eq!(passed, 1, "exactly one of four guesses forges a router");
    }

    #[test]
    fn marks_expire_on_key_rotation() {
        let cfg = SiffConfig {
            key_rotation: tva_sim::SimDuration::from_secs(3),
            accept_previous: false,
            ..SiffConfig::default()
        };
        let mut r = SiffRouter::new(cfg);
        let t0 = SimTime::from_secs(1);
        let mut p = pkt(Some(CapHeader::request()));
        r.process(&mut p, t0);
        let CapPayload::Request { entries } = &p.cap.as_ref().unwrap().payload else {
            panic!()
        };
        let mark = entries[0].precap;
        let mut mk = |now| {
            let mut d = pkt(Some(CapHeader::regular_with_caps(
                FlowNonce::new(0),
                dummy_grant(),
                vec![mark],
            )));
            r.process(&mut d, now)
        };
        assert_eq!(mk(SimTime::from_secs(2)), SiffVerdict::Data, "same generation");
        // After the 3 s key change, the mark *may* still collide (2-bit
        // marks pass 1 time in 4 by chance); scan many generations and
        // require roughly the expected 3-in-4 failure rate (deterministic
        // for this seed).
        let mut failures = 0;
        for g in 1..33u64 {
            if mk(SimTime::from_secs(1 + g * 3)) == SiffVerdict::Drop {
                failures += 1;
            }
        }
        assert!(
            (16..=32).contains(&failures),
            "stale marks should fail ≈3/4 of the time, got {failures}/32 failures"
        );
    }

    #[test]
    fn accept_previous_extends_validity_one_generation() {
        let cfg = SiffConfig {
            key_rotation: tva_sim::SimDuration::from_secs(3),
            accept_previous: true,
            ..SiffConfig::default()
        };
        let mut r = SiffRouter::new(cfg);
        let t0 = SimTime::from_secs(1);
        let mut p = pkt(Some(CapHeader::request()));
        r.process(&mut p, t0);
        let CapPayload::Request { entries } = &p.cap.as_ref().unwrap().payload else {
            panic!()
        };
        let mark = entries[0].precap;
        let mut d = pkt(Some(CapHeader::regular_with_caps(
            FlowNonce::new(0),
            dummy_grant(),
            vec![mark],
        )));
        // t=4s is generation 1; the generation-0 mark still validates.
        assert_eq!(r.process(&mut d, SimTime::from_secs(4)), SiffVerdict::Data);
    }

    #[test]
    fn nonce_only_packets_drop() {
        // SIFF has no router cache: packets must always carry marks.
        let mut r = SiffRouter::new(SiffConfig::default());
        let mut d = pkt(Some(CapHeader::regular_nonce_only(FlowNonce::new(1))));
        assert_eq!(r.process(&mut d, SimTime::from_secs(1)), SiffVerdict::Drop);
    }

    #[test]
    fn no_byte_limit_unlimited_use() {
        // The same marks forward unlimited traffic — the flaw Figure 11
        // exploits.
        let mut r = SiffRouter::new(SiffConfig::default());
        let now = SimTime::from_secs(1);
        let mut p = pkt(Some(CapHeader::request()));
        r.process(&mut p, now);
        let CapPayload::Request { entries } = &p.cap.as_ref().unwrap().payload else {
            panic!()
        };
        let mark = entries[0].precap;
        for _ in 0..10_000 {
            let mut d = pkt(Some(CapHeader::regular_with_caps(
                FlowNonce::new(0),
                dummy_grant(),
                vec![mark],
            )));
            assert_eq!(r.process(&mut d, now), SiffVerdict::Data);
        }
    }
}
