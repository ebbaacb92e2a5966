//! # tva-bench
//!
//! The Table 1 / Figure 12 measurement substrate: crafted packets of every
//! type the paper's §6 micro-benchmarks exercise, driven straight through
//! the real [`tva_core::TvaRouter`] pipeline (the same code the simulations
//! run), behind the `table1` / `fig12` binaries; plus the simulator
//! workloads ([`dumbbell`], [`scale`]) and the allocation / RSS probes
//! ([`alloc`]) that the repo benchmark (`bash benchmark/run.sh`,
//! `BENCHMARK.json`) builds against.
//!
//! The paper measured a Linux 2.6.8 netfilter module on a 3.2 GHz Xeon with
//! a kernel packet generator; we measure the identical pipeline in-process
//! (see DESIGN.md §1). Absolute nanoseconds differ; the *ordering and
//! ratios* between packet types — the basis of the paper's "gigabit on
//! commodity hardware" argument — are what the harness checks.

// `alloc-count` needs one `unsafe impl GlobalAlloc` (in `alloc::counting`);
// everything else stays unsafe-free, enforced crate-wide in the default
// build and by `deny` outside that module when the feature is on.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-count", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc;
pub mod dumbbell;
pub mod scale;

use tva_core::{capability, RouterConfig, TvaRouter, Verdict};
use tva_sim::{ChannelId, SimDuration, SimTime};
use tva_wire::{Addr, CapHeader, CapValue, FlowNonce, Grant, Packet, PacketId};

/// The five capability packet types of Table 1, plus plain IP forwarding as
/// the baseline the paper compares against in Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PktType {
    /// Legacy IP packet (no capability processing).
    LegacyIp,
    /// Request packet (one pre-capability hash).
    Request,
    /// Regular packet with a cached entry (nonce fast path).
    RegularCached,
    /// Regular packet without a cached entry (two hash validations).
    RegularUncached,
    /// Renewal packet with a cached entry (nonce match + one fresh
    /// pre-capability hash).
    RenewalCached,
    /// Renewal packet without a cached entry (two validations + one fresh
    /// pre-capability hash — the most expensive type).
    RenewalUncached,
}

impl PktType {
    /// All six, in Table 1's presentation order (legacy baseline first).
    pub const ALL: [PktType; 6] = [
        PktType::LegacyIp,
        PktType::Request,
        PktType::RegularCached,
        PktType::RegularUncached,
        PktType::RenewalCached,
        PktType::RenewalUncached,
    ];

    /// Display name matching the paper's rows.
    pub fn name(self) -> &'static str {
        match self {
            PktType::LegacyIp => "legacy IP",
            PktType::Request => "request",
            PktType::RegularCached => "regular w/ entry",
            PktType::RegularUncached => "regular w/o entry",
            PktType::RenewalCached => "renewal w/ entry",
            PktType::RenewalUncached => "renewal w/o entry",
        }
    }

    /// Short machine-friendly key for TSV output.
    pub fn key(self) -> &'static str {
        match self {
            PktType::LegacyIp => "legacy",
            PktType::Request => "request",
            PktType::RegularCached => "regular_cached",
            PktType::RegularUncached => "regular_uncached",
            PktType::RenewalCached => "renewal_cached",
            PktType::RenewalUncached => "renewal_uncached",
        }
    }
}

/// How far the rig's clock advances per [`Rig::measure`] batch: far past
/// the few-millisecond ttl one bench packet earns its entry, so every entry
/// of an earlier batch is reclaimable, and a whole second, so each batch
/// mints capabilities with a fresh timestamp.
const BATCH_STEP: SimDuration = SimDuration::from_secs(1);
/// Packets built, then timed, per [`Rig::measure`] batch.
const BATCH: usize = 4096;

const DST: Addr = Addr::new(10, 0, 0, 1);
const INGRESS: ChannelId = ChannelId(1);

/// A self-contained measurement rig: a router plus generators that produce
/// valid packets of each type.
pub struct Rig {
    /// The router under test.
    pub router: TvaRouter,
    /// The processing clock, advanced once per measurement batch.
    now: SimTime,
    grant: Grant,
    /// Sources cycled by the uncached generators.
    src_pool: u32,
    next_src: u32,
    /// The single warmed flow used by the cached generators.
    warm_src: Addr,
    warm_nonce: FlowNonce,
    warm_caps: Vec<CapValue>,
}

impl Rig {
    /// Builds a rig with a bounded flow table (`max_entries`), cycling
    /// `src_pool` distinct sources for the uncached paths, and warms one
    /// flow for the cached paths.
    ///
    /// The table starts full of expired entries and the pool is at least
    /// twice the table, so a source has long been reclaimed when it comes
    /// round again: every uncached packet finds no entry, and its create
    /// reclaims an expired one — the steady state of a router whose table
    /// is sized to its link (a measurement batch must fit the table for
    /// that, or its tail finds only live entries to reclaim).
    pub fn new(max_entries: usize, src_pool: u32) -> Self {
        assert!(src_pool as usize >= 2 * max_entries, "a source recurs while still cached");
        let cfg = RouterConfig {
            max_flow_entries: Some(max_entries),
            secret_seed: 0xBEEF,
            ..RouterConfig::default()
        };
        let router = TvaRouter::new(cfg, 1_000_000_000);
        let grant = Grant::from_parts(1023, 63);
        let warm_src = Addr::new(172, 16, 0, 1);
        let warm_nonce = FlowNonce::new(0xFACE);
        let mut rig = Rig {
            router,
            now: SimTime::from_secs(100),
            grant,
            src_pool,
            next_src: 0,
            warm_src,
            warm_nonce,
            warm_caps: Vec::new(),
        };
        for _ in 0..max_entries {
            let mut pkt = rig.make(PktType::RegularUncached);
            rig.process(PktType::RegularUncached, &mut pkt);
        }
        rig.now += BATCH_STEP;
        rig.rewarm();
        rig
    }

    /// (Re-)installs a warm flow cache entry with a fresh byte budget.
    /// Call between measurement batches so the cached fast path never trips
    /// the budget check into the demotion path.
    ///
    /// The warm *source address* rotates every rewarm: capabilities are
    /// deterministic per (src, dst, second, secret) and byte budgets are
    /// charged against the capability value, so within one clock second a
    /// fixed source could never obtain a fresh budget. A fresh source
    /// yields a genuinely new capability (and a new nonce keeps the
    /// replace path exercised).
    pub fn rewarm(&mut self) {
        let next = self.warm_src.to_u32().wrapping_add(1) | 0xAC00_0000;
        self.warm_src = Addr(next);
        self.warm_nonce = FlowNonce::new(self.warm_nonce.to_u64().wrapping_add(1));
        self.warm_caps = vec![capability::mint_cap(
            capability::mint_precap(
                self.router.schedule(),
                self.now.as_secs(),
                self.warm_src,
                DST,
            ),
            self.grant,
        )];
        let mut pkt = Packet {
            id: PacketId(0),
            src: self.warm_src,
            dst: DST,
            cap: Some(CapHeader::regular_with_caps(
                self.warm_nonce,
                self.grant,
                self.warm_caps.clone(),
            )),
            tcp: None,
            payload_len: 0,
        };
        let v = self.router.process(&mut pkt, INGRESS, self.now);
        assert_eq!(v, Verdict::Regular, "warm flow must validate");
    }

    fn next_uncached(&mut self) -> Addr {
        let s = self.next_src;
        self.next_src = (self.next_src + 1) % self.src_pool;
        Addr::new(192, ((s >> 16) & 0xff) as u8, ((s >> 8) & 0xff) as u8, (s & 0xff) as u8)
    }

    /// Builds a measurement packet of type `t`, valid for this router.
    pub fn make(&mut self, t: PktType) -> Packet {
        let (src, cap) = match t {
            PktType::LegacyIp => (self.warm_src, None),
            PktType::Request => (self.warm_src, Some(CapHeader::request())),
            PktType::RegularCached => {
                (self.warm_src, Some(CapHeader::regular_nonce_only(self.warm_nonce)))
            }
            PktType::RenewalCached => (
                self.warm_src,
                Some(CapHeader::renewal(self.warm_nonce, self.grant, self.warm_caps.clone())),
            ),
            PktType::RegularUncached | PktType::RenewalUncached => {
                let src = self.next_uncached();
                let cap = capability::mint_cap(
                    capability::mint_precap(
                        self.router.schedule(),
                        self.now.as_secs(),
                        src,
                        DST,
                    ),
                    self.grant,
                );
                let nonce = FlowNonce::new(src.to_u32() as u64);
                let header = if t == PktType::RenewalUncached {
                    CapHeader::renewal(nonce, self.grant, vec![cap])
                } else {
                    CapHeader::regular_with_caps(nonce, self.grant, vec![cap])
                };
                (src, Some(header))
            }
        };
        Packet { id: PacketId(0), src, dst: DST, cap, tcp: None, payload_len: 0 }
    }

    /// Processes one packet, asserting (in debug builds) the expected
    /// verdict for its type.
    pub fn process(&mut self, t: PktType, pkt: &mut Packet) -> Verdict {
        let v = self.router.process(pkt, INGRESS, self.now);
        debug_assert_eq!(
            v,
            match t {
                PktType::LegacyIp => Verdict::Legacy,
                PktType::Request => Verdict::Request,
                _ => Verdict::Regular,
            },
            "unexpected verdict for {t:?}"
        );
        v
    }

    /// Measures mean per-packet processing time for `t` over `n` packets
    /// (packet construction excluded from the timed section), returning
    /// seconds per packet. The `table1`/`fig12` binaries use this.
    pub fn measure(&mut self, t: PktType, n: usize) -> f64 {
        let batch = BATCH.min(n.max(1));
        let mut total = std::time::Duration::ZERO;
        let mut done = 0;
        while done < n {
            let take = batch.min(n - done);
            // Rewarm FIRST: it rotates the warm nonce, and the packets must
            // carry the nonce the router's entry now holds.
            self.now += BATCH_STEP;
            self.rewarm();
            let mut pkts: Vec<Packet> = (0..take).map(|_| self.make(t)).collect();
            let start = std::time::Instant::now();
            for p in &mut pkts {
                self.process(t, p);
            }
            total += start.elapsed();
            done += take;
        }
        total.as_secs_f64() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_takes_its_expected_path() {
        let mut rig = Rig::new(65_536, 262_144);
        for t in PktType::ALL {
            let mut p = rig.make(t);
            rig.process(t, &mut p);
        }
        let s = &rig.router.stats;
        assert_eq!(s.legacy, 1);
        assert_eq!(s.requests_stamped, 1);
        assert!(s.nonce_hits >= 2, "cached regular + cached renewal hit the fast path");
        // Warm-up + the two uncached types.
        assert!(s.full_validations >= 3);
        assert_eq!(s.demotions, 0, "bench packets must never demote");
    }

    #[test]
    fn uncached_sources_cycle_without_demotion() {
        // More packets than the pool holds sources, so sources recur: each
        // measured packet must still find no entry (a full validation,
        // never a nonce hit) and reclaim an expired one for its own.
        let (mut rig, n) = (Rig::new(8_192, 32_768), 40_000);
        for t in [PktType::RegularUncached, PktType::RenewalUncached] {
            let (before, reclaims) = (rig.router.stats.clone(), rig.router.table().reclaims);
            rig.measure(t, n);
            let (after, batches) = (&rig.router.stats, n.div_ceil(BATCH) as u64);
            // Each batch's rewarm is one more validation and reclaim.
            assert_eq!(after.full_validations - before.full_validations, n as u64 + batches);
            assert_eq!(rig.router.table().reclaims - reclaims, n as u64 + batches, "{t:?}");
            assert_eq!(after.nonce_hits, before.nonce_hits, "{t:?} found a cached entry");
            assert_eq!(after.table_admission_failures, 0, "{t:?} found no expired entry");
            assert_eq!(after.demotions, 0, "{t:?}");
        }
    }

    #[test]
    fn measure_returns_sane_times() {
        let mut rig = Rig::new(65_536, 262_144);
        let fast = rig.measure(PktType::RegularCached, 20_000);
        let slow = rig.measure(PktType::RenewalUncached, 20_000);
        assert!(fast > 0.0 && slow > 0.0);
        assert!(
            slow > fast,
            "renewal w/o entry ({slow}) must cost more than regular w/ entry ({fast})"
        );
    }
}
