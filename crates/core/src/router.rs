//! The TVA capability router (Figure 6, §4.3).
//!
//! For every packet the router either:
//!
//! * forwards it untouched (legacy traffic, lowest priority),
//! * stamps it (requests: append a pre-capability, and a path-identifier
//!   tag at trust boundaries),
//! * validates it (regular packets: nonce fast path against the flow cache,
//!   or the two-hash slow path for packets carrying capabilities, with byte
//!   budget and expiry checks), or
//! * demotes it (anything that fails validation — demoted packets travel at
//!   legacy priority rather than being dropped, §3.8).
//!
//! Class-based scheduling happens at the egress queue
//! ([`crate::scheduler::TvaScheduler`]), which reads the decisions this
//! pipeline has written into the capability header.

use std::any::Any;

use tva_crypto::{siphash24, SecretSchedule, SipKey};
use tva_obs::{FlowClass, FlowSampler, FlowVerdict};
use tva_sim::{ChannelId, Ctx, Node, SimTime};
use tva_wire::{CapPayload, DetHashMap, Packet, PathId, RequestEntry};

use crate::capability::{expired, mint_precap, validate_cap};
use crate::config::RouterConfig;
use crate::flowtable::{Charge, FlowTable};

/// Router counters, mostly mirroring the packet types of Table 1.
#[derive(Debug, Default, Clone)]
pub struct RouterStats {
    /// Request packets stamped with a pre-capability.
    pub requests_stamped: u64,
    /// Regular packets whose nonce matched a cache entry (fast path).
    pub nonce_hits: u64,
    /// Regular packets fully validated with the two-hash slow path.
    pub full_validations: u64,
    /// Renewal packets that received a fresh pre-capability.
    pub renewals: u64,
    /// Packets demoted to legacy priority.
    pub demotions: u64,
    /// Demotions: cached entry hit but the capability's T had elapsed.
    pub demoted_expired: u64,
    /// Demotions: cached entry hit but the byte budget N was exceeded.
    pub demoted_over_budget: u64,
    /// Demotions: nonce mismatch (or no entry) and no capability list to
    /// validate — e.g. stragglers sent under a superseded nonce.
    pub demoted_no_caps: u64,
    /// Demotions: a capability list was present but failed validation.
    pub demoted_bad_cap: u64,
    /// Bytes admitted as validated regular traffic.
    pub regular_bytes: u64,
    /// Legacy packets forwarded unchanged.
    pub legacy: u64,
    /// Valid packets refused state because the flow table was full of live
    /// entries (counted as demotions too).
    pub table_admission_failures: u64,
    /// Arriving datagrams that failed wire decoding (truncated or
    /// bit-flipped beyond recognition) and were dropped at ingress.
    pub malformed_drops: u64,
}

impl RouterStats {
    /// Fraction of accepted regular-path packets that hit the nonce cache
    /// instead of needing the two-hash slow path — the Table 1
    /// fast/slow-path split as a single rate. `None` when no regular-path
    /// packet has been accepted: the ratio is 0/0 then, and reporting a
    /// fabricated number for an idle router (0.0 reads as "every packet
    /// took the slow path") misleads every consumer that averages or
    /// alerts on the gauge.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.nonce_hits + self.full_validations;
        if total == 0 {
            None
        } else {
            Some(self.nonce_hits as f64 / total as f64)
        }
    }
}

impl tva_obs::Observe for RouterStats {
    fn observe(&self, prefix: &str, reg: &mut tva_obs::Registry) {
        let mut set = |name: &str, v: u64| {
            let id = reg.counter(&format!("{prefix}.{name}"));
            reg.set_counter(id, v);
        };
        set("requests_stamped", self.requests_stamped);
        set("nonce_hits", self.nonce_hits);
        set("full_validations", self.full_validations);
        set("renewals", self.renewals);
        set("demotions", self.demotions);
        set("demoted_expired", self.demoted_expired);
        set("demoted_over_budget", self.demoted_over_budget);
        set("demoted_no_caps", self.demoted_no_caps);
        set("demoted_bad_cap", self.demoted_bad_cap);
        set("regular_bytes", self.regular_bytes);
        set("legacy", self.legacy);
        set("table_admission_failures", self.table_admission_failures);
        set("malformed_drops", self.malformed_drops);
        // The gauge is simply absent until the first regular-path packet:
        // snapshots must not carry a made-up rate for an idle router.
        if let Some(rate) = self.cache_hit_rate() {
            let g = reg.gauge(&format!("{prefix}.cache_hit_rate"));
            reg.set(g, rate);
        }
    }
}

/// The result of processing one packet (exposed for the benchmarks, which
/// drive [`TvaRouter::process`] directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward as a request.
    Request,
    /// Forward as validated regular traffic.
    Regular,
    /// Forward at legacy priority (legacy or demoted).
    Legacy,
}

/// The router's packet-processing state, separate from the [`Node`] wrapper
/// so benchmarks can drive it without a simulator.
pub struct TvaRouter {
    cfg: RouterConfig,
    schedule: SecretSchedule,
    table: FlowTable,
    /// Cached path-identifier tags per ingress interface. Tag *values* come
    /// from [`siphash24`] over the interface id (stable by construction);
    /// the deterministic map seed only makes the cache itself cheap and
    /// process-independent.
    tags: DetHashMap<ChannelId, PathId>,
    /// Counters.
    pub stats: RouterStats,
    /// Sampled flow records (one branch per packet when disabled). Keyed
    /// off `RouterConfig::flow_sample_n` / `flow_sample_seed`.
    pub flow: FlowSampler,
}

impl TvaRouter {
    /// Creates a router whose flow table is sized for `link_bps` (the
    /// capacity of its fastest input line, per §3.6).
    pub fn new(cfg: RouterConfig, link_bps: u64) -> Self {
        let bound = cfg.flow_table_bound(link_bps);
        let schedule = SecretSchedule::from_seed(cfg.secret_seed);
        let flow = FlowSampler::new(cfg.flow_sample_n, cfg.flow_sample_seed);
        let table = FlowTable::new(bound);
        TvaRouter {
            cfg,
            schedule,
            table,
            tags: DetHashMap::default(),
            stats: RouterStats::default(),
            flow,
        }
    }

    /// The path-identifier tag for an ingress interface: a pseudo-random
    /// 16-bit value derived from the interface, stable for the router's
    /// lifetime, never [`PathId::NONE`] (§3.2).
    pub fn tag_for(&mut self, ingress: ChannelId) -> PathId {
        let seed = self.cfg.secret_seed;
        *self.tags.entry(ingress).or_insert_with(|| {
            let h =
                siphash24(SipKey::from_halves(seed, !seed), &(ingress.0 as u64).to_be_bytes());
            let tag = (h & 0xFFFF) as u16;
            PathId(if tag == 0 { 1 } else { tag })
        })
    }

    /// Processes one packet in place, returning how it should be forwarded.
    /// This is the exact pipeline of Figure 6.
    pub fn process(&mut self, pkt: &mut Packet, ingress: ChannelId, now: SimTime) -> Verdict {
        let now_secs = now.as_secs();
        // Between rotations this is one comparison; the stamp, validate and
        // renewal paths below then derive no key.
        self.schedule.refresh(now_secs);
        let (src, dst) = (pkt.src, pkt.dst);
        let flow = pkt.flow();
        let len = pkt.wire_len();
        // One hash (one branch when sampling is off), computed once so every
        // verdict point below records the same 1-in-N selection.
        let pkt_id = pkt.id.0;
        let sampled = self.flow.picks(pkt_id);

        let Some(cap) = pkt.cap.as_mut() else {
            self.stats.legacy += 1;
            if sampled {
                self.flow.record(pkt_id, src, PathId::NONE, FlowClass::Legacy, FlowVerdict::Legacy, len);
            }
            return Verdict::Legacy;
        };
        if cap.demoted {
            // Already demoted upstream; nothing more to check.
            self.stats.legacy += 1;
            if sampled {
                self.flow.record(
                    pkt_id,
                    src,
                    PathId::NONE,
                    FlowClass::Legacy,
                    FlowVerdict::DemotedUpstream,
                    len,
                );
            }
            return Verdict::Legacy;
        }

        match &mut cap.payload {
            CapPayload::Request { entries } => {
                if entries.len() >= tva_wire::MAX_PATH_ROUTERS {
                    // No room to stamp: without our pre-capability the
                    // request is useless downstream; demote it.
                    cap.demoted = true;
                    self.stats.demotions += 1;
                    if sampled {
                        self.flow.record(
                            pkt_id,
                            src,
                            PathId::NONE,
                            FlowClass::Request,
                            FlowVerdict::DemotedStampRoom,
                            len,
                        );
                    }
                    return Verdict::Legacy;
                }
                let path_id = if self.cfg.trust_boundary {
                    self.tag_for(ingress)
                } else {
                    PathId::NONE
                };
                let precap = mint_precap(&self.schedule, now_secs, src, dst);
                entries.push(RequestEntry { path_id, precap });
                self.stats.requests_stamped += 1;
                if sampled {
                    self.flow.record(
                        pkt_id,
                        src,
                        path_id,
                        FlowClass::Request,
                        FlowVerdict::Stamped,
                        len,
                    );
                }
                Verdict::Request
            }
            CapPayload::Regular { nonce, ptr, caps, renewal } => {
                let mut fverdict = FlowVerdict::Validated;
                let is_valid = match self.table.get(flow) {
                    Some(entry) if entry.nonce == *nonce => {
                        // Fast path: nonce match. Check expiry and budget,
                        // then charge.
                        if expired(now_secs, entry.cap.timestamp(), entry.grant) {
                            self.stats.demoted_expired += 1;
                            fverdict = FlowVerdict::DemotedExpired;
                            false
                        } else {
                            let ok = self.table.charge(flow, len, now) == Charge::Ok;
                            if ok {
                                self.stats.nonce_hits += 1;
                                fverdict = FlowVerdict::NonceHit;
                            } else {
                                self.stats.demoted_over_budget += 1;
                                fverdict = FlowVerdict::DemotedOverBudget;
                            }
                            ok
                        }
                    }
                    _ => {
                        // Slow path: full validation of the capability at
                        // our position, then create (or replace) the entry.
                        match caps {
                            Some((grant, list)) => {
                                let idx = *ptr as usize;
                                let grant = *grant;
                                let valid = list.get(idx).copied().is_some_and(|cv| {
                                    validate_cap(
                                        &self.schedule,
                                        now_secs,
                                        src,
                                        dst,
                                        grant,
                                        cv,
                                        self.cfg.min_rate_bytes_per_sec,
                                    )
                                    .is_ok()
                                });
                                if valid {
                                    self.stats.full_validations += 1;
                                    let cv = list[idx];
                                    let created =
                                        self.table.create(flow, cv, *nonce, grant, len, now);
                                    if !created {
                                        self.stats.table_admission_failures += 1;
                                    }
                                    // Per Figure 6 the packet is valid once
                                    // its capability checks; a full table
                                    // (can't happen when (N/T)min is
                                    // enforced and the table is sized to
                                    // C/(N/T)min) costs the flow its state,
                                    // not its authorization.
                                    true
                                } else {
                                    self.stats.demoted_bad_cap += 1;
                                    fverdict = FlowVerdict::DemotedBadCap;
                                    false
                                }
                            }
                            None => {
                                // Nonce-only with no (matching) cached entry
                                // (e.g. stragglers sent under a superseded
                                // nonce).
                                self.stats.demoted_no_caps += 1;
                                fverdict = FlowVerdict::DemotedNoCaps;
                                false
                            }
                        }
                    }
                };

                if !is_valid {
                    cap.demoted = true;
                    self.stats.demotions += 1;
                    if sampled {
                        self.flow.record(pkt_id, src, PathId::NONE, FlowClass::Regular, fverdict, len);
                    }
                    return Verdict::Legacy;
                }

                // Renewal: mint a fresh pre-capability into our slot so the
                // destination can issue new capabilities (§4.3).
                if *renewal {
                    if let Some((_, list)) = caps {
                        let idx = *ptr as usize;
                        if idx < list.len() {
                            list[idx] = mint_precap(&self.schedule, now_secs, src, dst);
                            self.stats.renewals += 1;
                            if fverdict == FlowVerdict::Validated {
                                fverdict = FlowVerdict::Renewed;
                            }
                        }
                    }
                }
                // Advance the pointer so the next router reads its own slot.
                if caps.is_some() {
                    *ptr = ptr.saturating_add(1);
                }
                self.stats.regular_bytes += len as u64;
                if sampled {
                    self.flow.record(pkt_id, src, PathId::NONE, FlowClass::Regular, fverdict, len);
                }
                Verdict::Regular
            }
        }
    }

    /// Direct access to the flow table (tests, benches, inspection).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Simulates a router restart (§3.8): all cached flow state is lost and
    /// the router derives a fresh secret lineage, so previously issued
    /// pre-capabilities and capabilities no longer validate here. In-flight
    /// authorized traffic will be demoted (not dropped) until senders
    /// re-acquire capabilities via the demotion-echo path.
    pub fn restart(&mut self, new_secret_seed: u64) {
        self.table = FlowTable::new(self.table.capacity());
        self.cfg.secret_seed = new_secret_seed;
        self.schedule = SecretSchedule::from_seed(new_secret_seed);
        self.tags.clear();
    }

    /// The router's secret schedule (needed by test helpers that mint
    /// matching capabilities).
    pub fn schedule(&self) -> &SecretSchedule {
        &self.schedule
    }
}

/// The [`Node`] wrapper: processes and forwards by destination routing.
pub struct TvaRouterNode {
    /// The packet-processing pipeline.
    pub router: TvaRouter,
}

impl TvaRouterNode {
    /// Creates a router node.
    pub fn new(cfg: RouterConfig, link_bps: u64) -> Self {
        TvaRouterNode { router: TvaRouter::new(cfg, link_bps) }
    }
}

impl Node for TvaRouterNode {
    fn on_packet(&mut self, mut pkt: tva_sim::Pkt, from: ChannelId, ctx: &mut dyn Ctx) {
        self.router.process(&mut pkt, from, ctx.now());
        ctx.send(pkt);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}

    fn on_malformed(
        &mut self,
        _error: tva_wire::WireError,
        _from: ChannelId,
        _ctx: &mut dyn Ctx,
    ) {
        // Unparseable ingress is dropped and accounted, never forwarded
        // and never a panic: garbage on the wire must cost the router
        // nothing but this counter.
        self.router.stats.malformed_drops += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::mint_cap;
    use tva_wire::{Addr, CapHeader, CapValue, FlowNonce, Grant, PacketId};

    const SRC: Addr = Addr::new(1, 0, 0, 1);
    const DST: Addr = Addr::new(2, 0, 0, 2);
    const IN: ChannelId = ChannelId(3);

    fn router() -> TvaRouter {
        TvaRouter::new(RouterConfig::default(), 10_000_000)
    }

    fn pkt(cap: Option<CapHeader>, payload: u32) -> Packet {
        Packet { id: PacketId(0), src: SRC, dst: DST, cap, tcp: None, payload_len: payload }
    }

    /// Mints the capability this router would accept for (SRC → DST).
    fn good_cap(r: &TvaRouter, now: SimTime, grant: Grant) -> CapValue {
        mint_cap(mint_precap(r.schedule(), now.as_secs(), SRC, DST), grant)
    }

    #[test]
    fn legacy_passes_as_legacy() {
        let mut r = router();
        let mut p = pkt(None, 100);
        assert_eq!(r.process(&mut p, IN, SimTime::ZERO), Verdict::Legacy);
        assert_eq!(r.stats.legacy, 1);
    }

    #[test]
    fn request_gets_stamped_and_tagged() {
        let mut r = router();
        let mut p = pkt(Some(CapHeader::request()), 0);
        assert_eq!(r.process(&mut p, IN, SimTime::from_secs(5)), Verdict::Request);
        let h = p.cap.unwrap();
        let CapPayload::Request { entries } = &h.payload else { panic!() };
        assert_eq!(entries.len(), 1);
        assert!(entries[0].path_id.is_tagged(), "trust boundary tags");
        // The pre-capability validates at this router.
        assert!(crate::capability::validate_precap(
            r.schedule(),
            5,
            SRC,
            DST,
            entries[0].precap
        ));
    }

    #[test]
    fn non_boundary_router_does_not_tag() {
        let cfg = RouterConfig { trust_boundary: false, ..Default::default() };
        let mut r = TvaRouter::new(cfg, 10_000_000);
        let mut p = pkt(Some(CapHeader::request()), 0);
        r.process(&mut p, IN, SimTime::ZERO);
        let CapPayload::Request { entries } = &p.cap.unwrap().payload else { panic!() };
        assert_eq!(entries[0].path_id, PathId::NONE);
    }

    #[test]
    fn tags_are_stable_and_distinct_per_interface() {
        let mut r = router();
        let a = r.tag_for(ChannelId(1));
        let b = r.tag_for(ChannelId(2));
        assert_ne!(a, b);
        assert_eq!(r.tag_for(ChannelId(1)), a);
    }

    #[test]
    fn valid_caps_create_state_then_nonce_fast_path() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, now, grant);
        let nonce = FlowNonce::new(777);

        let mut p1 = pkt(Some(CapHeader::regular_with_caps(nonce, grant, vec![cv])), 1000);
        assert_eq!(r.process(&mut p1, IN, now), Verdict::Regular);
        assert_eq!(r.stats.full_validations, 1);
        // The pointer advanced for the next router.
        let CapPayload::Regular { ptr, .. } = p1.cap.unwrap().payload else { panic!() };
        assert_eq!(ptr, 1);

        // Second packet: nonce only.
        let mut p2 = pkt(Some(CapHeader::regular_nonce_only(nonce)), 1000);
        assert_eq!(r.process(&mut p2, IN, now), Verdict::Regular);
        assert_eq!(r.stats.nonce_hits, 1);
        assert!(!p2.is_demoted());
    }

    #[test]
    fn wrong_nonce_without_caps_is_demoted() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, now, grant);
        let nonce = FlowNonce::new(777);
        let mut p1 = pkt(Some(CapHeader::regular_with_caps(nonce, grant, vec![cv])), 1000);
        r.process(&mut p1, IN, now);
        // Spoofer guesses a different nonce.
        let mut p2 = pkt(Some(CapHeader::regular_nonce_only(FlowNonce::new(778))), 1000);
        assert_eq!(r.process(&mut p2, IN, now), Verdict::Legacy);
        assert!(p2.is_demoted());
    }

    #[test]
    fn forged_capability_is_demoted() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let forged = CapValue::new(r.schedule().timestamp(now.as_secs()), 0xDEAD_BEEF);
        let mut p =
            pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(1), grant, vec![forged])), 1000);
        assert_eq!(r.process(&mut p, IN, now), Verdict::Legacy);
        assert!(p.is_demoted());
        assert!(r.table().is_empty(), "no state for invalid packets");
    }

    #[test]
    fn byte_budget_enforced_at_router() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(4, 10); // 4 KB budget
        let cv = good_cap(&r, now, grant);
        let nonce = FlowNonce::new(9);
        let mut p = pkt(Some(CapHeader::regular_with_caps(nonce, grant, vec![cv])), 1000);
        assert_eq!(r.process(&mut p, IN, now), Verdict::Regular);
        let mut sent = p.wire_len() as u64;
        // Nonce-only packets flow until the 4 KB budget runs out.
        let mut demoted_at = None;
        for i in 0..10 {
            let mut p = pkt(Some(CapHeader::regular_nonce_only(nonce)), 1000);
            let v = r.process(&mut p, IN, now);
            if v == Verdict::Legacy {
                demoted_at = Some(i);
                break;
            }
            sent += p.wire_len() as u64;
        }
        assert!(demoted_at.is_some(), "budget must eventually trip");
        assert!(sent <= grant.n.bytes(), "sent {sent} > N={}", grant.n.bytes());
    }

    #[test]
    fn expired_capability_is_demoted_even_with_state() {
        let mut r = router();
        let t0 = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, t0, grant);
        let nonce = FlowNonce::new(5);
        let mut p = pkt(Some(CapHeader::regular_with_caps(nonce, grant, vec![cv])), 500);
        assert_eq!(r.process(&mut p, IN, t0), Verdict::Regular);
        // 11 seconds later, T=10 has elapsed.
        let late = SimTime::from_secs(21);
        let mut p2 = pkt(Some(CapHeader::regular_nonce_only(nonce)), 500);
        assert_eq!(r.process(&mut p2, IN, late), Verdict::Legacy);
    }

    #[test]
    fn renewal_replaces_slot_with_fresh_precap() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, now, grant);
        let nonce = FlowNonce::new(5);
        let mut p = pkt(Some(CapHeader::renewal(nonce, grant, vec![cv])), 500);
        assert_eq!(r.process(&mut p, IN, now), Verdict::Regular);
        assert_eq!(r.stats.renewals, 1);
        let CapPayload::Regular { caps, ptr, .. } = p.cap.unwrap().payload else { panic!() };
        assert_eq!(ptr, 1);
        let fresh = caps.unwrap().1[0];
        assert_ne!(fresh, cv, "slot rewritten");
        assert!(crate::capability::validate_precap(r.schedule(), 10, SRC, DST, fresh));
    }

    #[test]
    fn capability_for_another_flow_fails_here() {
        // A capability minted for (SRC→DST) used by a different source is
        // rejected: the hash binds the addresses.
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, now, grant);
        let mut p = pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(1), grant, vec![cv])), 100);
        p.src = Addr::new(6, 6, 6, 6); // thief
        assert_eq!(r.process(&mut p, IN, now), Verdict::Legacy);
    }

    #[test]
    fn flow_sampler_records_verdicts_through_the_pipeline() {
        let cfg = RouterConfig { flow_sample_n: 1, ..Default::default() };
        let mut r = TvaRouter::new(cfg, 10_000_000);
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        // Legacy, stamped request, validated regular, demoted (bad cap).
        let mut legacy = pkt(None, 100);
        r.process(&mut legacy, IN, now);
        let mut req = pkt(Some(CapHeader::request()), 0);
        r.process(&mut req, IN, now);
        let cv = good_cap(&r, now, grant);
        let mut ok = pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(1), grant, vec![cv])), 500);
        ok.id = PacketId(1);
        r.process(&mut ok, IN, now);
        let forged = CapValue::new(r.schedule().timestamp(now.as_secs()), 0xBAD);
        let mut bad =
            pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(2), grant, vec![forged])), 500);
        bad.id = PacketId(2);
        r.process(&mut bad, IN, now);

        assert_eq!(r.flow.sampled_packets(), 4, "1-in-1 records every verdict");
        let verdicts: Vec<_> = r.flow.records().map(|(k, _)| k.verdict).collect();
        use tva_obs::FlowVerdict as V;
        assert!(verdicts.contains(&V::Legacy));
        assert!(verdicts.contains(&V::Stamped));
        assert!(verdicts.contains(&V::Validated));
        assert!(verdicts.contains(&V::DemotedBadCap));
        // The stamped request carries the ingress path tag.
        let stamped_key = r.flow.records().map(|(k, _)| *k).find(|k| k.verdict == V::Stamped);
        assert!(stamped_key.unwrap().path_id != 0, "trust boundary tag recorded");
    }

    #[test]
    fn flow_sampler_off_by_default_and_costs_no_state() {
        let mut r = router();
        let mut p = pkt(None, 100);
        r.process(&mut p, IN, SimTime::ZERO);
        assert!(!r.flow.enabled());
        assert!(r.flow.is_empty());
    }

    #[test]
    fn restart_invalidates_everything_but_recovers_via_requests() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, now, grant);
        let nonce = FlowNonce::new(777);
        let mut p = pkt(Some(CapHeader::regular_with_caps(nonce, grant, vec![cv])), 1000);
        assert_eq!(r.process(&mut p, IN, now), Verdict::Regular);

        r.restart(0xD00D);
        assert!(r.table().is_empty(), "cache lost");
        // The old capability no longer validates (different secret) and the
        // nonce has no entry: both demote, neither drops.
        let mut p1 = pkt(Some(CapHeader::regular_with_caps(nonce, grant, vec![cv])), 1000);
        assert_eq!(r.process(&mut p1, IN, now), Verdict::Legacy);
        let mut p2 = pkt(Some(CapHeader::regular_nonce_only(nonce)), 1000);
        assert_eq!(r.process(&mut p2, IN, now), Verdict::Legacy);
        // A fresh request bootstraps against the new secret.
        let mut req = pkt(Some(CapHeader::request()), 0);
        assert_eq!(r.process(&mut req, IN, now), Verdict::Request);
        let CapPayload::Request { entries } = &req.cap.as_ref().unwrap().payload else {
            panic!()
        };
        let cv2 = crate::capability::mint_cap(entries[0].precap, grant);
        let mut p3 = pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(8), grant, vec![cv2])), 500);
        assert_eq!(r.process(&mut p3, IN, now), Verdict::Regular);
    }

    #[test]
    fn restart_discards_the_refreshed_secret_keys() {
        // A router whose schedule holds this generation's keys restarts
        // under a new seed in the same generation: the old keys must not
        // outlive the old secret.
        let mut r = router();
        let now = SimTime::from_secs(300);
        let grant = Grant::from_parts(100, 10);
        let with_cap = |nonce, cap| {
            pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(nonce), grant, vec![cap])), 500)
        };
        let old = good_cap(&r, now, grant);
        assert_eq!(r.process(&mut with_cap(1, old), IN, now), Verdict::Regular);

        r.restart(0xD00D);
        assert_eq!(r.process(&mut with_cap(2, old), IN, now), Verdict::Legacy);
        assert_eq!(r.stats.demoted_bad_cap, 1);
        assert_eq!(
            crate::capability::validate_cap(r.schedule(), 300, SRC, DST, grant, old, 1.0),
            Err(crate::capability::CapError::BadHash),
        );
        let new = good_cap(&r, now, grant);
        assert_eq!(r.process(&mut with_cap(3, new), IN, now), Verdict::Regular);
    }

    #[test]
    fn renewed_caps_replace_entry_and_reset_budget() {
        let mut r = router();
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(4, 10);
        let cv = good_cap(&r, now, grant);
        let n1 = FlowNonce::new(1);
        let mut p = pkt(Some(CapHeader::regular_with_caps(n1, grant, vec![cv])), 1000);
        r.process(&mut p, IN, now);
        for _ in 0..2 {
            let mut p = pkt(Some(CapHeader::regular_nonce_only(n1)), 1000);
            r.process(&mut p, IN, now);
        }
        // New capability (fresh grant) with a new nonce replaces the entry.
        let later = SimTime::from_secs(12);
        let cv2 = good_cap(&r, later, grant);
        let n2 = FlowNonce::new(2);
        let mut p2 = pkt(Some(CapHeader::regular_with_caps(n2, grant, vec![cv2])), 1000);
        assert_eq!(r.process(&mut p2, IN, later), Verdict::Regular);
        let entry = r.table().get(p2.flow()).unwrap();
        assert_eq!(entry.nonce, n2);
        assert_eq!(entry.bytes_used, p2.wire_len() as u64, "budget restarted");
    }

    #[test]
    fn idle_router_snapshot_omits_cache_hit_rate() {
        // Regression: an idle router exported `cache_hit_rate = 0.0` —
        // 0/0 dressed up as "every packet took the slow path". The gauge
        // must be absent from the snapshot until a regular-path packet is
        // accepted, and `cache_hit_rate()` must say None, not fabricate.
        use tva_obs::Observe;
        let mut r = router();
        assert_eq!(r.stats.cache_hit_rate(), None, "0/0 must not be a number");
        let mut reg = tva_obs::Registry::default();
        r.stats.observe("r1", &mut reg);
        let snap = reg.snapshot();
        let serde_json::Value::Object(root) = &snap else { panic!("snapshot is an object") };
        let Some(serde_json::Value::Object(gauges)) = root.get("gauges") else { panic!() };
        assert!(
            gauges.get("r1.cache_hit_rate").is_none(),
            "idle router must not export a fabricated hit rate: {gauges:?}"
        );
        // Counters are still all present (schema is otherwise unchanged).
        let Some(serde_json::Value::Object(counters)) = root.get("counters") else { panic!() };
        assert!(counters.get("r1.nonce_hits").is_some());
        assert!(counters.get("r1.full_validations").is_some());

        // After one accepted regular-path packet the gauge appears, exact.
        let now = SimTime::from_secs(10);
        let grant = Grant::from_parts(100, 10);
        let cv = good_cap(&r, now, grant);
        let mut p =
            pkt(Some(CapHeader::regular_with_caps(FlowNonce::new(7), grant, vec![cv])), 1000);
        assert_eq!(r.process(&mut p, IN, now), Verdict::Regular);
        assert_eq!(r.stats.cache_hit_rate(), Some(0.0), "one full validation, no hits");
        let mut reg = tva_obs::Registry::default();
        r.stats.observe("r1", &mut reg);
        let snap = reg.snapshot();
        let serde_json::Value::Object(root) = &snap else { panic!("snapshot is an object") };
        let Some(serde_json::Value::Object(gauges)) = root.get("gauges") else { panic!() };
        assert!(gauges.get("r1.cache_hit_rate").is_some());
    }
}
