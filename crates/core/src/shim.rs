//! The TVA host layer: a [`Shim`] that attaches and harvests capability
//! headers on every packet a host exchanges (§4.2).
//!
//! One shim instance handles **both roles for every peer**:
//!
//! * **Sender role** — bootstrap with request headers, hold granted
//!   capabilities, model router cache eviction to choose between
//!   full-capability and nonce-only packets (§3.7), renew before the (N, T)
//!   budget runs out, and re-acquire after a demotion notice (§3.8).
//! * **Destination role** — apply a [`GrantPolicy`] to incoming requests and
//!   renewals, convert pre-capabilities into capabilities, piggyback them on
//!   reverse-direction packets (or emit a bare reply when no transport
//!   response will carry them), echo demotion events, and report flooding
//!   sources to the policy for blacklisting.

use tva_sim::{SimDuration, SimTime};
use tva_transport::Shim;
use tva_wire::{
    Addr, CapHeader, CapList, CapPayload, CapValue, DetHashMap, FlowNonce, Grant, Packet,
    PacketId, PathId, ReturnInfo,
};

use crate::capability::mint_cap;
use crate::policy::{GrantPolicy, RequestInfo};

/// Capabilities this host holds for sending to one peer.
#[derive(Debug, Clone)]
pub(crate) struct SendCaps {
    /// One capability per router on the path, in path order.
    pub(crate) caps: CapList,
    /// The authorized budget.
    pub(crate) grant: Grant,
    /// The flow nonce chosen when these capabilities were installed.
    pub(crate) nonce: FlowNonce,
    /// When they were granted.
    pub(crate) acquired: SimTime,
    /// Bytes charged so far (sender-side conservative estimate).
    pub(crate) bytes_sent: u64,
    /// Router cache model: when we believe routers will have evicted our
    /// entry (same `L × T / N` accumulation routers use, §3.7).
    pub(crate) model_ttl_expires: SimTime,
    /// Whether we have sent at least one packet carrying the full list.
    pub(crate) primed: bool,
}

impl SendCaps {
    fn expired(&self, now: SimTime) -> bool {
        now.since(self.acquired) >= SimDuration::from_secs(self.grant.t.secs() as u64)
    }

    fn exhausted_for(&self, len: u32) -> bool {
        self.bytes_sent + len as u64 > self.grant.n.bytes()
    }
}

#[derive(Default)]
struct PeerState {
    send: Option<SendCaps>,
    /// We have an unanswered request out to this peer.
    requested_at: Option<SimTime>,
    /// Return capabilities to piggyback toward this peer (sticky until we
    /// see the peer actually use them).
    pending_return: Option<(Grant, CapList, SimTime)>,
    /// Echo a demotion notice on the next packet toward this peer.
    demote_echo: bool,
    /// Misbehavior estimator: window start, bytes received in it, and
    /// demoted bytes received in it.
    rx_window_start: SimTime,
    rx_window_bytes: u64,
    rx_window_demoted: u64,
}

/// Shim counters.
#[derive(Debug, Default, Clone)]
pub struct ShimStats {
    /// Request headers attached.
    pub(crate) requests_sent: u64,
    /// Demoted packets observed (destination role).
    pub(crate) demoted_seen: u64,
    /// Requests granted (destination role).
    pub granted: u64,
    /// Requests refused (destination role).
    pub(crate) refused: u64,
    /// Misbehavior reports to the policy.
    pub(crate) misbehavior_reports: u64,
}

/// Renew capabilities once this fraction of the byte budget `N` is
/// consumed.
const RENEW_BYTES_FRACTION: f64 = 0.75;
/// Renew capabilities once this fraction of the validity period `T` has
/// elapsed.
const RENEW_TIME_FRACTION: f64 = 0.5;
/// Raw bytes/second a destination tolerates from one sender before
/// treating it as misbehaving (backstop; a wanted bulk transfer can
/// legitimately run fast, so this is set well above any single-TCP rate the
/// testbed paths allow).
const MISBEHAVIOR_BYTES_PER_SEC: f64 = 512.0 * 1024.0;
/// Bytes/second of *demoted* arrivals tolerated from one sender. A sender
/// pushing beyond its authorized budget shows up as demoted traffic — a
/// much sharper flood signal than raw rate (§3.3's "sending unexpected
/// packets or floods"). Legitimate senders only produce a handful of
/// demoted stragglers per capability renewal. Above the ~95 KB/s a single
/// legitimate user can briefly show while its budget renewal is delayed
/// under congestion; a dedicated flooder sustains more.
const MISBEHAVIOR_DEMOTED_BYTES_PER_SEC: f64 = 128.0 * 1024.0;

/// What a shim keeps once it has exchanged a packet: per-peer state, the
/// bare replies waiting for the transport, and the counters.
#[derive(Default)]
struct ShimState {
    peers: DetHashMap<Addr, PeerState>,
    outbox: Vec<Packet>,
    stats: ShimStats,
}

impl ShimState {
    /// The first packet's allocation, kept out of line so every later
    /// access to the state stays one test.
    #[cold]
    #[inline(never)]
    fn build(slot: &mut Option<Box<ShimState>>) -> &mut ShimState {
        slot.insert(Box::default())
    }

    fn peer(&mut self, addr: Addr) -> &mut PeerState {
        self.peers.entry(addr).or_default()
    }
}

/// The TVA host shim.
pub struct TvaHostShim {
    local: Addr,
    policy: Box<dyn GrantPolicy>,
    /// xorshift64 state for nonce generation (deterministic per host).
    rng: u64,
    /// Built on first use: most hosts of a large tree never exchange a
    /// packet, and an idle shim costs one pointer here.
    state: Option<Box<ShimState>>,
}

impl TvaHostShim {
    /// Creates a shim for a host at `local` with the given policy.
    pub fn new(local: Addr, policy: Box<dyn GrantPolicy>) -> Self {
        TvaHostShim { local, policy, rng: (local.to_u32() as u64) << 16 | 0x9E37, state: None }
    }

    /// The counters (all zero until the shim first handles a packet).
    pub fn stats(&self) -> ShimStats {
        self.state.as_ref().map(|s| s.stats.clone()).unwrap_or_default()
    }

    /// The per-peer state, built by the first call.
    fn state(&mut self) -> &mut ShimState {
        match &mut self.state {
            Some(state) => state,
            unbuilt => ShimState::build(unbuilt),
        }
    }

    fn peer(&self, addr: Addr) -> Option<&PeerState> {
        self.state.as_ref()?.peers.get(&addr)
    }

    fn fresh_nonce(&mut self) -> FlowNonce {
        // xorshift64: deterministic, well-distributed, no dependency.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        FlowNonce::new(x)
    }

    /// Whether this host currently holds usable capabilities toward `dst`.
    pub(crate) fn has_caps(&self, dst: Addr, now: SimTime) -> bool {
        self.peer(dst)
            .and_then(|p| p.send.as_ref())
            .is_some_and(|c| !c.expired(now) && !c.exhausted_for(0))
    }

    /// Decides the header for an outgoing packet to `dst` of base length
    /// `base_len` and charges the sender-side accounting.
    fn choose_header(&mut self, dst: Addr, base_len: u32, now: SimTime) -> CapHeader {
        // Margin covers the largest possible capability header (a renewal
        // carrying MAX_PATH_ROUTERS capabilities), so the sender's budget
        // check can never pass while the on-wire packet exceeds N.
        const MAX_HEADER: u32 = 12 + 8 * tva_wire::MAX_PATH_ROUTERS as u32;
        let state = self.state();
        let st = state.peer(dst);
        let caps = match &mut st.send {
            Some(c) if !c.expired(now) && !c.exhausted_for(base_len + MAX_HEADER) => c,
            _ => {
                // No usable capabilities: bootstrap (or re-bootstrap) with
                // a request.
                st.send = None;
                st.requested_at = Some(now);
                state.stats.requests_sent += 1;
                return CapHeader::request();
            }
        };

        let age = now.since(caps.acquired).as_secs_f64();
        let t = caps.grant.t.secs() as f64;
        let need_renew = caps.bytes_sent as f64
            > caps.grant.n.bytes() as f64 * RENEW_BYTES_FRACTION
            || age > t * RENEW_TIME_FRACTION;
        let cache_cold = !caps.primed || now >= caps.model_ttl_expires;

        let header = if need_renew {
            CapHeader::renewal(caps.nonce, caps.grant, caps.caps.clone())
        } else if cache_cold {
            CapHeader::regular_with_caps(caps.nonce, caps.grant, caps.caps.clone())
        } else {
            CapHeader::regular_nonce_only(caps.nonce)
        };

        // Charge accounting with the final wire length (base + header) and
        // update the router-cache model exactly as routers will.
        let wire_len = base_len + header.encoded_len() as u32;
        caps.bytes_sent += wire_len as u64;
        caps.primed = true;
        let n = caps.grant.n.bytes().max(1);
        let add_ns = wire_len as u128 * (caps.grant.t.secs() as u128 * 1_000_000_000) / n as u128;
        caps.model_ttl_expires =
            caps.model_ttl_expires.max(now) + SimDuration::from_nanos(add_ns as u64);
        header
    }

    /// Destination role: decide a request/renewal carrying `precaps`.
    fn decide_grant(
        &mut self,
        src: Addr,
        path_id: PathId,
        precaps: &[CapValue],
        now: SimTime,
    ) -> bool {
        let initiated = {
            let st = self.state().peer(src);
            st.send.is_some() || st.requested_at.is_some()
        };
        let info = RequestInfo { src, path_id, initiated };
        match self.policy.decide(info, now) {
            Some(grant) => {
                // An empty pre-capability list (a request that crossed no
                // capability router) yields nothing to return — an empty
                // list on the wire would read as a refusal (§4.2).
                let state = self.state();
                if !precaps.is_empty() {
                    let caps: CapList =
                        precaps.iter().map(|&pc| mint_cap(pc, grant)).collect();
                    state.peer(src).pending_return = Some((grant, caps, now));
                }
                state.stats.granted += 1;
                true
            }
            None => {
                self.state().stats.refused += 1;
                false
            }
        }
    }

    /// Destination role: track inbound volume and report flooding sources.
    /// Demoted arrivals (traffic beyond the sender's authorization) are the
    /// primary signal; raw volume is a high backstop.
    fn note_rx(&mut self, src: Addr, len: u32, demoted: bool, now: SimTime) {
        let st = self.state().peer(src);
        if now.since(st.rx_window_start) > SimDuration::from_secs(1) {
            st.rx_window_start = now;
            st.rx_window_bytes = 0;
            st.rx_window_demoted = 0;
        }
        st.rx_window_bytes += len as u64;
        if demoted {
            st.rx_window_demoted += len as u64;
        }
        if st.rx_window_bytes as f64 > MISBEHAVIOR_BYTES_PER_SEC
            || st.rx_window_demoted as f64 > MISBEHAVIOR_DEMOTED_BYTES_PER_SEC
        {
            st.rx_window_bytes = 0;
            st.rx_window_demoted = 0;
            st.rx_window_start = now;
            self.policy.note_misbehavior(src, now);
            self.state().stats.misbehavior_reports += 1;
        }
    }

    /// Attaches pending return info / demotion echo onto a header bound for
    /// `dst`.
    fn attach_return(&mut self, dst: Addr, header: &mut CapHeader, now: SimTime) {
        let st = self.state().peer(dst);
        if let Some((grant, caps, granted_at)) = &st.pending_return {
            // Sticky until the peer demonstrably uses capabilities or the
            // grant goes stale (half its validity).
            let stale = now.since(*granted_at).as_secs_f64()
                > grant.t.secs() as f64 * 0.5;
            if stale {
                st.pending_return = None;
            } else {
                header.return_info =
                    Some(ReturnInfo::Capabilities { grant: *grant, caps: caps.clone() });
                return;
            }
        }
        if st.demote_echo {
            st.demote_echo = false;
            header.return_info = Some(ReturnInfo::DemotionNotice);
        }
    }

    /// Builds a bare reply packet to `dst` (no transport payload) used when
    /// a request did not arrive on a transport packet that will be answered.
    fn bare_reply(&mut self, dst: Addr, now: SimTime) -> Packet {
        let mut pkt = Packet {
            id: PacketId(0),
            src: self.local,
            dst,
            cap: None,
            tcp: None,
            payload_len: 0,
        };
        self.decorate(&mut pkt, now);
        pkt
    }

    /// The full outgoing-packet decoration (header choice + return info).
    fn decorate(&mut self, pkt: &mut Packet, now: SimTime) {
        let base = pkt.wire_len();
        let dst = pkt.dst;
        // Write the header straight into the packet (one move of the large
        // inline-list header), then attach return info in place.
        pkt.cap = Some(self.choose_header(dst, base, now));
        let header = pkt.cap.as_mut().expect("just set");
        self.attach_return(dst, header, now);
    }
}

impl Shim for TvaHostShim {
    fn on_send(&mut self, pkt: &mut Packet, now: SimTime) {
        self.decorate(pkt, now);
    }

    fn on_receive(&mut self, pkt: &mut Packet, now: SimTime) -> bool {
        let src = pkt.src;
        let Some(header) = pkt.cap.as_ref() else {
            return true; // legacy packet: transport may still use it
        };

        if header.demoted {
            // We are the destination of a demoted packet: echo it (§3.8).
            let state = self.state();
            state.stats.demoted_seen += 1;
            state.peer(src).demote_echo = true;
        }

        // Harvest return information first: it may install capabilities that
        // make us "initiated" for the policy below.
        match &header.return_info {
            Some(ReturnInfo::DemotionNotice) => {
                // Our packets were demoted somewhere: drop capabilities and
                // re-acquire on the next send (§3.8) — unless the held
                // capabilities are younger than a couple of round trips, in
                // which case the echo was caused by stragglers sent under
                // the *previous* nonce (every renewal leaves up to a window
                // of in-flight old-nonce packets that routers demote) and
                // re-acquiring would discard perfectly good capabilities,
                // looping forever.
                let st = self.state().peer(src);
                let fresh = st
                    .send
                    .as_ref()
                    .is_some_and(|c| now.since(c.acquired) < SimDuration::from_secs(1));
                if !fresh {
                    st.send = None;
                    st.requested_at = None;
                }
            }
            Some(ReturnInfo::Capabilities { grant, caps }) if !caps.is_empty() => {
                let nonce = self.fresh_nonce();
                let st = self.state().peer(src);
                // Install unless identical caps are already in place (the
                // return is sticky, so duplicates arrive; reinstalling
                // would reset accounting and desynchronize from routers).
                let dup = st
                    .send
                    .as_ref()
                    .is_some_and(|c| c.caps == *caps && c.grant == *grant);
                if !dup {
                    st.send = Some(SendCaps {
                        caps: caps.clone(),
                        grant: *grant,
                        nonce,
                        acquired: now,
                        bytes_sent: 0,
                        model_ttl_expires: now,
                        primed: false,
                    });
                    st.requested_at = None;
                }
            }
            Some(ReturnInfo::Capabilities { .. }) => {
                // Empty list: an explicit refusal (§4.2).
                let st = self.state().peer(src);
                st.send = None;
                st.requested_at = None;
            }
            None => {}
        }

        match &header.payload {
            // A demoted packet's capability material is unusable for
            // granting: a router that demotes neither stamps requests nor
            // refreshes renewal slots, so the lists are part-stale. Minting
            // capabilities from them would hand the sender values no router
            // accepts (and it is about to re-request anyway, §3.8).
            CapPayload::Request { .. } | CapPayload::Regular { .. } if header.demoted => {
                if let CapPayload::Regular { .. } = &header.payload {
                    self.note_rx(src, pkt.wire_len(), true, now);
                }
                true
            }
            CapPayload::Request { entries } => {
                let path_id = entries
                    .iter()
                    .rev()
                    .find(|e| e.path_id.is_tagged())
                    .map(|e| e.path_id)
                    .unwrap_or(PathId::NONE);
                let precaps: Vec<CapValue> = entries.iter().map(|e| e.precap).collect();
                let granted = self.decide_grant(src, path_id, &precaps, now);
                if !granted {
                    // Refused: consume the packet so transport never sees
                    // it (the sender's SYN will time out, as with a
                    // firewall drop).
                    return false;
                }
                // Bare reply when the transport will not answer (the
                // request did not ride on a SYN) and there is something to
                // return.
                let is_syn = pkt.tcp.is_some_and(|t| t.flags.syn);
                let has_pending = self.peer(src).is_some_and(|st| st.pending_return.is_some());
                if !is_syn && has_pending {
                    let reply = self.bare_reply(src, now);
                    self.state().outbox.push(reply);
                }
                true
            }
            CapPayload::Regular { renewal, caps, .. } => {
                self.note_rx(src, pkt.wire_len(), false, now);
                // The peer is using capabilities: the sticky return did its
                // job.
                self.state().peer(src).pending_return = None;
                if *renewal {
                    // The capability list now holds fresh pre-capabilities
                    // minted by the routers (§4.3): grant or refuse anew.
                    if let Some((_, list)) = caps {
                        let granted = self.decide_grant(src, PathId::NONE, list, now);
                        if granted && pkt.tcp.is_none() {
                            let reply = self.bare_reply(src, now);
                            self.state().outbox.push(reply);
                        }
                    }
                }
                true
            }
        }
    }

    fn ready_to_send(&self, dst: Addr, now: SimTime) -> bool {
        self.has_caps(dst, now)
    }

    fn take_outbox(&mut self) -> Vec<Packet> {
        self.state.as_mut().map(|s| std::mem::take(&mut s.outbox)).unwrap_or_default()
    }

    fn forget(&mut self, dst: Addr) {
        // Capabilities (and any outstanding request) are bound to the source
        // address we held when they were acquired; a host that changes
        // identity must drop them and re-bootstrap. Destination-role state
        // (pending returns, misbehavior windows) is unaffected.
        if let Some(st) = self.state.as_mut().and_then(|s| s.peers.get_mut(&dst)) {
            st.send = None;
            st.requested_at = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{mint_precap, validate_cap};
    use crate::policy::{AllowAll, ClientPolicy};
    use tva_crypto::SecretSchedule;
    use tva_wire::RequestEntry;

    const ME: Addr = Addr::new(1, 0, 0, 1);
    const PEER: Addr = Addr::new(2, 0, 0, 2);

    fn shim(policy: Box<dyn GrantPolicy>) -> TvaHostShim {
        TvaHostShim::new(ME, policy)
    }

    fn data_pkt(src: Addr, dst: Addr, len: u32) -> Packet {
        Packet { id: PacketId(0), src, dst, cap: None, tcp: None, payload_len: len }
    }

    fn grant() -> Grant {
        Grant::from_parts(100, 10)
    }

    /// Simulates the network: a router minting precaps for a request and a
    /// destination shim granting it, returning the caps the sender would
    /// harvest.
    fn grant_via(
        sched: &SecretSchedule,
        src: Addr,
        dst: Addr,
        g: Grant,
        now_secs: u64,
    ) -> (Grant, Vec<CapValue>) {
        let pc = mint_precap(sched, now_secs, src, dst);
        (g, vec![mint_cap(pc, g)])
    }

    /// A client shim is per-host memory in a tree topology, and most
    /// hosts stay idle: the address, policy box, nonce state and one
    /// pointer to the state built on first use.
    #[test]
    fn idle_shim_stays_small() {
        assert!(std::mem::size_of::<TvaHostShim>() <= 40, "{}", std::mem::size_of::<TvaHostShim>());
    }

    #[test]
    fn queries_on_an_idle_shim_build_nothing() {
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        assert!(!s.has_caps(PEER, SimTime::ZERO));
        assert!(!s.ready_to_send(PEER, SimTime::ZERO));
        assert!(s.take_outbox().is_empty());
        s.forget(PEER);
        assert_eq!(s.stats().requests_sent, 0);
        let mut legacy = data_pkt(PEER, ME, 100);
        assert!(s.on_receive(&mut legacy, SimTime::ZERO), "legacy packets pass");
        assert!(s.state.is_none(), "no query and no legacy packet builds the state");
        s.on_send(&mut data_pkt(ME, PEER, 0), SimTime::ZERO);
        assert!(s.state.is_some());
    }

    #[test]
    fn first_send_is_a_request() {
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let mut p = data_pkt(ME, PEER, 0);
        s.on_send(&mut p, SimTime::ZERO);
        assert!(matches!(
            p.cap.as_ref().unwrap().payload,
            CapPayload::Request { .. }
        ));
        assert_eq!(s.stats().requests_sent, 1);
    }

    #[test]
    fn harvested_caps_switch_to_regular_then_nonce_only() {
        let sched = SecretSchedule::from_seed(9);
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::from_secs(5);
        // Bootstrap request out.
        let mut p = data_pkt(ME, PEER, 0);
        s.on_send(&mut p, now);
        // Return caps arrive.
        let (g, caps) = grant_via(&sched, ME, PEER, grant(), 5);
        let mut reply = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::request();
        h.return_info = Some(ReturnInfo::Capabilities { grant: g, caps: caps.into() });
        reply.cap = Some(h);
        assert!(s.on_receive(&mut reply, now));
        assert!(s.has_caps(PEER, now));
        // Next sends: first with caps (cold), then nonce only (warm).
        let mut p1 = data_pkt(ME, PEER, 1000);
        s.on_send(&mut p1, now);
        assert!(matches!(
            p1.cap.as_ref().unwrap().payload,
            CapPayload::Regular { caps: Some(_), renewal: false, .. }
        ));
        let mut p2 = data_pkt(ME, PEER, 1000);
        s.on_send(&mut p2, now + SimDuration::from_millis(10));
        assert!(matches!(
            p2.cap.as_ref().unwrap().payload,
            CapPayload::Regular { caps: None, .. }
        ));
        // The capability the routers see actually validates.
        if let CapPayload::Regular { caps: Some((g2, list)), .. } =
            &p1.cap.as_ref().unwrap().payload
        {
            assert_eq!(
                validate_cap(&sched, 5, ME, PEER, *g2, list[0], 1.0),
                Ok(())
            );
        }
    }

    #[test]
    fn renewal_kicks_in_near_budget() {
        let sched = SecretSchedule::from_seed(9);
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::from_secs(5);
        let (g, caps) = grant_via(&sched, ME, PEER, Grant::from_parts(10, 10), 5);
        let mut reply = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::request();
        h.return_info = Some(ReturnInfo::Capabilities { grant: g, caps: caps.into() });
        s.on_receive(&mut reply_with(&mut reply, h), now);
        // Send until we cross the renewal fraction of the 10 KB budget.
        let mut saw_renewal = false;
        for _ in 0..10 {
            let mut p = data_pkt(ME, PEER, 1000);
            s.on_send(&mut p, now);
            if matches!(
                p.cap.as_ref().unwrap().payload,
                CapPayload::Regular { renewal: true, .. }
            ) {
                saw_renewal = true;
                break;
            }
        }
        assert!(saw_renewal, "sender must renew before exhausting N");
    }

    fn reply_with(pkt: &mut Packet, h: CapHeader) -> Packet {
        pkt.cap = Some(h);
        pkt.clone()
    }

    #[test]
    fn budget_exhaustion_falls_back_to_request() {
        let sched = SecretSchedule::from_seed(9);
        // Tiny budget: 1 KB.
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::from_secs(5);
        let (g, caps) = grant_via(&sched, ME, PEER, Grant::from_parts(1, 10), 5);
        let mut reply = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::request();
        h.return_info = Some(ReturnInfo::Capabilities { grant: g, caps: caps.into() });
        s.on_receive(&mut reply_with(&mut reply, h), now);
        // One packet blows the 1KB budget; the next send re-requests.
        let mut p1 = data_pkt(ME, PEER, 900);
        s.on_send(&mut p1, now);
        let mut p2 = data_pkt(ME, PEER, 900);
        s.on_send(&mut p2, now);
        assert!(matches!(
            p2.cap.as_ref().unwrap().payload,
            CapPayload::Request { .. }
        ));
    }

    #[test]
    fn destination_grants_request_and_replies_bare() {
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::from_secs(3);
        let sched = SecretSchedule::from_seed(1);
        // A non-TCP request arrives (e.g. from an attacker tool or UDP app).
        let mut req = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(RequestEntry {
                path_id: PathId(4),
                precap: mint_precap(&sched, 3, PEER, ME),
            });
        }
        req.cap = Some(h);
        assert!(s.on_receive(&mut req, now));
        let out = s.take_outbox();
        assert_eq!(out.len(), 1, "bare reply for non-SYN request");
        let ret = out[0].cap.as_ref().unwrap().return_info.as_ref().unwrap();
        assert!(matches!(ret, ReturnInfo::Capabilities { caps, .. } if caps.len() == 1));
    }

    #[test]
    fn client_policy_consumes_unsolicited_requests() {
        let mut s = shim(Box::new(ClientPolicy { grant: grant() }));
        let now = SimTime::ZERO;
        let mut req = data_pkt(PEER, ME, 0);
        req.cap = Some(CapHeader::request());
        assert!(!s.on_receive(&mut req, now), "unsolicited request consumed");
        assert_eq!(s.stats().refused, 1);
        assert!(s.take_outbox().is_empty());
    }

    #[test]
    fn demotion_notice_triggers_reacquisition() {
        let sched = SecretSchedule::from_seed(9);
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::from_secs(5);
        let (g, caps) = grant_via(&sched, ME, PEER, grant(), 5);
        let mut reply = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::request();
        h.return_info = Some(ReturnInfo::Capabilities { grant: g, caps: caps.into() });
        s.on_receive(&mut reply_with(&mut reply, h), now);
        assert!(s.has_caps(PEER, now));
        // A demotion notice arriving immediately is attributed to stragglers
        // from before these fresh capabilities and is ignored.
        let mut early = data_pkt(PEER, ME, 0);
        let mut h0 = CapHeader::regular_nonce_only(FlowNonce::new(1));
        h0.return_info = Some(ReturnInfo::DemotionNotice);
        early.cap = Some(h0);
        s.on_receive(&mut early, now);
        assert!(s.has_caps(PEER, now), "fresh caps survive a stale echo");
        // A notice arriving later means the path really demotes us.
        let later = now + SimDuration::from_secs(2);
        let mut notice = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(1));
        h.return_info = Some(ReturnInfo::DemotionNotice);
        notice.cap = Some(h);
        s.on_receive(&mut notice, later);
        assert!(!s.has_caps(PEER, later));
        // Next send re-requests.
        let mut p = data_pkt(ME, PEER, 100);
        s.on_send(&mut p, later);
        assert!(matches!(p.cap.as_ref().unwrap().payload, CapPayload::Request { .. }));
    }

    #[test]
    fn demoted_packets_are_echoed() {
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::ZERO;
        let mut demoted = data_pkt(PEER, ME, 100);
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(1));
        h.demoted = true;
        demoted.cap = Some(h);
        s.on_receive(&mut demoted, now);
        // Next packet toward the peer carries the notice.
        let mut p = data_pkt(ME, PEER, 0);
        s.on_send(&mut p, now);
        assert_eq!(
            p.cap.as_ref().unwrap().return_info,
            Some(ReturnInfo::DemotionNotice)
        );
        // One-shot.
        let mut p2 = data_pkt(ME, PEER, 0);
        s.on_send(&mut p2, now);
        assert_eq!(p2.cap.as_ref().unwrap().return_info, None);
    }

    #[test]
    fn flooding_source_is_reported_and_refused() {
        let mut s = shim(Box::new(crate::policy::ServerPolicy::new(
            Grant::from_parts(32, 10),
            SimDuration::from_secs(600),
        )));
        let now = SimTime::from_secs(1);
        // Peer floods 200 KB of *demoted* traffic within a second (it blew
        // through its byte budget at some router).
        for i in 0..200 {
            let mut p = data_pkt(PEER, ME, 1000);
            let mut h = CapHeader::regular_nonce_only(FlowNonce::new(4));
            h.demoted = true;
            p.cap = Some(h);
            s.on_receive(&mut p, now + SimDuration::from_millis(i));
        }
        assert!(s.stats().misbehavior_reports >= 1);
        // A renewal from the flooder is now refused.
        let mut req = data_pkt(PEER, ME, 0);
        req.cap = Some(CapHeader::request());
        assert!(!s.on_receive(&mut req, now + SimDuration::from_secs(1)));
    }

    #[test]
    fn demoted_packets_never_mint_grants() {
        // A renewal demoted mid-path carries a part-stale capability list
        // (routers past the demotion point never refreshed their slots);
        // granting from it would hand back values no router accepts.
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::from_secs(3);
        let mut h = CapHeader::renewal(
            FlowNonce::new(5),
            grant(),
            vec![CapValue::new(1, 0xAAA), CapValue::new(1, 0xBBB)],
        );
        h.demoted = true;
        let mut pkt = data_pkt(PEER, ME, 100);
        pkt.cap = Some(h);
        assert!(s.on_receive(&mut pkt, now), "the data itself is still delivered");
        assert_eq!(s.stats().granted, 0, "no grant from a demoted renewal");
        assert!(s.take_outbox().is_empty(), "no bare reply either");
        // Same for a demoted request.
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(RequestEntry { path_id: PathId(1), precap: CapValue::new(1, 7) });
        }
        h.demoted = true;
        let mut pkt = data_pkt(PEER, ME, 0);
        pkt.cap = Some(h);
        s.on_receive(&mut pkt, now);
        assert_eq!(s.stats().granted, 0);
        // But the demotion itself is observed (echo + misbehavior signal).
        assert!(s.stats().demoted_seen >= 2);
    }

    #[test]
    fn sticky_return_clears_when_peer_uses_caps() {
        let sched = SecretSchedule::from_seed(2);
        let mut s = shim(Box::new(AllowAll { grant: grant() }));
        let now = SimTime::ZERO;
        let mut req = data_pkt(PEER, ME, 0);
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(RequestEntry {
                path_id: PathId(9),
                precap: mint_precap(&sched, 0, PEER, ME),
            });
        }
        req.cap = Some(h);
        s.on_receive(&mut req, now);
        // Return sticks to outgoing packets…
        let mut p = data_pkt(ME, PEER, 0);
        s.on_send(&mut p, now);
        assert!(p.cap.as_ref().unwrap().return_info.is_some());
        // …until the peer sends a regular packet.
        let mut reg = data_pkt(PEER, ME, 100);
        reg.cap = Some(CapHeader::regular_nonce_only(FlowNonce::new(2)));
        s.on_receive(&mut reg, now);
        let mut p2 = data_pkt(ME, PEER, 0);
        s.on_send(&mut p2, now);
        assert!(p2.cap.as_ref().unwrap().return_info.is_none());
    }
}
