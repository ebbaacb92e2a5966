//! Destination authorization policies (§3.3).
//!
//! > "A client may act in a way that by default allows it to contact any
//! > server but not otherwise be contacted … A public server may initially
//! > grant all requests with a default number of bytes and timeout … If any
//! > of the senders misbehave … that sender can be temporarily blacklisted
//! > and its capability will soon expire."


use tva_sim::SimTime;
use tva_wire::{Addr, Grant, PathId};

/// Context a policy sees when deciding a request.
#[derive(Debug, Clone, Copy)]
pub struct RequestInfo {
    /// Claimed source of the request (weakly authenticated by the
    /// capability handshake — a granted capability only works if the source
    /// can receive packets at this address).
    pub src: Addr,
    /// The most recent path-identifier tag, an approximate source locator.
    pub path_id: PathId,
    /// Whether this host has itself initiated communication toward `src`
    /// (outgoing request or live capabilities) — the client-policy match.
    pub initiated: bool,
}

/// A destination's capability-granting policy.
pub trait GrantPolicy: Send {
    /// Decides a request (or renewal): `Some(grant)` authorizes, `None`
    /// refuses.
    fn decide(&mut self, req: RequestInfo, now: SimTime) -> Option<Grant>;

    /// Informs the policy that `src` has been observed misbehaving (e.g.
    /// flooding beyond any plausible legitimate rate). Policies may
    /// blacklist.
    fn note_misbehavior(&mut self, src: Addr, now: SimTime) {
        let _ = (src, now);
    }
}

/// Grants every request the same budget — the colluder's policy, and a
/// convenient default for closed testbeds.
#[derive(Debug, Clone)]
pub struct AllowAll {
    /// The grant handed to everyone.
    pub grant: Grant,
}

impl GrantPolicy for AllowAll {
    fn decide(&mut self, _req: RequestInfo, _now: SimTime) -> Option<Grant> {
        Some(self.grant)
    }
}

/// The client policy: accept requests only from peers this host contacted
/// first (firewall/NAT-style), refuse everything else.
#[derive(Debug, Clone)]
pub struct ClientPolicy {
    /// Grant for accepted reverse-direction requests.
    pub grant: Grant,
}

impl GrantPolicy for ClientPolicy {
    fn decide(&mut self, req: RequestInfo, _now: SimTime) -> Option<Grant> {
        if req.initiated {
            Some(self.grant)
        } else {
            None
        }
    }
}

/// The public-server policy: grant everyone a default budget, blacklist
/// reported misbehavers for a configurable period so their capabilities are
/// not renewed and new requests are refused until the entry expires.
#[derive(Debug, Clone, Default)]
struct SingleGrant {
    /// Sources restricted to one grant (the Figure 11 "the destination does
    /// not renew capabilities because of the attack" assumption).
    restricted: std::collections::HashSet<Addr>,
    granted: std::collections::HashSet<Addr>,
}

/// The public-server policy: grant everyone a default budget, blacklist
/// reported misbehavers for a configurable period so their capabilities are
/// not renewed and new requests are refused until the entry expires.
#[derive(Debug, Clone)]
pub struct ServerPolicy {
    /// Default grant for well-behaved (or not-yet-observed) sources.
    pub grant: Grant,
    /// Blacklist: source → expiry time.
    blacklist: tva_wire::DetHashMap<Addr, SimTime>,
    /// How long a blacklist entry lasts.
    pub(crate) blacklist_duration: tva_sim::SimDuration,
    single: SingleGrant,
    /// Cumulative refusals (diagnostics).
    pub(crate) refusals: u64,
}

impl ServerPolicy {
    /// Creates a server policy with the given default grant and blacklist
    /// duration.
    pub fn new(grant: Grant, blacklist_duration: tva_sim::SimDuration) -> Self {
        ServerPolicy {
            grant,
            blacklist: tva_wire::DetHashMap::default(),
            blacklist_duration,
            single: SingleGrant::default(),
            refusals: 0,
        }
    }

    /// Restricts `src` to a single (initial) grant: further requests and
    /// renewals are refused. This encodes the paper's Figure 11 assumption
    /// that the destination identifies flooding senders and "does not renew
    /// capabilities because of the attack" — the identification itself is
    /// out of scope there, as in §5.2's distinguishable-requests
    /// assumption.
    pub fn single_grant(&mut self, src: Addr) {
        self.single.restricted.insert(src);
    }

    /// Whether `src` is currently blacklisted.
    pub(crate) fn is_blacklisted(&self, src: Addr, now: SimTime) -> bool {
        self.blacklist.get(&src).is_some_and(|&until| until > now)
    }

    /// Permanently refuses `src` — used by experiments where the paper
    /// assumes "the destination was able to distinguish requests from
    /// legitimate users and those from attackers" (§5.2).
    pub fn deny_forever(&mut self, src: Addr) {
        self.blacklist.insert(src, SimTime::FAR_FUTURE);
    }
}

impl GrantPolicy for ServerPolicy {
    fn decide(&mut self, req: RequestInfo, now: SimTime) -> Option<Grant> {
        if self.is_blacklisted(req.src, now) {
            self.refusals += 1;
            return None;
        }
        if self.single.restricted.contains(&req.src) && !self.single.granted.insert(req.src) {
            self.refusals += 1;
            return None;
        }
        Some(self.grant)
    }

    fn note_misbehavior(&mut self, src: Addr, now: SimTime) {
        self.blacklist.insert(src, now + self.blacklist_duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_sim::SimDuration;

    const PEER: Addr = Addr::new(7, 7, 7, 7);

    fn req(initiated: bool) -> RequestInfo {
        RequestInfo { src: PEER, path_id: PathId(3), initiated }
    }

    #[test]
    fn allow_all_grants_everyone() {
        let mut p = AllowAll { grant: Grant::from_parts(1023, 10) };
        assert!(p.decide(req(false), SimTime::ZERO).is_some());
    }

    #[test]
    fn client_policy_matches_initiation() {
        let mut p = ClientPolicy { grant: Grant::from_parts(100, 10) };
        assert!(p.decide(req(true), SimTime::ZERO).is_some());
        assert!(p.decide(req(false), SimTime::ZERO).is_none());
    }

    #[test]
    fn server_policy_blacklists_and_expires() {
        let mut p = ServerPolicy::new(Grant::from_parts(32, 10), SimDuration::from_secs(60));
        let t0 = SimTime::from_secs(1);
        assert!(p.decide(req(false), t0).is_some(), "initially grants everyone");
        p.note_misbehavior(PEER, t0);
        assert!(p.decide(req(false), t0).is_none(), "blacklisted");
        assert_eq!(p.refusals, 1);
        assert!(p.is_blacklisted(PEER, SimTime::from_secs(30)));
        // After expiry the source may try again.
        assert!(p.decide(req(false), SimTime::from_secs(62)).is_some());
    }

    #[test]
    fn single_grant_allows_exactly_one() {
        let mut p = ServerPolicy::new(Grant::from_parts(32, 10), SimDuration::from_secs(60));
        p.single_grant(PEER);
        let t = SimTime::from_secs(1);
        assert!(p.decide(req(false), t).is_some(), "the initial grant");
        assert!(p.decide(req(false), t).is_none(), "no renewal");
        assert!(p.decide(req(false), SimTime::from_secs(500)).is_none(), "never again");
        // Unrestricted sources are unaffected.
        let other = RequestInfo { src: Addr::new(8, 8, 8, 8), path_id: PathId(1), initiated: false };
        assert!(p.decide(other, t).is_some());
        assert!(p.decide(other, t).is_some());
    }
}
