//! The TVA egress link scheduler (Figure 2).
//!
//! Three traffic classes share each output link:
//!
//! 1. **Requests** — fair-queued per path identifier, guaranteed a small
//!    fixed fraction of the link and rate-limited not to exceed it.
//! 2. **Regular** (capability-validated) packets — fair-queued per
//!    destination address, taking the remaining capacity.
//! 3. **Legacy and demoted** packets — plain FIFO at the lowest priority.
//!
//! Classification reads only the capability header: the router's packet
//! processing (which runs *before* enqueue) has already validated regular
//! packets and marked failures as demoted, exactly as the wire format
//! intends — an independent box implementing Figure 2 needs nothing else.

use std::collections::VecDeque;

use tva_obs::{FlowClass, FlowSampler, FlowVerdict};
use tva_sim::{Drr, Enqueued, Hdrr, Pkt, QueueDisc, SimDuration, SimTime};
use tva_wire::{Addr, CapPayload, Packet, PathId};

use crate::config::{RegularQueueKey, RequestLimiter, RouterConfig};
use crate::sketch::SketchLimiter;

/// A signed-balance pacing gate: the request class may dequeue while the
/// balance is positive; each dequeue charges the actual packet size (the
/// balance may dip negative, which simply lengthens the wait — long-run rate
/// is exact without needing to peek at queue heads).
#[derive(Debug)]
struct PacedGate {
    rate_bytes_per_sec: u64,
    burst_bytes: i128,
    /// Balance in nano-bytes; may go negative after a charge.
    balance_nb: i128,
    last_refill: SimTime,
}

const NB: i128 = 1_000_000_000;

impl PacedGate {
    fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        assert!(rate_bytes_per_sec > 0);
        PacedGate {
            rate_bytes_per_sec,
            burst_bytes: burst_bytes as i128 * NB,
            balance_nb: burst_bytes as i128 * NB,
            last_refill: SimTime::ZERO,
        }
    }

    /// The balance a refill at `now` would leave (stores nothing).
    fn refilled(&self, now: SimTime) -> i128 {
        let dt = now.since(self.last_refill).as_nanos();
        (self.balance_nb + self.rate_bytes_per_sec as i128 * dt as i128).min(self.burst_bytes)
    }

    fn refill(&mut self, now: SimTime) {
        self.balance_nb = self.refilled(now);
        self.last_refill = self.last_refill.max(now);
    }

    fn ready(&mut self, now: SimTime) -> bool {
        self.refill(now);
        self.balance_nb > 0
    }

    fn charge(&mut self, bytes: u32) {
        self.balance_nb -= bytes as i128 * NB;
    }

    /// Time until the balance becomes positive again.
    fn time_until_ready(&self, now: SimTime) -> SimDuration {
        let balance_nb = self.refilled(now);
        if balance_nb > 0 {
            return SimDuration::ZERO;
        }
        let deficit = (-balance_nb) as u128 + 1;
        SimDuration::from_nanos(deficit.div_ceil(self.rate_bytes_per_sec as u128) as u64)
    }
}

/// Per-class counters.
#[derive(Debug, Default, Clone)]
pub struct SchedulerStats {
    /// Request packets sent / dropped.
    pub requests_sent: u64,
    /// Request packets dropped (queue caps).
    pub requests_dropped: u64,
    /// Request packets demoted to the legacy class because the request
    /// key table was exhausted (path-identifier sweep hardening).
    pub requests_demoted: u64,
    /// Regular packets sent.
    pub regular_sent: u64,
    /// Regular packets dropped.
    pub regular_dropped: u64,
    /// Legacy + demoted packets sent.
    pub legacy_sent: u64,
    /// Legacy + demoted packets dropped.
    pub legacy_dropped: u64,
    /// Bytes sent per class: requests, regular, legacy.
    pub bytes_sent: [u64; 3],
}

impl tva_obs::Observe for SchedulerStats {
    fn observe(&self, prefix: &str, reg: &mut tva_obs::Registry) {
        let mut set = |name: &str, v: u64| {
            let id = reg.counter(&format!("{prefix}.{name}"));
            reg.set_counter(id, v);
        };
        set("requests_sent", self.requests_sent);
        set("requests_dropped", self.requests_dropped);
        set("requests_demoted", self.requests_demoted);
        set("regular_sent", self.regular_sent);
        set("regular_dropped", self.regular_dropped);
        set("legacy_sent", self.legacy_sent);
        set("legacy_dropped", self.legacy_dropped);
        set("bytes_sent_requests", self.bytes_sent[0]);
        set("bytes_sent_regular", self.bytes_sent[1]);
        set("bytes_sent_legacy", self.bytes_sent[2]);
    }
}

/// The /8-style aggregate of a path identifier: all tags sharing the high
/// byte (one ingress region's worth of re-tag space) land in one group.
fn path_prefix(p: &PathId) -> u8 {
    (p.0 >> 8) as u8
}

/// The request-channel policing structure, per
/// [`RouterConfig::request_limiter`]. All three enforce the
/// same contract — per-path fair shares with bounded router state, demoting
/// (never dropping) what they refuse — at different state/precision
/// trade-offs.
enum RequestChannel {
    /// Exact flat DRR over path identifiers (§3.2 verbatim): one queue per
    /// distinct tag, O(distinct tags) state.
    Flat(Drr<PathId>),
    /// Exact two-level DRR: fair over tag prefixes first, then over full
    /// tags within a prefix, so a colluder ring fanning requests across k
    /// tags behind one ingress splits one aggregate share.
    Prefix(Hdrr<PathId>),
    /// Constant-memory: a count-min sketch polices per-path byte budgets
    /// over a decaying window and admitted requests share one FIFO. No
    /// per-key state at all; over-estimates can only over-police (the
    /// sketch's one-sided error), never let a path evade its budget.
    Sketched {
        fifo: VecDeque<Pkt>,
        bytes: u64,
        cap_bytes: u64,
        limiter: SketchLimiter,
    },
}

/// What the request channel decided about an offered packet.
enum ReqVerdict {
    Accepted,
    Dropped,
    /// Refused by policy (key table exhausted / over sketch budget): the
    /// packet must be demoted to the legacy class, not lost.
    Demote(Pkt),
}

impl RequestChannel {
    fn offer(&mut self, key: PathId, pkt: Pkt, now: SimTime) -> ReqVerdict {
        let len = pkt.wire_len();
        match self {
            RequestChannel::Flat(drr) => {
                if !drr.contains_key(&key) && !drr.can_admit_new_key() {
                    ReqVerdict::Demote(pkt)
                } else if drr.enqueue(key, pkt) {
                    ReqVerdict::Accepted
                } else {
                    ReqVerdict::Dropped
                }
            }
            RequestChannel::Prefix(h) => {
                if !h.contains_key(&key) && !h.can_admit_new_key() {
                    ReqVerdict::Demote(pkt)
                } else if h.enqueue(key, pkt) {
                    ReqVerdict::Accepted
                } else {
                    ReqVerdict::Dropped
                }
            }
            RequestChannel::Sketched { fifo, bytes, cap_bytes, limiter } => {
                if !limiter.admit(u64::from(key.0), len, now) {
                    ReqVerdict::Demote(pkt)
                } else if *bytes + u64::from(len) > *cap_bytes {
                    ReqVerdict::Dropped
                } else {
                    *bytes += u64::from(len);
                    fifo.push_back(pkt);
                    ReqVerdict::Accepted
                }
            }
        }
    }

    fn dequeue(&mut self) -> Option<Pkt> {
        match self {
            RequestChannel::Flat(drr) => drr.dequeue(),
            RequestChannel::Prefix(h) => h.dequeue(),
            RequestChannel::Sketched { fifo, bytes, .. } => {
                let pkt = fifo.pop_front()?;
                *bytes -= pkt.wire_len() as u64;
                Some(pkt)
            }
        }
    }

    fn len_pkts(&self) -> usize {
        match self {
            RequestChannel::Flat(drr) => drr.len_pkts(),
            RequestChannel::Prefix(h) => h.len_pkts(),
            RequestChannel::Sketched { fifo, .. } => fifo.len(),
        }
    }

    fn len_bytes(&self) -> u64 {
        match self {
            RequestChannel::Flat(drr) => drr.len_bytes(),
            RequestChannel::Prefix(h) => h.len_bytes(),
            RequestChannel::Sketched { bytes, .. } => *bytes,
        }
    }

    /// Distinct path keys currently holding channel state (always 0 in
    /// sketched mode — that is the point).
    fn active_keys(&self) -> usize {
        match self {
            RequestChannel::Flat(drr) => drr.active_queues(),
            RequestChannel::Prefix(h) => h.active_keys(),
            RequestChannel::Sketched { .. } => 0,
        }
    }

    /// Estimated bytes of request-channel policing state. Queued packets
    /// are excluded in every mode (they are transient link backlog, not
    /// per-flow bookkeeping): the estimate isolates exactly the state an
    /// attacker can try to scale with distinct identities.
    fn state_bytes(&self) -> usize {
        // Rough per-key cost of a DRR sub-queue: key + deficit + VecDeque
        // header + hash-map slot.
        const PER_KEY: usize = 96;
        match self {
            RequestChannel::Flat(drr) => drr.active_queues() * PER_KEY,
            RequestChannel::Prefix(h) => {
                h.active_keys() * PER_KEY + h.active_groups() * PER_KEY
            }
            RequestChannel::Sketched { limiter, .. } => limiter.state_bytes(),
        }
    }

    fn audit(&self) -> Result<(), String> {
        match self {
            RequestChannel::Flat(drr) => drr.audit(),
            RequestChannel::Prefix(h) => h.audit(),
            RequestChannel::Sketched { fifo, bytes, limiter, .. } => {
                let held: u64 = fifo.iter().map(|p| p.wire_len() as u64).sum();
                if held != *bytes {
                    return Err(format!(
                        "sketched fifo: byte ledger {bytes} != held bytes {held}"
                    ));
                }
                limiter.audit()
            }
        }
    }
}

/// The scheduler; one per TVA egress channel.
pub struct TvaScheduler {
    requests: RequestChannel,
    regular: Drr<Addr>,
    regular_key: RegularQueueKey,
    legacy: std::collections::VecDeque<Pkt>,
    legacy_bytes: u64,
    legacy_cap_pkts: usize,
    gate: PacedGate,
    /// Counters.
    pub stats: SchedulerStats,
    /// Sampled flow records for scheduler-side refusals (key-table
    /// demotions and queue-cap drops). A packet the router already sampled
    /// gets a *second* record here when the scheduler refuses it — the two
    /// hook points answer different questions (what the pipeline decided
    /// vs. what the link did), and selection stays consistent because both
    /// hash the same packet id.
    pub flow: FlowSampler,
}

impl TvaScheduler {
    /// Creates a scheduler for a link of `link_bps` using `cfg`'s request
    /// fraction, queue caps and bounds.
    pub fn new(link_bps: u64, cfg: &RouterConfig) -> Self {
        let rate = ((link_bps as f64 / 8.0) * cfg.request_fraction).max(1.0) as u64;
        let requests = match cfg.request_limiter {
            RequestLimiter::Sketched => RequestChannel::Sketched {
                fifo: VecDeque::new(),
                bytes: 0,
                // One shared FIFO: cap its bytes like a single DRR queue.
                cap_bytes: cfg.per_queue_cap_bytes,
                limiter: SketchLimiter::new(
                    // Distinct stream from every other consumer of the seed.
                    cfg.secret_seed ^ 0x5CE7_C4ED,
                    cfg.sketch_budget_bytes,
                    cfg.sketch_decay_ms,
                ),
            },
            RequestLimiter::Prefix => RequestChannel::Prefix(Hdrr::new(
                path_prefix,
                cfg.request_quantum,
                cfg.per_queue_cap_bytes,
                cfg.max_request_queues,
            )),
            RequestLimiter::Flat => RequestChannel::Flat(Drr::new(
                cfg.request_quantum,
                cfg.per_queue_cap_bytes,
                cfg.max_request_queues,
            )),
        };
        TvaScheduler {
            requests,
            regular: Drr::new(cfg.quantum, cfg.per_queue_cap_bytes, cfg.max_regular_queues),
            regular_key: cfg.regular_queue_key,
            legacy: std::collections::VecDeque::new(),
            legacy_bytes: 0,
            legacy_cap_pkts: cfg.legacy_queue_pkts,
            gate: PacedGate::new(rate, cfg.request_burst_bytes),
            stats: SchedulerStats::default(),
            flow: FlowSampler::new(cfg.flow_sample_n, cfg.flow_sample_seed),
        }
    }

    /// The most recent path-identifier tag on a request — the fair-queuing
    /// key of §3.2 ("we then fair-queue requests using the most recent tag").
    fn request_key(pkt: &Packet) -> PathId {
        match pkt.cap.as_ref().map(|c| &c.payload) {
            Some(CapPayload::Request { entries }) => entries
                .iter()
                .rev()
                .find(|e| e.path_id.is_tagged())
                .map(|e| e.path_id)
                .unwrap_or(PathId::NONE),
            _ => PathId::NONE,
        }
    }

    fn enqueue_legacy(&mut self, pkt: Pkt) -> Enqueued {
        let len = pkt.wire_len() as u64;
        if self.legacy.len() >= self.legacy_cap_pkts {
            self.stats.legacy_dropped += 1;
            self.flow.record(
                pkt.id.0,
                pkt.src,
                PathId::NONE,
                FlowClass::Legacy,
                FlowVerdict::DroppedQueue,
                pkt.wire_len(),
            );
            return Enqueued::Dropped;
        }
        self.legacy_bytes += len;
        self.legacy.push_back(pkt);
        Enqueued::Accepted
    }

    /// Regular-class packets this scheduler has been offered and accepted:
    /// sent, still queued, or dropped by the class's own caps. Every one of
    /// them passed the router's validation first (classification only
    /// trusts headers the router already checked), so a TVA router's
    /// validation count must cover the sum over its egress schedulers —
    /// the protocol-soundness auditor's cross-check.
    pub fn regular_offered(&self) -> u64 {
        self.stats.regular_sent + self.stats.regular_dropped + self.regular.len_pkts() as u64
    }

    /// Request-class packets offered (sent + queued + dropped + demoted).
    ///
    /// Demoted requests count: the scheduler *was* offered them as requests
    /// and chose the legacy class — omitting them undercounted offers
    /// whenever the key table (or sketch budget) pushed packets to legacy,
    /// skewing the stamped-vs-offered cross-check exactly under the
    /// path-identifier floods it exists to audit.
    pub fn requests_offered(&self) -> u64 {
        self.stats.requests_sent
            + self.stats.requests_dropped
            + self.stats.requests_demoted
            + self.requests.len_pkts() as u64
    }

    /// Distinct path keys holding request-channel state (0 in sketched
    /// mode).
    pub fn request_keys(&self) -> usize {
        self.requests.active_keys()
    }

    /// Estimated bytes of request-channel policing state (excludes queued
    /// packets — see [`RequestChannel::state_bytes`]).
    pub fn request_state_bytes(&self) -> usize {
        self.requests.state_bytes()
    }

    /// The sketch limiter, when the request channel runs in sketched mode.
    pub fn sketch(&self) -> Option<&SketchLimiter> {
        match &self.requests {
            RequestChannel::Sketched { limiter, .. } => Some(limiter),
            _ => None,
        }
    }

    /// Exports request-channel state gauges: `request_keys`,
    /// `request_state_bytes`, and — in sketched mode — `sketch_occupancy`
    /// plus (under `TVA_CHECK`) `sketch_mean_overestimate`.
    pub fn observe_request_channel(&self, prefix: &str, reg: &mut tva_obs::Registry) {
        let mut set = |name: &str, v: f64| {
            let id = reg.gauge(&format!("{prefix}.{name}"));
            reg.set(id, v);
        };
        set("request_keys", self.requests.active_keys() as f64);
        set("request_state_bytes", self.requests.state_bytes() as f64);
        if let Some(limiter) = self.sketch() {
            set("sketch_occupancy", limiter.occupancy());
            if let Some(err) = limiter.mean_overestimate() {
                set("sketch_mean_overestimate", err);
            }
        }
    }
}

/// Which class a packet falls into, judged purely from its header.
fn classify(pkt: &Packet) -> Class {
    match pkt.cap.as_ref() {
        None => Class::Legacy,
        Some(h) if h.demoted => Class::Legacy,
        Some(h) => match &h.payload {
            CapPayload::Request { .. } => Class::Request,
            CapPayload::Regular { .. } => Class::Regular,
        },
    }
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Class {
    Request,
    Regular,
    Legacy,
}

impl QueueDisc for TvaScheduler {
    fn enqueue(&mut self, pkt: Pkt, now: SimTime) -> Enqueued {
        match classify(&pkt) {
            Class::Request => {
                let key = Self::request_key(&pkt);
                let (pkt_id, src, len) = (pkt.id.0, pkt.src, pkt.wire_len());
                match self.requests.offer(key, pkt, now) {
                    ReqVerdict::Accepted => Enqueued::Accepted,
                    ReqVerdict::Dropped => {
                        self.stats.requests_dropped += 1;
                        self.flow.record(
                            pkt_id,
                            src,
                            key,
                            FlowClass::Request,
                            FlowVerdict::DroppedQueue,
                            len,
                        );
                        Enqueued::Dropped
                    }
                    ReqVerdict::Demote(mut pkt) => {
                        // Policy refusal — key-table exhaustion under a
                        // path-identifier sweep, or a path over its sketch
                        // budget. Demote the request to the legacy class
                        // instead of dropping it (§3.8's demote-don't-drop
                        // principle): a legitimate request still reaches
                        // the destination at best-effort priority, while
                        // router memory stays bounded.
                        if let Some(h) = pkt.cap.as_mut() {
                            h.demoted = true;
                        }
                        self.stats.requests_demoted += 1;
                        self.flow.record(
                            pkt_id,
                            src,
                            key,
                            FlowClass::Request,
                            FlowVerdict::DemotedKeyTable,
                            len,
                        );
                        self.enqueue_legacy(pkt)
                    }
                }
            }
            Class::Regular => {
                let key = match self.regular_key {
                    RegularQueueKey::PerDestination => pkt.dst,
                    RegularQueueKey::PerSource => pkt.src,
                };
                let (pkt_id, src, len) = (pkt.id.0, pkt.src, pkt.wire_len());
                if self.regular.enqueue(key, pkt) {
                    Enqueued::Accepted
                } else {
                    self.stats.regular_dropped += 1;
                    self.flow.record(
                        pkt_id,
                        src,
                        PathId::NONE,
                        FlowClass::Regular,
                        FlowVerdict::DroppedQueue,
                        len,
                    );
                    Enqueued::Dropped
                }
            }
            Class::Legacy => self.enqueue_legacy(pkt),
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Pkt> {
        // Requests first, within their rate budget.
        if self.requests.len_pkts() > 0 && self.gate.ready(now) {
            if let Some(pkt) = self.requests.dequeue() {
                self.gate.charge(pkt.wire_len());
                self.stats.requests_sent += 1;
                self.stats.bytes_sent[0] += pkt.wire_len() as u64;
                return Some(pkt);
            }
        }
        // Regular traffic takes the remaining capacity.
        if let Some(pkt) = self.regular.dequeue() {
            self.stats.regular_sent += 1;
            self.stats.bytes_sent[1] += pkt.wire_len() as u64;
            return Some(pkt);
        }
        // Legacy soaks up whatever is left.
        if let Some(pkt) = self.legacy.pop_front() {
            self.legacy_bytes -= pkt.wire_len() as u64;
            self.stats.legacy_sent += 1;
            self.stats.bytes_sent[2] += pkt.wire_len() as u64;
            return Some(pkt);
        }
        None
    }

    fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        // Only reachable when dequeue returned None, i.e. regular and legacy
        // are empty; if requests are pending they are gated — report when
        // the gate opens.
        if self.requests.len_pkts() == 0 {
            return None;
        }
        Some(now + self.gate.time_until_ready(now))
    }

    fn len_pkts(&self) -> usize {
        self.requests.len_pkts() + self.regular.len_pkts() + self.legacy.len()
    }

    fn len_bytes(&self) -> u64 {
        self.requests.len_bytes() + self.regular.len_bytes() + self.legacy_bytes
    }

    fn audit(&self) -> Result<(), String> {
        self.requests.audit().map_err(|e| format!("tva-sched requests: {e}"))?;
        self.regular.audit().map_err(|e| format!("tva-sched regular: {e}"))?;
        let held: u64 = self.legacy.iter().map(|p| p.wire_len() as u64).sum();
        if held != self.legacy_bytes {
            return Err(format!(
                "tva-sched legacy: byte ledger {} != held bytes {held}",
                self.legacy_bytes
            ));
        }
        if self.legacy.len() > self.legacy_cap_pkts {
            return Err(format!(
                "tva-sched legacy: {} pkts over cap {}",
                self.legacy.len(),
                self.legacy_cap_pkts
            ));
        }
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::{Addr, CapHeader, CapPayload, CapValue, FlowNonce, PacketId, RequestEntry};

    fn cfg() -> RouterConfig {
        RouterConfig::default()
    }

    fn legacy_pkt(bytes: u32) -> Packet {
        Packet {
            id: PacketId(0),
            src: Addr::new(1, 0, 0, 1),
            dst: Addr::new(2, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: bytes,
        }
    }

    fn request_pkt(path: u16) -> Packet {
        request_pkt_sized(path, 0)
    }

    fn request_pkt_sized(path: u16, payload: u32) -> Packet {
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(RequestEntry {
                path_id: PathId(path),
                precap: CapValue::new(0, 1),
            });
        }
        Packet { cap: Some(h), payload_len: payload, ..legacy_pkt(0) }
    }

    fn regular_pkt(dst: Addr, bytes: u32) -> Packet {
        let h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        Packet { cap: Some(h), dst, payload_len: bytes, ..legacy_pkt(bytes) }
    }

    #[test]
    fn regular_beats_legacy() {
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let now = SimTime::ZERO;
        s.enqueue((legacy_pkt(500)).into(), now);
        s.enqueue((regular_pkt(Addr::new(9, 9, 9, 9), 500)).into(), now);
        let first = s.dequeue(now).unwrap();
        assert!(first.cap.is_some(), "regular packet must go first");
        assert!(s.dequeue(now).unwrap().cap.is_none());
    }

    #[test]
    fn requests_beat_regular_within_budget() {
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let now = SimTime::ZERO;
        s.enqueue((regular_pkt(Addr::new(9, 9, 9, 9), 500)).into(), now);
        s.enqueue((request_pkt(5)).into(), now);
        let first = s.dequeue(now).unwrap();
        assert!(
            matches!(first.cap.as_ref().unwrap().payload, CapPayload::Request { .. }),
            "request goes first while the gate is open"
        );
    }

    #[test]
    fn request_rate_is_capped() {
        // 1% of 10 Mb/s = 12.5 KB/s. Saturate with requests and regular
        // traffic; over 10 s, request bytes ≤ ~1% of what the link would
        // carry plus the burst.
        let cfg = RouterConfig {
            request_fraction: 0.01,
            per_queue_cap_bytes: 10 << 20,
            ..cfg()
        };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let mut now = SimTime::ZERO;
        // Pre-fill an oversupply of both classes (requests carry a payload
        // so their byte volume dwarfs the 1% budget), then dequeue in
        // link-paced steps for 10 simulated seconds.
        for i in 0..4000 {
            s.enqueue((request_pkt_sized((i % 7) as u16 + 1, 200)).into(), now);
        }
        for _ in 0..13_000 {
            s.enqueue((regular_pkt(Addr::new(9, 9, 9, 9), 988)).into(), now);
        }
        let mut req_bytes = 0u64;
        let mut total = 0u64;
        while total < 12_500_000 {
            // 10 s at 10 Mb/s
            let Some(p) = s.dequeue(now) else { break };
            let len = p.wire_len() as u64;
            total += len;
            if matches!(
                p.cap.as_ref().map(|c| &c.payload),
                Some(CapPayload::Request { .. })
            ) {
                req_bytes += len;
            }
            now += SimDuration::transmission(p.wire_len(), 10_000_000);
        }
        let frac = req_bytes as f64 / total as f64;
        assert!(
            frac < 0.013,
            "requests took {frac:.4} of the link, cap was 1% (+burst)"
        );
        assert!(
            frac > 0.008,
            "requests should get their guaranteed share, got {frac:.4}"
        );
    }

    #[test]
    fn requests_fair_queued_by_path_id() {
        // One path id floods; another sends a little. The light path's
        // requests should not starve.
        let cfg = RouterConfig { request_fraction: 0.05, ..cfg() };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::ZERO;
        for _ in 0..100 {
            s.enqueue((request_pkt(1)).into(), now);
        }
        for _ in 0..5 {
            s.enqueue((request_pkt(2)).into(), now);
        }
        // Dequeue up to 50 requests (gating as needed): DRR must serve all
        // 5 light-path requests within the first round despite the flood.
        let mut light_served = 0;
        let mut t = now;
        for _ in 0..50 {
            loop {
                if let Some(p) = s.dequeue(t) {
                    if let CapPayload::Request { entries } = &p.cap.as_ref().unwrap().payload {
                        if entries[0].path_id == PathId(2) {
                            light_served += 1;
                        }
                    }
                    break;
                }
                t += SimDuration::from_millis(10);
            }
        }
        assert_eq!(
            light_served, 5,
            "light path id must not be starved by the flooding path id"
        );
    }

    #[test]
    fn demoted_packets_are_legacy_class() {
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let now = SimTime::ZERO;
        let mut p = regular_pkt(Addr::new(9, 9, 9, 9), 100);
        p.cap.as_mut().unwrap().demoted = true;
        s.enqueue((p).into(), now);
        s.enqueue((regular_pkt(Addr::new(8, 8, 8, 8), 100)).into(), now);
        let first = s.dequeue(now).unwrap();
        assert!(!first.is_demoted(), "valid regular beats demoted");
        assert!(s.dequeue(now).unwrap().is_demoted());
        assert_eq!(s.stats.legacy_sent, 1);
        assert_eq!(s.stats.regular_sent, 1);
    }

    #[test]
    fn per_destination_fairness() {
        // Two destinations, one flooded: equal service (Figure 10's
        // mechanism).
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let now = SimTime::ZERO;
        let heavy = Addr::new(9, 9, 9, 9);
        let light = Addr::new(8, 8, 8, 8);
        for _ in 0..100 {
            s.enqueue((regular_pkt(heavy, 980)).into(), now);
        }
        for _ in 0..20 {
            s.enqueue((regular_pkt(light, 980)).into(), now);
        }
        let mut counts = (0, 0);
        for _ in 0..40 {
            let p = s.dequeue(now).unwrap();
            if p.dst == heavy {
                counts.0 += 1;
            } else {
                counts.1 += 1;
            }
        }
        assert_eq!(counts, (20, 20), "DRR must split service equally");
    }

    #[test]
    fn next_ready_reports_gate_opening() {
        let cfg = RouterConfig {
            request_fraction: 0.01,
            request_burst_bytes: 100,
            ..cfg()
        };
        let mut s = TvaScheduler::new(8_000, &cfg); // 10 B/s of request budget
        let now = SimTime::ZERO;
        // A request bigger than the 100-byte burst drives the balance
        // negative once dequeued.
        s.enqueue((request_pkt_sized(1, 200)).into(), now);
        // Drain the burst.
        let p = s.dequeue(now).unwrap();
        assert!(p.cap.is_some());
        s.enqueue((request_pkt_sized(1, 200)).into(), now);
        // Balance is now negative; dequeue yields nothing and next_ready
        // points to the future.
        assert!(s.dequeue(now).is_none());
        let ready = s.next_ready(now).expect("gated request pending");
        assert!(ready > now);
        // At `ready`, the packet flows.
        assert!(s.dequeue(ready).is_some());
    }

    #[test]
    fn path_id_sweep_demotes_instead_of_dropping() {
        // An attacker sweeping manufactured path identifiers (only possible
        // upstream of a trust boundary, since boundary routers re-tag) can
        // exhaust the request key table; spillover requests must fall to
        // the legacy class as demoted rather than vanish, so legitimate
        // requests for fresh paths still reach the destination.
        let cfg = RouterConfig { max_request_queues: 2, ..cfg() };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::ZERO;
        assert_eq!(s.enqueue((request_pkt(1)).into(), now), Enqueued::Accepted);
        assert_eq!(s.enqueue((request_pkt(2)).into(), now), Enqueued::Accepted);
        // Keys 3..8 exceed the table: demoted into the legacy FIFO.
        for path in 3..8 {
            assert_eq!(s.enqueue((request_pkt(path)).into(), now), Enqueued::Accepted);
        }
        assert_eq!(s.stats.requests_demoted, 5);
        assert_eq!(s.stats.requests_dropped, 0);
        s.audit().expect("accounting clean under the sweep");
        // The two admitted requests leave first (request class), then the
        // spillover drains from legacy, demoted on the wire.
        assert!(s.dequeue(now).is_some());
        assert!(s.dequeue(now).is_some());
        let spilled = s.dequeue(now).expect("legacy spillover present");
        assert!(spilled.is_demoted(), "spilled request must carry the demoted bit");
        assert_eq!(s.stats.legacy_sent, 1);
        // Existing keys still accept while the table is full.
        assert_eq!(s.enqueue((request_pkt(1)).into(), now), Enqueued::Accepted);
        assert_eq!(s.stats.requests_demoted, 5, "known key must not be demoted");
    }

    #[test]
    fn boundary_retag_neutralizes_forged_path_ids() {
        // The request_key rule ("most recent tag") means forged entries
        // seeded by an attacker are overridden at any trust boundary: the
        // boundary router appends its own genuine tag *after* them, so the
        // fair-queuing key at its egress is never attacker-controlled.
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            for forged in [7u16, 99, 1234] {
                entries.push(RequestEntry {
                    path_id: PathId(forged),
                    precap: CapValue::new(0, 1),
                });
            }
            // The boundary router's stamp (appended by TvaRouter::process).
            entries.push(RequestEntry { path_id: PathId(42), precap: CapValue::new(0, 2) });
        }
        let pkt = Packet { cap: Some(h), ..legacy_pkt(0) };
        assert_eq!(TvaScheduler::request_key(&pkt), PathId(42));
    }

    #[test]
    fn requests_offered_counts_demotions() {
        // Regression: `requests_offered` omitted `requests_demoted`, so a
        // path-identifier sweep that pushed requests to the legacy class
        // made the scheduler report fewer request offers than the router
        // had stamped — silently weakening the stamped-vs-offered
        // cross-check in exactly the attack it polices.
        let cfg = RouterConfig { max_request_queues: 2, ..cfg() };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::ZERO;
        for path in 1..=7 {
            assert_eq!(s.enqueue((request_pkt(path)).into(), now), Enqueued::Accepted);
        }
        assert_eq!(s.stats.requests_demoted, 5);
        assert_eq!(
            s.requests_offered(),
            7,
            "offered must count all 7 requests: 2 queued + 5 demoted"
        );
        // Drain: the count must be stable as queued become sent.
        while s.dequeue(now).is_some() {}
        assert_eq!(s.requests_offered(), 7);
    }

    #[test]
    fn sketched_mode_demotes_over_budget_paths() {
        // One path floods past its per-epoch sketch budget; its overflow is
        // demoted (never dropped), while a light path stays under budget
        // and is admitted in full — all with zero per-key channel state.
        let cfg = RouterConfig {
            request_limiter: crate::config::RequestLimiter::Sketched,
            sketch_budget_bytes: 2048,
            sketch_decay_ms: 1000,
            ..cfg()
        };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::ZERO;
        for _ in 0..50 {
            s.enqueue((request_pkt_sized(1, 100)).into(), now);
        }
        for _ in 0..5 {
            s.enqueue((request_pkt_sized(2, 100)).into(), now);
        }
        assert!(s.stats.requests_demoted > 0, "flood must trip the sketch budget");
        assert_eq!(s.stats.requests_dropped, 0, "demote, don't drop");
        // Request wire_len ≈ 100 payload + headers; the flood fits ~2048/len
        // packets before demotion, the light path all 5.
        let admitted = s.requests_offered() - s.stats.requests_demoted;
        assert!(admitted >= 5, "light path must be admitted");
        assert_eq!(s.request_keys(), 0, "sketched mode keeps no per-key state");
        s.audit().expect("fifo ledger and sketch bound clean");
    }

    #[test]
    fn sketched_budget_decays_back() {
        // After demotions, idle decay epochs halve the estimate until the
        // path is admitted again — over-policing is transient.
        let cfg = RouterConfig {
            request_limiter: crate::config::RequestLimiter::Sketched,
            sketch_budget_bytes: 1024,
            sketch_decay_ms: 100,
            ..cfg()
        };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let mut now = SimTime::ZERO;
        let mut tripped = false;
        for _ in 0..40 {
            s.enqueue((request_pkt_sized(1, 100)).into(), now);
            tripped |= s.stats.requests_demoted > 0;
        }
        assert!(tripped, "flood must exceed the budget");
        let demoted_before = s.stats.requests_demoted;
        now += SimDuration::from_secs(2); // 20 decay epochs
        assert_eq!(s.enqueue((request_pkt_sized(1, 100)).into(), now), Enqueued::Accepted);
        assert_eq!(s.stats.requests_demoted, demoted_before, "decayed path re-admitted");
    }

    #[test]
    fn sketched_mode_memory_does_not_grow_with_paths() {
        let cfg = RouterConfig {
            request_limiter: crate::config::RequestLimiter::Sketched,
            per_queue_cap_bytes: 100 << 20,
            ..cfg()
        };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::ZERO;
        s.enqueue((request_pkt(1)).into(), now);
        let before = s.request_state_bytes();
        for path in 0..5000u16 {
            s.enqueue((request_pkt(path)).into(), now);
        }
        assert_eq!(
            s.request_state_bytes(),
            before,
            "sketch state must be flat in the number of distinct paths"
        );
        // The exact table, in contrast, grows until its key bound.
        let mut exact = TvaScheduler::new(10_000_000, &RouterConfig::default());
        exact.enqueue((request_pkt(1)).into(), now);
        let small = exact.request_state_bytes();
        for path in 0..200u16 {
            exact.enqueue((request_pkt(path)).into(), now);
        }
        assert!(exact.request_state_bytes() > small, "exact state grows with paths");
    }

    #[test]
    fn prefix_drr_contains_a_colluder_ring() {
        // 16 tags sharing a prefix flood; a lone path under another prefix
        // sends a little. Flat DRR gives the ring 16/17 of request service;
        // the hierarchy pins it to ~half.
        let cfg = RouterConfig {
            request_limiter: RequestLimiter::Prefix,
            request_fraction: 0.05,
            ..cfg()
        };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::ZERO;
        for tag in 0..16u16 {
            for _ in 0..20 {
                s.enqueue((request_pkt(0x0100 | tag)).into(), now);
            }
        }
        for _ in 0..40 {
            s.enqueue((request_pkt(0x0200)).into(), now);
        }
        let (mut ring, mut lone) = (0u32, 0u32);
        let mut t = now;
        for _ in 0..80 {
            loop {
                if let Some(p) = s.dequeue(t) {
                    if let Some(CapPayload::Request { entries }) =
                        p.cap.as_ref().map(|c| &c.payload)
                    {
                        if entries[0].path_id.0 & 0xFF00 == 0x0100 {
                            ring += 1;
                        } else {
                            lone += 1;
                        }
                    }
                    break;
                }
                t += SimDuration::from_millis(10);
            }
        }
        // Tiny request packets make each quantum a multi-packet burst, so
        // allow burst-level slack — flat DRR would give the 16-tag ring
        // 16/17 of service (~75 of 80); the hierarchy must hold it near
        // half.
        assert!(
            ring <= 50 && lone >= 30,
            "prefix hierarchy must contain the ring near half: ring {ring}, lone {lone}"
        );
        s.audit().expect("hierarchical channel accounting clean");
    }
}
