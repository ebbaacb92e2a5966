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

use tva_obs::{FlowClass, FlowSampler, FlowVerdict};
use tva_sim::{Drr, Enqueued, Pkt, QueueDisc, SimDuration, SimTime, ROUTER_QUEUE_PKTS};
use tva_wire::{Addr, CapPayload, Packet, PathId};

use crate::config::{RegularQueueKey, RouterConfig, FLOW_SAMPLE_SEED};

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

tva_sim::counters! {
    /// Per-class counters.
    #[derive(Debug, Default, Clone)]
    pub struct SchedulerStats {
        /// Request packets sent.
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
        /// Bytes of request packets sent.
        pub bytes_sent_requests: u64,
        /// Bytes of regular packets sent.
        pub bytes_sent_regular: u64,
        /// Bytes of legacy + demoted packets sent.
        pub bytes_sent_legacy: u64,
    }
}

/// Burst allowance for the request rate limiter, in bytes.
pub const REQUEST_BURST_BYTES: u64 = 3000;
/// DRR quantum in bytes for the regular class (one MTU).
const QUANTUM: u32 = 1500;
/// DRR quantum for the request class; requests are small, so a smaller
/// quantum interleaves path identifiers at finer granularity.
const REQUEST_QUANTUM: u32 = 300;
/// Maximum distinct path-identifier request queues (the 16-bit tag space
/// bounds this architecturally; deployments size it to memory).
pub const MAX_REQUEST_QUEUES: usize = 1 << 12;
/// Maximum distinct per-destination regular queues.
const MAX_REGULAR_QUEUES: usize = 1 << 12;

/// Rough per-key cost of a request sub-queue: key + deficit + VecDeque
/// header + hash-map slot.
const REQUEST_KEY_BYTES: usize = 96;

/// The three class queues and the request gate: everything a scheduler
/// holds once traffic has used it.
struct Classes {
    /// Requests, fair-queued per path identifier (§3.2): one queue per
    /// distinct tag, at most [`MAX_REQUEST_QUEUES`] of them.
    requests: Drr<PathId>,
    regular: Drr<Addr>,
    legacy: std::collections::VecDeque<Pkt>,
    legacy_bytes: u64,
    gate: PacedGate,
}

impl Classes {
    fn enqueue_legacy(
        &mut self,
        pkt: Pkt,
        stats: &mut SchedulerStats,
        flow: &mut FlowSampler,
    ) -> Enqueued {
        let len = pkt.wire_len() as u64;
        if self.legacy.len() >= ROUTER_QUEUE_PKTS {
            stats.legacy_dropped += 1;
            flow.record(
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
}

/// The scheduler; one per TVA egress channel.
///
/// Idle state costs a pointer: the class queues and the request gate are
/// created on the first `enqueue`, so the egress of a host that never
/// receives anything holds no queues (DESIGN §4c). A gate created then
/// starts full, exactly as one created with the scheduler would be at its
/// first refill.
pub struct TvaScheduler {
    classes: Option<Box<Classes>>,
    /// Request-class rate in bytes per second, for the lazily built gate.
    request_rate: u64,
    per_queue_cap: u64,
    regular_key: RegularQueueKey,
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
    /// fraction, per-queue cap, regular-class key and flow sampling. The
    /// legacy FIFO holds [`ROUTER_QUEUE_PKTS`] packets.
    pub fn new(link_bps: u64, cfg: &RouterConfig) -> Self {
        let request_rate = ((link_bps as f64 / 8.0) * cfg.request_fraction).max(1.0) as u64;
        TvaScheduler {
            classes: None,
            request_rate,
            per_queue_cap: cfg.per_queue_cap_bytes,
            regular_key: cfg.regular_queue_key,
            stats: SchedulerStats::default(),
            flow: FlowSampler::new(cfg.flow_sample_n, FLOW_SAMPLE_SEED),
        }
    }

    /// The class queues, created on first use, beside the counters and
    /// the sampler (borrowed apart so enqueue can update all three).
    fn parts(&mut self) -> (&mut Classes, &mut SchedulerStats, &mut FlowSampler) {
        let (rate, cap) = (self.request_rate, self.per_queue_cap);
        let classes = self.classes.get_or_insert_with(|| {
            Box::new(Classes {
                requests: Drr::new(REQUEST_QUANTUM, cap, MAX_REQUEST_QUEUES),
                regular: Drr::new(QUANTUM, cap, MAX_REGULAR_QUEUES),
                legacy: std::collections::VecDeque::new(),
                legacy_bytes: 0,
                gate: PacedGate::new(rate, REQUEST_BURST_BYTES),
            })
        });
        (classes, &mut self.stats, &mut self.flow)
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

    /// Regular-class packets this scheduler has been offered and accepted:
    /// sent, still queued, or dropped by the class's own caps. Every one of
    /// them passed the router's validation first (classification only
    /// trusts headers the router already checked), so a TVA router's
    /// validation count must cover the sum over its egress schedulers —
    /// the protocol-soundness auditor's cross-check.
    pub fn regular_offered(&self) -> u64 {
        let queued = self.classes.as_ref().map_or(0, |c| c.regular.len_pkts());
        self.stats.regular_sent + self.stats.regular_dropped + queued as u64
    }

    /// Request-class packets offered (sent + queued + dropped + demoted).
    ///
    /// Demoted requests count: the scheduler *was* offered them as requests
    /// and chose the legacy class — omitting them undercounted offers
    /// whenever the key table pushed packets to legacy, skewing the
    /// stamped-vs-offered cross-check exactly under the path-identifier
    /// floods it exists to audit.
    pub fn requests_offered(&self) -> u64 {
        let queued = self.classes.as_ref().map_or(0, |c| c.requests.len_pkts());
        self.stats.requests_sent
            + self.stats.requests_dropped
            + self.stats.requests_demoted
            + queued as u64
    }

    /// Distinct path keys holding request-channel state.
    pub fn request_keys(&self) -> usize {
        self.classes.as_ref().map_or(0, |c| c.requests.active_queues())
    }

    /// Estimated bytes of request-channel policing state. Queued packets
    /// are excluded (they are transient link backlog, not per-flow
    /// bookkeeping): the estimate isolates exactly the state an attacker
    /// can try to scale with distinct identities.
    pub fn request_state_bytes(&self) -> usize {
        self.request_keys() * REQUEST_KEY_BYTES
    }

    /// Exports the request-channel state gauges `request_keys` and
    /// `request_state_bytes`.
    pub fn observe_request_channel(&self, prefix: &str, reg: &mut tva_obs::Registry) {
        reg.set_gauge(&format!("{prefix}.request_keys"), self.request_keys() as f64);
        reg.set_gauge(&format!("{prefix}.request_state_bytes"), self.request_state_bytes() as f64);
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
    fn enqueue(&mut self, mut pkt: Pkt, _now: SimTime) -> Enqueued {
        let regular_key = self.regular_key;
        let (q, stats, flow) = self.parts();
        match classify(&pkt) {
            Class::Request => {
                let key = Self::request_key(&pkt);
                let (pkt_id, src, len) = (pkt.id.0, pkt.src, pkt.wire_len());
                if !q.requests.contains_key(&key) && !q.requests.can_admit_new_key() {
                    // Key-table exhaustion under a path-identifier sweep.
                    // Demote the request to the legacy class instead of
                    // dropping it (§3.8's demote-don't-drop principle): a
                    // legitimate request still reaches the destination at
                    // best-effort priority, while router memory stays
                    // bounded.
                    if let Some(h) = pkt.cap.as_mut() {
                        h.demoted = true;
                    }
                    stats.requests_demoted += 1;
                    flow.record(
                        pkt_id,
                        src,
                        key,
                        FlowClass::Request,
                        FlowVerdict::DemotedKeyTable,
                        len,
                    );
                    q.enqueue_legacy(pkt, stats, flow)
                } else if q.requests.enqueue(key, pkt) {
                    Enqueued::Accepted
                } else {
                    stats.requests_dropped += 1;
                    flow.record(
                        pkt_id,
                        src,
                        key,
                        FlowClass::Request,
                        FlowVerdict::DroppedQueue,
                        len,
                    );
                    Enqueued::Dropped
                }
            }
            Class::Regular => {
                let key = match regular_key {
                    RegularQueueKey::PerDestination => pkt.dst,
                    RegularQueueKey::PerSource => pkt.src,
                };
                let (pkt_id, src, len) = (pkt.id.0, pkt.src, pkt.wire_len());
                if q.regular.enqueue(key, pkt) {
                    Enqueued::Accepted
                } else {
                    stats.regular_dropped += 1;
                    flow.record(
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
            Class::Legacy => q.enqueue_legacy(pkt, stats, flow),
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Pkt> {
        let q = self.classes.as_deref_mut()?;
        // Requests first, within their rate budget.
        if q.requests.len_pkts() > 0 && q.gate.ready(now) {
            if let Some(pkt) = q.requests.dequeue() {
                q.gate.charge(pkt.wire_len());
                self.stats.requests_sent += 1;
                self.stats.bytes_sent_requests += pkt.wire_len() as u64;
                return Some(pkt);
            }
        }
        // Regular traffic takes the remaining capacity.
        if let Some(pkt) = q.regular.dequeue() {
            self.stats.regular_sent += 1;
            self.stats.bytes_sent_regular += pkt.wire_len() as u64;
            return Some(pkt);
        }
        // Legacy soaks up whatever is left.
        if let Some(pkt) = q.legacy.pop_front() {
            q.legacy_bytes -= pkt.wire_len() as u64;
            self.stats.legacy_sent += 1;
            self.stats.bytes_sent_legacy += pkt.wire_len() as u64;
            return Some(pkt);
        }
        None
    }

    fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        // Only reachable when dequeue returned None, i.e. regular and legacy
        // are empty; if requests are pending they are gated — report when
        // the gate opens.
        let q = self.classes.as_deref()?;
        if q.requests.len_pkts() == 0 {
            return None;
        }
        Some(now + q.gate.time_until_ready(now))
    }

    fn len_pkts(&self) -> usize {
        self.classes
            .as_ref()
            .map_or(0, |q| q.requests.len_pkts() + q.regular.len_pkts() + q.legacy.len())
    }

    fn len_bytes(&self) -> u64 {
        self.classes
            .as_ref()
            .map_or(0, |q| q.requests.len_bytes() + q.regular.len_bytes() + q.legacy_bytes)
    }

    fn audit(&self) -> Result<(), String> {
        let Some(q) = self.classes.as_deref() else { return Ok(()) };
        q.requests.audit().map_err(|e| format!("tva-sched requests: {e}"))?;
        q.regular.audit().map_err(|e| format!("tva-sched regular: {e}"))?;
        let held: u64 = q.legacy.iter().map(|p| p.wire_len() as u64).sum();
        if held != q.legacy_bytes {
            return Err(format!(
                "tva-sched legacy: byte ledger {} != held bytes {held}",
                q.legacy_bytes
            ));
        }
        if q.legacy.len() > ROUTER_QUEUE_PKTS {
            return Err(format!(
                "tva-sched legacy: {} pkts over cap {}",
                q.legacy.len(),
                ROUTER_QUEUE_PKTS
            ));
        }
        Ok(())
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
        let cfg = RouterConfig { request_fraction: 0.01, ..cfg() };
        let mut s = TvaScheduler::new(8_000, &cfg); // 10 B/s of request budget
        let now = SimTime::ZERO;
        // A request bigger than the burst drives the balance negative once
        // dequeued.
        let big = REQUEST_BURST_BYTES as u32;
        s.enqueue((request_pkt_sized(1, big)).into(), now);
        // Drain the burst.
        let p = s.dequeue(now).unwrap();
        assert!(p.cap.is_some());
        s.enqueue((request_pkt_sized(1, big)).into(), now);
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
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let mut now = SimTime::ZERO;
        let full = MAX_REQUEST_QUEUES as u16;
        for path in 1..=full {
            assert_eq!(s.enqueue((request_pkt(path)).into(), now), Enqueued::Accepted);
        }
        // Five more keys exceed the table: demoted into the legacy FIFO.
        for path in full + 1..full + 6 {
            assert_eq!(s.enqueue((request_pkt(path)).into(), now), Enqueued::Accepted);
        }
        assert_eq!(s.stats.requests_demoted, 5);
        assert_eq!(s.stats.requests_dropped, 0);
        s.audit().expect("accounting clean under the sweep");
        // The admitted requests leave first (request class, dequeued slower
        // than the gate refills), then the spillover drains from legacy,
        // demoted on the wire.
        for _ in 0..full {
            let p = s.dequeue(now).expect("admitted request present");
            assert!(!p.is_demoted(), "admitted requests leave as requests");
            now += SimDuration::from_millis(10);
        }
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
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let mut now = SimTime::ZERO;
        let offered = MAX_REQUEST_QUEUES as u64 + 5;
        for path in 1..=offered as u16 {
            assert_eq!(s.enqueue((request_pkt(path)).into(), now), Enqueued::Accepted);
        }
        assert_eq!(s.stats.requests_demoted, 5);
        assert_eq!(
            s.requests_offered(),
            offered,
            "offered must count every request: the key table's worth queued + 5 demoted"
        );
        // Drain, slower than the gate refills: the count must be stable as
        // queued become sent.
        while s.dequeue(now).is_some() {
            now += SimDuration::from_millis(10);
        }
        assert_eq!(s.stats.requests_sent + 5, offered, "every queued request was sent");
        assert_eq!(s.requests_offered(), offered);
    }

    #[test]
    fn request_state_is_capped_by_the_key_table() {
        // A sweep of distinct path identifiers grows request state one key
        // at a time up to `MAX_REQUEST_QUEUES`, and not one byte past it:
        // every further tag is demoted, not given a queue.
        let mut s = TvaScheduler::new(10_000_000, &cfg());
        let now = SimTime::ZERO;
        s.enqueue((request_pkt(1)).into(), now);
        let one = s.request_state_bytes();
        for path in 1..=MAX_REQUEST_QUEUES as u16 {
            s.enqueue((request_pkt(path)).into(), now);
        }
        let full = s.request_state_bytes();
        assert_eq!(full, MAX_REQUEST_QUEUES * one, "one key's state per distinct path");
        for path in MAX_REQUEST_QUEUES as u16 + 1..=5000 {
            s.enqueue((request_pkt(path)).into(), now);
        }
        assert_eq!(s.request_state_bytes(), full, "state stops at the key table's bound");
        assert_eq!(s.request_keys(), MAX_REQUEST_QUEUES);
        assert_eq!(s.stats.requests_demoted, 5000 - MAX_REQUEST_QUEUES as u64);
        s.audit().expect("accounting clean past the bound");
    }

    /// Every host's access link has a scheduler on its router side, and
    /// most of them never carry a packet: idle, one holds its counters, its
    /// sampler and a null pointer where the class queues go.
    #[test]
    fn idle_scheduler_stays_small() {
        let size = std::mem::size_of::<TvaScheduler>();
        assert!(size <= 120, "{size}");
    }

    /// A scheduler nothing was ever offered answers every query with the
    /// empty value, and answering creates no queues.
    #[test]
    fn never_used_scheduler_is_empty_and_holds_no_queues() {
        let cfg = RouterConfig { flow_sample_n: 1, ..cfg() };
        let mut s = TvaScheduler::new(10_000_000, &cfg);
        let now = SimTime::from_secs(1);
        assert_eq!(s.len_pkts(), 0);
        assert_eq!(s.len_bytes(), 0);
        assert!(s.dequeue(now).is_none());
        assert_eq!(s.next_ready(now), None);
        assert_eq!(s.audit(), Ok(()));
        assert_eq!(s.requests_offered(), 0);
        assert_eq!(s.regular_offered(), 0);
        assert_eq!(s.request_keys(), 0);
        assert_eq!(s.request_state_bytes(), 0);
        assert!(s.classes.is_none(), "queries must not create the class queues");
        s.enqueue(legacy_pkt(100).into(), now);
        assert!(s.classes.is_some(), "the first enqueue creates them");
    }

    /// A gate created at the first enqueue starts full, as one created with
    /// the scheduler would be at its first refill: a late first burst of
    /// requests leaves exactly as a burst offered at time zero does.
    #[test]
    fn lazy_gate_starts_full() {
        let cfg = RouterConfig { request_fraction: 0.01, ..cfg() };
        let late = SimTime::from_secs(5);
        let served = |start: SimTime| {
            let mut s = TvaScheduler::new(8_000, &cfg);
            for _ in 0..4 {
                s.enqueue(request_pkt_sized(1, 1000).into(), start);
            }
            std::iter::from_fn(|| s.dequeue(start)).count()
        };
        assert_eq!(served(late), served(SimTime::ZERO));
        assert!(served(late) > 0);
    }
}
