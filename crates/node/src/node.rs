//! The forwarding engine: the *identical* `tva-core` router pipeline —
//! capability validation/stamping ([`TvaRouter::process`]), then the
//! three-class [`TvaScheduler`] (paced requests, per-destination DRR
//! regular, legacy FIFO) — driven by a poll loop over a [`Transport`]
//! instead of the discrete-event queue.
//!
//! Per RX frame: strict wire decode (malformed frames are counted and
//! dropped, never panic), a pooled [`Pkt`] wrap (allocation-free after
//! warm-up), router processing against the node's wall clock, and an
//! enqueue into the egress scheduler. Per TX slot: dequeue in scheduler
//! priority order, re-encode into the transport's retained buffer, and
//! record the RX→TX forwarding latency in a log-linear histogram.
//!
//! A burst moves through those stages one stage at a time — all frames
//! decoded, then all wrapped, then all processed, then all enqueued — not
//! one frame through all stages. The stage boundaries are exactly the public
//! calls (`decode_packet`, `Pkt::new`, `TvaRouter::process`,
//! `TvaScheduler::enqueue`), so the stage-by-stage replica the repo
//! benchmark times is this loop, not an approximation of it
//! (`tests/stages.rs` holds the two equal, output for output; DESIGN.md
//! §4g prices the choice).

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use tva_core::{RouterConfig, TvaRouter, TvaScheduler};
use tva_obs::Histogram;
use tva_sim::{ChannelId, Enqueued, Pkt, QueueDisc, SimTime};
use tva_wire::ipcodec::{decode_packet, encode_packet_into};
use tva_wire::Packet;

use crate::transport::Transport;
use crate::NodeConfig;

/// The node's wall clock, expressed as [`SimTime`] so the router's expiry
/// checks and the scheduler's pacing gate run unmodified: a Unix-epoch base
/// (capability timestamps are seconds mod 256, so the generator and the
/// node agree on "now" across threads and processes) plus a monotonic
/// `Instant` delta for nanosecond-resolution latency accounting.
pub struct NodeClock {
    base_ns: u64,
    /// `None` for a stopped clock, which reads `base_ns` forever.
    start: Option<Instant>,
}

impl NodeClock {
    /// A clock starting at the current wall time.
    pub fn new() -> Self {
        let base_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs() * 1_000_000_000)
            .unwrap_or(0);
        NodeClock { base_ns, start: Some(Instant::now()) }
    }

    /// A clock stopped at `t`: every read returns `t`. Lets a test (or a
    /// replay) hand [`NodeEngine::poll`] the exact instant it hands a second
    /// implementation, so the two can be compared output for output.
    pub fn stopped_at(t: SimTime) -> Self {
        NodeClock { base_ns: t.as_nanos(), start: None }
    }

    /// The current instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        let run_ns = self.start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        SimTime::from_nanos(self.base_ns + run_ns)
    }
}

impl Default for NodeClock {
    fn default() -> Self {
        NodeClock::new()
    }
}

/// Frame-level counters for one node (router-level counters live in
/// [`TvaRouter::stats`], class-level ones in the scheduler's).
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeStats {
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames forwarded.
    pub tx_frames: u64,
    /// Bytes forwarded.
    pub tx_bytes: u64,
    /// Frames that failed strict wire decode (also counted in the router's
    /// `malformed_drops`).
    pub malformed_drops: u64,
    /// Packets the egress scheduler refused (class queue caps).
    pub queue_drops: u64,
    /// TX attempts deferred by transport backpressure.
    pub tx_backpressure: u64,
}

/// The ingress interface id the daemon presents to the router. A one-port
/// daemon has a single ingress; the path-identifier tag still derives from
/// it, so stamped requests carry a real tag.
pub const NODE_INGRESS: ChannelId = ChannelId(1);

/// A forwarding node: router + egress scheduler + counters + latency
/// histogram, polled over any [`Transport`].
pub struct NodeEngine {
    /// The packet-processing pipeline (validation, stamping, flow table).
    pub router: TvaRouter,
    /// The egress scheduler (request pacing, per-destination DRR, legacy FIFO).
    pub sched: TvaScheduler,
    /// Frame-level counters.
    pub stats: NodeStats,
    /// RX→TX forwarding latency, nanoseconds.
    pub latency_ns: Histogram,
    /// A packet dequeued while the transport was backpressured; retried
    /// first on the next poll so scheduler order is preserved.
    pending: Option<Pkt>,
    /// The RX burst after decode, and after the pool wrap: both empty
    /// between calls, their capacity retained so the steady state stays
    /// allocation-free.
    rx_decoded: Vec<Packet>,
    rx_burst: Vec<Pkt>,
}

impl NodeEngine {
    /// Builds a node for `cfg` (router secret seed, egress link rate).
    pub fn new(cfg: &NodeConfig) -> Self {
        let rcfg = RouterConfig {
            secret_seed: cfg.secret_seed,
            flow_sample_n: cfg.sample_n,
            request_limiter: if cfg.sketched {
                tva_core::RequestLimiter::Sketched
            } else {
                tva_core::RequestLimiter::Flat
            },
            ..RouterConfig::default()
        };
        let sched = TvaScheduler::new(cfg.link_bps, &rcfg);
        let router = TvaRouter::new(rcfg, cfg.link_bps);
        NodeEngine {
            router,
            sched,
            stats: NodeStats::default(),
            latency_ns: Histogram::new(),
            pending: None,
            rx_decoded: Vec::new(),
            rx_burst: Vec::new(),
        }
    }

    /// Ingests one raw frame at `now`: decode, process, enqueue — a burst of
    /// one. Malformed frames only bump counters — the daemon boundary must
    /// never panic on wire input (see `tests/frames.rs`).
    pub fn rx_frame(&mut self, frame: &[u8], now: SimTime) {
        self.decode_frame(frame);
        self.admit_burst(now);
    }

    /// Counts `frame` and decodes it onto the back of the RX burst; a
    /// malformed frame is counted and dropped.
    #[inline]
    fn decode_frame(&mut self, frame: &[u8]) {
        self.stats.rx_frames += 1;
        self.stats.rx_bytes += frame.len() as u64;
        match decode_packet(frame) {
            Ok(pkt) => self.rx_decoded.push(pkt),
            Err(_) => {
                self.stats.malformed_drops += 1;
                self.router.stats.malformed_drops += 1;
            }
        }
    }

    /// Takes the decoded RX burst through pool wrap, router and egress
    /// scheduler, one stage over the whole burst at a time.
    fn admit_burst(&mut self, now: SimTime) {
        self.rx_burst.extend(self.rx_decoded.drain(..).map(Pkt::new));
        for pkt in &mut self.rx_burst {
            let _verdict = self.router.process(pkt, NODE_INGRESS, now);
        }
        for mut pkt in self.rx_burst.drain(..) {
            pkt.set_enqueued_at(now);
            if self.sched.enqueue(pkt, now) == Enqueued::Dropped {
                self.stats.queue_drops += 1;
            }
        }
    }

    /// One RX burst + one TX burst over `port`, each capped at `batch`
    /// frames. Returns `(rx, tx)` counts. The clock is read once per phase,
    /// not per packet, keeping timer syscalls off the per-packet path.
    pub fn poll<T: Transport>(
        &mut self,
        port: &mut T,
        clock: &NodeClock,
        batch: usize,
    ) -> (usize, usize) {
        let now_rx = clock.now();
        // Split borrows: the closure mutates `self` while `port` is handed
        // out separately.
        let this = &mut *self;
        let rx = port.rx_burst(batch, &mut |frame| this.decode_frame(frame));
        self.admit_burst(now_rx);

        let now_tx = clock.now();
        let mut tx = 0;
        while tx < batch {
            let pkt = match self.pending.take() {
                Some(p) => p,
                None => match self.sched.dequeue(now_tx) {
                    Some(p) => p,
                    None => break,
                },
            };
            let sent = port.tx_frame(&mut |buf| encode_packet_into(&pkt, buf));
            if !sent {
                self.stats.tx_backpressure += 1;
                self.pending = Some(pkt);
                break;
            }
            self.stats.tx_frames += 1;
            self.stats.tx_bytes += pkt.wire_len() as u64;
            self.latency_ns.record(now_tx.since(pkt.enqueued_at()).as_nanos());
            tx += 1;
        }
        (rx, tx)
    }

    /// Resets the node's, router's and scheduler's counters and the latency
    /// histogram at one point (after warm-up), so adjacent layers count the
    /// same window. Router/scheduler state — flow table (with its
    /// `reclaims` / `admission_failures`), DRR queues, gate balance — stays
    /// intact.
    pub fn reset_meters(&mut self) {
        self.stats = NodeStats::default();
        self.router.stats = Default::default();
        self.sched.stats = Default::default();
        self.latency_ns.reset();
    }

    /// Folds node counters and the latency histogram into an obs registry
    /// under `node.*`, alongside the router's own `Observe` output.
    pub fn observe(&self, reg: &mut tva_obs::Registry) {
        let stats = [
            ("node.rx_frames", self.stats.rx_frames),
            ("node.rx_bytes", self.stats.rx_bytes),
            ("node.tx_frames", self.stats.tx_frames),
            ("node.tx_bytes", self.stats.tx_bytes),
            ("node.malformed_drops", self.stats.malformed_drops),
            ("node.queue_drops", self.stats.queue_drops),
            ("node.tx_backpressure", self.stats.tx_backpressure),
        ];
        for (name, v) in stats {
            let id = reg.counter(name);
            reg.set_counter(id, v);
        }
        let h = reg.hist("node.forward_latency_ns");
        reg.histogram_mut(h).merge(&self.latency_ns);
        // Instantaneous egress backlog, for the live dashboard's
        // queue-depth view.
        let g = reg.gauge("node.queue_depth_pkts");
        reg.set(g, self.sched.len_pkts() as f64);
        let g = reg.gauge("node.queue_depth_bytes");
        reg.set(g, self.sched.len_bytes() as f64);
        // Bounded-state telemetry: policing-state footprint plus — in
        // sketched mode — sketch occupancy and (under TVA_CHECK) the mean
        // overestimate of the audit shadow map.
        let g = reg.gauge("node.state_bytes");
        reg.set(
            g,
            (self.router.table().state_bytes_estimate() + self.sched.request_state_bytes()) as f64,
        );
        self.sched.observe_request_channel("node.sched", reg);
        use tva_obs::Observe;
        self.router.stats.observe("node.router", reg);
        self.sched.stats.observe("node.sched", reg);
        if self.router.flow.enabled() || self.sched.flow.enabled() {
            let mut flows = self.router.flow.clone();
            flows.merge(&self.sched.flow);
            flows.observe("node.flow", reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ring_pair;
    use tva_wire::{encode_packet, Addr, CapHeader, Packet, PacketId};

    fn legacy_frame() -> Vec<u8> {
        encode_packet(&Packet {
            id: PacketId(1),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: 64,
        })
    }

    #[test]
    fn forwards_a_legacy_frame_end_to_end() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        let (mut node_port, mut wire) = ring_pair(16);
        assert!(wire.tx_frame(&mut |b| {
            b.clear();
            b.extend_from_slice(&legacy_frame());
        }));
        let (rx, tx) = node.poll(&mut node_port, &clock, 32);
        assert_eq!((rx, tx), (1, 1));
        let mut out = Vec::new();
        assert_eq!(wire.rx_burst(4, &mut |f| out.extend_from_slice(f)), 1);
        let back = decode_packet(&out).unwrap();
        assert_eq!(back.dst, Addr::new(10, 0, 0, 2));
        assert_eq!(node.stats.malformed_drops, 0);
        assert_eq!(node.latency_ns.count(), 1);
    }

    #[test]
    fn malformed_frames_count_and_never_panic() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let now = NodeClock::new().now();
        node.rx_frame(&[], now);
        node.rx_frame(&[0x45; 7], now);
        let mut bad = legacy_frame();
        bad[9] ^= 0xFF; // breaks the header checksum
        node.rx_frame(&bad, now);
        assert_eq!(node.stats.malformed_drops, 3);
        assert_eq!(node.router.stats.malformed_drops, 3);
        assert_eq!(node.stats.rx_frames, 3);
    }

    #[test]
    fn requests_get_stamped_on_the_way_through() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        let (mut node_port, mut wire) = ring_pair(16);
        let req = Packet {
            id: PacketId(2),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap: Some(CapHeader::request()),
            tcp: None,
            payload_len: 0,
        };
        assert!(wire.tx_frame(&mut |b| {
            b.clear();
            b.extend_from_slice(&encode_packet(&req));
        }));
        node.poll(&mut node_port, &clock, 32);
        let mut out = Vec::new();
        wire.rx_burst(4, &mut |f| out.extend_from_slice(f));
        let back = decode_packet(&out).unwrap();
        let Some(CapHeader { payload: tva_wire::CapPayload::Request { entries }, .. }) =
            back.cap
        else {
            panic!("request must stay a request");
        };
        assert_eq!(entries.len(), 1, "node must stamp its pre-capability");
        assert_eq!(node.router.stats.requests_stamped, 1);
    }

    #[test]
    fn backpressure_holds_the_packet_not_drops_it() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        // 2-slot rings each way. First poll fills the node→wire ring; the
        // second poll's TX jams against the undrained ring.
        let (mut node_port, mut wire) = ring_pair(2);
        for round in 0..2 {
            for _ in 0..2 {
                assert!(wire.tx_frame(&mut |b| {
                    b.clear();
                    b.extend_from_slice(&legacy_frame());
                }), "round {round}");
            }
            node.poll(&mut node_port, &clock, 8);
        }
        assert_eq!(node.stats.rx_frames, 4);
        assert_eq!(node.stats.tx_frames, 2, "TX ring holds 2");
        assert!(node.stats.tx_backpressure >= 1);
        // Drain the wire; the held packets go out on the next poll.
        let mut n = 0;
        wire.rx_burst(16, &mut |_| n += 1);
        assert_eq!(n, 2);
        node.poll(&mut node_port, &clock, 8);
        assert_eq!(node.stats.tx_frames, 4, "no forwarded packet was lost");
        assert_eq!(node.stats.queue_drops, 0);
    }
}
