//! The load generator: pre-encoded frame templates for every traffic shape
//! the daemon benchmark exercises — legitimate capability-carrying flows,
//! request floods sweeping forged path identifiers (the PR 7 strategic
//! adversary's best lever against DRR key tables), spoofed capabilities,
//! legacy floods, and (in the dirty mix) malformed frames.
//!
//! Throughput matters as much as realism here: on a one-core box the
//! generator and the node share the CPU, so emitting a frame must cost a
//! memcpy, not an encode. Each legitimate flow keeps one pre-encoded
//! `regular (with caps)` frame; its first arrival full-validates and
//! creates the node's flow-table entry, every subsequent copy takes the
//! nonce fast path. Byte budgets are tracked generator-side and the flow's
//! source address rotates before the grant is exhausted (capabilities are
//! deterministic per `(src, dst, second, secret)`, so a fresh source is the
//! only way to a fresh budget within one second — same trick as the bench
//! rig's `rewarm`).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tva_core::capability::{mint_cap, mint_precap};
use tva_crypto::SecretSchedule;
use tva_obs::Histogram;
use tva_sim::SimTime;
use tva_wire::ipcodec::{encode_packet_into, internet_checksum};
use tva_wire::{
    Addr, CapHeader, CapValue, FlowNonce, Grant, Packet, PacketId, IP_HEADER_LEN,
};

use crate::transport::Transport;
use crate::{MixKind, NodeConfig};

/// The destination every generated flow targets (the sink behind the node).
pub const GEN_DST: Addr = Addr::new(10, 99, 0, 1);

const LEGIT_SRC_BASE: u32 = 0xAC10_0000; // 172.16.0.0/16
const SPOOF_SRC: Addr = Addr::new(203, 0, 113, 7);
const LEGACY_SRC: Addr = Addr::new(198, 51, 100, 9);

/// Emission counters, by shape.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenStats {
    /// Legitimate capability-carrying frames sent.
    pub legit: u64,
    /// Request-flood frames sent (forged path identifiers).
    pub requests: u64,
    /// Spoofed-capability frames sent (will demote at the node).
    pub spoofed: u64,
    /// Legacy (no-shim) frames sent.
    pub legacy: u64,
    /// Deliberately malformed frames sent (dirty mix only).
    pub malformed: u64,
    /// Frames not sent because the transport was backpressured.
    pub backpressure: u64,
}

impl GenStats {
    /// Total frames emitted.
    pub fn total(&self) -> u64 {
        self.legit + self.requests + self.spoofed + self.legacy + self.malformed
    }
}

struct Flow {
    src: Addr,
    /// Pre-encoded `regular (with caps)` frame for this flow.
    template: Vec<u8>,
    /// Grant bytes left before the node would demote for over-budget.
    budget_left: i64,
    /// The wall second the capability was minted at.
    minted_second: u64,
    /// Rotation counter folded into the next source address.
    generation: u32,
}

/// The generator. Deterministic for a given seed and emission schedule.
pub struct PktGen {
    /// The node's secret schedule (same seed ⇒ the generator can mint
    /// capabilities the node accepts, playing the role of a destination
    /// that returned them).
    schedule: SecretSchedule,
    grant: Grant,
    /// Generation increment per rotation (= flow count), keeping rotated
    /// source addresses disjoint across flows.
    stride: u32,
    flows: Vec<Flow>,
    next_flow: usize,
    mix: MixKind,
    rng: SmallRng,
    request_template: Vec<u8>,
    spoof_template: Vec<u8>,
    legacy_template: Vec<u8>,
    /// When true, each frame's IP id is overwritten with a rolling sequence
    /// and its send time recorded, enabling [`PktGen::e2e_latency_ns`].
    stamp_ids: bool,
    next_id: u16,
    send_ns: Vec<u64>,
    /// Emission counters.
    pub stats: GenStats,
}

fn encode(pkt: &Packet) -> Vec<u8> {
    let mut v = Vec::new();
    encode_packet_into(pkt, &mut v);
    v
}

/// Overwrites the IPv4 identification field and recomputes the header
/// checksum (10 u16 adds — cheap enough to keep emission template-based).
pub fn set_ip_id(frame: &mut [u8], id: u16) {
    frame[4..6].copy_from_slice(&id.to_be_bytes());
    frame[10] = 0;
    frame[11] = 0;
    let csum = internet_checksum(&frame[..IP_HEADER_LEN]);
    frame[10..12].copy_from_slice(&csum.to_be_bytes());
}

/// Reads the IPv4 identification field (frames shorter than a header yield
/// `None`).
pub fn ip_id(frame: &[u8]) -> Option<u16> {
    frame.get(4..6).map(|b| u16::from_be_bytes([b[0], b[1]]))
}

impl PktGen {
    /// Builds a generator against the node configured by `cfg`, with
    /// `cfg.flows` legitimate flows minted at `now`.
    pub fn new(cfg: &NodeConfig, now: SimTime) -> Self {
        let schedule = SecretSchedule::from_seed(cfg.secret_seed);
        let grant = Grant::from_parts(1023, 63);
        let now_secs = now.as_secs();
        let mut gen = PktGen {
            stride: cfg.flows.max(1) as u32,
            flows: Vec::with_capacity(cfg.flows),
            next_flow: 0,
            mix: cfg.mix,
            rng: SmallRng::seed_from_u64(cfg.secret_seed ^ 0x9E37_79B9_7F4A_7C15),
            request_template: Vec::new(),
            spoof_template: Vec::new(),
            legacy_template: Vec::new(),
            stamp_ids: false,
            next_id: 0,
            send_ns: Vec::new(),
            stats: GenStats::default(),
            schedule,
            grant,
        };
        for i in 0..cfg.flows.max(1) {
            let mut flow = Flow {
                src: Addr(0),
                template: Vec::new(),
                budget_left: 0,
                minted_second: 0,
                generation: i as u32,
            };
            gen.remint(&mut flow, i, now_secs);
            gen.flows.push(flow);
        }
        // A request whose entry list carries one forged upstream stamp; the
        // 2-byte path id at a fixed offset is randomized per send to sweep
        // the node's request DRR key table (shim bytes are outside the IP
        // checksum, so the sweep is a 2-byte patch).
        let mut req = CapHeader::request();
        if let tva_wire::CapPayload::Request { entries } = &mut req.payload {
            entries.push(tva_wire::RequestEntry {
                path_id: tva_wire::PathId(1),
                precap: CapValue::new(0, 0xDEAD_BEEF),
            });
        }
        gen.request_template = encode(&Packet {
            id: PacketId(0),
            src: SPOOF_SRC,
            dst: GEN_DST,
            cap: Some(req),
            tcp: None,
            payload_len: 0,
        });
        // A regular packet whose capability is garbage: full validation
        // fails, the node demotes (never drops) it.
        gen.spoof_template = encode(&Packet {
            id: PacketId(0),
            src: SPOOF_SRC,
            dst: GEN_DST,
            cap: Some(CapHeader::regular_with_caps(
                FlowNonce::new(0xBAD),
                grant,
                vec![CapValue::new(now_secs as u8, 0x0BAD_CAFE)],
            )),
            tcp: None,
            payload_len: 64,
        });
        gen.legacy_template = encode(&Packet {
            id: PacketId(0),
            src: LEGACY_SRC,
            dst: GEN_DST,
            cap: None,
            tcp: None,
            payload_len: 64,
        });
        gen
    }

    /// Enables per-frame IP-id stamping + send-time recording for
    /// end-to-end latency measurement (UDP demo; the ring bench measures
    /// in-node latency instead and keeps emission a pure memcpy).
    pub fn enable_latency_tracking(&mut self) {
        self.stamp_ids = true;
        self.send_ns = vec![0; 1 << 16];
    }

    /// Re-mints a flow's capability: fresh source address (fresh budget),
    /// fresh nonce, template re-encoded in place.
    fn remint(&mut self, flow: &mut Flow, idx: usize, now_secs: u64) {
        flow.generation = flow.generation.wrapping_add(self.stride);
        flow.src = Addr(LEGIT_SRC_BASE | (flow.generation & 0xFFFF));
        flow.minted_second = now_secs;
        let cap = mint_cap(
            mint_precap(&self.schedule, now_secs, flow.src, GEN_DST),
            self.grant,
        );
        let nonce = FlowNonce::new(((idx as u64) << 32) | flow.generation as u64);
        let pkt = Packet {
            id: PacketId(idx as u64),
            src: flow.src,
            dst: GEN_DST,
            cap: Some(CapHeader::regular_with_caps(nonce, self.grant, [cap])),
            tcp: None,
            payload_len: 0,
        };
        encode_packet_into(&pkt, &mut flow.template);
        // Spend at most half the grant (N KB) per identity: comfortably
        // inside the protocol auditor's 2N lifetime bound even with the
        // node's own charge accounting rounding against us.
        flow.budget_left = (self.grant.n.bytes() as i64) / 2;
    }

    fn pick_kind(&mut self) -> Shape {
        let roll = (self.rng.next_u32() % 100) as u8;
        match self.mix {
            MixKind::Clean => Shape::Legit,
            // Half the offered load is legitimate; the other half is the
            // adversary mix the scheduler must isolate.
            MixKind::Contested => match roll {
                0..=49 => Shape::Legit,
                50..=74 => Shape::Request,
                75..=89 => Shape::Spoofed,
                _ => Shape::Legacy,
            },
            MixKind::Dirty => match roll {
                0..=44 => Shape::Legit,
                45..=64 => Shape::Request,
                65..=79 => Shape::Spoofed,
                80..=89 => Shape::Legacy,
                _ => Shape::Malformed,
            },
        }
    }

    /// Emits up to `n` frames into `port` at `now`. Returns frames sent;
    /// stops early on transport backpressure.
    pub fn fill_burst(&mut self, port: &mut impl Transport, n: usize, now: SimTime) -> usize {
        let now_secs = now.as_secs();
        let now_ns = now.as_nanos();
        let mut sent = 0;
        for _ in 0..n {
            let shape = self.pick_kind();
            // Borrow dance: templates are owned by self, the closure only
            // touches the scratch slice handed to the transport.
            let ok = match shape {
                Shape::Legit => {
                    let idx = self.next_flow;
                    self.next_flow = (self.next_flow + 1) % self.flows.len();
                    let mut flow = std::mem::replace(
                        &mut self.flows[idx],
                        Flow {
                            src: Addr(0),
                            template: Vec::new(),
                            budget_left: 0,
                            minted_second: 0,
                            generation: 0,
                        },
                    );
                    let wire_len = flow.template.len() as i64;
                    if flow.budget_left < wire_len || now_secs > flow.minted_second + 30 {
                        self.remint(&mut flow, idx, now_secs);
                    }
                    flow.budget_left -= wire_len;
                    let stamp = self.next_stamp(now_ns);
                    let ok = port.tx_frame(&mut |buf| {
                        buf.clear();
                        buf.extend_from_slice(&flow.template);
                        if let Some(id) = stamp {
                            set_ip_id(buf, id);
                        }
                    });
                    if !ok {
                        // Refund: the frame never left.
                        flow.budget_left += wire_len;
                    }
                    self.flows[idx] = flow;
                    ok
                }
                Shape::Request => {
                    let pid = (self.rng.next_u32() & 0xFFFF) as u16;
                    let stamp = self.next_stamp(now_ns);
                    let tpl = &self.request_template;
                    port.tx_frame(&mut |buf| {
                        buf.clear();
                        buf.extend_from_slice(tpl);
                        // First request entry's path id sits right after the
                        // 4-byte shim common header.
                        let at = IP_HEADER_LEN + 4;
                        buf[at..at + 2].copy_from_slice(&pid.to_be_bytes());
                        if let Some(id) = stamp {
                            set_ip_id(buf, id);
                        }
                    })
                }
                Shape::Spoofed => {
                    let nonce = self.rng.next_u32();
                    let stamp = self.next_stamp(now_ns);
                    let tpl = &self.spoof_template;
                    port.tx_frame(&mut |buf| {
                        buf.clear();
                        buf.extend_from_slice(tpl);
                        // Low 4 nonce bytes, also outside the IP checksum.
                        let at = IP_HEADER_LEN + 4;
                        buf[at..at + 4].copy_from_slice(&nonce.to_be_bytes());
                        if let Some(id) = stamp {
                            set_ip_id(buf, id);
                        }
                    })
                }
                Shape::Legacy => {
                    let stamp = self.next_stamp(now_ns);
                    let tpl = &self.legacy_template;
                    port.tx_frame(&mut |buf| {
                        buf.clear();
                        buf.extend_from_slice(tpl);
                        if let Some(id) = stamp {
                            set_ip_id(buf, id);
                        }
                    })
                }
                Shape::Malformed => {
                    let roll = self.rng.next_u32();
                    let tpl = &self.legacy_template;
                    port.tx_frame(&mut |buf| {
                        buf.clear();
                        buf.extend_from_slice(tpl);
                        if roll & 1 == 0 {
                            // Corrupt a header byte without fixing the
                            // checksum.
                            buf[(roll as usize >> 1) % IP_HEADER_LEN] ^= 0x5A;
                        } else {
                            // Truncate mid-header or mid-payload.
                            let cut = (roll as usize >> 1) % buf.len();
                            buf.truncate(cut);
                        }
                    })
                }
            };
            if !ok {
                self.stats.backpressure += 1;
                break;
            }
            match shape {
                Shape::Legit => self.stats.legit += 1,
                Shape::Request => self.stats.requests += 1,
                Shape::Spoofed => self.stats.spoofed += 1,
                Shape::Legacy => self.stats.legacy += 1,
                Shape::Malformed => self.stats.malformed += 1,
            }
            sent += 1;
        }
        sent
    }

    fn next_stamp(&mut self, now_ns: u64) -> Option<u16> {
        if !self.stamp_ids {
            return None;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.send_ns[id as usize] = now_ns;
        Some(id)
    }

    /// Records the end-to-end latency of a returned frame into `hist`,
    /// matching it to its send time by IP id. No-op unless
    /// [`enable_latency_tracking`](Self::enable_latency_tracking) was
    /// called and the id is live.
    pub fn record_e2e(&mut self, frame: &[u8], now: SimTime, hist: &mut Histogram) {
        if !self.stamp_ids {
            return;
        }
        let Some(id) = ip_id(frame) else { return };
        let sent = std::mem::take(&mut self.send_ns[id as usize]);
        if sent != 0 {
            hist.record(now.as_nanos().saturating_sub(sent));
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Legit,
    Request,
    Spoofed,
    Legacy,
    Malformed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeClock, NodeEngine};
    use crate::transport::ring_pair;

    #[test]
    fn clean_mix_forwards_without_demotions_or_malformed() {
        let cfg = NodeConfig::default();
        let clock = NodeClock::new();
        let mut node = NodeEngine::new(&cfg);
        let mut gen = PktGen::new(&cfg, clock.now());
        let (mut node_port, mut wire) = ring_pair(256);
        let mut forwarded = 0u64;
        for _ in 0..200 {
            let now = clock.now();
            gen.fill_burst(&mut wire, 64, now);
            node.poll(&mut node_port, &clock, 64);
            wire.rx_burst(128, &mut |_| forwarded += 1);
        }
        assert!(forwarded > 1000, "goodput must flow ({forwarded})");
        assert_eq!(node.stats.malformed_drops, 0);
        assert_eq!(node.router.stats.demotions, 0, "clean mix must never demote");
        assert!(
            node.router.stats.nonce_hits > node.router.stats.full_validations,
            "steady flows must ride the nonce fast path"
        );
    }

    #[test]
    fn dirty_mix_counts_malformed_without_panicking() {
        let cfg = NodeConfig { mix: MixKind::Dirty, ..NodeConfig::default() };
        let clock = NodeClock::new();
        let mut node = NodeEngine::new(&cfg);
        let mut gen = PktGen::new(&cfg, clock.now());
        let (mut node_port, mut wire) = ring_pair(256);
        for _ in 0..100 {
            let now = clock.now();
            gen.fill_burst(&mut wire, 64, now);
            node.poll(&mut node_port, &clock, 64);
            wire.rx_burst(128, &mut |_| ());
        }
        assert!(gen.stats.malformed > 0);
        // Strict decode rejects every shape we emit: corrupted headers fail
        // the checksum, truncations fail the total-length match — but only
        // frames the node has already pulled off the ring are counted.
        assert!(node.stats.malformed_drops > 0);
        assert!(node.stats.malformed_drops <= gen.stats.malformed);
        assert!(node.router.stats.demotions > 0, "spoofed caps must demote");
    }

    #[test]
    fn budget_rotation_keeps_legit_flows_valid() {
        // Tiny flow count ⇒ heavy per-flow byte pressure ⇒ rotation must
        // kick in well before the node's budget check would demote.
        let cfg = NodeConfig { flows: 2, ..NodeConfig::default() };
        let clock = NodeClock::new();
        let mut node = NodeEngine::new(&cfg);
        let mut gen = PktGen::new(&cfg, clock.now());
        let (mut node_port, mut wire) = ring_pair(256);
        // 2 flows × 40-byte frames: ~13k frames overruns one half-grant
        // (511 KB) per flow, forcing several rotations.
        for _ in 0..600 {
            let now = clock.now();
            gen.fill_burst(&mut wire, 64, now);
            node.poll(&mut node_port, &clock, 64);
            wire.rx_burst(128, &mut |_| ());
        }
        assert!(gen.stats.legit > 25_000);
        assert_eq!(node.router.stats.demoted_over_budget, 0, "rotation must pre-empt budget");
        assert_eq!(node.router.stats.demotions, 0);
        assert!(node.router.stats.full_validations > 2, "rotations re-validate");
    }

    #[test]
    fn ip_id_patch_keeps_checksum_valid() {
        let cfg = NodeConfig::default();
        let gen = PktGen::new(&cfg, SimTime::from_secs(100));
        let mut frame = gen.legacy_template.clone();
        set_ip_id(&mut frame, 0xABCD);
        assert_eq!(ip_id(&frame), Some(0xABCD));
        assert_eq!(internet_checksum(&frame[..IP_HEADER_LEN]), 0);
        assert!(tva_wire::decode_packet(&frame).is_ok());
    }
}
