//! Property tests for the TVA core: the scheduler's request-rate guarantee,
//! modular-clock expiry, and demotion stickiness.

use proptest::prelude::*;
use tva_core::REQUEST_BURST_BYTES;
use tva_core::{capability, RouterConfig, TvaRouter, TvaScheduler, Verdict};
use tva_crypto::SecretSchedule;
use tva_sim::{ChannelId, QueueDisc, SimDuration, SimTime};
use tva_wire::{
    Addr, CapHeader, CapPayload, CapValue, FlowNonce, Grant, Packet, PacketId, PathId,
    RequestEntry,
};

const SRC: Addr = Addr::new(1, 0, 0, 1);
const DST: Addr = Addr::new(2, 0, 0, 2);

fn legacy(bytes: u32) -> Packet {
    Packet { id: PacketId(0), src: SRC, dst: DST, cap: None, tcp: None, payload_len: bytes }
}

fn request(path: u16, bytes: u32) -> Packet {
    let mut h = CapHeader::request();
    if let CapPayload::Request { entries } = &mut h.payload {
        entries.push(RequestEntry { path_id: PathId(path), precap: CapValue::new(0, 1) });
    }
    Packet { cap: Some(h), ..legacy(bytes) }
}

fn regular(dst_octet: u8, bytes: u32) -> Packet {
    Packet {
        cap: Some(CapHeader::regular_nonce_only(FlowNonce::new(3))),
        dst: Addr::new(9, 9, 9, dst_octet),
        ..legacy(bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 5: over a long drain, the request class never exceeds its
    /// configured fraction of the link (plus the burst allowance), no
    /// matter what arrival mix is offered.
    #[test]
    fn request_class_rate_is_always_capped(
        arrivals in proptest::collection::vec(
            prop_oneof![
                (0u16..8, 40u32..1000).prop_map(|(p, b)| (0u8, p, b)),  // request
                (0u8..8, 40u32..1000).prop_map(|(d, b)| (1u8, d as u16, b)), // regular
                (40u32..1000).prop_map(|b| (2u8, 0u16, b)),            // legacy
            ],
            50..400,
        ),
        fraction_pct in 1u32..10,
    ) {
        let link_bps = 10_000_000u64;
        let cfg = RouterConfig {
            request_fraction: fraction_pct as f64 / 100.0,
            per_queue_cap_bytes: 10 << 20,
            ..RouterConfig::default()
        };
        let mut s = TvaScheduler::new(link_bps, &cfg);
        let now = SimTime::ZERO;
        for &(kind, key, bytes) in &arrivals {
            let pkt = match kind {
                0 => request(key + 1, bytes),
                1 => regular(key as u8, bytes),
                _ => legacy(bytes),
            };
            let _ = s.enqueue(pkt.into(), now);
        }
        // Drain at link pace for long enough to empty or hit the horizon.
        let mut t = now;
        let mut req_bytes = 0u64;
        let mut total_bytes = 0u64;
        let horizon = SimTime::from_secs(30);
        while t < horizon {
            match s.dequeue(t) {
                Some(p) => {
                    let len = p.wire_len() as u64;
                    total_bytes += len;
                    if matches!(
                        p.cap.as_ref().map(|c| &c.payload),
                        Some(CapPayload::Request { .. })
                    ) {
                        req_bytes += len;
                    }
                    t += SimDuration::transmission(p.wire_len(), link_bps);
                }
                None => match s.next_ready(t) {
                    Some(w) if w > t => t = w,
                    _ => break,
                },
            }
        }
        let elapsed = t.as_secs_f64().max(1e-9);
        let allowed = (link_bps as f64 / 8.0) * (fraction_pct as f64 / 100.0) * elapsed
            + REQUEST_BURST_BYTES as f64;
        prop_assert!(
            req_bytes as f64 <= allowed + 1500.0,
            "requests got {req_bytes} of {total_bytes} bytes; allowed ≈{allowed:.0}"
        );
    }

    /// Modular-clock expiry: for any mint second and any offset, a
    /// capability validates iff the offset is within T (offsets are kept
    /// under the 128 s secret-rotation lifetime so only the T check is in
    /// play).
    #[test]
    fn expiry_matches_wall_clock(seed: u64, mint in 0u64..1_000_000, t_secs in 1u8..63,
                                 dt in 0u64..127) {
        let schedule = SecretSchedule::from_seed(seed);
        let grant = Grant::from_parts(100, t_secs);
        let cap = capability::mint_cap(
            capability::mint_precap(&schedule, mint, SRC, DST),
            grant,
        );
        let ok =
            capability::validate_cap(&schedule, mint + dt, SRC, DST, grant, cap, 1.0).is_ok();
        prop_assert_eq!(ok, dt <= t_secs as u64, "mint={} dt={} T={}", mint, dt, t_secs);
    }

    /// Demotion is sticky: once a router demotes a packet, downstream
    /// routers never upgrade it — even if it carries capabilities that
    /// would validate there.
    #[test]
    fn demotion_is_sticky_downstream(seed: u64, bytes in 0u32..1400) {
        let cfg = RouterConfig { secret_seed: seed, ..RouterConfig::default() };
        let mut downstream = TvaRouter::new(cfg, 10_000_000);
        let grant = Grant::from_parts(100, 10);
        let now = SimTime::from_secs(50);
        // A capability the downstream router itself would accept.
        let cap = capability::mint_cap(
            capability::mint_precap(downstream.schedule(), now.as_secs(), SRC, DST),
            grant,
        );
        let mut h = CapHeader::regular_with_caps(FlowNonce::new(1), grant, vec![cap]);
        h.demoted = true; // an upstream router demoted it
        let mut pkt = Packet { cap: Some(h), payload_len: bytes, ..legacy(bytes) };
        let v = downstream.process(&mut pkt, ChannelId(0), now);
        prop_assert_eq!(v, Verdict::Legacy);
        prop_assert!(pkt.is_demoted(), "the demoted bit must survive");
        prop_assert!(downstream.table().is_empty(), "no state for demoted packets");
    }
}
