//! Daemon-boundary robustness: property tests that the node's RX path —
//! strict wire decode feeding the real router — **never panics** on hostile
//! bytes, and that every undecodable frame is accounted as exactly one
//! `malformed_drops` (node- and router-level), never silently lost.
//!
//! The wire codec has its own round-trip/never-panic properties
//! (`crates/wire/tests/prop.rs`); these run the same adversarial inputs
//! through [`NodeEngine::rx_frame`], where a panic would take the daemon
//! off the wire — the cheapest DoS of all.

use proptest::prelude::*;
use tva_node::{NodeClock, NodeConfig, NodeEngine, Transport};
use tva_wire::{
    decode_packet, encode_packet, Addr, CapHeader, CapList, CapPayload, CapValue, FlowNonce,
    Grant, Packet, PacketId, PathId, RequestEntry, RequestList, ReturnInfo, TcpFlags, TcpSegment,
    MAX_PATH_ROUTERS,
};

fn arb_capvalue() -> impl Strategy<Value = CapValue> {
    (any::<u8>(), any::<u64>()).prop_map(|(ts, h)| CapValue::new(ts, h))
}

fn arb_grant() -> impl Strategy<Value = Grant> {
    (0u16..=1023, 0u8..=63).prop_map(|(kb, s)| Grant::from_parts(kb, s))
}

fn arb_caps() -> impl Strategy<Value = Vec<CapValue>> {
    // Inclusive bound: full-capacity inline lists are the frames that sit
    // exactly at the decoder's length limits.
    proptest::collection::vec(arb_capvalue(), 0..=MAX_PATH_ROUTERS)
}

fn arb_header() -> impl Strategy<Value = CapHeader> {
    let request = proptest::collection::vec(
        (any::<u16>(), arb_capvalue())
            .prop_map(|(pid, precap)| RequestEntry { path_id: PathId(pid), precap }),
        0..=MAX_PATH_ROUTERS,
    )
    .prop_map(|entries| CapPayload::Request { entries: RequestList::from(entries) });
    let regular = (
        any::<u64>(),
        any::<u8>(),
        proptest::option::of((arb_grant(), arb_caps())),
        any::<bool>(),
    )
        .prop_map(|(nonce, ptr, caps, renewal)| {
            let renewal = renewal && caps.is_some();
            let ptr = if caps.is_some() { ptr } else { 0 };
            let caps = caps.map(|(g, list)| (g, CapList::from(list)));
            CapPayload::Regular { nonce: FlowNonce::new(nonce), ptr, caps, renewal }
        });
    let ret = prop_oneof![
        Just(None),
        Just(Some(ReturnInfo::DemotionNotice)),
        (arb_grant(), arb_caps())
            .prop_map(|(grant, caps)| Some(ReturnInfo::Capabilities { grant, caps: caps.into() })),
    ];
    (any::<bool>(), prop_oneof![request, regular], ret)
        .prop_map(|(demoted, payload, return_info)| CapHeader { demoted, payload, return_info })
}

fn arb_tcp() -> impl Strategy<Value = TcpSegment> {
    (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
        |(sp, dp, seq, ack, fl)| TcpSegment {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: TcpFlags {
                syn: fl & 1 != 0,
                ack: fl & 2 != 0,
                fin: fl & 4 != 0,
                rst: fl & 8 != 0,
            },
        },
    )
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        proptest::option::of(arb_header()),
        proptest::option::of(arb_tcp()),
        any::<u32>(),
        any::<u32>(),
        0u32..1200,
    )
        .prop_map(|(cap, tcp, src, dst, payload_len)| Packet {
            id: PacketId(0),
            src: Addr(src),
            dst: Addr(dst),
            cap,
            tcp,
            payload_len,
        })
}

fn fresh_node() -> (NodeEngine, NodeClock) {
    let node = NodeEngine::new(&NodeConfig::default());
    let clock = NodeClock::new();
    (node, clock)
}

proptest! {
    /// Every well-formed encoding — including max-capacity inline lists —
    /// ingests without a malformed drop: what the generator can encode, the
    /// daemon can decode.
    #[test]
    fn well_formed_frames_are_never_counted_malformed(pkt in arb_packet()) {
        let (mut node, clock) = fresh_node();
        node.rx_frame(&encode_packet(&pkt), clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, 0);
    }

    /// Truncating a frame at any cut is always caught by the strict decoder
    /// (the IP total-length field must match the byte count exactly) and
    /// bumps exactly one malformed counter at each level — no panic, no
    /// silent loss.
    #[test]
    fn truncated_frames_count_one_malformed_drop(pkt in arb_packet(),
                                                 cut in any::<prop::sample::Index>()) {
        let frame = encode_packet(&pkt);
        let at = cut.index(frame.len());
        let (mut node, clock) = fresh_node();
        node.rx_frame(&frame[..at], clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, 1);
        prop_assert_eq!(node.router.stats.malformed_drops, 1);
        prop_assert_eq!(node.stats.queue_drops, 0);
    }

    /// Flipping any single bit never panics the RX path, and the node's
    /// accounting stays exact: the frame either still decodes (flips in
    /// shim bytes outside the IP header checksum) and is processed, or it
    /// is counted as exactly one malformed drop.
    #[test]
    fn bit_flips_never_panic_and_are_fully_accounted(pkt in arb_packet(),
                                                     idx in any::<prop::sample::Index>(),
                                                     bit in 0u8..8) {
        let mut frame = encode_packet(&pkt);
        let i = idx.index(frame.len());
        frame[i] ^= 1 << bit;
        let decodes = decode_packet(&frame).is_ok();
        let (mut node, clock) = fresh_node();
        node.rx_frame(&frame, clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, u64::from(!decodes));
        prop_assert_eq!(node.router.stats.malformed_drops, u64::from(!decodes));
    }

    /// Arbitrary byte soup — not even derived from a real packet — never
    /// panics the daemon boundary.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (mut node, clock) = fresh_node();
        let decodes = decode_packet(&data).is_ok();
        node.rx_frame(&data, clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, u64::from(!decodes));
    }
}

/// A full-capacity request frame (every slot of the inline list populated)
/// survives the whole daemon loop — decode, router stamping (which *grows*
/// the list handling path), re-encode into the transport buffer — and the
/// re-encoded bytes still decode.
#[test]
fn max_size_request_round_trips_through_the_daemon() {
    let entries: Vec<RequestEntry> = (0..MAX_PATH_ROUTERS - 1)
        .map(|i| RequestEntry { path_id: PathId(i as u16), precap: CapValue::new(i as u8, i as u64) })
        .collect();
    let pkt = Packet {
        id: PacketId(7),
        src: Addr::new(10, 0, 0, 1),
        dst: Addr::new(10, 0, 0, 2),
        cap: Some(CapHeader {
            demoted: false,
            payload: CapPayload::Request { entries: RequestList::from(entries) },
            return_info: None,
        }),
        tcp: None,
        payload_len: 0,
    };
    let (mut node, clock) = fresh_node();
    let (mut node_port, mut wire) = tva_node::ring_pair(8);
    assert!(wire.tx_frame(&mut |b| {
        b.clear();
        b.extend_from_slice(&encode_packet(&pkt));
    }));
    let (rx, tx) = node.poll(&mut node_port, &clock, 8);
    assert_eq!((rx, tx), (1, 1));
    assert_eq!(node.stats.malformed_drops, 0);
    let mut out = Vec::new();
    assert_eq!(wire.rx_burst(4, &mut |f| out.extend_from_slice(f)), 1);
    let back = decode_packet(&out).expect("stamped max-size request re-decodes");
    let Some(CapHeader { payload: CapPayload::Request { entries }, .. }) = back.cap else {
        panic!("request must stay a request");
    };
    assert_eq!(entries.len(), MAX_PATH_ROUTERS, "node appended its stamp into the last slot");
}

/// Lists at the protocol bound — 32 entries, 28 past what a packet holds
/// inline — survive the whole daemon loop in each of the three positions a
/// list can occupy: a full request (no room to stamp: forwarded demoted,
/// entries intact), a 32-capability regular packet and a 32-capability
/// return list (neither validates here; both are forwarded with their
/// lists untouched).
#[test]
fn full_capacity_lists_round_trip_through_the_daemon() {
    let caps: Vec<CapValue> =
        (0..MAX_PATH_ROUTERS).map(|i| CapValue::new(i as u8, 0xC0DE + i as u64)).collect();
    let entries: Vec<RequestEntry> = caps
        .iter()
        .enumerate()
        .map(|(i, &precap)| RequestEntry { path_id: PathId(i as u16), precap })
        .collect();
    let grant = Grant::from_parts(100, 10);
    let request = CapHeader {
        demoted: false,
        payload: CapPayload::Request { entries: RequestList::from(entries) },
        return_info: None,
    };
    let regular = CapHeader::regular_with_caps(FlowNonce::new(9), grant, caps.clone());
    let mut returning = CapHeader::regular_nonce_only(FlowNonce::new(10));
    returning.return_info = Some(ReturnInfo::Capabilities { grant, caps: caps.into() });

    for header in [request, regular, returning] {
        let pkt = Packet {
            id: PacketId(7),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap: Some(header.clone()),
            tcp: None,
            payload_len: 32,
        };
        let (mut node, clock) = fresh_node();
        let (mut node_port, mut wire) = tva_node::ring_pair(8);
        assert!(wire.tx_frame(&mut |b| {
            b.clear();
            b.extend_from_slice(&encode_packet(&pkt));
        }));
        assert_eq!(node.poll(&mut node_port, &clock, 8), (1, 1));
        assert_eq!(node.stats.malformed_drops, 0);
        let mut out = Vec::new();
        assert_eq!(wire.rx_burst(4, &mut |f| out.extend_from_slice(f)), 1);
        let back = decode_packet(&out).expect("forwarded frame re-decodes");
        assert_eq!(back.wire_len(), pkt.wire_len());
        let back = back.cap.expect("the shim is forwarded");
        match (&back.payload, &header.payload) {
            (CapPayload::Request { entries: got }, CapPayload::Request { entries: sent }) => {
                assert_eq!(got, sent);
                assert!(back.demoted, "a full request cannot be stamped");
            }
            (
                CapPayload::Regular { caps: got, nonce: n1, .. },
                CapPayload::Regular { caps: sent, nonce: n2, .. },
            ) => {
                assert_eq!(got, sent);
                assert_eq!(n1, n2);
            }
            other => panic!("payload kind changed in flight: {other:?}"),
        }
        assert_eq!(back.return_info, header.return_info);
    }
}
