//! Property tests: every well-formed capability header round-trips through
//! the binary codec, `encoded_len` always matches the actual encoding, and
//! arbitrary byte soup never panics the decoder.

use proptest::prelude::*;
use tva_wire::{
    decode, encode, CapHeader, CapList, CapPayload, CapValue, FlowNonce, Grant, PathId,
    RequestEntry, RequestList, ReturnInfo, MAX_PATH_ROUTERS, VERSION,
};

fn arb_capvalue() -> impl Strategy<Value = CapValue> {
    (any::<u8>(), any::<u64>()).prop_map(|(ts, h)| CapValue::new(ts, h))
}

fn arb_grant() -> impl Strategy<Value = Grant> {
    (0u16..=1023, 0u8..=63).prop_map(|(kb, s)| Grant::from_parts(kb, s))
}

fn arb_caps() -> impl Strategy<Value = Vec<CapValue>> {
    // Inclusive upper bound: full-capacity lists are a load-bearing edge
    // case for the inline-array representation.
    proptest::collection::vec(arb_capvalue(), 0..=MAX_PATH_ROUTERS)
}

fn arb_entries() -> impl Strategy<Value = Vec<RequestEntry>> {
    proptest::collection::vec(
        (any::<u16>(), arb_capvalue())
            .prop_map(|(pid, precap)| RequestEntry { path_id: PathId(pid), precap }),
        0..=MAX_PATH_ROUTERS,
    )
}

fn arb_payload() -> impl Strategy<Value = CapPayload> {
    let request = arb_entries()
        .prop_map(|entries| CapPayload::Request { entries: RequestList::from(entries) });

    let regular = (
        any::<u64>(),
        any::<u8>(),
        proptest::option::of((arb_grant(), arb_caps())),
        any::<bool>(),
    )
        .prop_map(|(nonce, ptr, caps, renewal)| {
            // A renewal requires a capability list by construction; the ptr
            // field only exists on the wire when a capability list does.
            let renewal = renewal && caps.is_some();
            let ptr = if caps.is_some() { ptr } else { 0 };
            let caps = caps.map(|(g, list)| (g, CapList::from(list)));
            CapPayload::Regular { nonce: FlowNonce::new(nonce), ptr, caps, renewal }
        });

    prop_oneof![request, regular]
}

fn arb_return() -> impl Strategy<Value = Option<ReturnInfo>> {
    prop_oneof![
        Just(None),
        Just(Some(ReturnInfo::DemotionNotice)),
        (arb_grant(), arb_caps())
            .prop_map(|(grant, caps)| Some(ReturnInfo::Capabilities { grant, caps: caps.into() })),
    ]
}

fn arb_header() -> impl Strategy<Value = CapHeader> {
    (any::<bool>(), arb_payload(), arb_return())
        .prop_map(|(demoted, payload, return_info)| CapHeader { demoted, payload, return_info })
}

proptest! {
    #[test]
    fn header_roundtrips(h in arb_header(), proto: u8) {
        let bytes = encode(&h, proto);
        prop_assert_eq!(bytes.len(), h.encoded_len());
        let (decoded, p) = decode(&bytes).unwrap();
        prop_assert_eq!(decoded, h);
        prop_assert_eq!(p, proto);
    }

    #[test]
    fn decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&data); // must return, never panic
    }

    #[test]
    fn corrupting_any_byte_never_panics(h in arb_header(), proto: u8,
                                        idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut v = encode(&h, proto).to_vec();
        if !v.is_empty() {
            let i = idx.index(v.len());
            v[i] ^= 1 << bit;
            let _ = decode(&v);
        }
    }
}

/// Reference encoder: serializes straight from `Vec`-held lists, written
/// independently against the Figure 5 field layout. The inline-array-backed
/// `encode` must stay byte-identical to it.
mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    pub enum RefPayload {
        Request { entries: Vec<RequestEntry> },
        Regular { nonce: u64, ptr: u8, caps: Option<(Grant, Vec<CapValue>)>, renewal: bool },
    }

    #[derive(Debug, Clone)]
    pub enum RefReturn {
        Demotion,
        Caps { grant: Grant, caps: Vec<CapValue> },
    }

    #[derive(Debug, Clone)]
    pub struct RefHeader {
        pub demoted: bool,
        pub payload: RefPayload,
        pub return_info: Option<RefReturn>,
    }

    pub fn encode(h: &RefHeader, upper_proto: u8) -> Vec<u8> {
        let kind = match &h.payload {
            RefPayload::Request { .. } => 0b00,
            RefPayload::Regular { caps: None, .. } => 0b10,
            RefPayload::Regular { renewal: true, .. } => 0b11,
            RefPayload::Regular { .. } => 0b01,
        };
        let mut t = kind;
        if h.return_info.is_some() {
            t |= 0b0100;
        }
        if h.demoted {
            t |= 0b1000;
        }
        let mut out = vec![(VERSION << 4) | t, upper_proto];
        match &h.payload {
            RefPayload::Request { entries } => {
                out.push(entries.len() as u8);
                out.push(entries.len() as u8);
                for e in entries {
                    out.extend_from_slice(&e.path_id.0.to_be_bytes());
                    out.extend_from_slice(&e.precap.to_u64().to_be_bytes());
                }
            }
            RefPayload::Regular { nonce, ptr, caps, .. } => {
                out.extend_from_slice(&nonce.to_be_bytes()[2..]);
                if let Some((grant, list)) = caps {
                    out.push(list.len() as u8);
                    out.push(*ptr);
                    out.extend_from_slice(&grant.pack().to_be_bytes());
                    for c in list {
                        out.extend_from_slice(&c.to_u64().to_be_bytes());
                    }
                }
            }
        }
        match &h.return_info {
            None => {}
            Some(RefReturn::Demotion) => out.push(0b0000_0001),
            Some(RefReturn::Caps { grant, caps }) => {
                out.push(0b0000_0010);
                out.push(caps.len() as u8);
                out.extend_from_slice(&grant.pack().to_be_bytes());
                for c in caps {
                    out.extend_from_slice(&c.to_u64().to_be_bytes());
                }
            }
        }
        out
    }
}

fn arb_ref_header() -> impl Strategy<Value = reference::RefHeader> {
    use reference::{RefHeader, RefPayload, RefReturn};
    let payload = prop_oneof![
        arb_entries().prop_map(|entries| RefPayload::Request { entries }),
        (
            any::<u64>(),
            any::<u8>(),
            proptest::option::of((arb_grant(), arb_caps())),
            any::<bool>(),
        )
            .prop_map(|(nonce, ptr, caps, renewal)| {
                let renewal = renewal && caps.is_some();
                let ptr = if caps.is_some() { ptr } else { 0 };
                RefPayload::Regular { nonce: nonce & ((1 << 48) - 1), ptr, caps, renewal }
            }),
    ];
    let ret = prop_oneof![
        Just(None),
        Just(Some(RefReturn::Demotion)),
        (arb_grant(), arb_caps()).prop_map(|(grant, caps)| Some(RefReturn::Caps { grant, caps })),
    ];
    (any::<bool>(), payload, ret)
        .prop_map(|(demoted, payload, return_info)| RefHeader { demoted, payload, return_info })
}

/// Builds the real (inline-list) header equivalent to a reference header.
fn realize(h: &reference::RefHeader) -> CapHeader {
    use reference::{RefPayload, RefReturn};
    let payload = match &h.payload {
        RefPayload::Request { entries } => {
            CapPayload::Request { entries: RequestList::from(entries.as_slice()) }
        }
        RefPayload::Regular { nonce, ptr, caps, renewal } => CapPayload::Regular {
            nonce: FlowNonce::new(*nonce),
            ptr: *ptr,
            caps: caps.as_ref().map(|(g, list)| (*g, CapList::from(list.as_slice()))),
            renewal: *renewal,
        },
    };
    let return_info = h.return_info.as_ref().map(|r| match r {
        RefReturn::Demotion => ReturnInfo::DemotionNotice,
        RefReturn::Caps { grant, caps } => {
            ReturnInfo::Capabilities { grant: *grant, caps: CapList::from(caps.as_slice()) }
        }
    });
    CapHeader { demoted: h.demoted, payload, return_info }
}

proptest! {
    /// The inline-list migration must not change a single wire byte: the
    /// real encoder agrees with the Vec-backed reference encoder on every
    /// well-formed header, including full-capacity lists.
    #[test]
    fn inline_encoding_matches_vec_reference(h in arb_ref_header(), proto: u8) {
        let expect = reference::encode(&h, proto);
        let real = realize(&h);
        let got = encode(&real, proto);
        prop_assert_eq!(&got[..], &expect[..]);
        prop_assert_eq!(got.len(), real.encoded_len());
        // And the strict decoder reproduces the structured form.
        let (decoded, p) = decode(&expect).unwrap();
        prop_assert_eq!(decoded, real);
        prop_assert_eq!(p, proto);
    }

    /// Truncating a reference encoding at any cut must error (never panic)
    /// through the inline-list decoder, exactly as it did for Vec backing.
    #[test]
    fn truncated_reference_encodings_error(h in arb_ref_header(), proto: u8,
                                           cut in any::<prop::sample::Index>()) {
        let bytes = reference::encode(&h, proto);
        let at = cut.index(bytes.len().max(1)).min(bytes.len());
        if at < bytes.len() {
            prop_assert!(decode(&bytes[..at]).is_err());
        }
    }
}

fn arb_tcp() -> impl Strategy<Value = tva_wire::TcpSegment> {
    (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
        |(sp, dp, seq, ack, fl)| tva_wire::TcpSegment {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: tva_wire::TcpFlags {
                syn: fl & 1 != 0,
                ack: fl & 2 != 0,
                fin: fl & 4 != 0,
                rst: fl & 8 != 0,
            },
        },
    )
}

proptest! {
    /// Full on-wire packets round-trip (modulo the 16-bit tracing id).
    #[test]
    fn full_packet_roundtrips(h in proptest::option::of(arb_header()),
                              tcp in proptest::option::of(arb_tcp()),
                              src: u32, dst: u32, payload in 0u32..20_000, proto_id: u16) {
        let pkt = tva_wire::Packet {
            id: tva_wire::PacketId(proto_id as u64),
            src: tva_wire::Addr(src),
            dst: tva_wire::Addr(dst),
            cap: h,
            tcp,
            payload_len: payload,
        };
        let bytes = tva_wire::ipcodec::encode_packet(&pkt);
        prop_assert_eq!(bytes.len() as u32, pkt.wire_len());
        let back = tva_wire::ipcodec::decode_packet(&bytes).unwrap();
        prop_assert_eq!(back.src, pkt.src);
        prop_assert_eq!(back.dst, pkt.dst);
        prop_assert_eq!(back.cap, pkt.cap);
        prop_assert_eq!(back.tcp, pkt.tcp);
        prop_assert_eq!(back.payload_len, pkt.payload_len);
    }

    /// The full-packet decoder never panics on arbitrary bytes.
    #[test]
    fn packet_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = tva_wire::ipcodec::decode_packet(&data);
    }
}
