//! Differential oracle for the wire codec.
//!
//! `tva-wire`'s codec works on fixed-width byte groups and builds the
//! packet in place; the implementation it replaced read and wrote one field
//! at a time through a `bytes` cursor. That older codec lives on below as
//! [`reference`], and every property here holds the shipped code to it:
//! identical `Result`s — same packet, or same error variant with the same
//! payload — on well-formed packets of every header kind, on every
//! truncation, on single bit flips and on byte soup; and byte-identical
//! encodings. List lengths run 0..=32 in each of the three list positions
//! independently, so each crosses the `InlineList` inline/heap boundary
//! (4 → 5 entries) on its own.
//!
//! The one sanctioned difference: a failed IPv4 header checksum is
//! `WireError::BadChecksum`, which the reference misreported as
//! `BadVersion(0xFF)`.

use proptest::prelude::*;
use tva_wire::{
    decode_packet, decode_prefix, encode, encode_packet, encode_packet_into, Addr, CapHeader,
    CapList, CapPayload, CapValue, FlowNonce, Grant, Packet, PacketId, PathId, RequestEntry,
    RequestList, ReturnInfo, TcpFlags, TcpSegment, WireError, IP_HEADER_LEN, MAX_PATH_ROUTERS,
};

/// The cursor-based codec `tva-wire` shipped before the fixed-offset
/// rewrite, kept verbatim (imports aside) as the reference implementation:
/// one `Buf`/`BufMut` call per field, one length check per list element.
mod reference {
    use bytes::{Buf, BufMut};
    use tva_wire::ipcodec::{IPPROTO_DATA, IPPROTO_TCP, IPPROTO_TVA, UPPER_NONE};
    use tva_wire::{
        internet_checksum, Addr, CapHeader, CapKind, CapList, CapPayload, CapValue, FlowNonce,
        Grant, Packet, PacketId, PathId, RequestEntry, RequestList, ReturnInfo, TcpFlags,
        TcpSegment, WireError, IP_HEADER_LEN, MAX_PATH_ROUTERS, TCP_HEADER_LEN, VERSION,
    };

    const RET_DEMOTION: u8 = 0b0000_0001;
    const RET_CAPS: u8 = 0b0000_0010;

    /// Appends the encoded header to `out` without allocating a fresh buffer;
    /// the daemon TX path uses this to serialize into reused frame slots.
    pub fn encode_into(header: &CapHeader, upper_proto: u8, b: &mut impl BufMut) {
        let vt = (VERSION << 4) | header.type_nibble();
        b.put_u8(vt);
        b.put_u8(upper_proto);
        match &header.payload {
            CapPayload::Request { entries } => {
                b.put_u8(entries.len() as u8); // capability num
                b.put_u8(entries.len() as u8); // capability ptr (next blank slot)
                for e in entries {
                    b.put_u16(e.path_id.0);
                    b.put_u64(e.precap.to_u64());
                }
            }
            CapPayload::Regular { nonce, caps, .. } => {
                // 48-bit nonce, big-endian.
                let n = nonce.to_u64();
                b.put_u16((n >> 32) as u16);
                b.put_u32(n as u32);
                if let Some((grant, list)) = caps {
                    b.put_u8(list.len() as u8); // capability num
                    b.put_u8(match &header.payload {
                        CapPayload::Regular { ptr, .. } => *ptr,
                        CapPayload::Request { .. } => 0,
                    });
                    b.put_u16(grant.pack());
                    for c in list {
                        b.put_u64(c.to_u64());
                    }
                }
            }
        }
        match &header.return_info {
            None => {}
            Some(ReturnInfo::DemotionNotice) => b.put_u8(RET_DEMOTION),
            Some(ReturnInfo::Capabilities { grant, caps }) => {
                b.put_u8(RET_CAPS);
                b.put_u8(caps.len() as u8);
                b.put_u16(grant.pack());
                for c in caps {
                    b.put_u64(c.to_u64());
                }
            }
        }
    }

    fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
        if buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Decodes one capability header from the front of `buf`; returns the
    /// header, the upper protocol, and the number of bytes consumed. The shim
    /// is self-describing (its counts determine its length), so no outer
    /// framing is needed.
    pub fn decode_prefix(buf: &[u8]) -> Result<(CapHeader, u8, usize), WireError> {
        let original = buf.len();
        let mut buf = buf;
        need(&buf, 2)?;
        let vt = buf.get_u8();
        let version = vt >> 4;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let type_nibble = vt & 0x0F;
        let demoted = type_nibble & 0b1000 != 0;
        let has_return = type_nibble & 0b0100 != 0;
        let kind = CapKind::from_bits(type_nibble);
        let upper_proto = buf.get_u8();

        let payload = match kind {
            CapKind::Request => {
                need(&buf, 2)?;
                let num = buf.get_u8() as usize;
                let _ptr = buf.get_u8();
                if num > MAX_PATH_ROUTERS {
                    return Err(WireError::BadCount(num));
                }
                let mut entries = RequestList::new();
                for _ in 0..num {
                    need(&buf, 10)?;
                    let path_id = PathId(buf.get_u16());
                    let precap = CapValue::from_u64(buf.get_u64());
                    entries.push(RequestEntry { path_id, precap });
                }
                CapPayload::Request { entries }
            }
            CapKind::RegularNonceOnly | CapKind::RegularWithCaps | CapKind::Renewal => {
                need(&buf, 6)?;
                let hi = buf.get_u16() as u64;
                let lo = buf.get_u32() as u64;
                let nonce = FlowNonce::new((hi << 32) | lo);
                let mut ptr = 0;
                let caps = if kind == CapKind::RegularNonceOnly {
                    None
                } else {
                    need(&buf, 4)?;
                    let num = buf.get_u8() as usize;
                    ptr = buf.get_u8();
                    if num > MAX_PATH_ROUTERS {
                        return Err(WireError::BadCount(num));
                    }
                    let grant = Grant::unpack(buf.get_u16());
                    let mut list = CapList::new();
                    for _ in 0..num {
                        need(&buf, 8)?;
                        list.push(CapValue::from_u64(buf.get_u64()));
                    }
                    Some((grant, list))
                };
                CapPayload::Regular { nonce, ptr, caps, renewal: kind == CapKind::Renewal }
            }
        };

        let return_info = if has_return {
            need(&buf, 1)?;
            match buf.get_u8() {
                RET_DEMOTION => Some(ReturnInfo::DemotionNotice),
                RET_CAPS => {
                    need(&buf, 3)?;
                    let num = buf.get_u8() as usize;
                    if num > MAX_PATH_ROUTERS {
                        return Err(WireError::BadCount(num));
                    }
                    let grant = Grant::unpack(buf.get_u16());
                    let mut caps = CapList::new();
                    for _ in 0..num {
                        need(&buf, 8)?;
                        caps.push(CapValue::from_u64(buf.get_u64()));
                    }
                    Some(ReturnInfo::Capabilities { grant, caps })
                }
                other => return Err(WireError::BadReturnType(other)),
            }
        } else {
            None
        };

        Ok((
            CapHeader { demoted, payload, return_info },
            upper_proto,
            original - buf.remaining(),
        ))
    }

    fn put_ipv4_header(out: &mut Vec<u8>, pkt: &Packet, total_len: u16, proto: u8) {
        let start = out.len();
        out.put_u8(0x45); // version 4, IHL 5
        out.put_u8(0); // DSCP/ECN
        out.put_u16(total_len);
        out.put_u16((pkt.id.0 & 0xFFFF) as u16); // identification (tracing only)
        out.put_u16(0); // flags/fragment offset
        out.put_u8(64); // TTL
        out.put_u8(proto);
        out.put_u16(0); // checksum placeholder
        out.put_u32(pkt.src.to_u32());
        out.put_u32(pkt.dst.to_u32());
        let csum = internet_checksum(&out[start..start + IP_HEADER_LEN]);
        out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
    }

    fn put_tcp_header(out: &mut Vec<u8>, seg: &TcpSegment) {
        out.put_u16(seg.src_port);
        out.put_u16(seg.dst_port);
        out.put_u32(seg.seq);
        out.put_u32(seg.ack);
        let mut flags: u16 = (5 << 12) & 0xF000; // data offset 5 words
        if seg.flags.fin {
            flags |= 0x01;
        }
        if seg.flags.syn {
            flags |= 0x02;
        }
        if seg.flags.rst {
            flags |= 0x04;
        }
        if seg.flags.ack {
            flags |= 0x10;
        }
        out.put_u16(flags);
        out.put_u16(0xFFFF); // window (flow control is not modeled)
        out.put_u16(0); // checksum (not computed: payload bytes are synthetic)
        out.put_u16(0); // urgent
    }

    /// Serializes `pkt` into `out`, clearing it first. The buffer's capacity is
    /// reused, so a caller cycling one buffer (or a pool of frame slots) pays
    /// zero allocations per packet in steady state — the forwarding-daemon TX
    /// path depends on this.
    pub fn encode_packet_into(pkt: &Packet, out: &mut Vec<u8>) {
        out.clear();
        let total = pkt.wire_len();
        assert!(total <= u16::MAX as u32, "packet exceeds the IPv4 total-length field");
        out.reserve(total as usize);
        let proto = if pkt.cap.is_some() {
            IPPROTO_TVA
        } else if pkt.tcp.is_some() {
            IPPROTO_TCP
        } else {
            IPPROTO_DATA
        };
        put_ipv4_header(out, pkt, total as u16, proto);
        if let Some(cap) = &pkt.cap {
            let upper = if pkt.tcp.is_some() { IPPROTO_TCP } else { UPPER_NONE };
            encode_into(cap, upper, out);
        }
        if let Some(tcp) = &pkt.tcp {
            put_tcp_header(out, tcp);
        }
        out.resize(total as usize, 0);
    }

    fn parse_tcp(buf: &mut &[u8]) -> Result<TcpSegment, WireError> {
        if buf.remaining() < TCP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let seq = buf.get_u32();
        let ack = buf.get_u32();
        let flags_raw = buf.get_u16();
        let _window = buf.get_u16();
        let _csum = buf.get_u16();
        let _urgent = buf.get_u16();
        Ok(TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags {
                fin: flags_raw & 0x01 != 0,
                syn: flags_raw & 0x02 != 0,
                rst: flags_raw & 0x04 != 0,
                ack: flags_raw & 0x10 != 0,
            },
        })
    }

    /// Parses a full on-wire packet. The IPv4 header checksum is verified;
    /// payload contents are discarded (only the length is kept).
    pub fn decode_packet(data: &[u8]) -> Result<Packet, WireError> {
        if data.len() < IP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&data[..IP_HEADER_LEN]) != 0 {
            return Err(WireError::BadVersion(0xFF)); // corrupted header
        }
        let mut buf = data;
        let vihl = buf.get_u8();
        if vihl != 0x45 {
            return Err(WireError::BadVersion(vihl >> 4));
        }
        let _tos = buf.get_u8();
        let total_len = buf.get_u16() as usize;
        if total_len != data.len() {
            return Err(WireError::TrailingBytes(data.len().abs_diff(total_len)));
        }
        let id = buf.get_u16();
        let _frag = buf.get_u16();
        let _ttl = buf.get_u8();
        let proto = buf.get_u8();
        let _csum = buf.get_u16();
        let src = Addr(buf.get_u32());
        let dst = Addr(buf.get_u32());

        let (cap, upper) = if proto == IPPROTO_TVA {
            let (h, upper, used) = decode_prefix(buf)?;
            buf.advance(used);
            (Some(h), upper)
        } else {
            (None, proto)
        };

        let has_tcp = upper == IPPROTO_TCP;
        let tcp = if has_tcp {
            Some(parse_tcp(&mut buf)?)
        } else {
            None
        };

        let payload_len = buf.remaining() as u32;
        Ok(Packet { id: PacketId(id as u64), src, dst, cap, tcp, payload_len })
    }
}

/// The reference's verdict, with its one known misreport corrected.
fn expected(data: &[u8]) -> Result<Packet, WireError> {
    match reference::decode_packet(data) {
        Err(WireError::BadVersion(0xFF)) => Err(WireError::BadChecksum),
        other => other,
    }
}

/// Asserts both decoders agree on `data` (full packet).
fn assert_same_decode(data: &[u8]) {
    assert_eq!(decode_packet(data), expected(data), "decode_packet diverged on {data:02x?}");
}

/// Asserts both shim decoders agree on `data` (header, upper protocol and
/// bytes consumed, or the error).
fn assert_same_prefix(data: &[u8]) {
    assert_eq!(
        decode_prefix(data),
        reference::decode_prefix(data),
        "decode_prefix diverged on {data:02x?}"
    );
}

/// Asserts both encoders emit the same bytes for `pkt`, and returns them.
fn assert_same_encoding(pkt: &Packet) -> Vec<u8> {
    let mut want = vec![0xEE; 7]; // stale contents must be cleared, not appended to
    reference::encode_packet_into(pkt, &mut want);
    let mut got = vec![0xDD; 3];
    encode_packet_into(pkt, &mut got);
    assert_eq!(got, want, "encode_packet_into diverged on {pkt:?}");
    if let Some(cap) = &pkt.cap {
        let mut shim = Vec::new();
        reference::encode_into(cap, 17, &mut shim);
        assert_eq!(&encode(cap, 17)[..], &shim[..], "encode diverged on {cap:?}");
    }
    got
}

fn cap(i: usize) -> CapValue {
    CapValue::new(i as u8, 0x00A5_5A00_0000_0000 ^ (i as u64 * 0x0101_0101))
}

fn caps(n: usize) -> CapList {
    (0..n).map(cap).collect()
}

fn entries(n: usize) -> RequestList {
    (0..n).map(|i| RequestEntry { path_id: PathId(0x1000 + i as u16), precap: cap(i) }).collect()
}

fn grant() -> Grant {
    Grant::from_parts(777, 33)
}

fn packet(cap: Option<CapHeader>, tcp: bool, payload_len: u32) -> Packet {
    Packet {
        id: PacketId(0xBEEF),
        src: Addr::new(172, 16, 3, 9),
        dst: Addr::new(10, 99, 0, 1),
        cap,
        tcp: tcp.then_some(TcpSegment {
            src_port: 40_000,
            dst_port: 443,
            seq: 0xDEAD_BEEF,
            ack: 0x0102_0304,
            flags: TcpFlags { syn: true, ack: true, fin: false, rst: true },
        }),
        payload_len,
    }
}

/// One header of every kind with an `n`-entry list in exactly one of the
/// three list positions (request entries, regular capabilities, return
/// capabilities); the others stay short and inline.
fn headers_with_list_len(n: usize) -> Vec<CapHeader> {
    let nonce = FlowNonce::new(0xFACE_CAFE_BEEF);
    let with_return = |mut h: CapHeader, ret: ReturnInfo| {
        h.return_info = Some(ret);
        h
    };
    let request = |n| CapHeader {
        demoted: false,
        payload: CapPayload::Request { entries: entries(n) },
        return_info: None,
    };
    let mut demoted = CapHeader::regular_nonce_only(nonce);
    demoted.demoted = true;
    vec![
        request(n),
        CapHeader::regular_with_caps(nonce, grant(), caps(n)),
        CapHeader::renewal(nonce, grant(), caps(n)),
        with_return(
            CapHeader::regular_nonce_only(nonce),
            ReturnInfo::Capabilities { grant: grant(), caps: caps(n) },
        ),
        with_return(request(2), ReturnInfo::Capabilities { grant: grant(), caps: caps(n) }),
        with_return(
            CapHeader::regular_with_caps(nonce, grant(), caps(3)),
            ReturnInfo::Capabilities { grant: grant(), caps: caps(n) },
        ),
        with_return(request(n), ReturnInfo::DemotionNotice),
        with_return(demoted.clone(), ReturnInfo::DemotionNotice),
    ]
}

/// Every list length 0..=32 in each list position: byte-identical
/// encodings, identical decodes, and identical verdicts at every
/// truncation point and for every single-bit flip of the headers.
#[test]
fn every_list_length_matches_the_reference_at_every_cut_and_flip() {
    for n in 0..=MAX_PATH_ROUTERS {
        // The sweep crosses the inline/heap boundary in both list types.
        assert_eq!(caps(n).spilled(), n > 4);
        assert_eq!(entries(n).spilled(), n > 4);
        for (k, header) in headers_with_list_len(n).into_iter().enumerate() {
            let pkt = packet(Some(header), k % 2 == 0, 5);
            let frame = assert_same_encoding(&pkt);
            assert_eq!(decode_packet(&frame), Ok(pkt), "round trip");
            assert_same_decode(&frame);
            assert_same_prefix(&frame[IP_HEADER_LEN..]);
            for cut in 0..frame.len() {
                assert_same_decode(&frame[..cut]);
                if cut >= IP_HEADER_LEN {
                    assert_same_prefix(&frame[IP_HEADER_LEN..cut]);
                }
            }
            let headers_end = frame.len() - 5;
            let mut flipped = frame.clone();
            for i in 0..headers_end {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    assert_same_decode(&flipped);
                    if i >= IP_HEADER_LEN {
                        assert_same_prefix(&flipped[IP_HEADER_LEN..]);
                    }
                    flipped[i] ^= 1 << bit;
                }
            }
        }
    }
}

/// Legacy packets (no shim) and a bare IP header go through the same
/// oracle: TCP and raw-data protocol numbers, every cut, every header flip.
#[test]
fn legacy_packets_match_the_reference() {
    for (tcp, payload_len) in [(true, 0), (true, 1400), (false, 0), (false, 9)] {
        let pkt = packet(None, tcp, payload_len);
        let frame = assert_same_encoding(&pkt);
        assert_same_decode(&frame);
        for cut in 0..frame.len() {
            assert_same_decode(&frame[..cut]);
        }
        let mut flipped = frame.clone();
        for i in 0..frame.len().min(IP_HEADER_LEN + 20) {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert_same_decode(&flipped);
                flipped[i] ^= 1 << bit;
            }
        }
    }
}

/// The bugfix the oracle makes room for: a corrupted IPv4 header is a
/// checksum error, not "unsupported version 255".
#[test]
fn bad_ip_checksum_is_reported_as_such() {
    let mut frame = encode_packet(&packet(None, true, 10));
    frame[12] ^= 0x40; // a source-address bit
    assert_eq!(decode_packet(&frame), Err(WireError::BadChecksum));
    assert_eq!(reference::decode_packet(&frame), Err(WireError::BadVersion(0xFF)));
    assert_eq!(WireError::BadChecksum.to_string(), "IPv4 header checksum mismatch");
    // An IP-level cut is not described as a capability-header problem.
    let cut = decode_packet(&frame[..7]).unwrap_err();
    assert_eq!(cut, WireError::Truncated);
    assert!(!cut.to_string().contains("capability"), "{cut}");
}

fn arb_capvalue() -> impl Strategy<Value = CapValue> {
    (any::<u8>(), any::<u64>()).prop_map(|(ts, h)| CapValue::new(ts, h))
}

fn arb_grant() -> impl Strategy<Value = Grant> {
    (0u16..=1023, 0u8..=63).prop_map(|(kb, s)| Grant::from_parts(kb, s))
}

/// Half the lists are drawn around the inline/heap boundary, half from the
/// whole 0..=32 range.
fn arb_list<S: Strategy + 'static>(element: fn() -> S) -> impl Strategy<Value = Vec<S::Value>> {
    prop_oneof![
        proptest::collection::vec(element(), 0..=6),
        proptest::collection::vec(element(), 0..=MAX_PATH_ROUTERS),
    ]
}

fn arb_entry() -> impl Strategy<Value = RequestEntry> {
    (any::<u16>(), arb_capvalue())
        .prop_map(|(pid, precap)| RequestEntry { path_id: PathId(pid), precap })
}

fn arb_header() -> impl Strategy<Value = CapHeader> {
    let request = arb_list(arb_entry)
        .prop_map(|entries| CapPayload::Request { entries: RequestList::from(entries) });
    let regular = (
        any::<u64>(),
        any::<u8>(),
        proptest::option::of((arb_grant(), arb_list(arb_capvalue))),
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
    let ret = prop_oneof![
        Just(None),
        Just(Some(ReturnInfo::DemotionNotice)),
        (arb_grant(), arb_list(arb_capvalue))
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
        (any::<u16>(), any::<u32>(), any::<u32>()),
        0u32..1500,
    )
        .prop_map(|(cap, tcp, (id, src, dst), payload_len)| Packet {
            id: PacketId(u64::from(id)),
            src: Addr(src),
            dst: Addr(dst),
            cap,
            tcp,
            payload_len,
        })
}

proptest! {
    /// Well-formed packets of every shape: byte-identical encodings, and
    /// both decoders return the packet that was encoded.
    #[test]
    fn valid_packets_encode_and_decode_identically(pkt in arb_packet()) {
        let frame = assert_same_encoding(&pkt);
        assert_same_decode(&frame);
        prop_assert_eq!(decode_packet(&frame), Ok(pkt));
        if frame[9] == tva_wire::IPPROTO_TVA {
            assert_same_prefix(&frame[IP_HEADER_LEN..]);
        }
    }

    /// Any truncation of a valid packet draws the same error from both.
    #[test]
    fn truncations_match(pkt in arb_packet(), cut in any::<prop::sample::Index>()) {
        let frame = encode_packet(&pkt);
        let at = cut.index(frame.len());
        assert_same_decode(&frame[..at]);
        assert_same_prefix(&frame[IP_HEADER_LEN.min(at)..at]);
    }

    /// Any single bit flip — IP header, shim counts, list bodies, TCP,
    /// payload — draws the same verdict from both.
    #[test]
    fn bit_flips_match(pkt in arb_packet(), idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut frame = encode_packet(&pkt);
        let i = idx.index(frame.len());
        frame[i] ^= 1 << bit;
        assert_same_decode(&frame);
        assert_same_prefix(&frame[IP_HEADER_LEN..]);
    }

    /// A bit flip in the shim with the IP header re-sealed, so the damage
    /// reaches the shim decoder instead of dying at the checksum: counts
    /// past the bound, counts past the buffer, bad versions, bad return
    /// types.
    #[test]
    fn shim_corruptions_match(h in arb_header(), upper: u8,
                              idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut shim = encode(&h, upper).to_vec();
        let i = idx.index(shim.len());
        shim[i] ^= 1 << bit;
        assert_same_prefix(&shim);
        // The count bytes sit right after the common header (request) or
        // the nonce (regular): overwrite them outright too.
        for at in [2, 8] {
            if at < shim.len() {
                let saved = shim[at];
                for v in [5, 32, 33, 255] {
                    shim[at] = v;
                    assert_same_prefix(&shim);
                }
                shim[at] = saved;
            }
        }
    }

    /// Byte soup, raw and behind a valid IPv4 header.
    #[test]
    fn byte_soup_matches(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        assert_same_decode(&data);
        assert_same_prefix(&data);
        // Splice the soup in as the body of a well-formed shim packet, so
        // it gets past the checksum and length checks.
        let mut frame = encode_packet(&packet(Some(CapHeader::request()), false, 0));
        frame.truncate(IP_HEADER_LEN);
        frame.extend_from_slice(&data);
        let total = (frame.len() as u16).to_be_bytes();
        frame[2..4].copy_from_slice(&total);
        frame[10..12].copy_from_slice(&[0, 0]);
        let csum = tva_wire::internet_checksum(&frame[..IP_HEADER_LEN]).to_be_bytes();
        frame[10..12].copy_from_slice(&csum);
        assert_same_decode(&frame);
    }
}
