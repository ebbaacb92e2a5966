//! Full on-wire serialization of a simulated [`Packet`]: IPv4 header,
//! optional capability shim, optional TCP header, zero-filled payload.
//!
//! The simulator carries structured packets; this codec is what an inline
//! deployment box (§8) would emit and parse on a real wire. TVA's shim
//! layer rides as an IPv4 payload under its own protocol number, itself
//! carrying the upper protocol (§4.1: "We implement this as a shim layer
//! above IP"); the header's first eight bytes deliberately contain no
//! pre-capability material so ICMP error bodies cannot leak stamps (§7).

use crate::addr::Addr;
use crate::codec;
use crate::error::WireError;
use crate::packet::{Packet, PacketId, TcpFlags, TcpSegment, IP_HEADER_LEN, TCP_HEADER_LEN};

/// The IPv4 protocol number carried by packets bearing the capability shim
/// (an experimentation number; a deployment would register one).
pub const IPPROTO_TVA: u8 = 253;

/// The protocol number for plain TCP (legacy packets).
pub const IPPROTO_TCP: u8 = 6;

/// Upper-protocol value used inside the shim when no transport follows.
pub const UPPER_NONE: u8 = 0;

/// The IPv4 protocol number used for legacy packets carrying opaque
/// payload with no transport header (e.g. raw flood traffic).
pub const IPPROTO_DATA: u8 = 252;

/// Computes the RFC 1071 internet checksum of `data`.
#[inline]
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

// The IPv4 and TCP headers are fixed-size, so both directions work on a
// `[u8; 20]` at constant offsets: no cursor, no per-field bounds check.

fn ipv4_header(pkt: &Packet, total_len: u16, proto: u8) -> [u8; IP_HEADER_LEN] {
    let mut h = [0u8; IP_HEADER_LEN];
    h[0] = 0x45; // version 4, IHL 5; byte 1 (DSCP/ECN) stays 0
    h[2..4].copy_from_slice(&total_len.to_be_bytes());
    // Identification (tracing only); bytes 6..8 (flags/fragment offset) stay 0.
    h[4..6].copy_from_slice(&(pkt.id.0 as u16).to_be_bytes());
    h[8] = 64; // TTL
    h[9] = proto;
    h[12..16].copy_from_slice(&pkt.src.to_u32().to_be_bytes());
    h[16..20].copy_from_slice(&pkt.dst.to_u32().to_be_bytes());
    let csum = internet_checksum(&h); // over a zero checksum field
    h[10..12].copy_from_slice(&csum.to_be_bytes());
    h
}

fn tcp_header(seg: &TcpSegment) -> [u8; TCP_HEADER_LEN] {
    let mut h = [0u8; TCP_HEADER_LEN];
    h[0..2].copy_from_slice(&seg.src_port.to_be_bytes());
    h[2..4].copy_from_slice(&seg.dst_port.to_be_bytes());
    h[4..8].copy_from_slice(&seg.seq.to_be_bytes());
    h[8..12].copy_from_slice(&seg.ack.to_be_bytes());
    h[12] = 5 << 4; // data offset 5 words
    h[13] = u8::from(seg.flags.fin)
        | u8::from(seg.flags.syn) << 1
        | u8::from(seg.flags.rst) << 2
        | u8::from(seg.flags.ack) << 4;
    h[14..16].copy_from_slice(&[0xFF, 0xFF]); // window (flow control is not modeled)
    // Bytes 16..20 stay 0: checksum (not computed: payload bytes are
    // synthetic) and urgent pointer.
    h
}

/// Serializes `pkt` to its full on-wire byte representation. The payload is
/// zero-filled: the simulator tracks payload length, not contents.
pub fn encode_packet(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::new();
    encode_packet_into(pkt, &mut out);
    out
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
    out.extend_from_slice(&ipv4_header(pkt, total as u16, proto));
    if let Some(cap) = &pkt.cap {
        let upper = if pkt.tcp.is_some() { IPPROTO_TCP } else { UPPER_NONE };
        codec::encode_into(cap, upper, out);
    }
    if let Some(tcp) = &pkt.tcp {
        out.extend_from_slice(&tcp_header(tcp));
    }
    out.resize(total as usize, 0);
}

fn parse_tcp(h: &[u8; TCP_HEADER_LEN]) -> TcpSegment {
    // Window, checksum and urgent pointer (bytes 14..20) are not modeled.
    let flags = h[13];
    TcpSegment {
        src_port: u16::from_be_bytes([h[0], h[1]]),
        dst_port: u16::from_be_bytes([h[2], h[3]]),
        seq: u32::from_be_bytes([h[4], h[5], h[6], h[7]]),
        ack: u32::from_be_bytes([h[8], h[9], h[10], h[11]]),
        flags: TcpFlags {
            fin: flags & 0x01 != 0,
            syn: flags & 0x02 != 0,
            rst: flags & 0x04 != 0,
            ack: flags & 0x10 != 0,
        },
    }
}

/// Parses a full on-wire packet. The IPv4 header checksum is verified;
/// payload contents are discarded (only the length is kept).
///
/// The packet is created once, from the IPv4 header, and the shim and TCP
/// headers are decoded straight into its fields.
pub fn decode_packet(data: &[u8]) -> Result<Packet, WireError> {
    let Some((ip, mut rest)) = data.split_first_chunk::<IP_HEADER_LEN>() else {
        return Err(WireError::Truncated);
    };
    if internet_checksum(ip) != 0 {
        return Err(WireError::BadChecksum);
    }
    if ip[0] != 0x45 {
        return Err(WireError::BadVersion(ip[0] >> 4));
    }
    // DSCP/ECN (1), flags/fragment offset (6..8) and TTL (8) are ignored.
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if total_len != data.len() {
        return Err(WireError::TrailingBytes(data.len().abs_diff(total_len)));
    }
    let mut pkt = Packet {
        id: PacketId(u64::from(u16::from_be_bytes([ip[4], ip[5]]))),
        src: Addr(u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]])),
        dst: Addr(u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]])),
        cap: None,
        tcp: None,
        payload_len: 0,
    };

    let proto = ip[9];
    let upper = if proto == IPPROTO_TVA {
        let (upper, used) = codec::decode_prefix_into(rest, &mut pkt.cap)?;
        rest = &rest[used..];
        upper
    } else {
        proto
    };
    if upper == IPPROTO_TCP {
        let (tcp, payload) =
            rest.split_first_chunk::<TCP_HEADER_LEN>().ok_or(WireError::Truncated)?;
        pkt.tcp = Some(parse_tcp(tcp));
        rest = payload;
    }
    pkt.payload_len = rest.len() as u32;
    Ok(pkt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::FlowNonce;
    use crate::header::CapHeader;
    use crate::nt::Grant;

    fn pkt(cap: Option<CapHeader>, tcp: Option<TcpSegment>, payload: u32) -> Packet {
        Packet {
            id: PacketId(7),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap,
            tcp,
            payload_len: payload,
        }
    }

    fn eq_modulo_id(a: &Packet, b: &Packet) {
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
        assert_eq!(a.cap, b.cap);
        assert_eq!(a.tcp, b.tcp);
        assert_eq!(a.payload_len, b.payload_len);
    }

    #[test]
    fn legacy_tcp_roundtrip() {
        let p = pkt(None, Some(TcpSegment::syn(1000, 80, 0)), 0);
        let bytes = encode_packet(&p);
        assert_eq!(bytes.len() as u32, p.wire_len());
        eq_modulo_id(&p, &decode_packet(&bytes).unwrap());
    }

    #[test]
    fn shim_plus_tcp_plus_payload_roundtrip() {
        let cap = CapHeader::regular_with_caps(
            FlowNonce::new(0xABCD),
            Grant::from_parts(100, 10),
            vec![crate::cap::CapValue::new(3, 99)],
        );
        let seg = TcpSegment {
            src_port: 1234,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags { ack: true, ..Default::default() },
        };
        let p = pkt(Some(cap), Some(seg), 1000);
        let bytes = encode_packet(&p);
        assert_eq!(bytes.len() as u32, p.wire_len());
        eq_modulo_id(&p, &decode_packet(&bytes).unwrap());
    }

    #[test]
    fn bare_shim_roundtrip() {
        let p = pkt(Some(CapHeader::request()), None, 0);
        let bytes = encode_packet(&p);
        eq_modulo_id(&p, &decode_packet(&bytes).unwrap());
    }

    #[test]
    fn encode_into_reuses_capacity_and_matches() {
        let caps = CapHeader::regular_with_caps(
            FlowNonce::new(0xABCD),
            Grant::from_parts(100, 10),
            vec![crate::cap::CapValue::new(3, 99)],
        );
        let pkts = [
            pkt(Some(caps), Some(TcpSegment::syn(1000, 80, 0)), 700),
            pkt(None, Some(TcpSegment::syn(5, 6, 7)), 40),
            pkt(Some(CapHeader::request()), None, 0),
            pkt(None, None, 1400),
        ];
        let mut buf = Vec::new();
        encode_packet_into(&pkts[3], &mut buf); // grow to the largest frame once
        let cap_before = buf.capacity();
        for p in &pkts {
            encode_packet_into(p, &mut buf);
            assert_eq!(buf, encode_packet(p));
            assert_eq!(buf.capacity(), cap_before, "steady-state encode reallocated");
        }
    }

    /// Full-capacity lists (32 entries, far past the four held inline)
    /// survive the packet codec in each of the three list positions.
    #[test]
    fn full_capacity_lists_roundtrip() {
        use crate::cap::{CapValue, PathId, RequestEntry, MAX_PATH_ROUTERS};
        use crate::header::{CapPayload, ReturnInfo};
        let caps: Vec<CapValue> =
            (0..MAX_PATH_ROUTERS).map(|i| CapValue::new(i as u8, 1 << i)).collect();
        let grant = Grant::from_parts(100, 10);
        let mut request = CapHeader::request();
        if let CapPayload::Request { entries } = &mut request.payload {
            entries.extend(
                caps.iter().map(|&precap| RequestEntry { path_id: PathId(7), precap }),
            );
        }
        let regular = CapHeader::regular_with_caps(FlowNonce::new(1), grant, caps.clone());
        let mut returning = CapHeader::regular_nonce_only(FlowNonce::new(2));
        returning.return_info =
            Some(ReturnInfo::Capabilities { grant, caps: caps.as_slice().into() });
        let mut buf = Vec::new();
        for header in [request, regular, returning] {
            let p = pkt(Some(header), Some(TcpSegment::syn(1, 2, 3)), 100);
            encode_packet_into(&p, &mut buf);
            assert_eq!(buf.len() as u32, p.wire_len());
            eq_modulo_id(&p, &decode_packet(&buf).unwrap());
        }
    }

    #[test]
    fn checksum_detects_corruption() {
        let p = pkt(None, Some(TcpSegment::syn(1, 2, 3)), 10);
        let mut bytes = encode_packet(&p);
        bytes[12] ^= 0xFF; // flip a source-address byte
        assert_eq!(decode_packet(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn truncation_is_an_error() {
        let p = pkt(None, Some(TcpSegment::syn(1, 2, 3)), 10);
        let bytes = encode_packet(&p);
        for cut in [0, 10, IP_HEADER_LEN, bytes.len() - 1] {
            assert!(decode_packet(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn checksum_reference_value() {
        // RFC 1071 example-style check: checksum of a buffer containing its
        // own checksum folds to zero.
        let p = pkt(None, None, 0);
        let bytes = encode_packet(&p);
        assert_eq!(internet_checksum(&bytes[..IP_HEADER_LEN]), 0);
    }

    #[test]
    fn first_eight_bytes_carry_no_capability_material() {
        // §7: ICMP errors quote the first 8 bytes past the IP header; those
        // must be the common header + counts, never pre-capability hashes.
        let mut h = CapHeader::request();
        if let crate::header::CapPayload::Request { entries } = &mut h.payload {
            entries.push(crate::cap::RequestEntry {
                path_id: crate::cap::PathId(1),
                precap: crate::cap::CapValue::new(9, 0x00DE_ADBE_EF99_1234),
            });
        }
        let p = pkt(Some(h), None, 0);
        let bytes = encode_packet(&p);
        let first8 = &bytes[IP_HEADER_LEN..IP_HEADER_LEN + 8];
        let stamp = 0x00DE_ADBE_EF99_1234u64.to_be_bytes();
        assert!(
            !first8.windows(4).any(|w| stamp.windows(4).any(|s| s == w)),
            "pre-capability bytes leaked into the ICMP-visible prefix"
        );
    }
}
