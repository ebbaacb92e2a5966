//! Binary encoding of the capability header.
//!
//! The simulator carries packets in structured form for speed, but the wire
//! codec is what an inline deployment box (§8) would parse, so it is
//! implemented and tested bit-exactly against the field layout of Figure 5.
//! Decoding is strict: trailing garbage, truncation, bad versions or
//! inconsistent counts are errors, never panics.
//!
//! Both directions work on fixed-width groups of bytes — one bounds check
//! (decode) or one append (encode) per group of adjacent fields, and one per
//! *list*, not one per element — so the cost of a header tracks its size on
//! the wire. `tests/oracle.rs` holds this codec to the field-at-a-time
//! cursor implementation it replaced, result for result and byte for byte.

use bytes::{BufMut, Bytes, BytesMut};

use crate::cap::{CapList, CapValue, FlowNonce, PathId, RequestEntry, RequestList, MAX_PATH_ROUTERS};
use crate::error::WireError;
use crate::header::{CapHeader, CapKind, CapPayload, ReturnInfo, VERSION};
use crate::inline::InlineList;
use crate::nt::Grant;

/// Return-info type byte: demotion notification.
const RET_DEMOTION: u8 = 0b0000_0001;
/// Return-info type byte: capability list follows.
const RET_CAPS: u8 = 0b0000_0010;

/// Encodes `header` (with the given upper-layer protocol number) to bytes.
pub fn encode(header: &CapHeader, upper_proto: u8) -> Bytes {
    let mut b = BytesMut::with_capacity(header.encoded_len());
    encode_into(header, upper_proto, &mut b);
    b.freeze()
}

/// Appends a capability list: a 4-byte preamble — two leading bytes, then
/// the grant — and the capabilities. The leading bytes are `[num, ptr]` on
/// a regular header and `[RET_CAPS, num]` on return info.
#[inline]
fn put_caps(b: &mut impl BufMut, first: u8, second: u8, grant: Grant, caps: &CapList) {
    let [g0, g1] = grant.pack().to_be_bytes();
    b.put_slice(&[first, second, g0, g1]);
    for c in caps {
        b.put_slice(&c.to_u64().to_be_bytes());
    }
}

/// Appends the encoded header to `out` without allocating a fresh buffer;
/// the daemon TX path uses this to serialize into reused frame slots.
#[inline]
pub fn encode_into(header: &CapHeader, upper_proto: u8, b: &mut impl BufMut) {
    let vt = (VERSION << 4) | header.type_nibble();
    match &header.payload {
        CapPayload::Request { entries } => {
            // capability num, then capability ptr (the next blank slot).
            let n = entries.len() as u8;
            b.put_slice(&[vt, upper_proto, n, n]);
            for e in entries {
                let mut entry = [0u8; 10];
                entry[..2].copy_from_slice(&e.path_id.0.to_be_bytes());
                entry[2..].copy_from_slice(&e.precap.to_u64().to_be_bytes());
                b.put_slice(&entry);
            }
        }
        CapPayload::Regular { nonce, ptr, caps, .. } => {
            // 48-bit nonce, big-endian.
            let [_, _, n0, n1, n2, n3, n4, n5] = nonce.to_u64().to_be_bytes();
            b.put_slice(&[vt, upper_proto, n0, n1, n2, n3, n4, n5]);
            if let Some((grant, list)) = caps {
                put_caps(b, list.len() as u8, *ptr, *grant, list);
            }
        }
    }
    match &header.return_info {
        None => {}
        Some(ReturnInfo::DemotionNotice) => b.put_slice(&[RET_DEMOTION]),
        Some(ReturnInfo::Capabilities { grant, caps }) => {
            put_caps(b, RET_CAPS, caps.len() as u8, *grant, caps);
        }
    }
}

/// Splits `K` bytes off the front of `buf`.
#[inline]
fn take<const K: usize>(buf: &mut &[u8]) -> Result<[u8; K], WireError> {
    let (head, rest) = buf.split_first_chunk::<K>().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Reads a list of `num` fixed-width (`W`-byte) elements off the front of
/// `buf`: the count is bounded, then the whole list's length is checked
/// once.
#[inline]
fn take_list<T: Copy + Default, const W: usize>(
    buf: &mut &[u8],
    num: u8,
    parse: impl Fn(&[u8; W]) -> T,
) -> Result<InlineList<T, MAX_PATH_ROUTERS>, WireError> {
    let num = num as usize;
    if num > MAX_PATH_ROUTERS {
        return Err(WireError::BadCount(num));
    }
    let (body, rest) = buf.split_at_checked(num * W).ok_or(WireError::Truncated)?;
    *buf = rest;
    let (elems, _) = body.as_chunks::<W>();
    Ok(elems.iter().map(parse).collect())
}

/// Reads `num` capabilities; `grant` is the (N, T) field read with the
/// count, unpacked only once the count has passed its bound.
#[inline]
fn take_caps(buf: &mut &[u8], num: u8, grant: [u8; 2]) -> Result<(Grant, CapList), WireError> {
    let caps = take_list(buf, num, |c: &[u8; 8]| CapValue::from_u64(u64::from_be_bytes(*c)))?;
    Ok((Grant::unpack(u16::from_be_bytes(grant)), caps))
}

/// Decodes a capability header; returns the header and the upper protocol.
/// Strict: trailing bytes are an error. Use [`decode_prefix`] when the
/// header is embedded in a larger packet.
pub fn decode(buf: &[u8]) -> Result<(CapHeader, u8), WireError> {
    let (header, upper, used) = decode_prefix(buf)?;
    if used != buf.len() {
        return Err(WireError::TrailingBytes(buf.len() - used));
    }
    Ok((header, upper))
}

/// Decodes one capability header from the front of `buf`; returns the
/// header, the upper protocol, and the number of bytes consumed. The shim
/// is self-describing (its counts determine its length), so no outer
/// framing is needed.
pub fn decode_prefix(buf: &[u8]) -> Result<(CapHeader, u8, usize), WireError> {
    let mut header = None;
    let (upper_proto, used) = decode_prefix_into(buf, &mut header)?;
    Ok((header.expect("a successful decode fills the slot"), upper_proto, used))
}

/// [`decode_prefix`], writing the header into `slot` — the packet decoder
/// passes the `cap` field of the packet it is building, so the header is
/// never moved. Returns the upper protocol and the bytes consumed; on error
/// `slot` is left unspecified.
#[inline]
pub(crate) fn decode_prefix_into(
    buf: &[u8],
    slot: &mut Option<CapHeader>,
) -> Result<(u8, usize), WireError> {
    let original = buf.len();
    let mut buf = buf;
    let [vt, upper_proto] = take(&mut buf)?;
    let version = vt >> 4;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let type_nibble = vt & 0x0F;
    let demoted = type_nibble & 0b1000 != 0;
    let has_return = type_nibble & 0b0100 != 0;
    let kind = CapKind::from_bits(type_nibble);

    let payload = match kind {
        CapKind::Request => {
            let [num, _ptr] = take(&mut buf)?;
            let entries: RequestList = take_list(&mut buf, num, |e: &[u8; 10]| {
                let [p0, p1, precap @ ..] = *e;
                RequestEntry {
                    path_id: PathId(u16::from_be_bytes([p0, p1])),
                    precap: CapValue::from_u64(u64::from_be_bytes(precap)),
                }
            })?;
            CapPayload::Request { entries }
        }
        CapKind::RegularNonceOnly | CapKind::RegularWithCaps | CapKind::Renewal => {
            let [n0, n1, n2, n3, n4, n5] = take(&mut buf)?;
            let nonce = FlowNonce::new(u64::from_be_bytes([0, 0, n0, n1, n2, n3, n4, n5]));
            let mut ptr = 0;
            let caps = if kind == CapKind::RegularNonceOnly {
                None
            } else {
                let [num, p, g0, g1] = take(&mut buf)?;
                ptr = p;
                Some(take_caps(&mut buf, num, [g0, g1])?)
            };
            CapPayload::Regular { nonce, ptr, caps, renewal: kind == CapKind::Renewal }
        }
    };
    let header = slot.insert(CapHeader { demoted, payload, return_info: None });

    if has_return {
        header.return_info = Some(match take(&mut buf)? {
            [RET_DEMOTION] => ReturnInfo::DemotionNotice,
            [RET_CAPS] => {
                let [num, g0, g1] = take(&mut buf)?;
                let (grant, caps) = take_caps(&mut buf, num, [g0, g1])?;
                ReturnInfo::Capabilities { grant, caps }
            }
            [other] => return Err(WireError::BadReturnType(other)),
        });
    }

    Ok((upper_proto, original - buf.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_caps() -> CapList {
        [CapValue::new(10, 0xAABBCC), CapValue::new(200, 0x112233445566)].into()
    }

    #[test]
    fn roundtrip_request() {
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(RequestEntry { path_id: PathId(0x1234), precap: CapValue::new(7, 99) });
            entries.push(RequestEntry { path_id: PathId::NONE, precap: CapValue::new(8, 100) });
        }
        let bytes = encode(&h, 6);
        assert_eq!(bytes.len(), h.encoded_len());
        let (decoded, proto) = decode(&bytes).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(proto, 6);
    }

    #[test]
    fn roundtrip_regular_with_caps_and_return() {
        let mut h = CapHeader::regular_with_caps(
            FlowNonce::new(0xFACE_CAFE_BEEF),
            Grant::from_parts(100, 10),
            sample_caps(),
        );
        h.return_info = Some(ReturnInfo::Capabilities {
            grant: Grant::from_parts(32, 10),
            caps: sample_caps(),
        });
        let bytes = encode(&h, 17);
        assert_eq!(bytes.len(), h.encoded_len());
        let (decoded, proto) = decode(&bytes).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(proto, 17);
    }

    #[test]
    fn roundtrip_nonce_only_demoted() {
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(42));
        h.demoted = true;
        h.return_info = Some(ReturnInfo::DemotionNotice);
        let bytes = encode(&h, 6);
        let (decoded, _) = decode(&bytes).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn roundtrip_renewal() {
        let h = CapHeader::renewal(
            FlowNonce::new(7),
            Grant::from_parts(512, 30),
            sample_caps(),
        );
        let (decoded, _) = decode(&encode(&h, 6)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn truncated_inputs_error() {
        let h = CapHeader::regular_with_caps(
            FlowNonce::new(1),
            Grant::from_parts(10, 10),
            sample_caps(),
        );
        let bytes = encode(&h, 6);
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_errors() {
        let h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        let mut v = encode(&h, 6).to_vec();
        v.push(0xFF);
        assert!(matches!(decode(&v), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn bad_version_errors() {
        let h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        let mut v = encode(&h, 6).to_vec();
        v[0] = (0xF << 4) | (v[0] & 0x0F);
        assert!(matches!(decode(&v), Err(WireError::BadVersion(15))));
    }

    #[test]
    fn oversized_count_errors() {
        let h = CapHeader::request();
        let mut v = encode(&h, 6).to_vec();
        v[2] = 255; // capability num
        assert!(matches!(decode(&v), Err(WireError::BadCount(255))));
    }

    #[test]
    fn bad_return_type_errors() {
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        h.return_info = Some(ReturnInfo::DemotionNotice);
        let mut v = encode(&h, 6).to_vec();
        *v.last_mut().unwrap() = 0x77;
        assert!(matches!(decode(&v), Err(WireError::BadReturnType(0x77))));
    }
}
