//! The capability header — a shim layer above IP (Figure 5).
//!
//! All non-legacy packets carry this header. The 16-bit common header holds
//! a 4-bit version, a 4-bit type nibble and the 8-bit upper protocol. The
//! type nibble encodes, per Figure 5:
//!
//! ```text
//! 1xxx: demoted        x1xx: return info present
//! xx00: request        xx01: regular w/ capabilities
//! xx10: regular w/ nonce only          xx11: renewal
//! ```

use crate::cap::{CapList, FlowNonce, RequestList, MAX_PATH_ROUTERS};
use crate::nt::Grant;

/// Protocol version carried in the common header.
pub const VERSION: u8 = 1;

/// The two low type-nibble bits: what kind of capability packet this is.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CapKind {
    /// A request accumulating pre-capabilities on its way to the destination.
    Request,
    /// A regular packet carrying a flow nonce and the full capability list.
    RegularWithCaps,
    /// A regular packet carrying only the flow nonce (capabilities cached).
    RegularNonceOnly,
    /// A regular packet with capabilities that also asks each router to mint
    /// a fresh pre-capability (capability renewal, §4.1).
    Renewal,
}

impl CapKind {
    /// The two-bit wire encoding.
    pub const fn bits(self) -> u8 {
        match self {
            CapKind::Request => 0b00,
            CapKind::RegularWithCaps => 0b01,
            CapKind::RegularNonceOnly => 0b10,
            CapKind::Renewal => 0b11,
        }
    }

    /// Decodes the two-bit wire encoding.
    pub const fn from_bits(b: u8) -> Self {
        match b & 0b11 {
            0b00 => CapKind::Request,
            0b01 => CapKind::RegularWithCaps,
            0b10 => CapKind::RegularNonceOnly,
            _ => CapKind::Renewal,
        }
    }
}

/// The variable payload that follows the common header.
///
/// The TTL-bounded lists are `InlineList`s: up to four entries live in the
/// payload itself, so a header on any path this repository runs owns no
/// heap; only a longer list allocates (one block).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CapPayload {
    /// Request: the per-router entries accumulated so far (path-id + blank
    /// capability pairs that routers fill in).
    Request {
        /// Entries appended by routers; index order is path order.
        entries: RequestList,
    },
    /// Regular data packet.
    Regular {
        /// The sender-chosen 48-bit flow nonce.
        nonce: FlowNonce,
        /// The capability pointer: the index of the next router's slot in
        /// the capability list. Each capability router increments it as the
        /// packet travels, so router *i* validates `caps[i]` (and, for
        /// renewals, overwrites that slot with a fresh pre-capability).
        ptr: u8,
        /// Present when the packet carries the full capability list (first
        /// packets, or packets sent while the router cache is cold); `None`
        /// for nonce-only packets. The `Grant` is the (N, T) the destination
        /// authorized — routers need it to recompute the capability hash.
        caps: Option<(Grant, CapList)>,
        /// True for renewal packets: routers replace the capability at their
        /// position with a freshly minted pre-capability.
        renewal: bool,
    },
}

impl CapPayload {
    /// The wire kind for this payload.
    pub fn kind(&self) -> CapKind {
        match self {
            CapPayload::Request { .. } => CapKind::Request,
            CapPayload::Regular { caps: None, .. } => CapKind::RegularNonceOnly,
            CapPayload::Regular { renewal: true, .. } => CapKind::Renewal,
            CapPayload::Regular { .. } => CapKind::RegularWithCaps,
        }
    }
}

/// Return information piggybacked toward the *sender* of the reverse flow
/// (present when the return bit of the type nibble is set).
///
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReturnInfo {
    /// Notifies the peer that its packets were demoted somewhere on the path
    /// (return type `0000_0001`): it must re-acquire capabilities.
    DemotionNotice,
    /// A list of full capabilities granted by this host as destination
    /// (return type `0000_001x`), with the (N, T) the grant is bound to.
    Capabilities {
        /// Authorized byte/time budget.
        grant: Grant,
        /// One capability per router on the forward path, in path order.
        /// Empty means the destination *refused* the request (§4.2).
        caps: CapList,
    },
}

/// The full capability shim header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CapHeader {
    /// Set by a router when the packet failed validation (or hit a cold
    /// cache after loss/route change) and was downgraded to legacy priority
    /// (§3.8). The destination echoes this back via [`ReturnInfo`].
    pub demoted: bool,
    /// The type-specific payload.
    pub payload: CapPayload,
    /// Piggybacked reverse-direction information, if any.
    pub return_info: Option<ReturnInfo>,
}

impl CapHeader {
    /// A fresh request header with no entries (as emitted by a sender).
    pub fn request() -> Self {
        CapHeader {
            demoted: false,
            payload: CapPayload::Request { entries: RequestList::new() },
            return_info: None,
        }
    }

    /// A regular data header carrying the full capability list.
    pub fn regular_with_caps(nonce: FlowNonce, grant: Grant, caps: impl Into<CapList>) -> Self {
        CapHeader {
            demoted: false,
            payload: CapPayload::Regular {
                nonce,
                ptr: 0,
                caps: Some((grant, caps.into())),
                renewal: false,
            },
            return_info: None,
        }
    }

    /// A regular data header carrying only the flow nonce.
    pub fn regular_nonce_only(nonce: FlowNonce) -> Self {
        CapHeader {
            demoted: false,
            payload: CapPayload::Regular { nonce, ptr: 0, caps: None, renewal: false },
            return_info: None,
        }
    }

    /// A renewal header: valid capabilities plus a request for fresh ones.
    pub fn renewal(nonce: FlowNonce, grant: Grant, caps: impl Into<CapList>) -> Self {
        CapHeader {
            demoted: false,
            payload: CapPayload::Regular {
                nonce,
                ptr: 0,
                caps: Some((grant, caps.into())),
                renewal: true,
            },
            return_info: None,
        }
    }

    /// The type nibble: demoted bit, return bit, kind bits.
    pub fn type_nibble(&self) -> u8 {
        let mut t = self.payload.kind().bits();
        if self.return_info.is_some() {
            t |= 0b0100;
        }
        if self.demoted {
            t |= 0b1000;
        }
        t
    }

    /// Number of request entries a request header may still accept.
    pub fn request_slots_left(&self) -> usize {
        match &self.payload {
            CapPayload::Request { entries } => MAX_PATH_ROUTERS.saturating_sub(entries.len()),
            _ => 0,
        }
    }

    /// The serialized size of this header in bytes (used for link-level
    /// transmission timing even when the simulator carries the structured
    /// form). Matches the field widths of Figure 5:
    ///
    /// * common header: 2 bytes
    /// * request: + count (1) + ptr (1) + entries × (2 + 8)
    /// * regular w/ caps or renewal: + nonce (6) + count (1) + ptr (1) +
    ///   N,T (2) + caps × 8
    /// * regular nonce-only: + nonce (6)
    /// * return info: + type (1) [+ count (1) + N,T (2) + caps × 8]
    pub fn encoded_len(&self) -> usize {
        let mut len = 2;
        match &self.payload {
            CapPayload::Request { entries } => {
                len += 2 + entries.len() * 10;
            }
            CapPayload::Regular { caps, .. } => {
                len += 6;
                if let Some((_, list)) = caps {
                    len += 2 + 2 + list.len() * 8;
                }
            }
        }
        match &self.return_info {
            None => {}
            Some(ReturnInfo::DemotionNotice) => len += 1,
            Some(ReturnInfo::Capabilities { caps, .. }) => len += 1 + 1 + 2 + caps.len() * 8,
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nt::Grant;

    #[test]
    fn kind_bits_roundtrip() {
        for k in [
            CapKind::Request,
            CapKind::RegularWithCaps,
            CapKind::RegularNonceOnly,
            CapKind::Renewal,
        ] {
            assert_eq!(CapKind::from_bits(k.bits()), k);
        }
    }

    #[test]
    fn type_nibble_flags() {
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(5));
        assert_eq!(h.type_nibble(), 0b0010);
        h.demoted = true;
        assert_eq!(h.type_nibble(), 0b1010);
        h.return_info = Some(ReturnInfo::DemotionNotice);
        assert_eq!(h.type_nibble(), 0b1110);
    }

    #[test]
    fn payload_kind_mapping() {
        assert_eq!(CapHeader::request().payload.kind(), CapKind::Request);
        let nonce = FlowNonce::new(1);
        let g = Grant::from_parts(100, 10);
        assert_eq!(
            CapHeader::regular_with_caps(nonce, g, vec![]).payload.kind(),
            CapKind::RegularWithCaps
        );
        assert_eq!(
            CapHeader::regular_nonce_only(nonce).payload.kind(),
            CapKind::RegularNonceOnly
        );
        assert_eq!(CapHeader::renewal(nonce, g, vec![]).payload.kind(), CapKind::Renewal);
    }

    #[test]
    fn encoded_len_matches_figure5() {
        // Nonce-only: 2 (common) + 6 (nonce) = 8.
        assert_eq!(CapHeader::regular_nonce_only(FlowNonce::new(1)).encoded_len(), 8);
        // Request with 2 entries: 2 + 2 + 2*10 = 24.
        use crate::cap::{CapValue, PathId, RequestEntry};
        let mut r = CapHeader::request();
        if let CapPayload::Request { entries } = &mut r.payload {
            entries.push(RequestEntry { path_id: PathId(1), precap: CapValue::new(0, 1) });
            entries.push(RequestEntry { path_id: PathId::NONE, precap: CapValue::new(0, 2) });
        }
        assert_eq!(r.encoded_len(), 24);
        // Regular with 2 caps: 2 + 6 + 2 + 2 + 16 = 28.
        let g = Grant::from_parts(100, 10);
        let caps = vec![CapValue::new(0, 1), CapValue::new(0, 2)];
        assert_eq!(CapHeader::regular_with_caps(FlowNonce::new(1), g, caps).encoded_len(), 28);
    }
}
