//! The simulated packet: an IP datagram with optional capability shim and
//! transport headers.
//!
//! Following the ns-2 idiom (whose role this simulator fills — see DESIGN.md
//! §1), a packet carries a *stack of structured headers* rather than raw
//! bytes; link transmission times are computed from the exact on-wire sizes
//! the headers would serialize to, so queueing dynamics match a byte-level
//! implementation.

use crate::addr::{Addr, FlowKey};
use crate::header::CapHeader;

/// Serialized IPv4 header size in bytes (no options).
pub const IP_HEADER_LEN: usize = 20;

/// Serialized TCP header size in bytes (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// A globally unique packet identifier, for tracing and debugging only —
/// no protocol logic may depend on it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// TCP header flags used by the mini transport.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags {
    /// Connection request (carries a capability request in TVA).
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender is done.
    pub fin: bool,
    /// Abort (carries an empty capability list when a TVA destination
    /// refuses a transfer, §4.2).
    pub rst: bool,
}

/// A structured TCP segment header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Source port (distinguishes parallel connections between a host pair).
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement (next byte expected), valid when
    /// `flags.ack`.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
}

impl TcpSegment {
    /// A SYN segment for a new connection.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags { syn: true, ..Default::default() },
        }
    }
}

/// The simulated packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Unique id for tracing (not visible to protocol logic).
    pub id: PacketId,
    /// IP source address. Attackers may spoof this field; nothing in the
    /// simulator prevents a host from emitting arbitrary sources.
    pub src: Addr,
    /// IP destination address.
    pub dst: Addr,
    /// The capability shim header; `None` for legacy (non-TVA) traffic.
    pub cap: Option<CapHeader>,
    /// Transport header, if this packet belongs to a transport connection.
    pub tcp: Option<TcpSegment>,
    /// Application payload bytes (we carry the count, not the bytes).
    pub payload_len: u32,
}

impl Packet {
    /// The (src, dst) flow key of this packet.
    #[inline]
    pub fn flow(&self) -> FlowKey {
        FlowKey::new(self.src, self.dst)
    }

    /// Total on-wire size in bytes: IP + capability shim + TCP + payload.
    pub fn wire_len(&self) -> u32 {
        let cap = self.cap.as_ref().map_or(0, |c| c.encoded_len());
        let tcp = if self.tcp.is_some() { TCP_HEADER_LEN } else { 0 };
        IP_HEADER_LEN as u32 + cap as u32 + tcp as u32 + self.payload_len
    }

    /// Whether the packet has been demoted by some router on its path.
    #[inline]
    pub fn is_demoted(&self) -> bool {
        self.cap.as_ref().is_some_and(|c| c.demoted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::FlowNonce;

    fn base_packet() -> Packet {
        Packet {
            id: PacketId(1),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: 0,
        }
    }

    /// The packet is moved by value through decode, pool and queues: its size
    /// is a forwarding cost. Four inline list entries keep it under four
    /// cache lines while the protocol's path bound stays 32.
    #[test]
    fn packet_stays_small() {
        assert!(std::mem::size_of::<Packet>() <= 256, "{}", std::mem::size_of::<Packet>());
        assert_eq!(crate::cap::MAX_PATH_ROUTERS, 32);
    }

    #[test]
    fn wire_len_legacy_data() {
        let mut p = base_packet();
        p.payload_len = 1000;
        assert_eq!(p.wire_len(), 1020);
        p.tcp = Some(TcpSegment::syn(1, 2, 0));
        assert_eq!(p.wire_len(), 1040);
    }

    #[test]
    fn wire_len_includes_cap_shim() {
        let mut p = base_packet();
        p.cap = Some(CapHeader::regular_nonce_only(FlowNonce::new(1)));
        p.tcp = Some(TcpSegment::syn(1, 2, 0));
        p.payload_len = 1000;
        // 20 IP + 8 shim + 20 TCP + 1000: the paper's "20 capability bytes"
        // figure refers to a full capability list; the nonce-only common
        // case is 8 bytes.
        assert_eq!(p.wire_len(), 1048);
    }

    #[test]
    fn flow_and_demotion_helpers() {
        let mut p = base_packet();
        assert!(p.cap.is_none());
        assert!(!p.is_demoted());
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(1));
        h.demoted = true;
        p.cap = Some(h);
        assert!(p.is_demoted());
        assert_eq!(p.flow().reversed().src, p.dst);
    }
}
