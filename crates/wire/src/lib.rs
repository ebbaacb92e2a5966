//! # tva-wire
//!
//! Packet formats for the TVA reproduction: the capability shim header of
//! Figure 5 (request / regular / renewal packets, demotion and return-info
//! bits), the 64-bit capability word of Figure 3, the 10-bit/6-bit (N, T)
//! grant encoding, and the simulated IP/TCP packet the discrete-event
//! simulator carries.
//!
//! The capability header is "a shim layer above IP" (§4.1): capability
//! information piggybacks on normal packets, so there are no separate
//! capability packets. Legacy packets simply omit the shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cap;
mod codec;
mod error;
mod fasthash;
mod header;
mod inline;
pub mod ipcodec;
mod nt;
mod packet;

pub use addr::{Addr, FlowKey};
pub use cap::{CapList, CapValue, FlowNonce, PathId, RequestEntry, RequestList, MAX_PATH_ROUTERS};
pub use codec::{decode, decode_prefix, encode, encode_into};
pub use error::WireError;
pub use fasthash::{DetBuildHasher, DetHashMap, FastHasher};
pub use header::{CapHeader, CapKind, CapPayload, ReturnInfo, VERSION};
pub use inline::InlineList;
pub use nt::{Grant, NBytes, TSecs};
pub use packet::{Packet, PacketId, TcpFlags, TcpSegment, IP_HEADER_LEN, TCP_HEADER_LEN};
