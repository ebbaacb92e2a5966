//! # tva-transport
//!
//! The mini-TCP used by the paper's simulations (§5), plus the host nodes
//! and flood sources that drive every experiment.
//!
//! The transport matches the paper's *modified* TCP: SYN timeouts are fixed
//! at one second with up to eight retransmissions (no exponential backoff),
//! and data exchange aborts once the retransmission timeout exceeds 64
//! seconds or one segment has been transmitted more than ten times. Slow
//! start, congestion avoidance, fast retransmit and cumulative ACKs are
//! implemented so loss dynamics under floods are realistic.
//!
//! Capability schemes attach via the [`shim::Shim`] seam: transport is
//! entirely scheme-agnostic, mirroring the paper's unmodified-application /
//! user-space-proxy deployment story (§6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod conn;
mod flood;
mod host;
mod metrics;
mod shim;
mod stack;

pub use conn::{AbortReason, ConnKey, ReceiverConn};
pub use flood::{FloodNode, PacketFactory};
pub use host::{ClientNode, ServerNode, TOKEN_START};
pub use metrics::{summarize, TransferRecord, TransferSummary};
pub use shim::{NullShim, Shim};
pub use stack::{TcpEvent, TcpStack};
