//! Wire decoding errors.

use std::fmt;

/// Errors from decoding a packet or its capability header. Malformed input from the
/// network must never panic a router, so every failure mode is an explicit
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a header (IPv4, capability shim or TCP) did.
    Truncated,
    /// The IPv4 header checksum does not verify.
    BadChecksum,
    /// Unknown version: of the capability shim's common header, or of IP.
    BadVersion(u8),
    /// A capability / entry count exceeding [`crate::cap::MAX_PATH_ROUTERS`].
    BadCount(usize),
    /// Unknown return-info type byte.
    BadReturnType(u8),
    /// Bytes remained after a complete header was parsed.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated inside a header"),
            WireError::BadChecksum => write!(f, "IPv4 header checksum mismatch"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadCount(n) => write!(f, "capability count {n} exceeds path maximum"),
            WireError::BadReturnType(t) => write!(f, "unknown return-info type {t:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after header"),
        }
    }
}

impl std::error::Error for WireError {}
