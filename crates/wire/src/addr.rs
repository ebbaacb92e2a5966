//! Network addresses for the simulated IP layer.

use std::fmt;

/// A 32-bit host address (IPv4-style), the unit the capability scheme binds
/// to: pre-capabilities hash the **source and destination addresses** and a
/// TVA *flow* is defined as a (source, destination) address pair (§3.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    /// The all-zeros address, used as a placeholder before assignment.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The raw 32-bit value (big-endian interpretation of the quad).
    #[inline]
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// The /24 prefix of this address, used by pushback's aggregate
    /// definitions and by prefix-based queuing policies.
    #[inline]
    pub const fn prefix24(self) -> u32 {
        self.0 >> 8
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}",
            self.0 >> 24,
            (self.0 >> 16) & 0xff,
            (self.0 >> 8) & 0xff,
            self.0 & 0xff
        )
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({self})")
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Self {
        Addr(v)
    }
}

/// A (source, destination) address pair — the paper's definition of a flow
/// for capability accounting and cache lookup (§3.6: *"a flow is defined on
/// a sender to a destination basis"*).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowKey {
    /// Sender address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
}

impl FlowKey {
    /// Builds a flow key.
    pub const fn new(src: Addr, dst: Addr) -> Self {
        FlowKey { src, dst }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dotted_quad_roundtrip() {
        let a = Addr::new(10, 0, 1, 200);
        assert_eq!(a.to_string(), "10.0.1.200");
        assert_eq!(a.to_u32(), 0x0A00_01C8);
    }

    #[test]
    fn prefix24() {
        assert_eq!(Addr::new(10, 1, 2, 3).prefix24(), Addr::new(10, 1, 2, 99).prefix24());
        assert_ne!(Addr::new(10, 1, 2, 3).prefix24(), Addr::new(10, 1, 3, 3).prefix24());
    }
}
