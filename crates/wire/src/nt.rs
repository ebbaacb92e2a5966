//! The fine-grained capability limits `N` and `T` and their wire encodings.
//!
//! Figure 5 gives regular packets a 10-bit `N` field in **kilobytes** and a
//! 6-bit `T` field in **seconds**. A capability therefore grants up to
//! 1023 KB over up to 63 seconds; the paper's examples use 100 KB / 10 s and
//! 32 KB / 10 s. `T` must be at most half the 256-second timestamp rollover
//! so expiry comparisons are unambiguous under the modulo clock (§3.5) — the
//! 6-bit field (≤ 63 s) enforces that structurally.

use std::fmt;

/// Byte limit `N`, encoded on the wire as a 10-bit count of kilobytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NBytes(u16);

impl NBytes {
    /// Maximum encodable value: 1023 KB.
    pub const MAX: NBytes = NBytes(1023);

    /// Builds from a kilobyte count, saturating at the 10-bit maximum.
    pub const fn from_kb(kb: u16) -> Self {
        NBytes(if kb > 1023 { 1023 } else { kb })
    }

    /// The kilobyte count (the raw wire value).
    #[inline]
    pub const fn kb(self) -> u16 {
        self.0
    }

    /// The limit in bytes (1 KB = 1024 B).
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0 as u64 * 1024
    }
}

impl fmt::Debug for NBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={}KB", self.0)
    }
}

/// Validity period `T`, encoded on the wire as a 6-bit count of seconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TSecs(u8);

impl TSecs {
    /// Maximum encodable value: 63 seconds.
    pub const MAX: TSecs = TSecs(63);

    /// Builds from a second count, saturating at the 6-bit maximum.
    pub const fn from_secs(s: u8) -> Self {
        TSecs(if s > 63 { 63 } else { s })
    }

    /// The second count (the raw wire value).
    #[inline]
    pub const fn secs(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for TSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T={}s", self.0)
    }
}

/// A granted (N, T) pair: the right to send `N` bytes within `T` seconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Grant {
    /// Byte limit.
    pub n: NBytes,
    /// Validity period.
    pub t: TSecs,
}

impl Grant {
    /// Convenience constructor from raw units.
    pub const fn from_parts(kb: u16, secs: u8) -> Self {
        Grant { n: NBytes::from_kb(kb), t: TSecs::from_secs(secs) }
    }

    /// The sustained rate `N/T` in bytes per second this grant represents;
    /// flows slower than this need no router state (§3.6).
    pub fn rate_bytes_per_sec(self) -> f64 {
        self.n.bytes() as f64 / self.t.secs().max(1) as f64
    }

    /// Packs N (10 bits) and T (6 bits) into the 16-bit wire field, N in the
    /// high bits per Figure 5's field order.
    pub const fn pack(self) -> u16 {
        ((self.n.kb() & 0x3FF) << 6) | (self.t.secs() as u16 & 0x3F)
    }

    /// Unpacks from the 16-bit wire field.
    pub const fn unpack(v: u16) -> Self {
        Grant { n: NBytes::from_kb((v >> 6) & 0x3FF), t: TSecs::from_secs((v & 0x3F) as u8) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_saturates() {
        assert_eq!(NBytes::from_kb(5000), NBytes::MAX);
        assert_eq!(NBytes::from_kb(100).bytes(), 102_400);
    }

    #[test]
    fn t_saturates() {
        assert_eq!(TSecs::from_secs(200), TSecs::MAX);
        assert_eq!(TSecs::from_secs(10).secs(), 10);
    }

    #[test]
    fn grant_pack_roundtrip_exhaustive() {
        for kb in [0u16, 1, 31, 32, 100, 512, 1023] {
            for secs in 0u8..=63 {
                let g = Grant::from_parts(kb, secs);
                assert_eq!(Grant::unpack(g.pack()), g, "kb={kb} secs={secs}");
            }
        }
    }

    #[test]
    fn paper_example_rate() {
        // 32KB in 10 seconds, the Figure 11 policy grant.
        let g = Grant::from_parts(32, 10);
        assert!((g.rate_bytes_per_sec() - 3276.8).abs() < 1e-9);
    }
}
