//! Truncated keyed hashes used by the capability scheme.
//!
//! Figure 3 of the paper gives both the pre-capability and the capability 56
//! bits of keyed hash next to an 8-bit router timestamp, for a 64-bit total.
//! This module provides the two hash roles:
//!
//! * [`keyed56`] — the fast keyed hash a router uses to mint and re-verify
//!   pre-capabilities (the paper's "AES-hash" slot, here SipHash-2-4).
//! * [`second56`] — the second hash that binds a pre-capability to the byte
//!   limit `N` and validity period `T` (the paper's SHA-1 slot).
//!
//! Both yield 56 bits so the values drop directly into the wire format:
//! `keyed56` keeps the low 56 bits of the SipHash output, `second56` the
//! first 7 bytes of the SHA-1 digest.

use crate::sha1::sha1;
use crate::siphash::{siphash24, SipKey};

/// Bit mask selecting the 56 hash bits of a capability word.
pub const MASK56: u64 = (1u64 << 56) - 1;

/// Fast keyed 56-bit hash of `data` under `key` (pre-capability role).
#[inline]
pub fn keyed56(key: SipKey, data: &[u8]) -> u64 {
    siphash24(key, data) & MASK56
}

/// Second-stage 56-bit hash (capability role): the first 7 bytes of the
/// SHA-1 digest of `input`, read big-endian.
///
/// `input` is one record of fixed-width fields (all TVA fields are fixed
/// width, so no ambiguity arises) of at most 55 bytes — one SHA-1 block.
/// Panics on a longer one, as [`HashInput`] does past its capacity.
#[inline]
pub fn second56(input: &[u8]) -> u64 {
    let d = sha1(input);
    u64::from_be_bytes([0, d[0], d[1], d[2], d[3], d[4], d[5], d[6]])
}

/// A tiny fixed-capacity byte builder for composing hash inputs without heap
/// allocation on the router fast path.
///
/// ```
/// use tva_crypto::HashInput;
/// let mut input = HashInput::new();
/// input.push_u32(0x0a000001); // source IP
/// input.push_u32(0x0a000002); // destination IP
/// input.push_u8(42);          // router timestamp
/// assert_eq!(input.as_bytes().len(), 9);
/// ```
#[derive(Clone, Copy)]
pub struct HashInput {
    buf: [u8; 64],
    len: usize,
}

impl Default for HashInput {
    fn default() -> Self {
        Self::new()
    }
}

impl HashInput {
    /// Creates an empty builder.
    pub const fn new() -> Self {
        HashInput { buf: [0u8; 64], len: 0 }
    }

    /// Appends one byte. Panics if the 64-byte capacity is exceeded (all TVA
    /// hash inputs are far smaller; exceeding it is a programming error).
    #[inline]
    pub fn push_u8(&mut self, v: u8) {
        self.buf[self.len] = v;
        self.len += 1;
    }

    /// Appends a big-endian u32.
    #[inline]
    pub fn push_u32(&mut self, v: u32) {
        self.buf[self.len..self.len + 4].copy_from_slice(&v.to_be_bytes());
        self.len += 4;
    }

    /// The bytes accumulated so far.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed56_is_56_bits() {
        let k = SipKey::from_halves(0xdead, 0xbeef);
        for i in 0..64u64 {
            let h = keyed56(k, &i.to_be_bytes());
            assert_eq!(h & !MASK56, 0);
        }
    }

    #[test]
    fn second56_is_56_bits_and_order_sensitive() {
        let a = second56(b"onetwo");
        let b = second56(b"twoone");
        assert_eq!(a & !MASK56, 0);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most 55 bytes")]
    fn second56_refuses_a_second_block() {
        second56(&[0u8; 56]);
    }

    #[test]
    fn hash_input_layout() {
        let mut h = HashInput::new();
        h.push_u8(0xab);
        h.push_u32(0x03040506);
        h.push_u8(0x07);
        assert_eq!(h.as_bytes(), &[0xab, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn keyed56_key_sensitivity() {
        let k1 = SipKey::from_halves(1, 1);
        let k2 = SipKey::from_halves(1, 2);
        assert_ne!(keyed56(k1, b"pkt"), keyed56(k2, b"pkt"));
    }
}
