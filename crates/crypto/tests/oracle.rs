//! Differential oracle for the one-block SHA-1.
//!
//! `tva-crypto` hashes one block: it lays the `0x80` pad and the bit length
//! down in place and runs the compression function once, with the 80 rounds
//! as four unbranched groups. The general streaming hasher it replaced —
//! `update` in pieces, pad byte by byte in `finalize`, one `match` per round
//! — lives on below as [`reference`], with the FIPS 180-1 vectors and the
//! split/padding properties that pinned it. Every property here holds the
//! shipped code to it: same digest for every length the one-block path
//! accepts (0..=55), over arbitrary bytes and over all-`0xFF` bytes, and
//! `second56` equal to the reference digest's first 7 bytes.

use proptest::prelude::*;
use tva_crypto::sha1::MAX_ONE_BLOCK;
use tva_crypto::{second56, sha1};

/// The streaming SHA-1 `tva-crypto` shipped before the one-block rewrite,
/// kept verbatim (doc example aside) as the reference implementation.
mod reference {
    /// Output size of SHA-1 in bytes.
    pub const DIGEST_LEN: usize = 20;

    /// Block size of SHA-1 in bytes.
    pub const BLOCK_LEN: usize = 64;

    const H0: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

    /// Incremental SHA-1 hasher.
    #[derive(Clone)]
    pub struct Sha1 {
        state: [u32; 5],
        /// Total message length in bytes processed so far (including buffered).
        len: u64,
        buf: [u8; BLOCK_LEN],
        buf_len: usize,
    }

    impl Default for Sha1 {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Sha1 {
        /// Creates a fresh hasher with the FIPS 180-1 initial state.
        pub fn new() -> Self {
            Sha1 { state: H0, len: 0, buf: [0u8; BLOCK_LEN], buf_len: 0 }
        }

        /// Absorbs `data` into the hash state.
        pub fn update(&mut self, data: &[u8]) {
            self.len = self.len.wrapping_add(data.len() as u64);
            let mut rest = data;
            if self.buf_len > 0 {
                let take = rest.len().min(BLOCK_LEN - self.buf_len);
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
                self.buf_len += take;
                rest = &rest[take..];
                if self.buf_len == BLOCK_LEN {
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
            }
            while rest.len() >= BLOCK_LEN {
                let (block, tail) = rest.split_at(BLOCK_LEN);
                let mut b = [0u8; BLOCK_LEN];
                b.copy_from_slice(block);
                self.compress(&b);
                rest = tail;
            }
            if !rest.is_empty() {
                self.buf[..rest.len()].copy_from_slice(rest);
                self.buf_len = rest.len();
            }
        }

        /// Finishes the hash and returns the 20-byte digest.
        pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
            let bit_len = self.len.wrapping_mul(8);
            // Padding: 0x80, zeros, then 64-bit big-endian length.
            self.update(&[0x80]);
            while self.buf_len != 56 {
                self.update(&[0]);
            }
            // `update` would double-count the length bytes; splice them in manually.
            self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
            let block = self.buf;
            self.compress(&block);
            let mut out = [0u8; DIGEST_LEN];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
            let mut w = [0u32; 80];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let [mut a, mut b, mut c, mut d, mut e] = self.state;
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                    20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                    _ => (b ^ c ^ d, 0xCA62_C1D6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
            self.state[4] = self.state[4].wrapping_add(e);
        }
    }

    /// One-shot SHA-1 of `data`.
    pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }
}

use reference::Sha1;

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

// ---- The reference against FIPS 180-1 ------------------------------------

#[test]
fn fips_vector_abc() {
    assert_eq!(hex(&reference::sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

#[test]
fn fips_vector_two_blocks() {
    assert_eq!(
        hex(&reference::sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    );
}

#[test]
fn empty_message() {
    assert_eq!(hex(&reference::sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

#[test]
fn million_a() {
    let mut h = Sha1::new();
    let chunk = [b'a'; 1000];
    for _ in 0..1000 {
        h.update(&chunk);
    }
    assert_eq!(hex(&h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

#[test]
fn incremental_equals_oneshot() {
    let data: Vec<u8> = (0..=255u16).map(|b| b as u8).cycle().take(1000).collect();
    for split in [0usize, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), reference::sha1(&data), "split at {split}");
    }
}

#[test]
fn padding_boundaries() {
    // Lengths that straddle the 55/56-byte padding boundary must all work.
    for len in 50..70 {
        let data = vec![0x5au8; len];
        let d = reference::sha1(&data);
        // Recompute incrementally byte-by-byte.
        let mut h = Sha1::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), d, "len {len}");
    }
}

// ---- The shipped one-block path against the reference --------------------

/// All-ones bytes set every bit the pad and length could collide with.
#[test]
fn one_block_equals_reference_on_all_ones_at_every_length() {
    for len in 0..=MAX_ONE_BLOCK {
        let data = vec![0xFFu8; len];
        assert_eq!(sha1(&data), reference::sha1(&data), "len {len}");
    }
}

proptest! {
    /// SHA-1 over arbitrary data must give identical digests regardless of
    /// how the input is split across `update` calls.
    #[test]
    fn sha1_incremental_agrees(data in proptest::collection::vec(any::<u8>(), 0..2048),
                               split in 0usize..2048) {
        let split = split.min(data.len());
        let mut a = Sha1::new();
        a.update(&data);
        let mut b = Sha1::new();
        b.update(&data[..split]);
        b.update(&data[split..]);
        prop_assert_eq!(a.finalize(), b.finalize());
    }

    /// Every length the one-block path accepts, over arbitrary bytes.
    #[test]
    fn one_block_equals_reference(len in 0..=MAX_ONE_BLOCK,
                                  fill in proptest::collection::vec(any::<u8>(), MAX_ONE_BLOCK)) {
        let data = &fill[..len];
        prop_assert_eq!(sha1(data), reference::sha1(data));
    }

    /// `second56` is the reference digest's first 7 bytes over the same
    /// byte string (what `prop.rs::second56_is_stream_hash` held for the
    /// multi-part form).
    #[test]
    fn second56_is_the_reference_digest_head(
        data in proptest::collection::vec(any::<u8>(), 0..=MAX_ONE_BLOCK),
    ) {
        let d = reference::sha1(&data);
        let head = u64::from_be_bytes([0, d[0], d[1], d[2], d[3], d[4], d[5], d[6]]);
        prop_assert_eq!(second56(&data), head);
    }
}
