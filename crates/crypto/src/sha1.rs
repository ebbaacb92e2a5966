//! SHA-1 (FIPS 180-1) of one block, implemented from scratch.
//!
//! The TVA paper uses SHA-1 as the second hash function that converts a
//! router pre-capability into a full capability bound to the byte limit `N`
//! and validity period `T` (§6 of the paper). SHA-1 is no longer
//! collision-resistant by modern standards, but the paper's threat model only
//! requires second-preimage resistance against an attacker who never sees the
//! router secret, and we reproduce the paper's construction faithfully.
//!
//! Every input the capability scheme hashes is one fixed 11-byte record, so
//! production needs exactly one block: [`sha1`] takes messages of at most
//! [`MAX_ONE_BLOCK`] bytes, lays the `0x80` pad and the bit length down in
//! place, and runs the compression function once. The general streaming
//! hasher it replaced is kept as the reference oracle in `tests/oracle.rs`,
//! which also holds the multi-block FIPS 180-1 vectors.

/// Output size of SHA-1 in bytes.
pub const DIGEST_LEN: usize = 20;

/// Block size of SHA-1 in bytes.
pub const BLOCK_LEN: usize = 64;

/// Longest message [`sha1`] accepts: the `0x80` pad byte and the 8-byte
/// length must follow it inside the same block.
pub const MAX_ONE_BLOCK: usize = BLOCK_LEN - 9;

const H0: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// One-shot SHA-1 of a message of at most [`MAX_ONE_BLOCK`] bytes. Panics
/// on a longer one (every TVA hash input is far smaller; exceeding it is a
/// programming error, as with [`crate::keyed::HashInput`]'s capacity).
///
/// ```
/// use tva_crypto::sha1::sha1;
/// let digest = sha1(b"abc");
/// assert_eq!(digest[..4], [0xa9, 0x99, 0x3e, 0x36]);
/// ```
#[inline]
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    assert!(
        data.len() <= MAX_ONE_BLOCK,
        "one-block SHA-1 takes at most 55 bytes, got {}",
        data.len()
    );
    let mut block = [0u8; BLOCK_LEN];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    block[BLOCK_LEN - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-1 compression function: folds one 64-byte block into `state`.
/// The 80 rounds run as four 20-round groups, each with its own boolean
/// function and constant, so no round branches on its index.
fn compress(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 80];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let mut v = *state;
    for &wi in &w[..20] {
        let [_, b, c, d, _] = v;
        round(&mut v, (b & c) | (!b & d), 0x5A82_7999, wi);
    }
    for &wi in &w[20..40] {
        let [_, b, c, d, _] = v;
        round(&mut v, b ^ c ^ d, 0x6ED9_EBA1, wi);
    }
    for &wi in &w[40..60] {
        let [_, b, c, d, _] = v;
        round(&mut v, (b & c) | (b & d) | (c & d), 0x8F1B_BCDC, wi);
    }
    for &wi in &w[60..] {
        let [_, b, c, d, _] = v;
        round(&mut v, b ^ c ^ d, 0xCA62_C1D6, wi);
    }
    for (s, x) in state.iter_mut().zip(v) {
        *s = s.wrapping_add(x);
    }
}

/// One SHA-1 round over the working variables `[a, b, c, d, e]`, given the
/// group's boolean function value `f`, its constant `k` and the schedule
/// word `w`.
#[inline(always)]
fn round(v: &mut [u32; 5], f: u32, k: u32, w: u32) {
    let [a, b, c, d, e] = *v;
    let t = a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(w);
    *v = [t, a, b.rotate_left(30), c, d];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn padding_boundaries() {
        // The longest one-block messages, where the pad byte meets the
        // length field. Digests from coreutils `sha1sum`, an independent
        // implementation (`tests/oracle.rs` checks every length 0..=55
        // against the streaming reference).
        for (len, want) in [
            (53, "137a788c7213380a76bbde549c382873de34310b"),
            (54, "3341ab8cd11f0accc2d0afa78e89f96f2998f92f"),
            (55, "55b80d96c523566d3c8a3b8de03a5549fd04915c"),
        ] {
            assert_eq!(hex(&sha1(&vec![0x5au8; len])), want, "len {len}");
        }
    }
}
