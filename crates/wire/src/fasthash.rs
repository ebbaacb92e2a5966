//! A seeded, deterministic, non-cryptographic hasher for simulator-internal
//! maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a per-process
//! `RandomState`. That costs the router fast path twice: SipHash is slow for
//! the tiny fixed-width keys the simulator hashes (flow keys, channel ids,
//! interned addresses), and the random seed makes *iteration order* differ
//! between processes. No correctness-bearing code may iterate these maps
//! (see DESIGN.md "Hot path"), but a fixed seed turns "should not matter"
//! into "cannot matter": any accidental order-dependence becomes a
//! reproducible bug instead of a heisenbug.
//!
//! The mix function is the Fx/rustc-hash word fold: `state = (state <<< 5 ^
//! word) * K` with a 64-bit odd multiplier. It is not DoS-resistant — these
//! maps are keyed by simulator-assigned values (interned indices, channel
//! numbers) or by flow keys in a *simulation* whose adversary model is the
//! paper's, not a hash-flooding one.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The Fx multiplier (golden-ratio derived, odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Default seed for [`DetBuildHasher::default`]; any fixed value works, this
/// one spells out that it was chosen arbitrarily.
const DEFAULT_SEED: u64 = 0x7e7e_7e7e_0000_0001;

/// A deterministic FxHash-style [`Hasher`] with a seedable initial state.
#[derive(Clone, Copy, Debug)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// A [`BuildHasher`] producing [`FastHasher`]s from a fixed seed: every map
/// built from the same seed hashes — and therefore iterates — identically
/// in every process.
#[derive(Clone, Copy, Debug)]
pub struct DetBuildHasher {
    seed: u64,
}

impl DetBuildHasher {
    /// A builder with an explicit seed.
    pub const fn with_seed(seed: u64) -> Self {
        DetBuildHasher { seed }
    }
}

impl Default for DetBuildHasher {
    fn default() -> Self {
        DetBuildHasher::with_seed(DEFAULT_SEED)
    }
}

impl BuildHasher for DetBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// A `HashMap` with the deterministic seeded hasher. Construct with
/// `DetHashMap::default()`.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(b: &DetBuildHasher, v: T) -> u64 {
        b.hash_one(v)
    }

    #[test]
    fn identical_across_instances() {
        let a = DetBuildHasher::default();
        let b = DetBuildHasher::default();
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(hash_one(&a, v), hash_one(&b, v));
        }
    }

    #[test]
    fn seed_changes_the_function() {
        let a = DetBuildHasher::with_seed(1);
        let b = DetBuildHasher::with_seed(2);
        assert_ne!(hash_one(&a, 42u64), hash_one(&b, 42u64));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let b = DetBuildHasher::default();
        assert_eq!(hash_one(&b, [1u8, 2, 3].as_slice()), hash_one(&b, [1u8, 2, 3].as_slice()));
        assert_ne!(hash_one(&b, [1u8, 2, 3].as_slice()), hash_one(&b, [1u8, 2, 4].as_slice()));
        // Partial-word tails participate.
        assert_ne!(
            hash_one(&b, [0u8; 9].as_slice()),
            hash_one(&b, {
                let mut x = [0u8; 9];
                x[8] = 1;
                x
            }
            .as_slice())
        );
    }

    #[test]
    fn map_iteration_order_is_stable() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000 {
                m.insert(i * 2654435761 % 977, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
