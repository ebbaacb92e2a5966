//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use tva_crypto::{keyed56, SecretSchedule, SipKey, MASK56};

proptest! {
    /// keyed56 is a function of (key, data): same inputs, same output; and
    /// output always fits in 56 bits.
    #[test]
    fn keyed56_deterministic_and_bounded(k0: u64, k1: u64,
                                         data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let k = SipKey::from_halves(k0, k1);
        let h1 = keyed56(k, &data);
        let h2 = keyed56(k, &data);
        prop_assert_eq!(h1, h2);
        prop_assert_eq!(h1 & !MASK56, 0);
    }

    /// Flipping any single bit of the input changes the keyed hash (with
    /// overwhelming probability — an equality here would be a 2^-56 event,
    /// so we treat it as failure).
    #[test]
    fn keyed56_bit_sensitivity(k0: u64, k1: u64,
                               data in proptest::collection::vec(any::<u8>(), 1..64),
                               bit in 0usize..512) {
        let k = SipKey::from_halves(k0, k1);
        let mut flipped = data.clone();
        let idx = bit % (data.len() * 8);
        flipped[idx / 8] ^= 1 << (idx % 8);
        prop_assert_ne!(keyed56(k, &data), keyed56(k, &flipped));
    }

    /// Within a stamp's lifetime the validator recovers exactly the minting
    /// key; two full rotations later it never does.
    #[test]
    fn secret_schedule_recovery(seed: u64, mint in 0u64..100_000, dt in 0u64..127) {
        let s = SecretSchedule::from_seed(seed);
        let ts = s.timestamp(mint);
        // dt < 128 is always within the remaining lifetime (minimum is 128+1).
        prop_assert_eq!(s.validate_key(ts, mint + dt), s.mint_key(mint));
        prop_assert_ne!(s.validate_key(ts, mint + 256 + dt), s.mint_key(mint));
    }

    /// The key cache can never be stale: under any interleaving of
    /// `refresh`, `mint_key` and `validate_key` over ten-odd minutes —
    /// rotations, the timestamp wrap, and generation 0 where "previous"
    /// saturates to generation 0 itself — every key equals the one a
    /// schedule that was never refreshed derives for the same call.
    #[test]
    fn refreshed_keys_equal_derived_keys(
        seed: u64,
        ops in proptest::collection::vec(
            (0u8..3, prop_oneof![0u64..128, 0u64..1_000], any::<u8>()),
            1..64,
        ),
    ) {
        let cold = SecretSchedule::from_seed(seed);
        let mut warm = cold;
        for (op, now, ts) in ops {
            match op {
                0 => warm.refresh(now),
                1 => prop_assert_eq!(warm.mint_key(now), cold.mint_key(now), "mint at {}", now),
                _ => prop_assert_eq!(
                    warm.validate_key(ts, now),
                    cold.validate_key(ts, now),
                    "validate ts {} at {}", ts, now
                ),
            }
        }
    }
}
