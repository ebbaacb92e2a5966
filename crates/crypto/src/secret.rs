//! Router secret rotation (§3.4 of the paper).
//!
//! Each router stamps pre-capabilities with an 8-bit timestamp from a
//! modulo-256 **seconds** clock and a hash keyed by a router secret. The
//! secret changes at **twice the rate of the timestamp rollover** — every 128
//! seconds — and a router validates with only the current or the previous
//! secret. This guarantees a pre-capability expires within at most one
//! timestamp rollover period (256 s), and that every pre-capability is valid
//! for roughly the same length of time no matter when it was issued.
//!
//! The selection trick from the paper: *"The high-order bit of the timestamp
//! indicates whether the current or the previous router secret should be used
//! for validation."* Secrets rotate exactly when the high-order timestamp bit
//! flips, so a stamp whose high bit matches the router's present high bit was
//! minted under the current secret; otherwise under the previous one. The
//! router therefore tries exactly one secret per validation.
//!
//! Deriving a generation key costs two SipHash-2-4 calls. A router that
//! calls [`SecretSchedule::refresh`] with its clock keeps the current and
//! previous keys of that instant's generation, so minting and validating
//! derive nothing until the next rotation.

use crate::siphash::{siphash24, SipKey};

/// Seconds between secret changes: half the modulo-256 timestamp rollover.
pub(crate) const ROTATION_PERIOD_SECS: u64 = 128;

/// Seconds for the 8-bit timestamp to roll over.
pub(crate) const TIMESTAMP_ROLLOVER_SECS: u64 = 256;

/// Which secret generation a validation should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SecretChoice {
    /// The stamp was minted under the secret currently in force.
    Current,
    /// The stamp was minted under the immediately preceding secret.
    Previous,
}

/// Deterministically derives per-generation keys from a master key.
///
/// Generation `g` covers wall-clock seconds `[g * 128, (g + 1) * 128)`.
/// Deriving (rather than randomly drawing) keys keeps the whole simulation
/// reproducible from a single seed.
///
/// The schedule also holds the keys of one generation, set by
/// [`refresh`](Self::refresh). They are used only when the generation asked
/// for is that one, so every key this type returns is a pure function of
/// `(master, stamp timestamp, now)` whatever the cache holds.
#[derive(Clone, Copy, Debug)]
pub struct SecretSchedule {
    master: SipKey,
    /// The generation `keys` belong to; [`NO_GENERATION`] until the first
    /// `refresh`.
    cached_gen: u64,
    /// The keys of generations `cached_gen` and `cached_gen - 1` (saturating
    /// at generation 0, as [`validate_key`](Self::validate_key) does).
    keys: [SipKey; 2],
}

/// A generation no clock reaches (`u64::MAX / 128` is the last one), marking
/// the cache empty.
const NO_GENERATION: u64 = u64::MAX;

impl SecretSchedule {
    /// Creates a schedule from a 128-bit master key.
    pub(crate) const fn new(master: SipKey) -> Self {
        let unset = SipKey::from_halves(0, 0);
        SecretSchedule { master, cached_gen: NO_GENERATION, keys: [unset, unset] }
    }

    /// Creates a schedule from a simple u64 seed (convenience for tests and
    /// simulations).
    pub fn from_seed(seed: u64) -> Self {
        Self::new(SipKey::from_halves(seed, seed ^ 0x9E37_79B9_7F4A_7C15))
    }

    /// Keeps the keys of the generation in force at `now_secs`, deriving them
    /// only when it differs from the one already kept: one comparison per
    /// call between rotations.
    #[inline]
    pub fn refresh(&mut self, now_secs: u64) {
        let g = self.generation_at(now_secs);
        if g != self.cached_gen {
            self.keys = [self.key_for_generation(g), self.key_for_generation(g.saturating_sub(1))];
            self.cached_gen = g;
        }
    }

    /// The secret generation index in force at `now_secs`.
    #[inline]
    pub(crate) fn generation_at(&self, now_secs: u64) -> u64 {
        now_secs / ROTATION_PERIOD_SECS
    }

    /// The key for generation `g`.
    pub(crate) fn key_for_generation(&self, g: u64) -> SipKey {
        // Stack-built input (generation || label): this runs per packet on
        // the router hot path, where a `concat()` Vec would be the only
        // remaining steady-state allocation.
        let mut buf = [0u8; 10];
        buf[..8].copy_from_slice(&g.to_be_bytes());
        buf[8..].copy_from_slice(b"k0");
        let k0 = siphash24(self.master, &buf);
        buf[8..].copy_from_slice(b"k1");
        let k1 = siphash24(self.master, &buf);
        SipKey::from_halves(k0, k1)
    }

    /// The key a router should use to **mint** a stamp at `now_secs`.
    #[inline]
    pub fn mint_key(&self, now_secs: u64) -> SipKey {
        let g = self.generation_at(now_secs);
        if g == self.cached_gen {
            self.keys[0]
        } else {
            self.key_for_generation(g)
        }
    }

    /// The 8-bit router timestamp for `now_secs` (modulo-256 seconds clock).
    #[inline]
    pub fn timestamp(&self, now_secs: u64) -> u8 {
        (now_secs % TIMESTAMP_ROLLOVER_SECS) as u8
    }

    /// Chooses which secret generation validates a stamp carrying timestamp
    /// `stamp_ts`, given the router's clock reads `now_secs`.
    ///
    /// Per the paper, this inspects only the high-order bit of the stamp
    /// timestamp versus the router's own: equal bits mean the stamp was
    /// minted in the same 128-second half-cycle (current secret), unequal
    /// bits mean the previous half-cycle (previous secret).
    pub(crate) fn choose(&self, stamp_ts: u8, now_secs: u64) -> SecretChoice {
        let now_hi = (self.timestamp(now_secs) >> 7) & 1;
        let stamp_hi = (stamp_ts >> 7) & 1;
        if now_hi == stamp_hi {
            SecretChoice::Current
        } else {
            SecretChoice::Previous
        }
    }

    /// The key to **validate** a stamp with timestamp `stamp_ts` at
    /// `now_secs`. Applies the high-bit selection trick; the caller never
    /// tries more than this one key.
    #[inline]
    pub fn validate_key(&self, stamp_ts: u8, now_secs: u64) -> SipKey {
        let g = self.generation_at(now_secs);
        let slot = match self.choose(stamp_ts, now_secs) {
            SecretChoice::Current => 0,
            SecretChoice::Previous => 1,
        };
        if g == self.cached_gen {
            self.keys[slot]
        } else {
            self.key_for_generation(g.saturating_sub(slot as u64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_advance_every_128s() {
        let s = SecretSchedule::from_seed(1);
        assert_eq!(s.generation_at(0), 0);
        assert_eq!(s.generation_at(127), 0);
        assert_eq!(s.generation_at(128), 1);
        assert_eq!(s.generation_at(256), 2);
    }

    #[test]
    fn distinct_generations_have_distinct_keys() {
        let s = SecretSchedule::from_seed(2);
        let k: Vec<_> = (0..16).map(|g| s.key_for_generation(g)).collect();
        for i in 0..k.len() {
            for j in i + 1..k.len() {
                assert_ne!(k[i], k[j], "gens {i} and {j}");
            }
        }
    }

    #[test]
    fn high_bit_selects_current_within_same_half() {
        let s = SecretSchedule::from_seed(3);
        // Minted at t=130 (high bit 1), validated at t=200 (high bit 1).
        let ts = s.timestamp(130);
        assert_eq!(s.choose(ts, 200), SecretChoice::Current);
        assert_eq!(s.validate_key(ts, 200), s.mint_key(130));
    }

    #[test]
    fn high_bit_selects_previous_across_rotation() {
        let s = SecretSchedule::from_seed(4);
        // Minted at t=120 (high bit 0, gen 0), validated at t=140 (high bit
        // 1, gen 1): must select the previous secret, which is gen 0's.
        let ts = s.timestamp(120);
        assert_eq!(s.choose(ts, 140), SecretChoice::Previous);
        assert_eq!(s.validate_key(ts, 140), s.mint_key(120));
    }

    #[test]
    fn mint_key_always_recoverable_within_lifetime() {
        // For every mint time and every validation time within the remaining
        // lifetime, the validator must recover the exact minting key.
        let s = SecretSchedule::from_seed(5);
        for mint in (0..1024).step_by(7) {
            let ts = s.timestamp(mint);
            let mint_key = s.mint_key(mint);
            // The stamp dies when generation mint_gen + 2 begins (it is
            // then older than "previous").
            let life = (s.generation_at(mint) + 2) * ROTATION_PERIOD_SECS - mint;
            assert!(life >= ROTATION_PERIOD_SECS, "minimum one period of validity");
            for dt in (0..life).step_by(13) {
                assert_eq!(
                    s.validate_key(ts, mint + dt),
                    mint_key,
                    "mint {mint} dt {dt}"
                );
            }
        }
    }

    #[test]
    fn stale_stamp_does_not_recover_mint_key() {
        let s = SecretSchedule::from_seed(6);
        // A stamp minted at t=0 validated at t=300 (two rotations later)
        // must NOT validate under the minting key.
        let ts = s.timestamp(0);
        assert_ne!(s.validate_key(ts, 300), s.mint_key(0));
    }
}
