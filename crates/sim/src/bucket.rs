//! Token bucket rate limiter.
//!
//! A byte-rate cap with a burst allowance that can report when tokens will
//! next suffice. Pushback's per-aggregate rate-limit filters use it. TVA's
//! request cap (§3.2: a small fixed fraction of the link, 5% by default,
//! 1% in the §5 simulations) is not this bucket: `tva_core::TvaScheduler`
//! paces the request class with its own signed-balance gate, which charges
//! each packet after it is sent and so never needs to peek at a queue head.

use crate::time::{SimDuration, SimTime};

/// A byte-denominated token bucket.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    burst_bytes: u64,
    /// Tokens in *nano-bytes* (bytes × 1e9) so refill arithmetic stays in
    /// integers with no drift.
    tokens_nb: u128,
    last_refill: SimTime,
}

const NB: u128 = 1_000_000_000;

impl TokenBucket {
    /// Creates a bucket refilling at `rate_bytes_per_sec`, holding at most
    /// `burst_bytes`, starting full.
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        assert!(rate_bytes_per_sec > 0, "rate must be positive");
        assert!(burst_bytes > 0, "burst must be positive");
        TokenBucket {
            rate_bytes_per_sec,
            burst_bytes,
            tokens_nb: burst_bytes as u128 * NB,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last_refill).as_nanos();
        if dt == 0 {
            return;
        }
        self.last_refill = now;
        let add = self.rate_bytes_per_sec as u128 * dt as u128; // nano-bytes
        self.tokens_nb = (self.tokens_nb + add).min(self.burst_bytes as u128 * NB);
    }

    /// Consumes `bytes` if available; returns whether it succeeded.
    pub fn try_consume(&mut self, bytes: u32, now: SimTime) -> bool {
        self.refill(now);
        let need = bytes as u128 * NB;
        if self.tokens_nb >= need {
            self.tokens_nb -= need;
            true
        } else {
            false
        }
    }

    /// How long until `bytes` tokens will be available (zero if already).
    pub fn time_until(&self, bytes: u32, now: SimTime) -> SimDuration {
        // Compute on a copy so the bucket is not mutated.
        let mut probe = self.clone();
        probe.refill(now);
        let need = bytes as u128 * NB;
        if probe.tokens_nb >= need {
            return SimDuration::ZERO;
        }
        let deficit = need - probe.tokens_nb;
        let ns = deficit.div_ceil(probe.rate_bytes_per_sec as u128);
        SimDuration::from_nanos(ns as u64)
    }

    /// The configured refill rate.
    pub fn rate_bytes_per_sec(&self) -> u64 {
        self.rate_bytes_per_sec
    }

    /// Doubles the refill rate (pushback's gradual filter release).
    pub fn double_rate(&mut self) {
        self.rate_bytes_per_sec = self.rate_bytes_per_sec.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_drains() {
        let mut b = TokenBucket::new(1000, 500);
        assert!(b.try_consume(500, SimTime::ZERO));
        assert!(!b.try_consume(1, SimTime::ZERO));
    }

    #[test]
    fn refills_at_rate() {
        let mut b = TokenBucket::new(1000, 500);
        assert!(b.try_consume(500, SimTime::ZERO));
        // After 100 ms, 100 bytes of tokens.
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        assert!(b.try_consume(100, t));
        assert!(!b.try_consume(1, t));
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut b = TokenBucket::new(1000, 500);
        let t = SimTime::from_secs(1000);
        b.refill(t);
        assert_eq!(b.tokens_nb, 500 * NB);
        assert!(b.try_consume(500, t));
        assert!(!b.try_consume(1, t));
    }

    #[test]
    fn time_until_is_exact() {
        let mut b = TokenBucket::new(1000, 500);
        b.try_consume(500, SimTime::ZERO);
        // Need 250 bytes: at 1000 B/s, that's exactly 250 ms.
        let wait = b.time_until(250, SimTime::ZERO);
        assert_eq!(wait, SimDuration::from_millis(250));
        let ready = SimTime::ZERO + wait;
        assert!(b.try_consume(250, ready));
    }

    #[test]
    fn no_drift_under_many_small_refills() {
        let mut b = TokenBucket::new(12_500, 3000);
        b.try_consume(3000, SimTime::ZERO);
        // Refill in 1 µs steps for 80 ms: exactly 1000 bytes accumulate.
        let mut t = SimTime::ZERO;
        for _ in 0..80_000 {
            t += SimDuration::from_micros(1);
            b.refill(t);
        }
        assert_eq!(b.tokens_nb, 1000 * NB);
    }
}
