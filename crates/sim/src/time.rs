//! Simulation time: nanosecond-resolution virtual clock.
//!
//! All protocol constants in the paper are in seconds (capability timestamps,
//! T, secret rotation) while link-level events need sub-microsecond
//! resolution, so time is a `u64` count of nanoseconds — enough for ~584
//! years of simulated time without overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far beyond any experiment, usable as "never".
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Builds from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Whole seconds since start (truncating) — the value fed to the
    /// modulo-256 capability timestamp clock.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since start as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time since an earlier instant; saturates at zero if `earlier` is
    /// actually later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds from fractional seconds (panics on negative or non-finite).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time to serialize `bytes` onto a link of `bits_per_sec`,
    /// rounded up to the next nanosecond so transmission time is never
    /// treated as zero, and saturating at `u64::MAX` ns.
    pub fn transmission(bytes: u32, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        // The product fits a `u64` below about 2.3 GB, so every real packet
        // divides in `u64` (a `u128` divide is a libcall); the `u128` path
        // only catches the overflow.
        let ns = match (bytes as u64 * 8).checked_mul(1_000_000_000) {
            Some(bit_ns) => bit_ns.div_ceil(bits_per_sec),
            None => {
                let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bits_per_sec as u128);
                u64::try_from(ns).unwrap_or(u64::MAX)
            }
        };
        SimDuration(ns)
    }
}

/// Scalar multiply (for backoff doubling etc.), saturating.
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_secs(3).as_secs(), 3);
        assert_eq!(SimDuration::from_millis(60).as_secs_f64(), 0.06);
    }

    #[test]
    fn transmission_time_1500b_at_10mbps() {
        // 1500 bytes at 10 Mb/s = 1.2 ms.
        let d = SimDuration::transmission(1500, 10_000_000);
        assert_eq!(d.as_nanos(), 1_200_000);
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 1 Gb/s = 8 ns exactly; 1 byte at 3 Gb/s = 2.67 ns → 3 ns.
        assert_eq!(SimDuration::transmission(1, 1_000_000_000).as_nanos(), 8);
        assert_eq!(SimDuration::transmission(1, 3_000_000_000).as_nanos(), 3);
        assert!(SimDuration::transmission(1, u64::MAX).as_nanos() >= 1);
        // 4 GiB at 1 b/s is ~3.4e19 ns, past u64::MAX (~1.8e19): saturates.
        assert_eq!(SimDuration::transmission(u32::MAX, 1).as_nanos(), u64::MAX);
    }

    use proptest::prelude::*;

    proptest! {
        /// The `u64` fast path computes the `u128` formula exactly, and
        /// the overflow path saturates it, including the edges of both
        /// arguments.
        #[test]
        fn transmission_matches_u128_formula(
            bytes in prop_oneof![0u32..=1, Just(u32::MAX), any::<u32>(), 0u32..10_000],
            bps in prop_oneof![Just(1u64), Just(u64::MAX), 1u64..=u64::MAX, 1u64..100_000_000_000],
        ) {
            let want = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bps as u128);
            let want = u64::try_from(want).unwrap_or(u64::MAX);
            prop_assert_eq!(SimDuration::transmission(bytes, bps).as_nanos(), want);
        }
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs(1) * 3, SimDuration::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(5) - SimDuration::from_secs(2),
            SimDuration::from_secs(3)
        );
    }
}
