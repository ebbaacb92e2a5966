//! Log-linear histograms in the HdrHistogram style: fixed bucket layout,
//! bounded relative error, zero allocation after construction.
//!
//! Values are `u64` in whatever unit the caller picks (nanoseconds, bytes);
//! each power-of-two range is subdivided into `2^SUB_BITS` linear
//! sub-buckets, so the bucket width is always within `1/2^SUB_BITS` of the
//! value itself — a ~3% worst-case relative error with the default 5
//! sub-bucket bits, independent of the value's magnitude.

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range at `SUB_BITS` resolution:
/// values below `2^SUB_BITS` map linearly, every octave above adds `SUBS`.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A fixed-size log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a value: linear below `2^SUB_BITS`, log-linear above.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUBS - 1);
        octave * SUBS + sub
    }
}

/// Midpoint of a bucket (the value reported for percentiles landing in it).
fn bucket_mid(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let octave = (idx / SUBS) as u32;
        let sub = (idx % SUBS) as u64;
        let shift = octave - 1;
        let low = ((SUBS as u64) + sub) << shift;
        let width = 1u64 << shift;
        low + width / 2
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (exact, 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of all samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, within the bucket resolution
    /// (~3% relative error). Returns 0 when empty. Exact extremes are
    /// reported for `q = 0` and `q = 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 30, 31] {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // Values below 2^SUB_BITS land in their own unit-wide bucket.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(
                (v as f64 - 1_000_000.0).abs() / 1_000_000.0 < 0.04,
                "q={q} gave {v}"
            );
        }
        assert_eq!(h.mean(), 1_000_000.0);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        // Samples across 9 orders of magnitude.
        let mut v = 1u64;
        while v < 1_000_000_000 {
            h.record(v);
            v = v * 17 / 16 + 1;
        }
        // Every recorded value must be recoverable within ~3.2% (1/SUBS).
        let mut single = Histogram::new();
        let mut v = 1u64;
        while v < 1_000_000_000 {
            single.reset();
            single.record(v);
            let got = single.quantile(0.5) as f64;
            let err = (got - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUBS as f64, "v={v} got={got} err={err}");
            v = v * 17 / 16 + 1;
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100);
        }
        let qs: Vec<u64> =
            [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0].iter().map(|&q| h.quantile(q)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "{qs:?}");
        }
        // p50 of 100..=1_000_000 uniform ≈ 500_000 within bucket error.
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "{p50}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..1000u64 {
            let v = i * i + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.quantile(0.9), both.quantile(0.9));
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        h.record(1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) == u64::MAX);
    }
}
