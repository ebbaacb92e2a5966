//! Median / min / max over a handful of per-rep samples.

/// What the report prints for one metric: the median over the timed reps,
/// their extremes, and how many there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples (mean of the middle two for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; all-zero when there are none.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary { median: 0.0, min: 0.0, max: 0.0, n: 0 };
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Summary { median: median_sorted(&v), min: v[0], max: v[v.len() - 1], n: v.len() }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_and_empty() {
        assert_eq!(
            Summary::of(&[3.0, 1.0, 2.0]),
            Summary { median: 2.0, min: 1.0, max: 3.0, n: 3 }
        );
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
