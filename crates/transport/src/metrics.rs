//! Transfer metrics: the two quantities every figure in §5 plots.
//!
//! > "We then measure: i) the average fraction of completed transfers, and
//! > ii) the average time of the transfers that complete."

use tva_sim::SimTime;

/// The outcome of one file transfer attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferRecord {
    /// When the transfer was opened.
    pub started: SimTime,
    /// When the last byte was acknowledged; `None` if it aborted (or was
    /// still running when the experiment ended, which callers should trim).
    pub finished: Option<SimTime>,
}

impl TransferRecord {
    /// Transfer duration for completed transfers.
    pub fn duration_secs(&self) -> Option<f64> {
        self.finished.map(|f| f.since(self.started).as_secs_f64())
    }
}

/// Aggregates of a set of transfer attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferSummary {
    /// Attempts counted.
    pub attempts: usize,
    /// Attempts that completed.
    pub completed: usize,
    /// Average fraction of completed transfers.
    pub completion_fraction: f64,
    /// Average duration of the transfers that completed (seconds); 0 when
    /// none completed.
    pub avg_completion_secs: f64,
    /// Median completion time (seconds).
    pub(crate) p50_secs: f64,
    /// 95th-percentile completion time (seconds).
    pub p95_secs: f64,
    /// Worst completion time (seconds).
    pub(crate) worst_secs: f64,
}

/// Summarizes a set of transfer records. Records with `finished: None`
/// count as failures; callers decide which in-flight transfers to include
/// (the experiment harness excludes ones too young to have failed).
pub fn summarize(records: &[TransferRecord]) -> TransferSummary {
    let attempts = records.len();
    let mut completed: Vec<f64> =
        records.iter().filter_map(TransferRecord::duration_secs).collect();
    completed.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n_completed = completed.len();
    let pct = |q: f64| -> f64 {
        if completed.is_empty() {
            0.0
        } else {
            let idx = ((n_completed as f64 - 1.0) * q).round() as usize;
            completed[idx.min(n_completed - 1)]
        }
    };
    TransferSummary {
        attempts,
        completed: n_completed,
        completion_fraction: if attempts == 0 {
            0.0
        } else {
            n_completed as f64 / attempts as f64
        },
        avg_completion_secs: if n_completed == 0 {
            0.0
        } else {
            completed.iter().sum::<f64>() / n_completed as f64
        },
        p50_secs: pct(0.50),
        p95_secs: pct(0.95),
        worst_secs: completed.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_s: u64, dur_ms: Option<u64>) -> TransferRecord {
        let started = SimTime::from_secs(start_s);
        TransferRecord {
            started,
            finished: dur_ms.map(|d| started + tva_sim::SimDuration::from_millis(d)),
        }
    }

    #[test]
    fn summary_counts() {
        let recs = vec![rec(0, Some(300)), rec(1, Some(500)), rec(2, None), rec(3, None)];
        let s = summarize(&recs);
        assert_eq!(s.attempts, 4);
        assert_eq!(s.completed, 2);
        assert!((s.completion_fraction - 0.5).abs() < 1e-12);
        assert!((s.avg_completion_secs - 0.4).abs() < 1e-12);
        assert!((s.worst_secs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles() {
        // 100 completions of 10ms..1000ms.
        let recs: Vec<TransferRecord> =
            (1..=100).map(|i| rec(i, Some(i * 10))).collect();
        let s = summarize(&recs);
        assert!((s.p50_secs - 0.50).abs() < 0.02, "p50 {}", s.p50_secs);
        assert!((s.p95_secs - 0.95).abs() < 0.02, "p95 {}", s.p95_secs);
        assert!((s.worst_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        let s = summarize(&[]);
        assert_eq!(s.attempts, 0);
        assert_eq!(s.completion_fraction, 0.0);
        assert_eq!(s.avg_completion_secs, 0.0);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let s = summarize(&[]);
        assert_eq!(s.p50_secs, 0.0);
        assert_eq!(s.p95_secs, 0.0);
        assert_eq!(s.worst_secs, 0.0);
    }

    #[test]
    fn all_failed_percentiles_are_zero() {
        // Attempts exist but nothing completed: the percentile index math
        // must not underflow or read a completion that is not there.
        let s = summarize(&[rec(0, None), rec(1, None)]);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.completed, 0);
        assert_eq!(s.p50_secs, 0.0);
        assert_eq!(s.p95_secs, 0.0);
        assert_eq!(s.worst_secs, 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = summarize(&[rec(0, Some(250)), rec(1, None)]);
        assert_eq!(s.completed, 1);
        assert!((s.p50_secs - 0.25).abs() < 1e-12);
        assert!((s.p95_secs - 0.25).abs() < 1e-12);
        assert!((s.worst_secs - 0.25).abs() < 1e-12);
        assert!((s.avg_completion_secs - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tied_durations() {
        // All completions identical: every percentile is that value and
        // the sort/index path must cope with ties.
        let recs: Vec<TransferRecord> = (0..10).map(|i| rec(i, Some(400))).collect();
        let s = summarize(&recs);
        assert!((s.p50_secs - 0.4).abs() < 1e-12);
        assert!((s.p95_secs - 0.4).abs() < 1e-12);
        assert!((s.worst_secs - 0.4).abs() < 1e-12);
    }

    #[test]
    fn two_samples_pick_correct_ends() {
        let s = summarize(&[rec(0, Some(100)), rec(1, Some(900))]);
        // With n=2: p50 index rounds to 1 (0.9), p95 index rounds to 1.
        assert!((s.p50_secs - 0.9).abs() < 1e-12);
        assert!((s.p95_secs - 0.9).abs() < 1e-12);
        assert!((s.worst_secs - 0.9).abs() < 1e-12);
    }
}
