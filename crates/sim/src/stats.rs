//! Per-channel counters collected by the engine.

use crate::time::SimTime;

/// Counters for one unidirectional channel. `PartialEq` so two runs of the
/// same seed can assert ledger equality.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Packets accepted into the egress queue.
    pub enqueued_pkts: u64,
    /// Bytes of accepted packets (wire length at enqueue time).
    pub enqueued_bytes: u64,
    /// Packets the egress queue refused (drops).
    pub dropped_pkts: u64,
    /// Bytes of dropped packets.
    pub dropped_bytes: u64,
    /// Packets serialized onto the wire.
    pub tx_pkts: u64,
    /// Bytes serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets lost on the wire (random loss, outage windows, or a failed
    /// link) after being serialized.
    pub lost_pkts: u64,
    /// Bytes of lost packets.
    pub lost_bytes: u64,
    /// Packets whose on-wire bytes were corrupted in transit (delivered or
    /// not — see `malformed_pkts` for the unparseable subset).
    pub corrupted_pkts: u64,
    /// Corrupted packets that no longer parsed and arrived as malformed
    /// deliveries instead of packets.
    pub malformed_pkts: u64,
    /// Total enqueue→tx-start time across transmitted packets, in
    /// nanoseconds — per-link queueing latency without full tracing.
    pub queued_delay_ns: u64,
    /// Largest single enqueue→tx-start time seen, in nanoseconds.
    pub queued_delay_max_ns: u64,
}

impl ChannelStats {
    /// Fraction of offered packets that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.enqueued_pkts + self.dropped_pkts;
        if offered == 0 {
            0.0
        } else {
            self.dropped_pkts as f64 / offered as f64
        }
    }

    /// Mean utilization of a `bps` link over `[0, now]`.
    pub fn utilization(&self, bps: u64, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.tx_bytes as f64 * 8.0) / (bps as f64 * secs)
        }
    }

    /// Mean enqueue→tx-start delay in seconds (0 when nothing transmitted).
    pub fn mean_queued_delay_s(&self) -> f64 {
        if self.tx_pkts == 0 {
            0.0
        } else {
            self.queued_delay_ns as f64 / self.tx_pkts as f64 / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_rate() {
        let s = ChannelStats { enqueued_pkts: 75, dropped_pkts: 25, ..Default::default() };
        assert!((s.drop_rate() - 0.25).abs() < 1e-12);
        assert_eq!(ChannelStats::default().drop_rate(), 0.0);
    }

    #[test]
    fn utilization() {
        let s = ChannelStats { tx_bytes: 1_250_000, ..Default::default() };
        // 1.25 MB in 1 s over a 10 Mb/s link = 100%.
        assert!((s.utilization(10_000_000, SimTime::from_secs(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        let s = ChannelStats { tx_bytes: 1_250_000, ..Default::default() };
        assert_eq!(s.utilization(10_000_000, SimTime::ZERO), 0.0);
        assert_eq!(ChannelStats::default().utilization(10_000_000, SimTime::ZERO), 0.0);
    }

    #[test]
    fn drop_rate_with_only_drops() {
        let s = ChannelStats { dropped_pkts: 10, ..Default::default() };
        assert_eq!(s.drop_rate(), 1.0);
    }

    #[test]
    fn mean_queued_delay() {
        let s = ChannelStats {
            tx_pkts: 4,
            queued_delay_ns: 2_000_000_000,
            queued_delay_max_ns: 1_500_000_000,
            ..Default::default()
        };
        assert!((s.mean_queued_delay_s() - 0.5).abs() < 1e-12);
        assert_eq!(ChannelStats::default().mean_queued_delay_s(), 0.0);
    }
}
