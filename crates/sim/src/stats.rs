//! Counter tables: the [`counters!`](crate::counters) macro that declares a
//! stats struct once, and the per-channel counters collected by the engine,
//! built on a channel's first write ([`LazyChannelStats`]).
//!
//! A table is a struct of `u64` counters. Its field names are its published
//! metric names, so the registry fold, the per-bucket deltas and every
//! column list read [`Counters`] instead of spelling the fields again.

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::time::SimTime;

/// A struct of monotone `u64` counters declared through
/// [`counters!`](crate::counters).
pub trait Counters: Sized {
    /// Field names, in declaration order.
    const NAMES: &'static [&'static str];

    /// `(name, value)` for every counter, in [`Self::NAMES`] order.
    fn counters(&self) -> impl Iterator<Item = (&'static str, u64)>;

    /// Field by field `self − earlier`: what was counted since `earlier`.
    fn delta(&self, earlier: &Self) -> Self;

    /// A value whose `i`-th counter is `f(i)`.
    fn from_fn(f: impl FnMut(usize) -> u64) -> Self;
}

/// Declares a struct of `u64` counters and implements [`Counters`] for it.
/// Attributes and docs pass through unchanged, so the caller names the
/// derives (`Default` included) exactly as on a plain struct:
///
/// ```
/// tva_sim::counters! {
///     /// Example counters.
///     #[derive(Debug, Default, Clone)]
///     pub struct Example {
///         /// Packets seen.
///         pub pkts: u64,
///         /// Bytes seen.
///         pub bytes: u64,
///     }
/// }
/// use tva_sim::Counters;
/// let (a, b) = (Example { pkts: 3, bytes: 90 }, Example { pkts: 1, bytes: 40 });
/// assert_eq!(Example::NAMES, ["pkts", "bytes"]);
/// assert_eq!(a.delta(&b).counters().collect::<Vec<_>>(), [("pkts", 2), ("bytes", 50)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: u64, )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            /// Every counter zero, as a constant.
            pub const ZERO: Self = $name { $($field: 0),* };
        }

        impl $crate::Counters for $name {
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::NAMES.iter().copied().zip([$(self.$field),*])
            }

            fn delta(&self, earlier: &Self) -> Self {
                $name { $($field: self.$field - earlier.$field),* }
            }

            fn from_fn(mut f: impl FnMut(usize) -> u64) -> Self {
                let mut i = 0;
                $name { $($field: { i += 1; f(i - 1) }),* }
            }
        }
    };
}

counters! {
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

/// What a never-written [`LazyChannelStats`] reads: the one shared static,
/// read-only.
static UNWRITTEN: ChannelStats = ChannelStats::ZERO;

/// A channel's [`ChannelStats`], boxed on the first write. Most channels of
/// a large tree never carry a packet, so an unused table costs one pointer
/// and reads as all zeros. Reads go through `Deref`; any `&mut` access
/// (every counter write) builds the table first.
#[derive(Default)]
pub struct LazyChannelStats(Option<Box<ChannelStats>>);

impl LazyChannelStats {
    /// Whether any counter has been written (the table exists).
    pub fn is_built(&self) -> bool {
        self.0.is_some()
    }
}

impl Deref for LazyChannelStats {
    type Target = ChannelStats;

    #[inline]
    fn deref(&self) -> &ChannelStats {
        self.0.as_deref().unwrap_or(&UNWRITTEN)
    }
}

impl DerefMut for LazyChannelStats {
    #[inline]
    fn deref_mut(&mut self) -> &mut ChannelStats {
        match &mut self.0 {
            Some(table) => table,
            unbuilt => build(unbuilt),
        }
    }
}

/// The first write's allocation, kept out of line so the counter writes
/// on the forwarding path stay one test and a store.
#[cold]
#[inline(never)]
fn build(slot: &mut Option<Box<ChannelStats>>) -> &mut ChannelStats {
    slot.insert(Box::default())
}

/// Compares values: an unused table equals a built one holding zeros.
impl PartialEq for LazyChannelStats {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for LazyChannelStats {}

impl PartialEq<ChannelStats> for LazyChannelStats {
    fn eq(&self, other: &ChannelStats) -> bool {
        **self == *other
    }
}

impl fmt::Debug for LazyChannelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
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

    #[test]
    fn lazy_table_reads_zero_until_written() {
        let mut s = LazyChannelStats::default();
        assert!(!s.is_built());
        assert_eq!(s, ChannelStats::default());
        assert_eq!(s, LazyChannelStats::default());
        assert_eq!(s.drop_rate(), 0.0);
        assert!(!s.is_built(), "reads build nothing");
        s.tx_pkts += 1;
        assert!(s.is_built());
        assert_eq!(s, ChannelStats { tx_pkts: 1, ..Default::default() });
        assert_ne!(s, LazyChannelStats::default());
    }
}
