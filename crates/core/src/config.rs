//! TVA configuration knobs, with the paper's defaults.

use tva_wire::Grant;

/// What keys the regular (authorized) class is fair-queued by (§3.9).
///
/// > "Note that we could queue on the source address (if source address
/// > can be trusted) … The best choice is a matter of AS policy."
///
/// §7 analyzes why per-source queuing is dangerous with untrusted sources:
/// an attacker–colluder pair can authorize *spoofed* traffic carrying a
/// victim's address and starve the victim's own queue. Per-destination is
/// TVA's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegularQueueKey {
    /// One queue per destination address (the default).
    PerDestination,
    /// One queue per source address (only safe behind ingress filtering).
    PerSource,
}

/// Router-side configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Fraction of each link reserved for (and capping) request traffic.
    /// The paper defaults to 5% (§3.2); the simulations tighten it to 1% to
    /// stress the design (§5).
    pub request_fraction: f64,
    /// Burst allowance for the request rate limiter, in bytes.
    pub request_burst_bytes: u64,
    /// The architectural minimum sustained rate `(N/T)min` in bytes/second.
    /// Grants slower than this are rejected, which is what bounds the flow
    /// table to `C / (N/T)min` records (§3.6). The paper's example is 4 KB
    /// per 10 seconds.
    pub min_rate_bytes_per_sec: f64,
    /// Hard cap on flow-table records; `None` derives `C / (N/T)min` from
    /// the link capacity when the scheduler is constructed.
    pub max_flow_entries: Option<usize>,
    /// DRR quantum in bytes for the regular class (one MTU).
    pub quantum: u32,
    /// DRR quantum for the request class; requests are small, so a smaller
    /// quantum interleaves path identifiers at finer granularity.
    pub request_quantum: u32,
    /// Per-queue byte cap inside each DRR class.
    pub per_queue_cap_bytes: u64,
    /// Maximum distinct path-identifier request queues (the 16-bit tag space
    /// bounds this architecturally; deployments size it to memory).
    pub max_request_queues: usize,
    /// Maximum distinct per-destination regular queues.
    pub max_regular_queues: usize,
    /// Packet capacity of the legacy/demoted FIFO (ns-2 style count limit).
    pub legacy_queue_pkts: usize,
    /// Whether this router sits at a trust boundary and therefore tags
    /// requests with a path identifier (§3.2).
    pub trust_boundary: bool,
    /// Fair-queuing key for the regular class (§3.9, §7).
    pub regular_queue_key: RegularQueueKey,
    /// Seed for deriving this router's secrets and path-identifier tags.
    pub secret_seed: u64,
    /// Flow-record packet sampling: keep 1-in-N packets (0 = off). The
    /// telemetry plane's sampler; see `tva_obs::flow`.
    pub flow_sample_n: u32,
    /// Seed for the flow sampler's selection hash. Must agree across every
    /// router/scheduler whose records will be merged, so selection is a
    /// pure function of the packet id and a merged table does not depend
    /// on which router sampled what.
    pub flow_sample_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            request_fraction: 0.05,
            request_burst_bytes: 3000,
            // 4 KB / 10 s, the §3.6 example.
            min_rate_bytes_per_sec: 4096.0 / 10.0,
            max_flow_entries: None,
            quantum: 1500,
            request_quantum: 300,
            per_queue_cap_bytes: 64 * 1024,
            max_request_queues: 1 << 12,
            max_regular_queues: 1 << 12,
            legacy_queue_pkts: 50,
            trust_boundary: true,
            regular_queue_key: RegularQueueKey::PerDestination,
            secret_seed: 0x7441_5641, // "tAVA"
            flow_sample_n: 0,
            flow_sample_seed: 0x5F10_77CA, // "sFlowCA"
        }
    }
}

impl RouterConfig {
    /// The flow-table bound for a link of `link_bps`: `C / (N/T)min`
    /// records (§3.6).
    pub fn flow_table_bound(&self, link_bps: u64) -> usize {
        if let Some(n) = self.max_flow_entries {
            return n;
        }
        let c_bytes_per_sec = link_bps as f64 / 8.0;
        (c_bytes_per_sec / self.min_rate_bytes_per_sec).ceil() as usize
    }
}

/// Host-side configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The grant a public server hands out by default. The Figure 11
    /// experiment uses 32 KB / 10 s; ordinary operation would use something
    /// like 100 KB / 10 s (§3.5).
    pub default_grant: Grant,
    /// Renew capabilities once this fraction of the byte budget `N` is
    /// consumed.
    pub renew_bytes_fraction: f64,
    /// Renew capabilities once this fraction of the validity period `T` has
    /// elapsed.
    pub renew_time_fraction: f64,
    /// Raw bytes/second a destination tolerates from one sender before
    /// treating it as misbehaving (backstop; a wanted bulk transfer can
    /// legitimately run fast, so this is set well above any single-TCP
    /// rate the testbed paths allow).
    pub misbehavior_bytes_per_sec: f64,
    /// Bytes/second of *demoted* arrivals tolerated from one sender. A
    /// sender pushing beyond its authorized budget shows up as demoted
    /// traffic — a much sharper flood signal than raw rate (§3.3's
    /// "sending unexpected packets or floods"). Legitimate senders only
    /// produce a handful of demoted stragglers per capability renewal.
    pub misbehavior_demoted_bytes_per_sec: f64,
    /// How long a blacklist entry lasts, in seconds.
    pub blacklist_secs: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            default_grant: Grant::from_parts(100, 10),
            renew_bytes_fraction: 0.75,
            renew_time_fraction: 0.5,
            misbehavior_bytes_per_sec: 512.0 * 1024.0,
            // Above the ~95 KB/s a single legitimate user can briefly show
            // while its budget renewal is delayed under congestion; a
            // dedicated flooder sustains more.
            misbehavior_demoted_bytes_per_sec: 128.0 * 1024.0,
            blacklist_secs: 600,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_table_bound_matches_paper_example() {
        // "if the minimum sending rate is 4K bytes in 10 seconds, a router
        // with a gigabit input line will only need 312,500 records."
        let cfg = RouterConfig::default();
        assert_eq!(cfg.flow_table_bound(1_000_000_000), 305_176);
        // The paper's 312,500 uses 4000 B/10 s; with 4096 B (4 KiB) we get
        // 305,176 — same order, same formula. Check the 4000 B variant too:
        let cfg2 = RouterConfig { min_rate_bytes_per_sec: 400.0, ..cfg };
        assert_eq!(cfg2.flow_table_bound(1_000_000_000), 312_500);
    }

    #[test]
    fn explicit_bound_overrides() {
        let cfg = RouterConfig { max_flow_entries: Some(100), ..Default::default() };
        assert_eq!(cfg.flow_table_bound(1_000_000_000), 100);
    }
}
