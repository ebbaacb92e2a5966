//! TVA router configuration, with the paper's defaults.

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

/// Router-side configuration: the values a deployment or an experiment
/// sets. Everything else the router and scheduler need is a constant beside
/// its reader; every router the repo builds is a trust boundary (§3.2).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Fraction of each link reserved for (and capping) request traffic.
    /// The paper defaults to 5% (§3.2); the simulations tighten it to 1% to
    /// stress the design (§5).
    pub request_fraction: f64,
    /// The architectural minimum sustained rate `(N/T)min` in bytes/second.
    /// Grants slower than this are rejected, which is what bounds the flow
    /// table to `C / (N/T)min` records (§3.6). The paper's example is 4 KB
    /// per 10 seconds.
    pub min_rate_bytes_per_sec: f64,
    /// Hard cap on flow-table records; `None` derives `C / (N/T)min` from
    /// the link capacity when the scheduler is constructed.
    pub max_flow_entries: Option<usize>,
    /// Per-queue byte cap inside each DRR class.
    pub per_queue_cap_bytes: u64,
    /// Fair-queuing key for the regular class (§3.9, §7).
    pub regular_queue_key: RegularQueueKey,
    /// Seed for deriving this router's secrets and path-identifier tags.
    pub secret_seed: u64,
    /// Flow-record packet sampling: keep 1-in-N packets (0 = off). The
    /// telemetry plane's sampler; see `tva_obs::flow`.
    pub flow_sample_n: u32,
}

/// Seed for the flow sampler's selection hash. One value for every
/// router and scheduler, so selection is a pure function of the packet id
/// and a merged table does not depend on which router sampled what.
pub(crate) const FLOW_SAMPLE_SEED: u64 = 0x5F10_77CA; // "sFlowCA"

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            request_fraction: 0.05,
            // 4 KB / 10 s, the §3.6 example.
            min_rate_bytes_per_sec: 4096.0 / 10.0,
            max_flow_entries: None,
            per_queue_cap_bytes: 64 * 1024,
            regular_queue_key: RegularQueueKey::PerDestination,
            secret_seed: 0x7441_5641, // "tAVA"
            flow_sample_n: 0,
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
