//! `tva-node`: a batched packet-forwarding daemon running the *identical*
//! `tva-core` router — capability validation/stamping, the three-class
//! scheduler, the flow table — over real transports instead of the
//! discrete-event simulator.
//!
//! The crate answers the deployment question the simulator cannot: what
//! does the TVA pipeline cost per packet when frames arrive as bytes on a
//! wire and "now" is a clock, not an event queue? Two transports bracket
//! the answer:
//!
//! * [`transport::RingPort`] — a lock-free SPSC-ring virtual NIC pair
//!   ([`ring`]), in-process, for maximum-rate loopback benchmarking
//!   (`tva-node bench`).
//! * [`transport::UdpPort`] — nonblocking UDP sockets drained in
//!   `recvmmsg`-style bursts, for end-to-end runs across processes
//!   (`tva-node udp-demo`, `tva-node serve` + standalone `pktgen`).
//!
//! [`pktgen::PktGen`] generates the offered load from pre-encoded frame
//! templates: legitimate capability-carrying flows, request floods sweeping
//! forged path identifiers, spoofed capabilities, legacy floods, and (in
//! the dirty mix) malformed frames. [`harness`] wires generator and node
//! together, measures pps / per-packet ns / p50/p99/p999 forwarding
//! latency and exports `node.*` metrics through `tva-obs`. Those readings
//! are a smoke; the daemon's tracked performance numbers are the `node_*`
//! workloads of the repo benchmark (`bash benchmark/run.sh`,
//! `BENCHMARK.json`).
//!
//! # Environment knobs
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `TVA_NODE_BATCH` | `64` | frames per RX/TX burst |
//! | `TVA_NODE_RING` | `1024` | ring depth per direction (rounded up to a power of two) |
//! | `TVA_NODE_TRANSPORT` | `ring` | `ring` or `udp` |
//! | `TVA_NODE_DUR_MS` | `1000` | measured run length, milliseconds |
//! | `TVA_NODE_LINK_BPS` | `10000000000` | egress link rate the scheduler shapes to |
//! | `TVA_NODE_SEED` | `0x7E57_5EED` | router secret seed (pktgen must match to mint valid capabilities) |
//! | `TVA_NODE_MIX` | `clean` | `clean`, `contested`, or `dirty` traffic mix |
//! | `TVA_NODE_FLOWS` | `128` | legitimate flow count in the generated mix |
//! | `TVA_OBS_SAMPLE_N` | `0` (off) | flow-record packet sampling, 1-in-N |
//! | `TVA_NODE_STATS_ADDR` | unset (off) | bind the live stats socket here (`serve` only), e.g. `127.0.0.1:47100` |

// Unsafe is confined to the SPSC ring (`ring.rs`), which carries its own
// per-block safety rationale.
#![deny(unsafe_code)]

pub mod harness;
pub mod node;
pub mod pktgen;
#[allow(unsafe_code)]
pub mod ring;
pub mod stats;
pub mod transport;

pub use node::{NodeClock, NodeEngine, NodeStats, NODE_INGRESS};
pub use pktgen::{GenStats, PktGen};
pub use stats::{snapshot_line, StatsServer};
pub use transport::{ring_pair, udp_pair, RingPort, Transport, UdpPort, MAX_FRAME};

/// Which transport the daemon binary drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process SPSC-ring virtual NIC pair (loopback benchmark).
    Ring,
    /// Nonblocking UDP sockets in burst loops.
    Udp,
}

/// Offered-traffic mix shapes, from best-case to adversarial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// 100% legitimate capability-carrying flows.
    Clean,
    /// Half legitimate, half adversarial (request floods with forged path
    /// identifiers, spoofed capabilities, legacy floods).
    Contested,
    /// The contested mix plus deliberately malformed frames.
    Dirty,
}

/// Daemon configuration, assembled from defaults and `TVA_NODE_*`
/// environment variables (see the crate docs for the table).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Frames per RX/TX burst.
    pub batch: usize,
    /// Ring depth per direction.
    pub ring_depth: usize,
    /// Transport the binary drives.
    pub transport: TransportKind,
    /// Measured run length, milliseconds.
    pub duration_ms: u64,
    /// Egress link rate the scheduler shapes to (bits/s).
    pub link_bps: u64,
    /// Router secret seed (shared with the generator).
    pub secret_seed: u64,
    /// Offered traffic mix.
    pub mix: MixKind,
    /// Legitimate flow count.
    pub flows: usize,
    /// Flow-record packet sampling, 1-in-N (0 = off); `TVA_OBS_SAMPLE_N`.
    pub sample_n: u32,
    /// Run the router with the count-min sketched request limiter
    /// instead of the per-path key table; `TVA_NODE_SKETCHED`.
    pub sketched: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            batch: 64,
            ring_depth: 1024,
            transport: TransportKind::Ring,
            duration_ms: 1000,
            link_bps: 10_000_000_000,
            secret_seed: 0x7E57_5EED,
            mix: MixKind::Clean,
            flows: 128,
            sample_n: 0,
            sketched: false,
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        v.replace('_', "").parse()
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("tva-node: ignoring unparseable {name}={v:?}");
            None
        }
    }
}

impl NodeConfig {
    /// Defaults overridden by any `TVA_NODE_*` variables present.
    pub fn from_env() -> Self {
        let mut cfg = NodeConfig::default();
        if let Some(v) = env_u64("TVA_NODE_BATCH") {
            cfg.batch = (v as usize).max(1);
        }
        if let Some(v) = env_u64("TVA_NODE_RING") {
            cfg.ring_depth = (v as usize).max(2);
        }
        if let Ok(v) = std::env::var("TVA_NODE_TRANSPORT") {
            match v.trim().to_ascii_lowercase().as_str() {
                "ring" => cfg.transport = TransportKind::Ring,
                "udp" => cfg.transport = TransportKind::Udp,
                other => eprintln!("tva-node: unknown TVA_NODE_TRANSPORT={other:?} (want ring|udp)"),
            }
        }
        if let Some(v) = env_u64("TVA_NODE_DUR_MS") {
            cfg.duration_ms = v.max(1);
        }
        if let Some(v) = env_u64("TVA_NODE_LINK_BPS") {
            cfg.link_bps = v.max(1);
        }
        if let Some(v) = env_u64("TVA_NODE_SEED") {
            cfg.secret_seed = v;
        }
        if let Ok(v) = std::env::var("TVA_NODE_MIX") {
            match v.trim().to_ascii_lowercase().as_str() {
                "clean" => cfg.mix = MixKind::Clean,
                "contested" => cfg.mix = MixKind::Contested,
                "dirty" => cfg.mix = MixKind::Dirty,
                other => {
                    eprintln!("tva-node: unknown TVA_NODE_MIX={other:?} (want clean|contested|dirty)")
                }
            }
        }
        if let Some(v) = env_u64("TVA_NODE_FLOWS") {
            cfg.flows = (v as usize).max(1);
        }
        if let Some(v) = env_u64("TVA_OBS_SAMPLE_N") {
            cfg.sample_n = v as u32;
        }
        if let Some(v) = env_u64("TVA_NODE_SKETCHED") {
            cfg.sketched = v != 0;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_accepts_hex_underscores_and_rejects_junk() {
        std::env::set_var("TVA_NODE_TEST_A", "0x7E57_5EED");
        std::env::set_var("TVA_NODE_TEST_B", "1_000_000");
        std::env::set_var("TVA_NODE_TEST_C", "banana");
        assert_eq!(env_u64("TVA_NODE_TEST_A"), Some(0x7E57_5EED));
        assert_eq!(env_u64("TVA_NODE_TEST_B"), Some(1_000_000));
        assert_eq!(env_u64("TVA_NODE_TEST_C"), None);
        assert_eq!(env_u64("TVA_NODE_TEST_UNSET"), None);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = NodeConfig::default();
        assert!(cfg.batch > 0);
        assert!(cfg.ring_depth >= 2);
        assert_eq!(cfg.transport, TransportKind::Ring);
        assert_eq!(cfg.mix, MixKind::Clean);
    }
}
