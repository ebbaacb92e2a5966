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
//!   ([`ring`]), in-process, for maximum-rate loopback runs (the repo
//!   benchmark's `node_*` workloads and `tests/loopback.rs`).
//! * [`transport::UdpPort`] — nonblocking UDP sockets drained in
//!   `recvmmsg`-style bursts, for end-to-end runs across processes
//!   (`tva-node serve` + standalone `pktgen`).
//!
//! [`pktgen::PktGen`] generates the offered load from pre-encoded frame
//! templates: legitimate capability-carrying flows, request floods sweeping
//! forged path identifiers, spoofed capabilities, legacy floods, and (in
//! the dirty mix) malformed frames. [`NodeEngine::observe`] exports the
//! `node.*` metrics through `tva-obs`. The daemon's performance numbers are
//! the `node_*` workloads of the repo benchmark (`bash benchmark/run.sh`,
//! `BENCHMARK.json`); `tests/loopback.rs` holds the loopback properties
//! (frames forwarded, none malformed, layers counting one window, zero
//! allocations per frame under `--features alloc-count`).
//!
//! # Environment knobs
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `TVA_NODE_BATCH` | `64` | frames per RX/TX burst |
//! | `TVA_NODE_DUR_MS` | `1000` | `pktgen` run length, milliseconds |
//! | `TVA_NODE_LINK_BPS` | `10000000000` | egress link rate the scheduler shapes to |
//! | `TVA_NODE_SEED` | `0x7E57_5EED` | router secret seed (pktgen must match to mint valid capabilities) |
//! | `TVA_NODE_MIX` | `clean` | `clean`, `contested`, or `dirty` traffic mix |
//! | `TVA_NODE_FLOWS` | `128` | legitimate flow count in the generated mix |
//! | `TVA_OBS_SAMPLE_N` | `0` (off) | flow-record packet sampling, 1-in-N |
//! | `TVA_NODE_STATS_ADDR` | unset (off) | bind the live stats socket here (`serve` only), e.g. `127.0.0.1:47100` |

// Unsafe is confined to the SPSC ring (`ring.rs`), which carries its own
// per-block safety rationale.
#![deny(unsafe_code)]

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
    /// Ring depth per direction, for callers that build a [`ring_pair`].
    pub ring_depth: usize,
    /// `pktgen` run length, milliseconds.
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
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            batch: 64,
            ring_depth: 1024,
            duration_ms: 1000,
            link_bps: 10_000_000_000,
            secret_seed: 0x7E57_5EED,
            mix: MixKind::Clean,
            flows: 128,
            sample_n: 0,
        }
    }
}

impl NodeConfig {
    /// Defaults overridden by any `TVA_NODE_*` variables present.
    pub fn from_env() -> Self {
        use tva_sim::env_u64;
        let d = NodeConfig::default();
        let mix = match std::env::var("TVA_NODE_MIX") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "clean" => MixKind::Clean,
                "contested" => MixKind::Contested,
                "dirty" => MixKind::Dirty,
                other => {
                    eprintln!(
                        "tva-node: unknown TVA_NODE_MIX={other:?} (want clean|contested|dirty)"
                    );
                    d.mix
                }
            },
            Err(_) => d.mix,
        };
        NodeConfig {
            batch: (env_u64("TVA_NODE_BATCH", d.batch as u64) as usize).max(1),
            duration_ms: env_u64("TVA_NODE_DUR_MS", d.duration_ms).max(1),
            link_bps: env_u64("TVA_NODE_LINK_BPS", d.link_bps).max(1),
            secret_seed: env_u64("TVA_NODE_SEED", d.secret_seed),
            mix,
            flows: (env_u64("TVA_NODE_FLOWS", d.flows as u64) as usize).max(1),
            sample_n: env_u64("TVA_OBS_SAMPLE_N", d.sample_n as u64) as u32,
            ..d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = NodeConfig::default();
        assert!(cfg.batch > 0);
        assert!(cfg.ring_depth >= 2);
        assert_eq!(cfg.mix, MixKind::Clean);
    }
}
