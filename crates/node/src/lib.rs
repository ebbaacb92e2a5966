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
//! * [`transport::RingPort`] — a virtual NIC pair of frame rings,
//!   in-process with both ends on one thread, for maximum-rate loopback
//!   runs (the repo benchmark's `node_*` workloads and `tests/loopback.rs`).
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
//! (frames forwarded, none malformed, layers counting one window), and the
//! root `tests/zero_alloc.rs` holds zero allocations per forwarded frame
//! under a counting global allocator.
//!
//! # Environment knobs
//!
//! `pktgen` and `serve` read `TVA_NODE_MIX`, `TVA_NODE_DUR_MS`,
//! `TVA_NODE_SEED` and `TVA_OBS_SAMPLE_N` through [`NodeConfig::from_env`];
//! README's knob table gives their defaults and meaning. Every other field
//! of [`NodeConfig`] is its default.

#![forbid(unsafe_code)]

mod node;
pub mod pktgen;
mod ring;
mod stats;
mod transport;

pub use node::{NodeClock, NodeEngine, NodeStats, NODE_INGRESS};
pub use pktgen::{GenStats, PktGen};
pub use stats::StatsServer;
pub use transport::{ring_pair, udp_pair, RingPort, Transport, UdpPort, MAX_FRAME};

use tva_sim::knobs;

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

/// Daemon configuration: the defaults, with the environment knobs the
/// crate docs name applied by [`NodeConfig::from_env`].
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
    /// Flow-record packet sampling, 1-in-N (0 = off).
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
    /// Defaults overridden by the node's environment knobs.
    pub fn from_env() -> Self {
        let d = NodeConfig::default();
        let mix = match knobs::node_mix().as_deref() {
            None => d.mix,
            Some("clean") => MixKind::Clean,
            Some("contested") => MixKind::Contested,
            Some("dirty") => MixKind::Dirty,
            Some(other) => {
                eprintln!("tva-node: unknown traffic mix {other:?} (want clean|contested|dirty)");
                d.mix
            }
        };
        NodeConfig {
            duration_ms: knobs::node_dur_ms().unwrap_or(d.duration_ms).max(1),
            secret_seed: knobs::node_seed().unwrap_or(d.secret_seed),
            mix,
            sample_n: knobs::obs_sample_n().map_or(d.sample_n, |n| u32::try_from(n).unwrap_or(u32::MAX)),
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
