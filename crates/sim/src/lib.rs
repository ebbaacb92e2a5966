//! # tva-sim
//!
//! A deterministic, packet-level, discrete-event network simulator — the
//! substrate that replaces ns-2 for reproducing the TVA paper's §5
//! experiments (see DESIGN.md §1 for the substitution rationale).
//!
//! Design follows the event-driven, poll-based style of smoltcp rather than
//! an async runtime: the workload is CPU-bound and determinism is a hard
//! requirement (identical seeds must yield identical runs, so simulation
//! results are exactly reproducible).
//!
//! * [`time`] — nanosecond virtual clock.
//! * [`event`] — stable-ordered event queue.
//! * [`queue`] — the [`queue::QueueDisc`] trait every egress scheduler
//!   implements, plus drop-tail FIFO.
//! * [`drr`] — deficit-round-robin fair queuing over dynamic key sets.
//! * [`hdrr`] — two-level (prefix, then full-key) hierarchical DRR.
//! * [`bucket`] — token-bucket rate limiting (the request-channel cap).
//! * [`node`] — the [`node::Node`] trait and [`node::Ctx`] services.
//! * [`intern`] — dense address indices backing the routing arrays.
//! * [`engine`] — channels, routing, the dispatch loop.
//! * [`topology`] — declarative topology construction with shortest-path
//!   routing.
//! * [`fault`] — seeded wire impairments (loss, corruption, outages) and
//!   runtime link failure with route re-convergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod drr;
pub mod engine;
pub mod hdrr;
pub mod event;
pub mod fault;
pub mod intern;
pub mod node;
pub mod pool;
pub mod queue;
mod shard;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use bucket::TokenBucket;
pub use drr::Drr;
pub use hdrr::Hdrr;
pub use engine::{env_flag, env_u64, shards_from_env, Channel, Simulator, MAX_SHARDS};
pub use event::{ChannelId, NodeId};
pub use fault::{splitmix64, DutyCycleOutage, Impairments};
pub use intern::AddrInterner;
pub use node::{Ctx, Node, SinkNode};
pub use pool::{pool_stats, Pkt, PoolStats};
pub use queue::{DropTail, Enqueued, QueueDisc};
pub use stats::ChannelStats;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkHandle, TopologyBuilder};
pub use trace::{format_event, TraceCounts, TraceEvent, TraceKind, Tracer};

#[cfg(test)]
mod tests {
    use super::env_u64;

    #[test]
    fn env_u64_accepts_hex_underscores_and_rejects_junk() {
        std::env::set_var("TVA_NODE_TEST_A", "0x7E57_5EED");
        std::env::set_var("TVA_NODE_TEST_B", " 1_000_000 ");
        std::env::set_var("TVA_NODE_TEST_C", "banana");
        assert_eq!(env_u64("TVA_NODE_TEST_A", 1), 0x7E57_5EED);
        assert_eq!(env_u64("TVA_NODE_TEST_B", 1), 1_000_000);
        assert_eq!(env_u64("TVA_NODE_TEST_C", 7), 7, "junk is reported, then the default");
        assert_eq!(env_u64("TVA_NODE_TEST_UNSET", 9), 9);
    }
}
