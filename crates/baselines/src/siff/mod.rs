//! SIFF (Yaar, Perrig, Song — IEEE S&P 2004), as characterized in the TVA
//! paper's evaluation (§5):
//!
//! > "SIFF is implemented as described in \[25\]. It treats capacity requests
//! > as legacy traffic, does not limit the number of times a capability is
//! > used to forward traffic, and does not balance authorized traffic sent
//! > to different destinations."
//!
//! SIFF's capability is a concatenation of **2-bit per-router marks**
//! derived from a keyed hash of the packet's addresses. Explorer (request)
//! packets accumulate marks; the destination returns them; data packets
//! carry them and routers re-verify their own mark. There is no per-flow
//! state, no byte budget, and no expiry other than router key rotation — the
//! properties the TVA paper's Figures 8–11 exercise.
//!
//! Modeling note: the real SIFF packs marks into reused IP header bits with
//! a rotation scheme; we carry them as a per-router list with a pointer,
//! which is semantically identical (each router checks exactly its own 2
//! bits) and reuses the TVA header plumbing. Mark width and brute-force
//! probability are faithfully 2 bits per router (see `router` tests).

mod router;
mod sched;
mod shim;

pub use router::{SiffRouter, SiffRouterNode, SiffStats, SiffVerdict};
pub use sched::SiffScheduler;
pub use shim::SiffShim;

use tva_sim::SimDuration;

/// SIFF configuration.
#[derive(Debug, Clone)]
pub struct SiffConfig {
    /// Router key rotation period. The TVA paper's Figure 11 experiment
    /// "assume\[s\] SIFF can expire its capabilities every three seconds";
    /// default operation would rotate much more slowly.
    pub key_rotation: SimDuration,
    /// Whether data marked under the *previous* key still validates.
    /// `false` models the paper's hard 3-second expiry, at the cost of
    /// breaking flows at every transition (which is exactly the behavior
    /// Figure 11 shows).
    pub accept_previous: bool,
    /// Router key seed.
    pub secret_seed: u64,
}

impl Default for SiffConfig {
    fn default() -> Self {
        SiffConfig {
            key_rotation: SimDuration::from_secs(128),
            accept_previous: true,
            secret_seed: 0x51FF,
        }
    }
}

/// The width of a SIFF router mark in bits.
pub(crate) const MARK_BITS: u32 = 2;

/// Mask selecting a mark.
pub(crate) const MARK_MASK: u64 = (1 << MARK_BITS) - 1;
