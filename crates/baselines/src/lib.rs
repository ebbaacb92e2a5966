//! # tva-baselines
//!
//! The comparison schemes the TVA paper evaluates against in §5, plus the
//! fair-queuing strawmen its §2 analysis dismisses:
//!
//! * [`legacy`] — the unmodified best-effort Internet (FIFO drop-tail).
//! * [`siff`] — SIFF's stateless 2-bit marking capabilities: requests ride
//!   at legacy priority, marked data gets strict priority, no byte limits,
//!   no per-destination balancing, expiry only via router key rotation.
//! * [`pushback`] — aggregate-based congestion control with
//!   per-incoming-link max-min rate limits on the offending
//!   destination aggregate.
//! * [`fq`] — per-source and per-(source, destination) fair queuing, for
//!   the 1/k and 1/k² degradation arguments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fq;
mod legacy;
mod pushback;
mod siff;

pub use fq::{FqKey, FqScheduler};
pub use legacy::LegacyRouterNode;
pub use pushback::{EgressSpec, PushbackRouterNode, PushbackStats, TOKEN_REVIEW};
pub use siff::{
    SiffConfig, SiffRouter, SiffRouterNode, SiffScheduler, SiffShim, SiffStats, SiffVerdict,
};
