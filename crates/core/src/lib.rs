//! # tva-core
//!
//! The Traffic Validation Architecture (TVA) from *"A DoS-limiting Network
//! Architecture"* (Yang, Wetherall, Anderson — SIGCOMM 2005): a
//! capability-based network layer in which destinations explicitly
//! authorize senders and routers preferentially forward authorized traffic,
//! with bounded computation and state at every hop.
//!
//! The crate provides both halves of the architecture:
//!
//! * **Routers** — [`router::TvaRouter`] implements the Figure 6 pipeline
//!   (pre-capability stamping, nonce fast path, two-hash validation, byte
//!   budgets, renewal, demotion) over the bounded
//!   [`flowtable::FlowTable`]; [`scheduler::TvaScheduler`] implements the
//!   Figure 2 three-class egress link sharing (rate-limited requests
//!   fair-queued per path identifier, regular traffic fair-queued per
//!   destination, legacy FIFO).
//! * **Hosts** — [`shim::TvaHostShim`] attaches to any transport via
//!   `tva_transport::Shim` and handles the full capability lifecycle:
//!   bootstrap requests, grants under a pluggable [`policy::GrantPolicy`],
//!   fine-grained (N, T) budgets, router-cache modeling, renewal, demotion
//!   echo and re-acquisition.
//!
//! [`attack::AuthorizedFlooder`] models the strategic adversaries of
//! §5.3–§5.4 for the evaluation harness.
//!
//! ## Quick tour
//!
//! ```
//! use tva_core::capability;
//! use tva_crypto::SecretSchedule;
//! use tva_wire::{Addr, Grant};
//!
//! // A router mints a pre-capability on a request...
//! let schedule = SecretSchedule::from_seed(7);
//! let (src, dst) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
//! let precap = capability::mint_precap(&schedule, 100, src, dst);
//!
//! // ...the destination turns it into a capability for 100 KB / 10 s...
//! let grant = Grant::from_parts(100, 10);
//! let cap = capability::mint_cap(precap, grant);
//!
//! // ...and the router later validates it statelessly.
//! assert!(capability::validate_cap(&schedule, 105, src, dst, grant, cap, 1.0).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod capability;
pub mod config;
pub mod flowtable;
pub mod policy;
pub mod router;
pub mod scheduler;
pub mod shim;
pub mod sketch;

pub use attack::strategies::{
    spoofed_identity, MimicFlooder, PulseFlooder, RingFlooder, RotatingFlooder,
    SpoofedRequestFlooder,
};
pub use attack::{AuthorizedFlooder, SpoofColluder};
pub use capability::{expired, mint_cap, mint_precap, validate_cap, validate_precap, CapError};
pub use config::{HostConfig, RegularQueueKey, RequestLimiter, RouterConfig};
pub use flowtable::{Charge, FlowEntry, FlowTable};
pub use policy::{AllowAll, ClientPolicy, GrantPolicy, RequestInfo, ServerPolicy};
pub use router::{RouterStats, TvaRouter, TvaRouterNode, Verdict};
pub use scheduler::{SchedulerStats, TvaScheduler};
pub use shim::{SendCaps, ShimStats, TvaHostShim};
pub use sketch::{CountMinSketch, SketchLimiter, SketchStats};
