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
//!   destination, legacy FIFO). Router state is bounded exactly: the flow
//!   table by `C/(N/T)min` records or `max_flow_entries`, the request keys
//!   by [`scheduler::MAX_REQUEST_QUEUES`] (a request whose tag finds that table full is
//!   demoted, not dropped).
//! * **Hosts** — [`shim::TvaHostShim`] attaches to any transport via
//!   `tva_transport::Shim` and handles the full capability lifecycle:
//!   bootstrap requests, grants under a pluggable [`policy::GrantPolicy`],
//!   fine-grained (N, T) budgets, router-cache modeling, renewal, demotion
//!   echo and re-acquisition.
//!
//! [`attack::AuthorizedFlooder`] models the authorized-flood adversary of
//! §5.3–§5.4 for the evaluation harness; its [`attack::Cadence`] turns it
//! into the strategic variants (colluder ring, shrew, flash-crowd mimicry,
//! identity churn). [`attack::strategies`] holds the request-channel
//! attacker that never holds a capability.
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

mod attack;
pub mod capability;
mod config;
mod flowtable;
mod policy;
mod router;
mod scheduler;
mod shim;

pub use attack::strategies::SpoofedRequestFlooder;
pub use attack::{AuthorizedFlooder, Cadence, SpoofColluder};
pub use config::{RegularQueueKey, RouterConfig};
pub use flowtable::{Charge, FlowEntry, FlowTable};
pub use policy::{AllowAll, ClientPolicy, GrantPolicy, RequestInfo, ServerPolicy};
pub use router::{RouterStats, TvaRouter, TvaRouterNode, Verdict};
pub use scheduler::{SchedulerStats, TvaScheduler, MAX_REQUEST_QUEUES, REQUEST_BURST_BYTES};
pub use shim::{ShimStats, TvaHostShim};
