//! # tva
//!
//! A from-scratch Rust reproduction of **TVA** — *"A DoS-limiting Network
//! Architecture"* (Yang, Wetherall, Anderson; SIGCOMM 2005) — a
//! capability-based network architecture in which destinations explicitly
//! authorize senders and routers preferentially forward authorized traffic.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the TVA protocol: capabilities, routers, host shims,
//!   policies, adversary models.
//! * [`wire`] — packet formats (the Figure 5 capability header and codec).
//! * [`crypto`] — SHA-1, SipHash-2-4 and router secret rotation.
//! * [`sim`] — the deterministic discrete-event network simulator.
//! * [`transport`] — the mini-TCP and host/flood nodes.
//! * [`baselines`] — SIFF, pushback, legacy Internet and fair queuing.
//! * [`experiments`] — the harness that regenerates every figure and table
//!   of the paper's evaluation.
//! * [`bench`] — the Table 1 / Figure 12 rig and the scale tree.
//!
//! [`artifacts::ARTIFACTS`] declares every tracked result under `results/`
//! and the producer that writes it; the `repro` binary runs them. See
//! `examples/quickstart.rs` for a guided tour and README.md for how to
//! regenerate the paper's results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;

pub use tva_baselines as baselines;
pub use tva_bench as bench;
pub use tva_core as core;
pub use tva_crypto as crypto;
pub use tva_experiments as experiments;
pub use tva_sim as sim;
pub use tva_transport as transport;
pub use tva_wire as wire;
