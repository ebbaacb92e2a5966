//! # tva-crypto
//!
//! Cryptographic substrate for the TVA reproduction (*"A DoS-limiting
//! Network Architecture"*, SIGCOMM 2005): the hash functions and router
//! secret rotation that make capabilities unforgeable (§3.4, §6 of the
//! paper).
//!
//! Everything here is implemented from scratch so the repository is
//! self-contained:
//!
//! * [`sha1`](mod@sha1) — one-block SHA-1, the paper's second hash function
//!   (capability = hash(pre-capability, N, T)).
//! * [`siphash`] — SipHash-2-4, standing in for the prototype's AES-hash as
//!   the fast keyed hash that mints pre-capabilities (see DESIGN.md §1 for
//!   the substitution rationale).
//! * [`keyed`] — 56-bit truncations of both, matching the capability wire
//!   format of Figure 3.
//! * [`secret`] — the modulo-256 timestamp clock and 128-second secret
//!   rotation with the high-order-bit secret selection trick.
//!
//! This crate has no dependencies and is `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod keyed;
mod secret;
mod sha1;
mod siphash;

pub use keyed::{keyed56, second56, HashInput, MASK56};
pub use secret::SecretSchedule;
pub use sha1::{sha1, MAX_ONE_BLOCK};
pub use siphash::{siphash24, SipKey};
