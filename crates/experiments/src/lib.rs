//! # tva-experiments
//!
//! The evaluation harness: declarative scenarios for the Figure 7 dumbbell
//! (optionally with a backup path and wire faults on the bottleneck),
//! attacker models for every §5 attack, parallel parameter sweeps, and the
//! producers of every simulated artifact under `results/` (Figures 8–11,
//! robustness, attacks, statebound, the §2 strawmen and the grant
//! ablation).
//!
//! A producer is a `fn(Size) -> Result<Files, String>`: it prints its rows
//! and charts and returns its files' bytes. `tva::artifacts::ARTIFACTS`
//! names each one with the files it makes, and the `repro` binary runs
//! them, e.g.:
//!
//! ```text
//! cargo run --release --bin repro -- fig8 [--full]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod attacks;
pub mod check;
pub mod figrun;
mod figures;
mod observe;
mod report;
pub mod robustness;
mod scenario;
pub mod statebound;
pub mod strawmen;
mod sweep;

pub use figures::{fig10, fig11, fig8, fig9, Fidelity};
pub use observe::snapshot_json;
pub use report::{table, tsv, Files, Size};
pub use scenario::{
    attacker_addr, run, run_driven, Attack, BuiltNodes, FaultCounters, LinkFaults, ScenarioConfig,
    ScenarioResult, Scheme, COLLUDER, DEST,
};
pub use sweep::{run_all_checked, SweepFailure};
