//! # tva-experiments
//!
//! The evaluation harness: declarative scenarios for the Figure 7 dumbbell
//! (optionally with a backup path and wire faults on the bottleneck),
//! attacker models for every §5 attack, parallel parameter sweeps, and
//! reporting that regenerates each table and figure of the paper.
//!
//! Regenerate a figure with, e.g.:
//!
//! ```text
//! cargo run --release -p tva-experiments --bin fig8 [-- --full]
//! ```
//!
//! Each binary prints the figure's rows and writes TSV + ASCII charts under
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod check;
pub mod figrun;
pub mod figures;
pub mod observe;
pub mod report;
pub mod robustness;
pub mod scenario;
pub mod statebound;
pub mod sweep;

pub use figures::{fig10, fig11, fig8, fig9, Fidelity};
pub use observe::{run_observed, snapshot_document, write_observed, write_snapshot, ObservedRun};
pub use report::{ascii_chart, table, write_tsv, Series};
pub use scenario::{
    attacker_addr, run, run_driven, run_inspect, Attack, BuiltNodes, FaultCounters, LinkFaults,
    ScenarioConfig, ScenarioResult, Scheme, COLLUDER, DEST,
};
pub use sweep::{run_all, run_all_checked, SweepFailure};
