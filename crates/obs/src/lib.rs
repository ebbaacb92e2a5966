//! # tva-obs
//!
//! The observability layer for the TVA reproduction: always-available,
//! near-zero-cost instrumentation over the simulator, in service of the
//! paper's evaluation (§5–§6), which is entirely a measurement exercise.
//!
//! * [`hist`] — log-linear (HdrHistogram-style) latency histograms with
//!   fixed allocation and bounded relative error.
//! * [`registry`] — named counters/gauges/histograms behind copyable
//!   handles; zero heap in the hot path, one branch when disabled. A stats
//!   struct declared through [`tva_sim::counters!`] folds in whole with
//!   [`Registry::set_counters`]; [`Observe`] adds the gauges derived from it.
//! * [`series`] — time-bucketed sampling into aligned time series so
//!   figures can plot dynamics, not just endpoints.
//! * [`flight`] — a fixed-size ring over [`tva_sim::TraceEvent`]s dumped
//!   as JSON on panic or anomaly (black-box flight recorder).
//! * [`export`] — JSONL and Chrome/Perfetto `trace_event` JSON exporters
//!   over captured trace streams.
//! * [`flow`] — deterministic 1-in-N sampled flow records keyed by
//!   (source prefix, path id, class, verdict): the live telemetry plane's
//!   raw material for per-prefix attack attribution.
//! * [`snapshot`] — the versioned metrics-snapshot JSON document shared
//!   by the `repro` artifacts, the `tva-node` stats socket, `obscheck`,
//!   and `tva-top`.
//! * [`top`] — pure snapshot-to-text rendering for the `tva-top` live
//!   dashboard (rates, queue depth, latency, top-offender prefixes).
//!
//! ## Runtime switch
//!
//! Everything is off by default and costs one branch per event when off.
//! `TVA_OBS` turns the experiment harness's observed pass on (see
//! [`ObsConfig::from_env`]); README's knob table lists every variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod damage;
mod export;
mod flight;
mod flow;
mod hist;
mod registry;
mod series;
pub mod snapshot;
pub mod top;

pub use damage::record_attack_damage;
pub use export::{to_jsonl, to_perfetto, TraceCollector};
pub use flight::{
    clear_thread_flight, dump_thread_flight, flight_tracer, install_thread_flight,
    thread_flight_record,
};
pub use flow::{format_prefix24, FlowClass, FlowCounters, FlowKey, FlowSampler, FlowVerdict};
pub use hist::Histogram;
pub use registry::{CounterId, HistId, Observe, Registry};
pub use series::{ascii_chart, ColId, Series, SeriesSet};

use std::path::PathBuf;

use tva_sim::knobs;

/// Capacity, in trace events, of every flight recorder the harness
/// installs: observed runs, sweep jobs under `TVA_OBS`, audited runs.
pub const FLIGHT_EVENTS: usize = 4096;

/// Observability settings: on with `TVA_OBS`, artifacts under
/// `<results>/obs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch (`TVA_OBS`): series, snapshot, traces and the flight
    /// recorder.
    pub enabled: bool,
    /// Output directory for obs artifacts (the results directory's `obs`).
    pub dir: PathBuf,
    /// Max trace events retained for export (200 000).
    pub trace_limit: usize,
}

impl ObsConfig {
    /// Reads `TVA_OBS` and the results directory. With `TVA_OBS` unset or
    /// falsy, `enabled` is false and callers should skip all obs work.
    pub fn from_env() -> Self {
        ObsConfig {
            enabled: knobs::obs(),
            dir: knobs::results_dir().join("obs"),
            trace_limit: 200_000,
        }
    }
}
