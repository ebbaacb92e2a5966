//! # tva-obs
//!
//! The observability layer for the TVA reproduction: always-available,
//! near-zero-cost instrumentation over the simulator, in service of the
//! paper's evaluation (§5–§6), which is entirely a measurement exercise.
//!
//! * [`hist`] — log-linear (HdrHistogram-style) latency histograms with
//!   fixed allocation and bounded relative error.
//! * [`registry`] — named counters/gauges/histograms behind copyable
//!   handles; zero heap in the hot path, one branch when disabled.
//! * [`series`] — time-bucketed sampling into aligned time series so
//!   figures can plot dynamics, not just endpoints.
//! * [`flight`] — a fixed-size ring over [`tva_sim::TraceEvent`]s dumped
//!   as JSON on panic or anomaly (black-box flight recorder).
//! * [`export`] — JSONL and Chrome/Perfetto `trace_event` JSON exporters
//!   over captured trace streams.
//! * [`observe`] — the [`Observe`] trait scheme crates implement to fold
//!   their stats structs into a registry.
//! * [`flow`] — deterministic 1-in-N sampled flow records keyed by
//!   (source prefix, path id, class, verdict): the live telemetry plane's
//!   raw material for per-prefix attack attribution.
//! * [`snapshot`] — the versioned metrics-snapshot JSON document shared
//!   by experiment binaries, the `tva-node` stats socket, `obscheck`,
//!   and `tva-top`.
//! * [`top`] — pure snapshot-to-text rendering for the `tva-top` live
//!   dashboard (rates, queue depth, latency, top-offender prefixes).
//!
//! ## Runtime switches
//!
//! Everything is off by default and costs one branch per event when off.
//! The experiment harness reads these environment variables (see
//! [`ObsConfig::from_env`]):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `TVA_OBS` | master switch (`1`/`true` enables) | off |
//! | `TVA_OBS_DIR` | output directory for obs artifacts | `results/obs` |
//! | `TVA_OBS_SAMPLE_MS` | time-series bucket width, sim-ms | `1000` |
//! | `TVA_OBS_FLIGHT` | flight-recorder capacity (events; `0` = off) | `4096` when `TVA_OBS` on |
//! | `TVA_OBS_PERFETTO` | also write Perfetto/JSONL traces | off |
//! | `TVA_OBS_TRACE_LIMIT` | max events retained for export | `200000` |
//! | `TVA_OBS_SAMPLE_N` | flow-record packet sampling, 1-in-N (`0` = off) | off |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod damage;
pub mod export;
pub mod flight;
pub mod flow;
pub mod hist;
pub mod observe;
pub mod registry;
pub mod series;
pub mod snapshot;
pub mod top;

pub use damage::record_attack_damage;
pub use export::{
    collector_tracer, event_to_json, kind_label, to_jsonl, to_perfetto, SharedCollector,
    TraceCollector,
};
pub use flight::{
    clear_thread_flight, dump_thread_flight, flight_tracer, install_thread_flight,
    thread_flight_record, FlightRecorder,
};
pub use flow::{format_prefix24, FlowClass, FlowCounters, FlowKey, FlowSampler, FlowVerdict};
pub use hist::Histogram;
pub use observe::Observe;
pub use registry::{CounterId, GaugeId, HistId, Obs, Registry};
pub use series::{ColId, SeriesSet};

use std::path::PathBuf;

use tva_sim::{env_flag, env_u64};

/// Parsed `TVA_OBS_*` environment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch (`TVA_OBS`).
    pub enabled: bool,
    /// Output directory for obs artifacts (`TVA_OBS_DIR`).
    pub dir: PathBuf,
    /// Sampling bucket width in simulated milliseconds
    /// (`TVA_OBS_SAMPLE_MS`, clamped to ≥ 1).
    pub sample_ms: u64,
    /// Flight-recorder capacity in events; 0 disables (`TVA_OBS_FLIGHT`).
    pub flight_events: usize,
    /// Whether to export Perfetto/JSONL traces (`TVA_OBS_PERFETTO`).
    pub perfetto: bool,
    /// Max trace events retained for export (`TVA_OBS_TRACE_LIMIT`).
    pub trace_limit: usize,
    /// Flow-record packet sampling, 1-in-N; 0 disables
    /// (`TVA_OBS_SAMPLE_N`). Independent of the `TVA_OBS` master switch so
    /// the daemon can sample flows without trace export.
    pub sample_n: u32,
}

impl ObsConfig {
    /// Reads the `TVA_OBS_*` variables. With `TVA_OBS` unset or falsy,
    /// `enabled` is false and callers should skip all obs work.
    pub fn from_env() -> Self {
        let enabled = env_flag("TVA_OBS");
        ObsConfig {
            enabled,
            dir: PathBuf::from(
                std::env::var("TVA_OBS_DIR").unwrap_or_else(|_| "results/obs".into()),
            ),
            sample_ms: env_u64("TVA_OBS_SAMPLE_MS", 1000).max(1),
            flight_events: env_u64("TVA_OBS_FLIGHT", if enabled { 4096 } else { 0 })
                as usize,
            perfetto: env_flag("TVA_OBS_PERFETTO"),
            trace_limit: env_u64("TVA_OBS_TRACE_LIMIT", 200_000).max(1) as usize,
            sample_n: env_u64("TVA_OBS_SAMPLE_N", 0) as u32,
        }
    }

    /// A disabled config (the obs-off fast path, used by benches as the
    /// baseline).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            dir: PathBuf::from("results/obs"),
            sample_ms: 1000,
            flight_events: 0,
            perfetto: false,
            trace_limit: 200_000,
            sample_n: 0,
        }
    }
}
