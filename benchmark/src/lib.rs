//! The repo benchmark: five named workloads over the forwarding daemon
//! (`tva-node`) and the packet-level simulator (`tva-sim` +
//! `tva-experiments`), four end-to-end metrics every workload reports, and
//! a stage-by-stage trace taken from *outside* the program — `Instant`
//! pairs around batches of calls into the crates' public functions, never
//! inside them. `README.md` says why each workload exists and what each
//! metric means; `../BENCHMARK.json` is the machine-readable contract the
//! names below must match (`tests/quick.rs` holds them together).
//!
//! Everything runs on the calling thread, in-process over the SPSC ring:
//! no kernel networking is measured.

pub mod node;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;

use std::time::Instant;

use spans::Spans;
use stats::Summary;

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] =
    ["node_clean", "node_flood", "node_churn", "sim_fig8", "sim_scale"];

/// End-to-end metrics: defined on every workload and printed by every
/// untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("fwd_mpps", "M/s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Input sizes. `full` is what `BENCHMARK.json` measures; `quick` is the
/// few-seconds sizing `cargo test` runs to hold names and invariants.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Node warm-up before meters reset, milliseconds (`node_clean`,
    /// `node_flood`; `node_churn` warms by filling the flow table).
    pub node_warmup_ms: u64,
    /// Frames offered per timed rep of `node_clean` / `node_flood`.
    pub node_frames: u64,
    /// Pre-minted flows of `node_churn`; one timed rep replays each once.
    pub churn_flows: usize,
    /// Attacker counts of the `sim_fig8` grid.
    pub fig8_ks: &'static [usize],
    /// Simulated seconds per `sim_fig8` scenario.
    pub fig8_sim_secs: u64,
    /// Hosts of the `sim_scale` tree (a tenth of them attack).
    pub scale_hosts: usize,
    /// Direct `validate_precap` / `validate_cap` calls in a traced rep.
    pub crypto_calls: usize,
    /// Simulated seconds of each `obs.flight_ns_per_event` dumbbell.
    pub obs_sim_secs: u64,
}

impl Sizing {
    /// The measured sizing; README "Sizing" says where and why it departs
    /// from the ISSUE's (the driver's time cap, and run-to-run spread).
    pub const fn full() -> Self {
        Sizing {
            node_warmup_ms: 200,
            node_frames: 1 << 21,
            churn_flows: 1 << 20,
            fig8_ks: &[1, 10, 30, 60, 100],
            fig8_sim_secs: 40,
            scale_hosts: 100_000,
            crypto_calls: 100_000,
            obs_sim_secs: 200,
        }
    }

    /// The `cargo test` sizing.
    pub const fn quick() -> Self {
        Sizing {
            node_warmup_ms: 20,
            node_frames: 1 << 17,
            churn_flows: 1 << 14,
            fig8_ks: &[1],
            fig8_sim_secs: 40,
            scale_hosts: 10_000,
            crypto_calls: 2_000,
            obs_sim_secs: 20,
        }
    }
}

/// What one invocation is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measure (timed reps only) for at least this long…
    pub seconds: f64,
    /// …or exactly this many timed reps when set (`--reps N`).
    pub reps: Option<usize>,
    /// Traced run: per-layer metrics and a span file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizing: Sizing,
}

/// Fewest timed reps a run makes, so every reported number is a median.
pub const MIN_REPS: usize = 3;

/// Decides, after each timed rep, whether another one is due.
pub struct RepClock {
    start: Instant,
    done: usize,
    seconds: f64,
    reps: Option<usize>,
}

impl RepClock {
    /// Starts counting measured time now.
    pub fn new(opts: &RunOpts) -> Self {
        RepClock { start: Instant::now(), done: 0, seconds: opts.seconds, reps: opts.reps }
    }

    /// Whether another timed rep should run.
    pub fn more(&mut self) -> bool {
        let go = match self.reps {
            Some(n) => self.done < n.max(1),
            None => self.done < MIN_REPS || self.start.elapsed().as_secs_f64() < self.seconds,
        };
        self.done += 1;
        go
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// One line per failed check, for the human report.
    pub failures: Vec<String>,
    /// Metric name → summary over the timed reps. Untraced runs hold the
    /// end-to-end metrics (plus the workload's own extras, which the human
    /// report prints and the driver line omits); traced runs hold every
    /// per-layer metric the workload exercises.
    pub metrics: Vec<(String, Summary)>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records `failed` failures out of `attempted` operations.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{what}: {failed}/{attempted} failed"));
        }
    }

    /// Adds a metric summarised over per-rep samples.
    pub fn put(&mut self, name: &str, samples: &[f64]) {
        self.metrics.push((name.to_string(), Summary::of(samples)));
    }

    /// Adds a metric with a single value.
    pub fn put1(&mut self, name: &str, value: f64) {
        self.put(name, &[value]);
    }

    /// The summary recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// Removes every `TVA_*` variable from the environment and returns the
/// names removed. The crates under test read ~37 such knobs
/// (`TVA_SHARDS`, `TVA_CHECK`, `TVA_OBS_*`, `TVA_NODE_*`,
/// `TVA_SWEEP_WORKERS`, …); an operator's shell must not change what is
/// measured. Call before any workload runs (single-threaded).
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TVA_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Runs one workload; `scrubbed` (what [`scrub_env`] removed) goes on
/// record in the span file. `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOpts, scrubbed: &[String]) -> Option<Outcome> {
    let mut spans = Spans::new(name, opts.seed);
    let scrubbed = scrubbed.iter().cloned().map(serde_json::Value::String).collect();
    spans.note("scrubbed_env", serde_json::Value::Array(scrubbed));
    tva_bench::alloc::reset_peak_rss();
    let mut out = match name {
        "node_clean" => node::run(node::Kind::Clean, opts, &mut spans),
        "node_flood" => node::run(node::Kind::Flood, opts, &mut spans),
        "node_churn" => node::run(node::Kind::Churn, opts, &mut spans),
        "sim_fig8" => sim::run_fig8(opts, &mut spans),
        "sim_scale" => sim::run_scale(opts, &mut spans),
        _ => return None,
    };
    let rss_mb = tva_bench::alloc::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);
    out.check(rss_mb > 0.0, || "peak RSS unreadable (/proc/self/status)".into());
    if opts.trace {
        // Layers a workload does not exercise did no work: zero time, zero
        // counts. The driver wants every per-layer metric on every run.
        for (layer, _) in spec::PER_LAYER {
            if out.get(layer).is_none() {
                out.put1(layer, 0.0);
            }
        }
        match spans.write() {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => out.check(false, || format!("span file not written: {e}")),
        }
    } else {
        out.put1("peak_rss_mb", rss_mb);
    }
    Some(out)
}
