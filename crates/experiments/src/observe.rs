//! Observed scenario runs: the same Figure 7 testbed, but stepped in
//! sample-sized time buckets so registry values become *time series*
//! (queue depth, per-class goodput, drop rate, capability cache hit rate)
//! instead of run-end aggregates — the §6 dynamics view the flat
//! `ChannelStats` counters cannot provide.
//!
//! Stepping `run_until` in buckets is behavior-identical to one big call:
//! event processing does not depend on call granularity, so an observed
//! run produces byte-identical transfer metrics to a plain [`run`].
//!
//! [`run`]: crate::scenario::run

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};

use serde_json::Value;
use tva_baselines::{PushbackRouterNode, SiffRouterNode};
use tva_core::{RouterStats, TvaRouterNode, TvaScheduler};
use tva_obs::{to_jsonl, to_perfetto, Observe, ObsConfig, Registry, SeriesSet, TraceCollector};
use tva_sim::{ChannelId, ChannelStats, Counters, SimDuration, SimTime, TraceEvent, Tracer};

use crate::scenario::{run_driven, ScenarioConfig, ScenarioResult, Scheme};

/// Sampling bucket width, simulated time: the series are 1 Hz.
const SAMPLE_STEP: SimDuration = SimDuration::from_millis(1000);

/// A bucket drop rate at or above this fraction counts as an anomaly and
/// triggers a flight-recorder dump (once per run).
const DROP_SPIKE_THRESHOLD: f64 = 0.5;

/// Everything an observed run produces beyond the plain result.
pub struct ObservedRun {
    /// The ordinary scenario metrics (identical to an unobserved run).
    pub result: ScenarioResult,
    /// Time series sampled every [`SAMPLE_STEP`] of simulated time.
    pub series: SeriesSet,
    /// End-of-run metrics registry: channels + scheme router stats.
    pub registry: Registry,
    /// Captured trace events, at most `trace_limit` of them.
    pub events: Vec<TraceEvent>,
    /// Trace events seen beyond the retention limit.
    pub events_overflow: u64,
    /// Bandwidth of each channel, captured for Perfetto slice durations.
    pub channel_bandwidths: Vec<u64>,
    /// Where the anomaly flight dump was written, if a drop-rate spike
    /// fired during the run.
    pub anomaly_dump: Option<PathBuf>,
}

/// Runs one scenario with observability on: stepped sampling, optional
/// trace capture, and a flight recorder with a drop-spike anomaly
/// predicate. The transfer metrics are identical to a plain run with the
/// same config (tracing and sampling never perturb simulation state).
pub fn run_observed(cfg: &ScenarioConfig, ocfg: &ObsConfig) -> ObservedRun {
    let mut series = SeriesSet::new();
    let q_pkts = series.column("bottleneck.queue_pkts");
    let q_bytes = series.column("bottleneck.queue_bytes");
    let drop_rate = series.column("bottleneck.drop_rate");
    let goodput = series.column("bottleneck.goodput_bps");
    let cache_rate = series.column("r1.cache_hit_rate");

    // Slots the driver and inspect closures fill by shared borrow.
    let events_out: RefCell<Option<(Vec<TraceEvent>, u64)>> = RefCell::default();
    let bw_out: RefCell<Vec<u64>> = RefCell::default();
    let anomaly_out: RefCell<Option<PathBuf>> = RefCell::default();
    let registry: RefCell<Registry> = RefCell::default();

    let result = run_driven(
        cfg,
        |sim, nodes| {
            // Capture per-channel bandwidths for the Perfetto exporter.
            *bw_out.borrow_mut() = (0..sim.channel_count())
                .map(|i| sim.channel(ChannelId(i)).bandwidth_bps)
                .collect();

            // Tracer: the thread-local flight ring (for the anomaly dump)
            // plus a bounded collector for the trace exporters. `Tracer`
            // must be `Send`, so the composite closure captures only the
            // `Arc` collector handle and reaches the ring through the
            // thread-local.
            let collector = std::sync::Arc::new(std::sync::Mutex::new(TraceCollector::new(
                ocfg.trace_limit,
            )));
            let collect_sink = collector.clone();
            tva_obs::install_thread_flight(tva_obs::FLIGHT_EVENTS);
            let tracer: Tracer = Box::new(move |ev| {
                tva_obs::thread_flight_record(ev);
                if let Ok(mut c) = collect_sink.lock() {
                    c.record(ev);
                }
            });
            sim.set_tracer(Some(tracer));

            // Stepped run with per-bucket sampling.
            let bn = nodes.bottleneck.ab;
            // The previous sample's tables: each bucket reads their delta.
            let mut prev = (ChannelStats::default(), RouterStats::default());
            let mut next = SimTime::ZERO;
            let mut anomaly_fired = false;
            while next < cfg.duration {
                next = (next + SAMPLE_STEP).min(cfg.duration);
                sim.run_until(next);
                let ch = sim.channel(bn);
                let r1 = match cfg.scheme {
                    Scheme::Tva => sim.node::<TvaRouterNode>(nodes.r1).router.stats.clone(),
                    _ => RouterStats::default(),
                };
                let (d_ch, d_r1) = (ch.stats.delta(&prev.0), r1.delta(&prev.1));
                series.begin(next.as_secs_f64());
                series.set(q_pkts, ch.queue_pkts() as f64);
                series.set(q_bytes, ch.queue_bytes() as f64);
                let bucket_drop_rate = d_ch.drop_rate();
                series.set(drop_rate, bucket_drop_rate);
                let dt = SAMPLE_STEP.as_secs_f64();
                series.set(goodput, d_ch.tx_bytes as f64 * 8.0 / dt);
                series.set(cache_rate, d_r1.cache_hit_rate().unwrap_or(0.0));
                prev = (ch.stats.clone(), r1);

                // Anomaly predicate: a drop-rate spike dumps the last N
                // events once, while the history is still fresh.
                if !anomaly_fired && bucket_drop_rate >= DROP_SPIKE_THRESHOLD {
                    anomaly_fired = true;
                    if std::fs::create_dir_all(&ocfg.dir).is_ok() {
                        let path = ocfg.dir.join(format!(
                            "flight_anomaly_{}_k{}.json",
                            cfg.scheme.name(),
                            cfg.n_attackers
                        ));
                        let reason = format!(
                            "drop-rate spike: {bucket_drop_rate:.3} at t={:.1}s",
                            next.as_secs_f64()
                        );
                        if tva_obs::dump_thread_flight(&path, &reason).unwrap_or(false) {
                            *anomaly_out.borrow_mut() = Some(path);
                        }
                    }
                }
            }

            let captured = collector.lock().map(|c| (c.events().to_vec(), c.overflow()));
            *events_out.borrow_mut() = captured.ok();
        },
        |sim, nodes| {
            let mut reg = registry.borrow_mut();
            let bn = nodes.bottleneck.ab;
            sim.channel(bn).stats.observe("bottleneck", &mut reg);
            match cfg.scheme {
                Scheme::Tva => {
                    sim.node::<TvaRouterNode>(nodes.r1).router.stats.observe("r1", &mut reg);
                    sim.node::<TvaRouterNode>(nodes.r2).router.stats.observe("r2", &mut reg);
                    // Request-channel state gauges (key count, policing
                    // bytes) from r1's egress scheduler on the bottleneck.
                    let disc = sim.channel(nodes.bottleneck.ab).queue_disc();
                    if let Some(sched) =
                        disc.as_any().and_then(|a| a.downcast_ref::<TvaScheduler>())
                    {
                        sched.observe_request_channel("r1.sched", &mut reg);
                    }
                }
                Scheme::Siff => {
                    reg.set_counters("r1", &sim.node::<SiffRouterNode>(nodes.r1).router.stats);
                    reg.set_counters("r2", &sim.node::<SiffRouterNode>(nodes.r2).router.stats);
                }
                Scheme::Pushback => {
                    sim.node::<PushbackRouterNode>(nodes.r1).observe("r1", &mut reg);
                    sim.node::<PushbackRouterNode>(nodes.r2).observe("r2", &mut reg);
                }
                Scheme::Internet => {}
            }
            let delay = reg.hist("bottleneck.queued_delay_est_ns");
            // The per-link aggregate (sum + max) is folded into the
            // histogram as two representative samples so snapshot JSON has
            // a uniform shape; exact distributions need per-packet traces.
            let st = &sim.channel(bn).stats;
            if let Some(mean_ns) = st.queued_delay_ns.checked_div(st.tx_pkts) {
                reg.record(delay, mean_ns.max(1));
                reg.record(delay, st.queued_delay_max_ns.max(1));
            }
        },
    );
    tva_obs::clear_thread_flight();

    let (events, events_overflow) = events_out.into_inner().unwrap_or_default();
    ObservedRun {
        result,
        series,
        registry: registry.into_inner(),
        events,
        events_overflow,
        channel_bandwidths: bw_out.into_inner(),
        anomaly_dump: anomaly_out.into_inner(),
    }
}

/// Writes every artifact of an observed run under `ocfg.dir`, named
/// `{name}_{scheme}…`, and returns the paths written.
pub fn write_observed(
    name: &str,
    run: &ObservedRun,
    scheme: Scheme,
    ocfg: &ObsConfig,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(&ocfg.dir)?;
    let mut written = Vec::new();
    let base = format!("{name}_{}", scheme.name());

    let series_path = ocfg.dir.join(format!("{base}_series.json"));
    write_json(&series_path, &run.series.to_json())?;
    written.push(series_path);

    let metrics_path = ocfg.dir.join(format!("{base}_metrics.json"));
    write_json(&metrics_path, &snapshot_document(&base, &run.registry))?;
    written.push(metrics_path);

    let bws = &run.channel_bandwidths;
    let trace = to_perfetto(&run.events, &|ch: ChannelId| bws.get(ch.0).copied());
    let perfetto_path = ocfg.dir.join(format!("{base}_trace.perfetto.json"));
    write_json(&perfetto_path, &trace)?;
    written.push(perfetto_path);

    let jsonl_path = ocfg.dir.join(format!("{base}_trace.jsonl"));
    std::fs::write(&jsonl_path, to_jsonl(&run.events))?;
    written.push(jsonl_path);
    Ok(written)
}

fn write_json(path: &Path, value: &Value) -> io::Result<()> {
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(path, text)
}

/// Builds the "metrics snapshot" object written alongside robustness and
/// scale TSVs. Delegates to [`tva_obs::snapshot::document`] so every
/// producer — experiment binaries, the `tva-node` stats socket — emits
/// the same versioned schema, and `obscheck`/`tva-top` validate all of
/// them against one definition.
pub fn snapshot_document(label: &str, registry: &Registry) -> Value {
    tva_obs::snapshot::document(label, registry)
}

/// Writes a snapshot document to `path` as pretty JSON.
pub fn write_snapshot(path: &Path, label: &str, registry: &Registry) -> io::Result<()> {
    write_json(path, &snapshot_document(label, registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Attack;

    fn small(scheme: Scheme) -> ScenarioConfig {
        ScenarioConfig {
            scheme,
            attack: Attack::None,
            n_users: 2,
            transfers_per_user: 2,
            duration: SimTime::from_secs(20),
            ..ScenarioConfig::default()
        }
    }

    fn quiet_obs() -> ObsConfig {
        ObsConfig {
            enabled: true,
            dir: std::env::temp_dir().join("tva_obs_test_out"),
            trace_limit: 10_000,
        }
    }

    #[test]
    fn observed_run_matches_plain_run() {
        // Sampling and tracing must not perturb the simulation: the §5
        // metrics of an observed run are identical to a plain run.
        let cfg = small(Scheme::Tva);
        let plain = crate::scenario::run(&cfg);
        let observed = run_observed(&cfg, &quiet_obs());
        assert_eq!(
            observed.result.summary.completed,
            plain.summary.completed
        );
        assert!(
            (observed.result.summary.avg_completion_secs
                - plain.summary.avg_completion_secs)
                .abs()
                < 1e-12
        );
        assert!(
            (observed.result.bottleneck_utilization - plain.bottleneck_utilization).abs()
                < 1e-12
        );
        // 20 s at 1 Hz sampling = 20 buckets.
        assert_eq!(observed.series.len(), 20);
        // A clean TVA run validated traffic: cache metrics exist.
        assert!(observed.registry.counter_by_name("r1.nonce_hits").is_some());
        assert!(observed.registry.counter_by_name("bottleneck.tx_pkts").unwrap() > 0);
    }

    #[test]
    fn trace_capture_produces_events() {
        let cfg = small(Scheme::Internet);
        let ocfg = ObsConfig { trace_limit: 500, ..quiet_obs() };
        let observed = run_observed(&cfg, &ocfg);
        assert!(!observed.events.is_empty());
        assert!(observed.events.len() <= 500);
        assert!(!observed.channel_bandwidths.is_empty());
    }

    #[test]
    fn snapshot_document_is_schema_stable() {
        let mut reg = Registry::new();
        let c = reg.counter("x.pkts");
        reg.add(c, 3);
        let doc = snapshot_document("robustness", &reg);
        let Value::Object(root) = &doc else { panic!() };
        assert_eq!(root.get("label"), Some(&Value::String("robustness".into())));
        // Pinned to the shared schema: consumers key off this exact value.
        assert_eq!(
            root.get("schema_version"),
            Some(&Value::Number(tva_obs::snapshot::SCHEMA_VERSION as f64))
        );
        let Some(Value::Object(metrics)) = root.get("metrics") else { panic!() };
        for key in ["counters", "gauges", "histograms"] {
            assert!(metrics.get(key).is_some(), "missing {key}");
        }
        tva_obs::snapshot::validate(&doc).expect("experiment snapshots are schema-valid");
    }
}
