//! The per-layer metric names, and a reader for `../BENCHMARK.json` (the
//! bounds `--aa` compares against; the names `tests/quick.rs` checks).

use std::path::PathBuf;

use serde_json::Value;

/// Per-layer metrics (name, unit), printed by every traced run. Layers are
/// the crates' modules. Times are nanoseconds per received frame
/// (`node_*`) or per simulator event (`sim_*`); a layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 74] = [
    // Daemon stages, one Instant pair per stage per 64-frame batch.
    ("node.pktgen.fill_ns", "ns"),
    ("node.sink.drain_ns", "ns"),
    ("node.ring.rx_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("sim.pool.wrap_ns", "ns"),
    ("sim.pool.release_ns", "ns"),
    ("core.router.process_ns", "ns"),
    ("core.sched.enqueue_ns", "ns"),
    ("core.sched.dequeue_ns", "ns"),
    ("wire.encode_tx_ns", "ns"),
    ("crypto.validate_precap_ns", "ns"),
    ("crypto.validate_cap_ns", "ns"),
    // Validity of the trace: Σ stages against the untraced poll cost.
    ("node.stage_sum_ns", "ns"),
    ("node.poll_ns", "ns"),
    ("node.stage_cover", "ratio"),
    // Public counters after the traced rep.
    ("core.router.nonce_hits", "count"),
    ("core.router.full_validations", "count"),
    ("core.router.demoted_bad_cap", "count"),
    ("core.router.demotions", "count"),
    ("core.router.table_admission_failures", "count"),
    ("core.router.cache_hit_rate", "ratio"),
    ("core.flowtable.len", "count"),
    ("core.flowtable.capacity", "count"),
    ("core.sched.requests_sent", "count"),
    ("core.sched.requests_dropped", "count"),
    ("core.sched.requests_demoted", "count"),
    ("core.sched.legacy_dropped", "count"),
    ("core.sched.request_keys", "count"),
    ("node.rx_frames", "count"),
    ("node.tx_frames", "count"),
    ("node.queue_drops", "count"),
    ("node.malformed_drops", "count"),
    ("node.tx_backpressure", "count"),
    ("node.state_bytes", "bytes"),
    // What the daemon's user sees beyond the forwarding rate (untraced
    // reps of the traced run).
    ("fwd_p50_us", "us"),
    ("fwd_p99_us", "us"),
    ("legit_delivery", "fraction"),
    // Simulator: engine, tracer, observability hook.
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event.internet", "ns"),
    ("sim.engine.ns_per_event.siff", "ns"),
    ("sim.engine.ns_per_event.pushback", "ns"),
    ("sim.engine.ns_per_event.tva", "ns"),
    ("sim.core.tva_extra_ns_per_event", "ns"),
    ("sim.trace.enqueued", "count"),
    ("sim.trace.dropped", "count"),
    ("sim.trace.tx_start", "count"),
    ("sim.trace.delivered", "count"),
    ("sim.trace.overhead_pct", "%"),
    ("obs.flight_ns_per_event", "ns"),
    // Simulated statistics at the largest k: must not move under a speed-up.
    ("sim.bottleneck.drop_rate.internet", "fraction"),
    ("sim.bottleneck.drop_rate.siff", "fraction"),
    ("sim.bottleneck.drop_rate.pushback", "fraction"),
    ("sim.bottleneck.drop_rate.tva", "fraction"),
    ("sim.bottleneck.queued_delay_mean_us.internet", "us"),
    ("sim.bottleneck.queued_delay_mean_us.siff", "us"),
    ("sim.bottleneck.queued_delay_mean_us.pushback", "us"),
    ("sim.bottleneck.queued_delay_mean_us.tva", "us"),
    ("transport.attempts.internet", "count"),
    ("transport.attempts.siff", "count"),
    ("transport.attempts.pushback", "count"),
    ("transport.attempts.tva", "count"),
    ("transport.completion_frac.internet", "fraction"),
    ("transport.completion_frac.siff", "fraction"),
    ("transport.completion_frac.pushback", "fraction"),
    ("transport.completion_frac.tva", "fraction"),
    ("legit_completion", "fraction"),
    ("tva_xfer_s", "sim_s"),
    // The scale tree.
    ("sim.scale.build_s", "s"),
    ("sim.scale.run_s", "s"),
    ("sim.scale.events", "count"),
    ("sim.scale.ns_per_event", "ns"),
    ("sim.scale.kb_per_host", "KB"),
    ("sim.scale.ns_per_event_10k", "ns"),
    ("sim.scale.size_penalty", "ratio"),
];

/// `BENCHMARK.json`, next to the benchmark's directory.
pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_better: bool,
    /// Allowed worsening as a share of the reference (end-to-end only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    match obj {
        Value::Object(m) => m.get(key).ok_or_else(|| format!("BENCHMARK.json: missing `{key}`")),
        _ => Err(format!("BENCHMARK.json: expected an object around `{key}`")),
    }
}

fn text(obj: &Value, key: &str) -> Result<String, String> {
    match field(obj, key)? {
        Value::String(s) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a string")),
    }
}

fn list<'a>(obj: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(obj, key)? {
        Value::Array(a) => Ok(a),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
    }
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    list(root, key)?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_better: text(m, "better")? == "higher",
                bound: match field(m, "bound") {
                    Ok(Value::Number(b)) => Some(*b),
                    _ => None,
                },
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(json: &str) -> Result<Spec, String> {
        let root =
            serde_json::from_str(json).map_err(|_| "BENCHMARK.json: not JSON".to_string())?;
        let run_seconds = match field(&root, "run_seconds")? {
            Value::Number(n) => *n,
            _ => return Err("BENCHMARK.json: `run_seconds` is not a number".into()),
        };
        Ok(Spec {
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// Reads and parses the repo's `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let path = benchmark_json_path();
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&json)
    }
}
