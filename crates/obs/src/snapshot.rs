//! The versioned metrics-snapshot document: the one schema every snapshot
//! producer (the `repro` artifacts, the `tva-node` stats socket) and every
//! consumer (`obscheck`, `tva-top`, the attacks/robustness report readers)
//! agree on.
//!
//! ```json
//! {
//!   "label": "attacks",
//!   "schema_version": 2,
//!   "metrics": { "counters": {…}, "gauges": {…}, "histograms": {…} },
//!   "flows": { "sample_n": …, "records": […] }      // optional
//! }
//! ```
//!
//! The `schema_version` field exists so consumers fail loudly on drift
//! instead of silently misparsing: [`validate`] rejects any document whose
//! version is not exactly [`SCHEMA_VERSION`], and every consumer calls it
//! before reading fields. Bumping the version is deliberate work — update
//! the constant, the validators, and the compatibility tests together.

use serde_json::{Map, Value};

use crate::registry::Registry;

/// Current snapshot schema version. History:
///
/// * 1 — `{label, schema_version, metrics}` (pre-telemetry-plane; the
///   version was serialized as the float `1.0`).
/// * 2 — optional `flows` (sampled flow records), `seq` and `now_ns`
///   (live-endpoint poll counter and clock) sections; `metrics` shape
///   unchanged.
pub const SCHEMA_VERSION: u64 = 2;

/// Builds a snapshot document from a registry.
pub fn document(label: &str, registry: &Registry) -> Value {
    document_with(label, registry, Vec::new())
}

/// Builds a snapshot document with extra top-level sections (for example
/// `("flows", sampler.to_json())` or `("seq", Value::Number(n))`). Extras
/// may not shadow the three core keys.
pub fn document_with(label: &str, registry: &Registry, extras: Vec<(String, Value)>) -> Value {
    let mut root = Map::new();
    root.insert("label".into(), Value::String(label.to_string()));
    root.insert("schema_version".into(), Value::Number(SCHEMA_VERSION as f64));
    root.insert("metrics".into(), registry.snapshot());
    for (key, value) in extras {
        assert!(
            !matches!(key.as_str(), "label" | "schema_version" | "metrics"),
            "extra section {key:?} would shadow a core snapshot key"
        );
        root.insert(key, value);
    }
    Value::Object(root)
}

/// The histogram summary keys every `metrics.histograms` entry carries.
const HIST_KEYS: [&str; 8] = ["count", "min", "max", "mean", "p50", "p95", "p99", "p999"];

fn as_object<'v>(v: &'v Value, what: &str) -> Result<&'v Map<String, Value>, String> {
    match v {
        Value::Object(m) => Ok(m),
        _ => Err(format!("{what} is not an object")),
    }
}

fn as_number(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Number(n) => Ok(*n),
        _ => Err(format!("{what} is not a number")),
    }
}

/// Validates a snapshot document against [`SCHEMA_VERSION`]. Checks the
/// version *first* so drift reports as a version mismatch, not as a
/// confusing shape error further in.
pub fn validate(doc: &Value) -> Result<(), String> {
    let root = as_object(doc, "snapshot root")?;
    let version =
        as_number(root.get("schema_version").ok_or("missing schema_version")?, "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}; \
             refusing to parse (producer and consumer are out of sync)"
        ));
    }
    match root.get("label") {
        Some(Value::String(_)) => {}
        _ => return Err("missing or non-string label".into()),
    }
    let metrics = as_object(root.get("metrics").ok_or("missing metrics")?, "metrics")?;
    for section in ["counters", "gauges", "histograms"] {
        as_object(metrics.get(section).ok_or(format!("metrics missing {section}"))?, section)?;
    }
    if let Some(Value::Object(hists)) = metrics.get("histograms") {
        for (name, hist) in hists.iter() {
            let h = as_object(hist, &format!("histogram {name}"))?;
            for key in HIST_KEYS {
                if h.get(key).is_none() {
                    return Err(format!("histogram {name} missing {key}"));
                }
            }
        }
    }
    if let Some(flows) = root.get("flows") {
        let f = as_object(flows, "flows")?;
        for key in ["sample_n", "sampled_packets", "sampled_bytes"] {
            as_number(f.get(key).ok_or(format!("flows missing {key}"))?, key)?;
        }
        let Some(Value::Array(records)) = f.get("records") else {
            return Err("flows missing records array".into());
        };
        for (i, rec) in records.iter().enumerate() {
            let r = as_object(rec, &format!("flows.records[{i}]"))?;
            for key in ["prefix", "class", "verdict", "packets", "bytes", "est_bytes"] {
                if r.get(key).is_none() {
                    return Err(format!("flows.records[{i}] missing {key}"));
                }
            }
        }
    }
    Ok(())
}

fn counters_of(doc: &Value) -> Result<&Map<String, Value>, String> {
    let root = as_object(doc, "snapshot root")?;
    let metrics = as_object(root.get("metrics").ok_or("missing metrics")?, "metrics")?;
    as_object(metrics.get("counters").ok_or("missing counters")?, "counters")
}

/// Checks that every counter in `older` exists in `newer` with a value at
/// least as large — the sanity property two successive snapshots of one
/// live process must satisfy (counters are cumulative; a decrease means
/// the producer restarted or the schema silently changed meaning).
pub fn counters_monotone(older: &Value, newer: &Value) -> Result<(), String> {
    let old_counters = counters_of(older)?;
    let new_counters = counters_of(newer)?;
    for (name, old_v) in old_counters.iter() {
        let old_n = as_number(old_v, name)?;
        let new_v =
            new_counters.get(name).ok_or(format!("counter {name} vanished between snapshots"))?;
        let new_n = as_number(new_v, name)?;
        if new_n < old_n {
            return Err(format!("counter {name} went backwards: {old_n} -> {new_n}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Value {
        let mut reg = Registry::new();
        let c = reg.counter("node.rx_frames");
        reg.add(c, 10);
        let h = reg.hist("node.forward_latency_ns");
        reg.record(h, 500);
        document("test", &reg)
    }

    fn get<'v>(doc: &'v Value, key: &str) -> &'v Value {
        let Value::Object(root) = doc else { panic!() };
        root.get(key).unwrap()
    }

    #[test]
    fn document_validates_and_carries_version() {
        let doc = sample_doc();
        validate(&doc).unwrap();
        assert_eq!(get(&doc, "schema_version"), &Value::Number(SCHEMA_VERSION as f64));
        assert_eq!(get(&doc, "label"), &Value::String("test".into()));
    }

    #[test]
    fn document_round_trips_through_text() {
        let doc = sample_doc();
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn document_with_flows_section_validates() {
        let mut reg = Registry::new();
        reg.counter("a");
        let mut sampler = crate::flow::FlowSampler::new(1, 7);
        sampler.record(
            1,
            tva_wire::Addr::new(66, 0, 0, 1),
            tva_wire::PathId::NONE,
            crate::flow::FlowClass::Regular,
            crate::flow::FlowVerdict::Validated,
            1000,
        );
        let doc = document_with(
            "daemon",
            &reg,
            vec![("flows".into(), sampler.to_json()), ("seq".into(), Value::Number(3.0))],
        );
        validate(&doc).unwrap();
    }

    #[test]
    fn wrong_version_fails_loudly() {
        let doc = sample_doc();
        let Value::Object(mut root) = doc else { panic!() };
        root.insert("schema_version".into(), Value::Number(1.0));
        let err = validate(&Value::Object(root)).unwrap_err();
        assert!(err.contains("schema_version"), "got: {err}");
    }

    #[test]
    fn malformed_shapes_fail() {
        // No metrics section at all.
        let mut root = Map::new();
        root.insert("label".into(), Value::String("x".into()));
        root.insert("schema_version".into(), Value::Number(SCHEMA_VERSION as f64));
        assert!(validate(&Value::Object(root)).is_err());

        // Histogram missing a quantile key.
        let mut hist = Map::new();
        for key in ["count", "min", "max", "mean", "p50", "p95", "p999"] {
            hist.insert(key.into(), Value::Number(1.0));
        }
        let mut hists = Map::new();
        hists.insert("lat".into(), Value::Object(hist));
        let mut metrics = Map::new();
        metrics.insert("counters".into(), Value::Object(Map::new()));
        metrics.insert("gauges".into(), Value::Object(Map::new()));
        metrics.insert("histograms".into(), Value::Object(hists));
        let mut root = Map::new();
        root.insert("label".into(), Value::String("x".into()));
        root.insert("schema_version".into(), Value::Number(SCHEMA_VERSION as f64));
        root.insert("metrics".into(), Value::Object(metrics));
        let err = validate(&Value::Object(root.clone())).unwrap_err();
        assert!(err.contains("p99"), "got: {err}");

        // Flows section without required keys.
        root.insert("flows".into(), Value::Object(Map::new()));
        assert!(validate(&Value::Object(root)).is_err());
    }

    #[test]
    fn monotone_counters_pass_and_regressions_fail() {
        let older = sample_doc();
        let mut reg = Registry::new();
        let c = reg.counter("node.rx_frames");
        reg.add(c, 11);
        let newer = document("test", &reg);
        counters_monotone(&older, &newer).unwrap();
        // Backwards counter.
        counters_monotone(&newer, &older).unwrap_err();
        // Vanished counter.
        let empty = document("test", &Registry::new());
        let err = counters_monotone(&older, &empty).unwrap_err();
        assert!(err.contains("vanished"), "got: {err}");
    }
}
