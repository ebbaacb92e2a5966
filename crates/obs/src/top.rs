//! Rendering for `tva-top`, the live terminal dashboard over the node's
//! stats socket.
//!
//! Pure functions from snapshot documents (the `crate::snapshot` schema)
//! to a fixed-layout text frame: forwarding rates from snapshot-to-
//! snapshot counter diffs, latency percentiles, queue depth, and the
//! top-offender source prefixes from the sampled flow records. Keeping
//! the rendering here — instead of inside the binary — is what makes the
//! `--once` output snapshot-testable.

use serde_json::Value;

use crate::snapshot;

fn obj(v: &Value) -> Option<&serde_json::Map<String, Value>> {
    match v {
        Value::Object(m) => Some(m),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// Walks `doc.path[0].path[1]...` and returns the number at the end.
fn num_at(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = obj(cur)?.get(key)?;
    }
    num(cur)
}

fn counter(doc: &Value, name: &str) -> f64 {
    num_at(doc, &["metrics", "counters", name]).unwrap_or(0.0)
}

fn hist_q(doc: &Value, name: &str, q: &str) -> f64 {
    num_at(doc, &["metrics", "histograms", name, q]).unwrap_or(0.0)
}

/// Scheduler-side refusals: queue-cap drops across all three classes plus
/// key-table demotions (everything the link turned away).
fn drops(doc: &Value) -> f64 {
    counter(doc, "node.queue_drops")
        + counter(doc, "node.sched.requests_dropped")
        + counter(doc, "node.sched.regular_dropped")
        + counter(doc, "node.sched.legacy_dropped")
}

/// A verdict label marking refused traffic (mirror of
/// `crate::flow::FlowVerdict::is_refusal`, but over the wire labels a
/// snapshot carries).
fn label_is_refusal(label: &str) -> bool {
    label.starts_with("demoted_") || label.starts_with("dropped_")
}

/// Per-prefix estimated totals from a snapshot's `flows` section, sorted
/// by estimated bytes descending: `(prefix, est_bytes, refused_est_bytes)`.
pub(crate) fn top_offenders(doc: &Value, k: usize) -> Vec<(String, f64, f64)> {
    let mut by_prefix: std::collections::BTreeMap<String, (f64, f64)> = Default::default();
    let records = obj(doc)
        .and_then(|root| root.get("flows"))
        .and_then(obj)
        .and_then(|f| f.get("records"));
    if let Some(Value::Array(records)) = records {
        for rec in records {
            let Some(r) = obj(rec) else { continue };
            let Some(Value::String(prefix)) = r.get("prefix") else { continue };
            let bytes = r.get("est_bytes").and_then(num).unwrap_or(0.0);
            let refused = match r.get("verdict") {
                Some(Value::String(v)) if label_is_refusal(v) => bytes,
                _ => 0.0,
            };
            let e = by_prefix.entry(prefix.clone()).or_default();
            e.0 += bytes;
            e.1 += refused;
        }
    }
    let mut rows: Vec<(String, f64, f64)> =
        by_prefix.into_iter().map(|(p, (t, r))| (p, t, r)).collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    rows.truncate(k);
    rows
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders one dashboard frame. `prev` (the previous poll's document)
/// enables the rate columns; without it the frame shows cumulative
/// counters only. `chart` is an optional pre-rendered pps-history block
/// (from [`crate::ascii_chart`]) appended verbatim.
///
/// Fails (rather than rendering garbage) when the snapshot does not
/// validate against the supported schema version.
pub fn render(prev: Option<&Value>, curr: &Value, chart: Option<&str>) -> Result<String, String> {
    snapshot::validate(curr)?;
    if let Some(p) = prev {
        snapshot::validate(p)?;
        snapshot::counters_monotone(p, curr)?;
    }
    let label = match obj(curr).and_then(|root| root.get("label")) {
        Some(Value::String(s)) => s.clone(),
        _ => "?".into(),
    };
    let seq = num_at(curr, &["seq"]).unwrap_or(0.0);

    let rx = counter(curr, "node.rx_frames");
    let tx = counter(curr, "node.tx_frames");
    let dropped = drops(curr);

    let mut out = String::new();
    out.push_str(&format!("tva-top · {label} · snapshot #{seq:.0}\n"));

    // Rates need two snapshots and their clock readings.
    let dt_s = prev
        .and_then(|p| Some((num_at(curr, &["now_ns"])? - num_at(p, &["now_ns"])?) / 1e9))
        .filter(|dt| *dt > 0.0);
    match (prev, dt_s) {
        (Some(p), Some(dt)) => {
            let d_rx = (rx - counter(p, "node.rx_frames")) / dt;
            let d_tx = (tx - counter(p, "node.tx_frames")) / dt;
            let d_drop = (dropped - drops(p)) / dt;
            out.push_str(&format!(
                "rx {rx:.0} ({d_rx:.0} pps) · tx {tx:.0} ({d_tx:.0} pps) · \
                 drops {dropped:.0} ({d_drop:.0}/s) · window {dt:.1}s\n"
            ));
        }
        _ => {
            out.push_str(&format!(
                "rx {rx:.0} · tx {tx:.0} · drops {dropped:.0} (cumulative; rates need two polls)\n"
            ));
        }
    }

    let depth = num_at(curr, &["metrics", "gauges", "node.queue_depth_pkts"]).unwrap_or(0.0);
    let depth_b = num_at(curr, &["metrics", "gauges", "node.queue_depth_bytes"]).unwrap_or(0.0);
    out.push_str(&format!(
        "queue depth {depth:.0} pkts / {} · latency p50 {} · p99 {} · p999 {}\n",
        fmt_bytes(depth_b),
        fmt_ns(hist_q(curr, "node.forward_latency_ns", "p50")),
        fmt_ns(hist_q(curr, "node.forward_latency_ns", "p99")),
        fmt_ns(hist_q(curr, "node.forward_latency_ns", "p999")),
    ));

    let sample_n = num_at(curr, &["flows", "sample_n"]).unwrap_or(0.0);
    let offenders = top_offenders(curr, 5);
    if sample_n > 0.0 {
        out.push_str(&format!("top source prefixes (1-in-{sample_n:.0} sampled, estimated):\n"));
        if offenders.is_empty() {
            out.push_str("  (no flows sampled yet)\n");
        }
        for (prefix, total, refused) in &offenders {
            out.push_str(&format!(
                "  {prefix:<16} {:>10} total  {:>10} refused\n",
                fmt_bytes(*total),
                fmt_bytes(*refused),
            ));
        }
    } else {
        out.push_str("flow sampling off (start the node with TVA_OBS_SAMPLE_N to attribute prefixes)\n");
    }

    if let Some(chart) = chart {
        if !chart.is_empty() {
            out.push_str(chart);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowClass, FlowSampler, FlowVerdict};
    use crate::registry::Registry;
    use serde_json::Value;
    use tva_wire::{Addr, PathId};

    fn doc(rx: u64, tx: u64, now_ns: u64, with_flows: bool) -> Value {
        let mut reg = Registry::new();
        let c = reg.counter("node.rx_frames");
        reg.add(c, rx);
        let c = reg.counter("node.tx_frames");
        reg.add(c, tx);
        let h = reg.hist("node.forward_latency_ns");
        reg.record(h, 14_000);
        let g = reg.gauge("node.queue_depth_pkts");
        reg.set(g, 3.0);
        let mut extras = vec![
            ("seq".to_string(), Value::Number(1.0)),
            ("now_ns".to_string(), Value::Number(now_ns as f64)),
        ];
        if with_flows {
            let mut flows = FlowSampler::new(1, 7);
            // The colluder-ring prefix floods; a legit prefix trickles.
            for id in 0..30 {
                flows.record(
                    id,
                    Addr::new(66, 0, 0, 1),
                    PathId::NONE,
                    FlowClass::Regular,
                    FlowVerdict::DemotedBadCap,
                    1500,
                );
            }
            flows.record(100, Addr::new(20, 0, 1, 9), PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 1500);
            extras.push(("flows".to_string(), flows.to_json()));
        }
        snapshot::document_with("tva-node", &reg, extras)
    }

    #[test]
    fn renders_single_snapshot_without_rates() {
        let frame = render(None, &doc(100, 90, 5_000_000_000, true), None).unwrap();
        assert!(frame.contains("tva-top · tva-node"));
        assert!(frame.contains("cumulative"));
        assert!(frame.contains("66.0.0/24"), "top offender listed:\n{frame}");
    }

    #[test]
    fn renders_rates_from_two_snapshots() {
        let a = doc(100, 90, 5_000_000_000, false);
        let b = doc(300, 290, 7_000_000_000, false);
        let frame = render(Some(&a), &b, None).unwrap();
        // 200 frames over 2 s = 100 pps.
        assert!(frame.contains("(100 pps)"), "rate computed:\n{frame}");
        assert!(frame.contains("window 2.0s"));
    }

    #[test]
    fn top_offenders_rank_refused_floods_first() {
        let d = doc(1, 1, 1, true);
        let rows = top_offenders(&d, 5);
        assert_eq!(rows[0].0, "66.0.0/24");
        assert!(rows[0].2 > 0.0, "demotions count as refused");
        assert_eq!(rows[1].0, "20.0.1/24");
        assert_eq!(rows[1].2, 0.0, "validated traffic is not refused");
    }

    #[test]
    fn render_rejects_wrong_schema_version() {
        let Value::Object(mut root) = doc(1, 1, 1, false) else { panic!() };
        root.insert("schema_version".into(), Value::Number(99.0));
        let err = render(None, &Value::Object(root), None).unwrap_err();
        assert!(err.contains("schema_version"), "got: {err}");
    }

    #[test]
    fn render_is_stable_for_golden_snapshots() {
        // The `--once` shape: header, counters line, latency line, flows
        // table. Fixed input -> byte-stable output.
        let frame = render(None, &doc(2, 2, 1, true), None).unwrap();
        let lines: Vec<&str> = frame.lines().collect();
        assert_eq!(lines[0], "tva-top · tva-node · snapshot #1");
        assert_eq!(lines[1], "rx 2 · tx 2 · drops 0 (cumulative; rates need two polls)");
        assert!(lines[2].starts_with("queue depth 3 pkts"));
        assert_eq!(lines[3], "top source prefixes (1-in-1 sampled, estimated):");
        assert_eq!(lines[4], "  66.0.0/24           45.0 KB total     45.0 KB refused");
    }
}
