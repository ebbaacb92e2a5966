//! Holds the benchmark to its contract at a sizing that runs in seconds:
//! every workload, traced and untraced, emits exactly the metric names
//! `BENCHMARK.json` declares; the staged trace reproduces `poll()`; the
//! churn generator's frames all full-validate; every output check passes.
//!
//! One `#[test]`: the workloads time themselves, so they must not run on
//! parallel test threads.

use std::collections::BTreeSet;

use tva_benchmark::spec::{MetricSpec, Spec, PER_LAYER};
use tva_benchmark::{run_workload, Outcome, RunOpts, Sizing, END_TO_END, WORKLOADS};

fn well_formed(s: &str, extra: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn declared(metrics: &[MetricSpec]) -> BTreeSet<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
}

fn built_in(metrics: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    metrics.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

fn run(name: &str, trace: bool) -> Outcome {
    let opts = RunOpts { seed: 42, seconds: 0.2, reps: Some(3), trace, sizing: Sizing::quick() };
    let out = run_workload(name, &opts, &[]).expect("a declared workload");
    assert_eq!(out.failed, 0, "{name} (trace={trace}): {:?}", out.failures);
    assert!(out.attempted >= 1);
    out
}

#[test]
fn quick_suite_matches_benchmark_json() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    assert_eq!(spec.workloads, WORKLOADS, "workload names");
    assert_eq!(declared(&spec.end_to_end), built_in(&END_TO_END), "end-to-end names and units");
    assert_eq!(declared(&spec.per_layer), built_in(&PER_LAYER), "per-layer names and units");
    assert_eq!(PER_LAYER.len(), built_in(&PER_LAYER).len(), "a per-layer name is used once");
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(well_formed(&m.name, "_.-"), "metric name {:?}", m.name);
        assert!(well_formed(&m.unit, "_/%.-"), "unit {:?}", m.unit);
    }
    for m in &spec.end_to_end {
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{} needs a bound ≤ 0.25", m.name);
    }
    assert!(spec.workloads.iter().all(|w| well_formed(w, "_.-")));

    for name in WORKLOADS {
        let plain = run(name, false);
        for (metric, _) in END_TO_END {
            let s = plain.get(metric).unwrap_or_else(|| panic!("{name} lacks {metric}"));
            assert!(s.median.is_finite() && s.median > 0.0, "{name} {metric} = {}", s.median);
        }

        let traced = run(name, true);
        let emitted: BTreeSet<&str> = traced.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let wanted: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, wanted, "{name}: traced metric names");
        assert_eq!(traced.metrics.len(), PER_LAYER.len(), "{name}: a metric is emitted once");
        assert!(traced.metrics.iter().all(|(_, s)| s.median.is_finite()));

        let layer = |metric: &str| traced.get(metric).expect("checked above").median;
        if name.starts_with("node_") {
            let cover = layer("node.stage_cover");
            assert!((0.85..=1.15).contains(&cover), "{name}: node.stage_cover = {cover}");
            assert_eq!(layer("legit_delivery"), 1.0, "{name}");
            assert_eq!(layer("sim.engine.events"), 0.0, "{name} runs no simulator");
        } else {
            assert_eq!(layer("node.rx_frames"), 0.0, "{name} runs no daemon");
        }
        match name {
            "node_clean" => assert!(layer("core.router.cache_hit_rate") > 0.999),
            "node_flood" => assert!(layer("core.sched.requests_dropped") > 0.0),
            "node_churn" => {
                assert_eq!(layer("core.router.nonce_hits"), 0.0);
                assert_eq!(layer("core.router.full_validations"), layer("node.rx_frames"));
                assert_eq!(layer("core.flowtable.len"), layer("core.flowtable.capacity"));
            }
            "sim_fig8" => {
                assert!(layer("sim.engine.events") > 0.0);
                assert!(layer("legit_completion") >= 0.99);
                assert!(layer("sim.trace.delivered") > 0.0);
            }
            "sim_scale" => assert!(layer("sim.scale.events") > 0.0),
            _ => unreachable!(),
        }
    }
}
