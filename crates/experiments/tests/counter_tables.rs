//! Every counter a table declares reaches a snapshot under its field name.
//!
//! Each stats struct is declared once through `tva_sim::counters!`, and the
//! snapshot paths fold that table instead of re-listing its fields. For each
//! table, a value whose every counter is distinct and non-zero is published
//! the way snapshots publish it; the counters under the prefix must then be
//! exactly the table's `NAMES`, each carrying its own value. (`NodeStats`
//! has the same check beside `NodeEngine::observe`, in `tva-node`.)

use serde_json::Value;
use tva_baselines::SiffStats;
use tva_baselines::{PushbackRouterNode, PushbackStats};
use tva_core::{RouterStats, SchedulerStats};
use tva_experiments::robustness::fold_metrics;
use tva_experiments::{FaultCounters, ScenarioResult};
use tva_obs::{Observe, Registry};
use tva_sim::{ChannelStats, Counters};

/// Distinct and non-zero for every index.
fn distinct<T: Counters>() -> T {
    T::from_fn(|i| 1_000 + 17 * i as u64)
}

/// The counters published directly under `prefix` (no deeper dots), sorted.
fn published(reg: &Registry, prefix: &str) -> Vec<(String, u64)> {
    let Value::Object(snap) = reg.snapshot() else { panic!("snapshot is an object") };
    let Some(Value::Object(counters)) = snap.get("counters") else { panic!("no counters") };
    let mut out: Vec<(String, u64)> = counters
        .iter()
        .filter_map(|(name, v)| {
            let field = name.strip_prefix(prefix)?.strip_prefix('.')?;
            let Value::Number(n) = v else { panic!("{name} is not a number") };
            (!field.contains('.')).then(|| (field.to_string(), *n as u64))
        })
        .collect();
    out.sort();
    out
}

/// `table`'s own `(name, value)` pairs, sorted like [`published`].
fn declared<T: Counters>(table: &T) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> =
        table.counters().map(|(name, v)| (name.to_string(), v)).collect();
    out.sort();
    out
}

fn check<T: Counters>(what: &str, table: &T, reg: &Registry, prefix: &str) {
    assert_eq!(table.counters().count(), T::NAMES.len(), "{what}");
    assert_eq!(published(reg, prefix), declared(table), "{what} under {prefix}");
}

#[test]
fn channel_stats_publish_every_counter() {
    // `lost_bytes` and `malformed_pkts` were declared but never published.
    let st: ChannelStats = distinct();
    let mut reg = Registry::new();
    st.observe("bottleneck", &mut reg);
    check("ChannelStats", &st, &reg, "bottleneck");
    assert_eq!(reg.counter_by_name("bottleneck.lost_bytes"), Some(st.lost_bytes));
    assert_eq!(reg.counter_by_name("bottleneck.malformed_pkts"), Some(st.malformed_pkts));
    assert!(reg.gauge_by_name("bottleneck.drop_rate").is_some());
}

#[test]
fn router_and_scheduler_stats_publish_every_counter() {
    let (r, s): (RouterStats, SchedulerStats) = (distinct(), distinct());
    let mut reg = Registry::new();
    r.observe("r1", &mut reg);
    reg.set_counters("r1.sched", &s);
    check("RouterStats", &r, &reg, "r1");
    check("SchedulerStats", &s, &reg, "r1.sched");
    assert!(reg.gauge_by_name("r1.cache_hit_rate").is_some());
}

#[test]
fn baseline_stats_publish_every_counter() {
    let siff: SiffStats = distinct();
    let mut reg = Registry::new();
    reg.set_counters("r1", &siff);
    check("SiffStats", &siff, &reg, "r1");

    let mut pushback = PushbackRouterNode::new();
    pushback.stats = distinct::<PushbackStats>();
    let mut reg = Registry::new();
    pushback.observe("r1", &mut reg);
    check("PushbackStats", &pushback.stats, &reg, "r1");
    // The installed-filter count falls when a filter is released: it is a
    // gauge, never a counter (`obscheck --monotone` holds counters to
    // never decreasing).
    assert_eq!(reg.counter_by_name("r1.active_filters"), None);
    assert_eq!(reg.gauge_by_name("r1.active_filters"), Some(0.0));
}

#[test]
fn fault_counters_publish_every_counter() {
    let faults: FaultCounters = distinct();
    let r = ScenarioResult {
        summary: tva_transport::summarize(&[]),
        transfers: Vec::new(),
        per_user: Vec::new(),
        bottleneck_drop_rate: 0.0,
        bottleneck_utilization: 0.0,
        faults,
    };
    let mut reg = Registry::new();
    fold_metrics("tva.loss0.00", &r, &mut reg);
    let mut want = declared(&faults);
    want.extend([("attempts".to_string(), 0), ("completed".to_string(), 0)]);
    want.sort();
    assert_eq!(published(&reg, "tva.loss0.00"), want);
}

#[test]
fn delta_subtracts_field_by_field() {
    let later: ChannelStats = ChannelStats::from_fn(|i| 100 + 10 * i as u64);
    let earlier: ChannelStats = ChannelStats::from_fn(|i| 50 + i as u64);
    let d = later.delta(&earlier);
    for (i, (name, v)) in d.counters().enumerate() {
        assert_eq!(v, 50 + 9 * i as u64, "{name}");
    }
    assert_eq!(later.delta(&later), ChannelStats::default());
}
