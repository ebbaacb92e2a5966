//! The metrics registry: named counters, gauges, and histograms behind
//! copyable integer handles.
//!
//! Registration (name lookup, allocation) happens once, at setup time;
//! after that every update is an array index — zero heap on the hot path.

use serde_json::{Map, Value};
use tva_sim::{ChannelStats, Counters};

use crate::hist::Histogram;

/// A stats source that publishes itself into a [`Registry`] under a name
/// prefix: its counter table through [`Registry::set_counters`] plus the
/// gauges derived from it. Called at snapshot/sample time, so
/// implementations may register on each call (registration is
/// find-or-create and idempotent).
pub trait Observe {
    /// Folds current values into `reg`, every name prefixed `"{prefix}."`.
    fn observe(&self, prefix: &str, reg: &mut Registry);
}

impl Observe for ChannelStats {
    fn observe(&self, prefix: &str, reg: &mut Registry) {
        reg.set_counters(prefix, self);
        reg.set_gauge(&format!("{prefix}.drop_rate"), self.drop_rate());
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// A registry of named metrics. Names are conventionally dotted paths
/// (`r1.nonce_hits`, `bottleneck.queue_pkts`) so per-router / per-scheme /
/// per-queue instances coexist in one namespace.
#[derive(Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name.to_string(), 0));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Registers (or finds) a gauge by name.
    pub(crate) fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i as u32);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId((self.gauges.len() - 1) as u32)
    }

    /// Registers (or finds) a histogram by name.
    pub fn hist(&mut self, name: &str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| n == name) {
            return HistId(i as u32);
        }
        self.hists.push((name.to_string(), Histogram::new()));
        HistId((self.hists.len() - 1) as u32)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].1 += n;
    }

    /// Overwrites a counter with an externally-maintained total (for
    /// folding pre-existing stats structs in at snapshot time).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize].1 = v;
    }

    /// Overwrites `"{prefix}.{name}"` with each counter of a table, so
    /// every counter the table declares is published under its field name.
    pub fn set_counters<T: Counters>(&mut self, prefix: &str, table: &T) {
        for (name, v) in table.counters() {
            let id = self.counter(&format!("{prefix}.{name}"));
            self.set_counter(id, v);
        }
    }

    /// Registers (or finds) gauge `name` and sets it (snapshot time).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let id = self.gauge(name);
        self.set(id, v);
    }

    /// Sets a gauge.
    #[inline]
    pub(crate) fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize].1 = v;
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].1.record(v);
    }

    /// Borrow a histogram mutably (merging an externally-filled histogram
    /// in at snapshot time).
    pub fn histogram_mut(&mut self, id: HistId) -> &mut Histogram {
        &mut self.hists[id.0 as usize].1
    }

    /// Looks a counter value up by name (reporting/tests; linear scan).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks a gauge value up by name (reporting/tests; linear scan).
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Snapshot of every metric as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": { "name": 3, ... },
    ///   "gauges": { "name": 0.5, ... },
    ///   "histograms": { "name": {"count":…,"min":…,"max":…,"mean":…,
    ///                            "p50":…,"p95":…,"p99":…,"p999":…}, ... }
    /// }
    /// ```
    pub fn snapshot(&self) -> Value {
        let mut counters = Map::new();
        for (name, v) in &self.counters {
            counters.insert(name.clone(), Value::Number(*v as f64));
        }
        let mut gauges = Map::new();
        for (name, v) in &self.gauges {
            gauges.insert(name.clone(), Value::Number(*v));
        }
        let mut hists = Map::new();
        for (name, h) in &self.hists {
            let mut m = Map::new();
            m.insert("count".into(), Value::Number(h.count() as f64));
            m.insert("min".into(), Value::Number(h.min() as f64));
            m.insert("max".into(), Value::Number(h.max() as f64));
            m.insert("mean".into(), Value::Number(h.mean()));
            m.insert("p50".into(), Value::Number(h.quantile(0.5) as f64));
            m.insert("p95".into(), Value::Number(h.quantile(0.95) as f64));
            m.insert("p99".into(), Value::Number(h.quantile(0.99) as f64));
            m.insert("p999".into(), Value::Number(h.quantile(0.999) as f64));
            hists.insert(name.clone(), Value::Object(m));
        }
        let mut root = Map::new();
        root.insert("counters".into(), Value::Object(counters));
        root.insert("gauges".into(), Value::Object(gauges));
        root.insert("histograms".into(), Value::Object(hists));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_stats_publish_under_prefix() {
        let mut reg = Registry::new();
        let stats = ChannelStats {
            enqueued_pkts: 75,
            dropped_pkts: 25,
            tx_pkts: 70,
            tx_bytes: 70_000,
            queued_delay_ns: 1_000,
            queued_delay_max_ns: 400,
            ..Default::default()
        };
        stats.observe("bottleneck", &mut reg);
        assert_eq!(reg.counter_by_name("bottleneck.enqueued_pkts"), Some(75));
        assert_eq!(reg.counter_by_name("bottleneck.tx_bytes"), Some(70_000));
        assert_eq!(reg.counter_by_name("bottleneck.queued_delay_max_ns"), Some(400));
        assert_eq!(reg.gauge_by_name("bottleneck.drop_rate"), Some(0.25));
        // Re-observing overwrites rather than double-counting.
        stats.observe("bottleneck", &mut reg);
        assert_eq!(reg.counter_by_name("bottleneck.dropped_pkts"), Some(25));
    }

    #[test]
    fn register_update_read() {
        let mut r = Registry::new();
        let c = r.counter("a.count");
        let g = r.gauge("a.depth");
        let h = r.hist("a.delay_ns");
        r.add(c, 1);
        r.add(c, 4);
        r.set(g, 2.5);
        r.record(h, 100);
        r.record(h, 300);
        assert_eq!(r.gauge_by_name("a.depth"), Some(2.5));
        assert_eq!(r.histogram_mut(h).count(), 2);
        assert_eq!(r.counter_by_name("a.count"), Some(5));
        assert_eq!(r.counter_by_name("missing"), None);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.add(a, 1);
        r.add(b, 1);
        assert_eq!(r.counter_by_name("x"), Some(2));
        assert_eq!(r.counters.len(), 1);
    }

    #[test]
    fn handles_stay_valid_after_re_registration_and_growth() {
        // A handle taken early must keep addressing the same metric after
        // the registry grows (vec reallocation) and after the same name is
        // re-registered — the pattern snapshot producers rely on when they
        // rebuild a registry every poll but cache handles across sections.
        let mut r = Registry::new();
        let early = r.counter("first");
        r.add(early, 1);
        for i in 0..100 {
            let id = r.counter(&format!("c{i}"));
            r.add(id, 1);
        }
        let again = r.counter("first");
        assert_eq!(early, again, "re-registration returns the original handle");
        r.add(again, 2);
        assert_eq!(r.counter_by_name("first"), Some(3), "both handles hit one slot");

        let g1 = r.gauge("depth");
        let h1 = r.hist("lat");
        r.set(g1, 1.0);
        r.record(h1, 5);
        for i in 0..50 {
            r.gauge(&format!("g{i}"));
            r.hist(&format!("h{i}"));
        }
        let (g2, h2) = (r.gauge("depth"), r.hist("lat"));
        assert_eq!(g1, g2);
        assert_eq!(h1, h2);
        r.set(g2, 4.0);
        r.record(h2, 7);
        assert_eq!(r.gauge_by_name("depth"), Some(4.0));
        assert_eq!(r.histogram_mut(h1).count(), 2);
    }

    #[test]
    fn snapshot_shape() {
        let mut r = Registry::new();
        let c = r.counter("pkts");
        r.add(c, 7);
        let g = r.gauge("util");
        r.set(g, 0.25);
        let h = r.hist("lat");
        r.record(h, 50);
        let snap = r.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        let Value::Object(root) = back else { panic!() };
        let Some(Value::Object(counters)) = root.get("counters") else { panic!() };
        assert_eq!(counters.get("pkts"), Some(&Value::Number(7.0)));
        let Some(Value::Object(hists)) = root.get("histograms") else { panic!() };
        let Some(Value::Object(lat)) = hists.get("lat") else { panic!() };
        for key in ["count", "min", "max", "mean", "p50", "p95", "p99", "p999"] {
            assert!(lat.get(key).is_some(), "missing {key}");
        }
    }
}
