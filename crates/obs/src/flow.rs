//! Sampled flow records: the raw material for per-prefix attribution.
//!
//! An sFlow-style deterministic 1-in-N packet sampler feeding IPFIX-like
//! flow records. The router pipeline calls [`FlowSampler::record`] at each
//! verdict point (stamp, validate, demote, drop); the sampler hashes the
//! packet id against a seed and keeps 1-in-N of them, aggregating into
//! records keyed by (source /24 prefix, path id, traffic class, verdict)
//! with sampled packet/byte counters.
//!
//! Two properties carry the design:
//!
//! * **Determinism.** Selection is a pure function of `(seed, sample_n,
//!   packet id)` — never of arrival order, wall time, or a per-sampler
//!   counter — so merging the records of several routers is order-free:
//!   however a packet stream is split across samplers, the merged table is
//!   byte-identical to one sampler's over the whole stream. Aggregation
//!   lives in a `BTreeMap`, so iteration and export order are sorted and
//!   stable too.
//! * **Bounded cost.** Disabled (`sample_n == 0`) is one branch per call.
//!   Enabled, the common case is one 64-bit hash and a branch; only the
//!   1-in-N sampled packets touch the record map. The key space is small
//!   (prefixes × classes × verdicts), so map nodes allocate during warmup
//!   and steady state is allocation-free.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};

use serde_json::{Map, Value};
use tva_wire::{Addr, DetBuildHasher, PathId};

use crate::registry::{Observe, Registry};

/// Traffic class of a sampled packet, as the scheduler would see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FlowClass {
    /// Capability-request packets.
    Request = 0,
    /// Capability-validated regular packets.
    Regular = 1,
    /// Legacy and demoted packets.
    Legacy = 2,
}

impl FlowClass {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            FlowClass::Request => "request",
            FlowClass::Regular => "regular",
            FlowClass::Legacy => "legacy",
        }
    }
}

/// Capability-lifecycle verdict attached to a sampled packet: what the
/// router or scheduler decided about it at the sampling point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FlowVerdict {
    /// Request stamped with a pre-capability.
    Stamped = 0,
    /// Regular packet validated on the nonce fast path.
    NonceHit = 1,
    /// Regular packet validated on the two-hash slow path.
    Validated = 2,
    /// Validated renewal (fresh pre-capability minted in place).
    Renewed = 3,
    /// Demoted: capability validity period elapsed.
    DemotedExpired = 4,
    /// Demoted: byte budget N exhausted.
    DemotedOverBudget = 5,
    /// Demoted: nonce miss with no capability list to validate.
    DemotedNoCaps = 6,
    /// Demoted: capability list present but failed validation.
    DemotedBadCap = 7,
    /// Demoted: request with no room left to stamp.
    DemotedStampRoom = 8,
    /// Demoted: request key table exhausted at the scheduler.
    DemotedKeyTable = 9,
    /// Arrived already demoted by an upstream router.
    DemotedUpstream = 10,
    /// Plain legacy packet (no capability header).
    Legacy = 11,
    /// Dropped by a queue cap at the scheduler.
    DroppedQueue = 12,
}

impl FlowVerdict {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            FlowVerdict::Stamped => "stamped",
            FlowVerdict::NonceHit => "nonce_hit",
            FlowVerdict::Validated => "validated",
            FlowVerdict::Renewed => "renewed",
            FlowVerdict::DemotedExpired => "demoted_expired",
            FlowVerdict::DemotedOverBudget => "demoted_over_budget",
            FlowVerdict::DemotedNoCaps => "demoted_no_caps",
            FlowVerdict::DemotedBadCap => "demoted_bad_cap",
            FlowVerdict::DemotedStampRoom => "demoted_stamp_room",
            FlowVerdict::DemotedKeyTable => "demoted_key_table",
            FlowVerdict::DemotedUpstream => "demoted_upstream",
            FlowVerdict::Legacy => "legacy",
            FlowVerdict::DroppedQueue => "dropped_queue",
        }
    }

    /// Whether this verdict marks traffic the architecture is *refusing*
    /// service to (demotions and drops) — the attack-attribution signal.
    pub(crate) fn is_refusal(self) -> bool {
        !matches!(
            self,
            FlowVerdict::Stamped
                | FlowVerdict::NonceHit
                | FlowVerdict::Validated
                | FlowVerdict::Renewed
                | FlowVerdict::Legacy
        )
    }
}

/// Flow-record key: (source /24 prefix, path id, class, verdict). `Ord` so
/// the record table iterates — and exports — in one canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source /24 prefix ([`Addr::prefix24`]).
    pub(crate) prefix: u32,
    /// Most recent path-identifier tag (0 = untagged / not a request).
    pub path_id: u16,
    /// Traffic class at the sampling point.
    pub(crate) class: FlowClass,
    /// Lifecycle verdict at the sampling point.
    pub verdict: FlowVerdict,
}

/// Sampled counters for one flow key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Sampled packets (multiply by `sample_n` to estimate the total).
    pub packets: u64,
    /// Sampled wire bytes.
    pub bytes: u64,
}

/// Formats a /24 prefix the way operators read them: `"66.0.0/24"`.
pub fn format_prefix24(prefix: u32) -> String {
    format!("{}.{}.{}/24", (prefix >> 16) & 0xff, (prefix >> 8) & 0xff, prefix & 0xff)
}

/// The sampler plus its aggregated record table.
#[derive(Debug, Clone)]
pub struct FlowSampler {
    /// `None` while disabled: a disabled sampler holds no table.
    on: Option<Box<Sampling>>,
}

/// An enabled sampler's parameters and records.
#[derive(Debug, Clone)]
struct Sampling {
    n: u32,
    seed: u64,
    /// Selection threshold: a packet is picked iff `hash(id) <= threshold`.
    /// Precomputed as `u64::MAX / n` so the per-packet test is one compare
    /// — a runtime `% n` would put a hardware divide on the fast path.
    threshold: u64,
    records: BTreeMap<FlowKey, FlowCounters>,
    sampled_pkts: u64,
    sampled_bytes: u64,
}

impl Sampling {
    #[inline]
    fn picks(&self, pkt_id: u64) -> bool {
        let mut h = DetBuildHasher::with_seed(self.seed).build_hasher();
        h.write_u64(pkt_id);
        h.finish() <= self.threshold
    }
}

impl FlowSampler {
    /// A sampler keeping 1-in-`n` packets (`n == 0` disables sampling;
    /// `n == 1` samples everything). `seed` keys the selection hash.
    pub fn new(n: u32, seed: u64) -> Self {
        let on = (n != 0).then(|| {
            Box::new(Sampling {
                n,
                seed,
                threshold: u64::MAX / n as u64,
                records: BTreeMap::new(),
                sampled_pkts: 0,
                sampled_bytes: 0,
            })
        });
        FlowSampler { on }
    }

    /// A disabled sampler: every call is one branch, no state.
    pub fn disabled() -> Self {
        FlowSampler { on: None }
    }

    /// Whether sampling is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.is_some()
    }

    /// The sampling ratio denominator (0 = off).
    pub fn sample_n(&self) -> u32 {
        self.on.as_ref().map_or(0, |s| s.n)
    }

    /// Whether a packet id is selected. Pure in `(seed, n, id)`: the same
    /// packet is picked — or not — no matter which router or hook point
    /// asks, which is what makes merges order-free and lets the router and
    /// scheduler sample consistently without coordination.
    #[inline]
    pub fn picks(&self, pkt_id: u64) -> bool {
        self.on.as_ref().is_some_and(|s| s.picks(pkt_id))
    }

    /// Offers one packet at a verdict point; records it iff selected.
    #[inline]
    pub fn record(
        &mut self,
        pkt_id: u64,
        src: Addr,
        path_id: PathId,
        class: FlowClass,
        verdict: FlowVerdict,
        wire_len: u32,
    ) {
        let Some(s) = self.on.as_deref_mut() else { return };
        if !s.picks(pkt_id) {
            return;
        }
        let key = FlowKey { prefix: src.prefix24(), path_id: path_id.0, class, verdict };
        let rec = s.records.entry(key).or_default();
        rec.packets += 1;
        rec.bytes += wire_len as u64;
        s.sampled_pkts += 1;
        s.sampled_bytes += wire_len as u64;
    }

    /// Total sampled packets across all records.
    pub fn sampled_packets(&self) -> u64 {
        self.on.as_ref().map_or(0, |s| s.sampled_pkts)
    }

    /// Total sampled bytes across all records.
    pub(crate) fn sampled_bytes(&self) -> u64 {
        self.on.as_ref().map_or(0, |s| s.sampled_bytes)
    }

    /// Number of distinct flow records.
    pub(crate) fn len(&self) -> usize {
        self.on.as_ref().map_or(0, |s| s.records.len())
    }

    /// Whether nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates records in canonical (sorted) key order.
    pub fn records(&self) -> impl Iterator<Item = (&FlowKey, &FlowCounters)> {
        self.on.iter().flat_map(|s| s.records.iter())
    }

    /// Folds another sampler's records into this one (collection across
    /// routers/schedulers). Sampling parameters must match or one
    /// side must be empty — merging differently-sampled tables would mix
    /// incomparable estimates.
    pub fn merge(&mut self, other: &FlowSampler) {
        let Some(o) = other.on.as_deref() else { return };
        let Some(s) = self.on.as_deref_mut() else {
            self.on = Some(Box::new(o.clone()));
            return;
        };
        assert!(
            o.records.is_empty() || s.records.is_empty() || (s.n == o.n && s.seed == o.seed),
            "merging samplers with different sampling parameters"
        );
        for (key, counters) in &o.records {
            let rec = s.records.entry(*key).or_default();
            rec.packets += counters.packets;
            rec.bytes += counters.bytes;
        }
        s.sampled_pkts += o.sampled_pkts;
        s.sampled_bytes += o.sampled_bytes;
    }

    /// Per-prefix totals (all classes/verdicts), plus the refused subset,
    /// sorted by estimated bytes descending (ties broken by prefix so the
    /// order is total). Entries are `(prefix, total, refused)` with
    /// counters scaled back up by `sample_n` into estimates.
    pub fn top_prefixes(&self, k: usize) -> Vec<(u32, FlowCounters, FlowCounters)> {
        let mut by_prefix: BTreeMap<u32, (FlowCounters, FlowCounters)> = BTreeMap::new();
        for (key, c) in self.records() {
            let entry = by_prefix.entry(key.prefix).or_default();
            entry.0.packets += c.packets;
            entry.0.bytes += c.bytes;
            if key.verdict.is_refusal() {
                entry.1.packets += c.packets;
                entry.1.bytes += c.bytes;
            }
        }
        let scale = self.sample_n().max(1) as u64;
        let mut rows: Vec<(u32, FlowCounters, FlowCounters)> = by_prefix
            .into_iter()
            .map(|(p, (mut t, mut r))| {
                t.packets *= scale;
                t.bytes *= scale;
                r.packets *= scale;
                r.bytes *= scale;
                (p, t, r)
            })
            .collect();
        rows.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// JSON export, schema-stable and byte-identical for identical record
    /// tables:
    ///
    /// ```json
    /// {"sample_n":16, "sampled_packets":…, "sampled_bytes":…,
    ///  "records":[{"prefix":"66.0.0/24","path_id":0,"class":"regular",
    ///              "verdict":"validated","packets":…,"bytes":…,
    ///              "est_packets":…,"est_bytes":…}, …]}
    /// ```
    pub fn to_json(&self) -> Value {
        let scale = self.sample_n().max(1) as u64;
        let records: Vec<Value> = self
            .records()
            .map(|(key, c)| {
                let mut m = Map::new();
                m.insert("prefix".into(), Value::String(format_prefix24(key.prefix)));
                m.insert("path_id".into(), Value::Number(key.path_id as f64));
                m.insert("class".into(), Value::String(key.class.label().into()));
                m.insert("verdict".into(), Value::String(key.verdict.label().into()));
                m.insert("packets".into(), Value::Number(c.packets as f64));
                m.insert("bytes".into(), Value::Number(c.bytes as f64));
                m.insert("est_packets".into(), Value::Number((c.packets * scale) as f64));
                m.insert("est_bytes".into(), Value::Number((c.bytes * scale) as f64));
                Value::Object(m)
            })
            .collect();
        let mut root = Map::new();
        root.insert("sample_n".into(), Value::Number(self.sample_n() as f64));
        root.insert("sampled_packets".into(), Value::Number(self.sampled_packets() as f64));
        root.insert("sampled_bytes".into(), Value::Number(self.sampled_bytes() as f64));
        root.insert("records".into(), Value::Array(records));
        Value::Object(root)
    }
}

impl Observe for FlowSampler {
    /// Folds aggregate sampler counters plus per-verdict totals into the
    /// registry (`<prefix>.sampled_packets`, `<prefix>.verdict.<v>.bytes`,
    /// …). The full per-prefix table goes through [`FlowSampler::to_json`]
    /// instead — prefixes are unbounded in principle and would bloat the
    /// metric namespace.
    fn observe(&self, prefix: &str, reg: &mut Registry) {
        let c = reg.counter(&format!("{prefix}.sampled_packets"));
        reg.set_counter(c, self.sampled_packets());
        let c = reg.counter(&format!("{prefix}.sampled_bytes"));
        reg.set_counter(c, self.sampled_bytes());
        let c = reg.counter(&format!("{prefix}.records"));
        reg.set_counter(c, self.len() as u64);
        let mut by_verdict: BTreeMap<FlowVerdict, FlowCounters> = BTreeMap::new();
        for (key, counters) in self.records() {
            let entry = by_verdict.entry(key.verdict).or_default();
            entry.packets += counters.packets;
            entry.bytes += counters.bytes;
        }
        for (verdict, counters) in by_verdict {
            let c = reg.counter(&format!("{prefix}.verdict.{}.packets", verdict.label()));
            reg.set_counter(c, counters.packets);
            let c = reg.counter(&format!("{prefix}.verdict.{}.bytes", verdict.label()));
            reg.set_counter(c, counters.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x5F10_77CA;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr::new(a, b, c, d)
    }

    /// Every scheduler and router carries a sampler, and most run with
    /// sampling off: disabled, one is a null pointer.
    #[test]
    fn disabled_sampler_stays_small() {
        assert!(std::mem::size_of::<FlowSampler>() <= 8, "{}", std::mem::size_of::<FlowSampler>());
        assert!(FlowSampler::disabled().on.is_none());
        assert!(FlowSampler::new(0, SEED).on.is_none());
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut s = FlowSampler::disabled();
        for id in 0..1000 {
            s.record(id, addr(66, 0, 0, 1), PathId::NONE, FlowClass::Legacy, FlowVerdict::Legacy, 100);
        }
        assert!(s.is_empty());
        assert!(!s.enabled());
        assert_eq!(s.sampled_packets(), 0);
    }

    #[test]
    fn one_in_one_samples_everything() {
        let mut s = FlowSampler::new(1, SEED);
        for id in 0..100 {
            s.record(id, addr(66, 0, 0, 1), PathId::NONE, FlowClass::Regular, FlowVerdict::NonceHit, 1000);
        }
        assert_eq!(s.sampled_packets(), 100);
        assert_eq!(s.sampled_bytes(), 100_000);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn selection_rate_is_roughly_one_in_n() {
        let s = FlowSampler::new(16, SEED);
        let picked = (0..100_000u64).filter(|&id| s.picks(id)).count();
        // 1-in-16 of 100k ≈ 6250; allow generous slack for hash dispersion.
        assert!((4500..8500).contains(&picked), "picked {picked}");
    }

    #[test]
    fn selection_is_order_and_partition_independent() {
        // Merges are order-free at the sampler level: the set of selected
        // ids is identical whether ids arrive at one sampler or interleaved
        // across two (two routers, say).
        let mut seq = FlowSampler::new(8, SEED);
        let mut part_a = FlowSampler::new(8, SEED);
        let mut part_b = FlowSampler::new(8, SEED);
        let src = addr(20, 0, 1, 7);
        for id in 0..10_000u64 {
            seq.record(id, src, PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 1500);
            let part = if id % 2 == 0 { &mut part_a } else { &mut part_b };
            part.record(id, src, PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 1500);
        }
        part_a.merge(&part_b);
        assert_eq!(seq.sampled_packets(), part_a.sampled_packets());
        assert_eq!(
            serde_json::to_string(&seq.to_json()).unwrap(),
            serde_json::to_string(&part_a.to_json()).unwrap()
        );
    }

    #[test]
    fn records_aggregate_by_key_and_export_sorted() {
        let mut s = FlowSampler::new(1, SEED);
        s.record(1, addr(66, 0, 0, 1), PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 1000);
        s.record(2, addr(66, 0, 0, 9), PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 500);
        s.record(3, addr(20, 0, 0, 1), PathId(42), FlowClass::Request, FlowVerdict::Stamped, 40);
        assert_eq!(s.len(), 2, "same prefix+class+verdict aggregates");
        let keys: Vec<u32> = s.records().map(|(k, _)| k.prefix).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "canonical order");
        let Value::Object(root) = s.to_json() else { panic!() };
        let Some(Value::Array(recs)) = root.get("records") else { panic!() };
        assert_eq!(recs.len(), 2);
        let Value::Object(first) = &recs[0] else { panic!() };
        assert_eq!(first.get("prefix"), Some(&Value::String("20.0.0/24".into())));
    }

    #[test]
    fn estimates_scale_by_sample_n() {
        let mut s = FlowSampler::new(4, SEED);
        // Feed only ids the sampler picks, so counts are exact.
        let mut fed = 0;
        for id in 0..100_000u64 {
            if s.picks(id) {
                s.record(id, addr(66, 0, 1, 1), PathId::NONE, FlowClass::Legacy, FlowVerdict::DroppedQueue, 100);
                fed += 1;
                if fed == 10 {
                    break;
                }
            }
        }
        let top = s.top_prefixes(5);
        assert_eq!(top.len(), 1);
        let (prefix, total, refused) = top[0];
        assert_eq!(format_prefix24(prefix), "66.0.1/24");
        assert_eq!(total.packets, 40, "10 sampled × n=4");
        assert_eq!(total.bytes, 4000);
        assert_eq!(refused, total, "queue drops are refusals");
    }

    #[test]
    fn top_prefixes_rank_by_bytes() {
        let mut s = FlowSampler::new(1, SEED);
        for id in 0..30 {
            s.record(id, addr(66, 0, 0, 1), PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 1500);
        }
        for id in 100..105 {
            s.record(id, addr(20, 0, 0, 1), PathId::NONE, FlowClass::Regular, FlowVerdict::Validated, 1500);
        }
        let top = s.top_prefixes(10);
        assert_eq!(top.len(), 2);
        assert_eq!(format_prefix24(top[0].0), "66.0.0/24");
        assert!(top[0].1.bytes > top[1].1.bytes);
        assert_eq!(top[0].2.bytes, 0, "validated traffic is not refused");
    }

    #[test]
    fn merge_requires_matching_parameters() {
        let mut a = FlowSampler::new(4, SEED);
        let mut b = FlowSampler::new(4, SEED);
        a.record_all_of(1);
        b.record_all_of(2);
        let before = a.sampled_packets() + b.sampled_packets();
        a.merge(&b);
        assert_eq!(a.sampled_packets(), before);
    }

    impl FlowSampler {
        /// Test helper: force-record `k` picked ids.
        fn record_all_of(&mut self, salt: u64) {
            let mut fed = 0;
            for id in (salt * 1_000_000)..(salt * 1_000_000 + 100_000) {
                if self.picks(id) {
                    self.record(
                        id,
                        Addr::new(10, 0, 0, salt as u8),
                        PathId::NONE,
                        FlowClass::Legacy,
                        FlowVerdict::Legacy,
                        64,
                    );
                    fed += 1;
                    if fed == 5 {
                        return;
                    }
                }
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Order-free merges, generalized: for any (n, seed) and any
            /// packet stream split across two samplers by an arbitrary
            /// per-packet assignment, the merged sampler is byte-identical
            /// to one sampler that saw the whole stream.
            #[test]
            fn sharded_sampling_is_byte_identical(
                n in 1u32..32,
                seed in any::<u64>(),
                ids in proptest::collection::vec(any::<u64>(), 1..400),
                part_of in proptest::collection::vec(any::<bool>(), 400),
            ) {
                let mut seq = FlowSampler::new(n, seed);
                let mut a = FlowSampler::new(n, seed);
                let mut b = FlowSampler::new(n, seed);
                for (i, &id) in ids.iter().enumerate() {
                    // Derive src/class/verdict from the id so both parts
                    // see the same packet the single sampler saw.
                    let src = Addr::new(20 + (id % 3) as u8, 0, (id % 5) as u8, 1);
                    let verdict = if id % 7 == 0 {
                        FlowVerdict::DroppedQueue
                    } else {
                        FlowVerdict::Validated
                    };
                    let len = 40 + (id % 1460) as u32;
                    seq.record(id, src, PathId::NONE, FlowClass::Regular, verdict, len);
                    let part = if part_of[i] { &mut a } else { &mut b };
                    part.record(id, src, PathId::NONE, FlowClass::Regular, verdict, len);
                }
                a.merge(&b);
                prop_assert_eq!(seq.sampled_packets(), a.sampled_packets());
                prop_assert_eq!(seq.sampled_bytes(), a.sampled_bytes());
                prop_assert_eq!(
                    serde_json::to_string(&seq.to_json()).unwrap(),
                    serde_json::to_string(&a.to_json()).unwrap()
                );
            }

            /// Selection is a pure function of (seed, n, id): re-evaluating
            /// never disagrees, and n=1 picks everything.
            #[test]
            fn picks_is_pure_and_total_for_n1(seed in any::<u64>(), id in any::<u64>()) {
                let s4 = FlowSampler::new(4, seed);
                prop_assert_eq!(s4.picks(id), s4.picks(id));
                let s1 = FlowSampler::new(1, seed);
                prop_assert!(s1.picks(id));
            }
        }
    }

    #[test]
    fn observe_folds_verdict_totals() {
        let mut s = FlowSampler::new(1, SEED);
        s.record(1, addr(66, 0, 0, 1), PathId::NONE, FlowClass::Regular, FlowVerdict::DemotedBadCap, 700);
        s.record(2, addr(66, 0, 0, 2), PathId::NONE, FlowClass::Regular, FlowVerdict::DemotedBadCap, 300);
        let mut reg = Registry::new();
        s.observe("flow", &mut reg);
        assert_eq!(reg.counter_by_name("flow.sampled_packets"), Some(2));
        assert_eq!(reg.counter_by_name("flow.verdict.demoted_bad_cap.bytes"), Some(1000));
        assert_eq!(reg.counter_by_name("flow.records"), Some(1));
    }
}
