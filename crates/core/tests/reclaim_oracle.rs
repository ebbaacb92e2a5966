//! Differential oracle for the flow table's reclaim index. The timing wheel
//! must hand out exactly the victims that the `BTreeSet<(SimTime, FlowKey)>`
//! index it replaced handed out. That table is kept here whole as the
//! reference model. A proptest drives both with the same creates, charges
//! and same-flow replacements, including:
//! * same-instant ties and zero-ttl grants;
//! * gaps past the wheel's 2^36 ns (≈ 68.7 s) span;
//! * start times at 0, at a wall-clock reading and just below a 2^36 ns
//!   boundary;
//! * a clock that steps back.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tva_core::{Charge, FlowTable};
use tva_sim::{SimDuration, SimTime};
use tva_wire::{Addr, CapValue, FlowKey, FlowNonce, Grant};

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    cap: CapValue,
    nonce: FlowNonce,
    grant: Grant,
    bytes_used: u64,
    ttl_expires: SimTime,
    indexed_at: SimTime,
}

/// The flow table with its lazy `BTreeSet` reclaim index, as it was before
/// the wheel.
struct BTreeTable {
    entries: BTreeMap<FlowKey, RefEntry>,
    by_expiry: BTreeSet<(SimTime, FlowKey)>,
    max_entries: usize,
    reclaims: u64,
    admission_failures: u64,
}

fn ttl_value(len: u32, grant: Grant) -> SimDuration {
    let n = grant.n.bytes().max(1);
    let t_ns = grant.t.secs() as u128 * 1_000_000_000;
    SimDuration::from_nanos((len as u128 * t_ns / n as u128) as u64)
}

impl BTreeTable {
    fn new(max_entries: usize) -> Self {
        BTreeTable {
            entries: BTreeMap::new(),
            by_expiry: BTreeSet::new(),
            max_entries,
            reclaims: 0,
            admission_failures: 0,
        }
    }

    fn charge(&mut self, flow: FlowKey, len: u32, now: SimTime) -> Charge {
        let Some(entry) = self.entries.get_mut(&flow) else {
            return Charge::OverBudget;
        };
        if entry.bytes_used + len as u64 > entry.grant.n.bytes() {
            return Charge::OverBudget;
        }
        entry.bytes_used += len as u64;
        entry.ttl_expires = entry.ttl_expires.max(now) + ttl_value(len, entry.grant);
        Charge::Ok
    }

    fn create(
        &mut self,
        flow: FlowKey,
        cap: CapValue,
        nonce: FlowNonce,
        grant: Grant,
        len: u32,
        now: SimTime,
    ) -> bool {
        let old = self.entries.get(&flow).copied();
        let carried = old.filter(|old| old.cap == cap).map_or(0, |old| old.bytes_used);
        if carried + len as u64 > grant.n.bytes() {
            return false;
        }
        if let Some(old) = old {
            self.by_expiry.remove(&(old.indexed_at, flow));
        } else if self.entries.len() >= self.max_entries {
            if !self.reclaim_victim(now) {
                self.admission_failures += 1;
                return false;
            }
            self.reclaims += 1;
        }
        let (ttl_expires, bytes_used) = (now + ttl_value(len, grant), carried + len as u64);
        let indexed_at = ttl_expires;
        self.entries.insert(flow, RefEntry { cap, nonce, grant, bytes_used, ttl_expires, indexed_at });
        self.by_expiry.insert((ttl_expires, flow));
        true
    }

    fn reclaim_victim(&mut self, now: SimTime) -> bool {
        while let Some((indexed, victim)) = self.by_expiry.pop_first() {
            if indexed > now {
                self.by_expiry.insert((indexed, victim));
                return false;
            }
            let entry = self.entries.get_mut(&victim).expect("index and table are in bijection");
            if entry.ttl_expires <= now {
                self.entries.remove(&victim);
                return true;
            }
            entry.indexed_at = entry.ttl_expires;
            self.by_expiry.insert((entry.ttl_expires, victim));
        }
        false
    }
}

/// What both tables must agree on after every operation.
type Snapshot = (u64, u64, Vec<(FlowKey, CapValue, FlowNonce, u64, SimTime)>);

fn snapshot_wheel(t: &FlowTable) -> Snapshot {
    let mut entries: Vec<_> = t
        .iter_entries()
        .map(|(k, e)| (*k, e.cap, e.nonce, e.bytes_used, e.ttl_expires))
        .collect();
    entries.sort_by_key(|e| e.0);
    (t.reclaims, t.admission_failures, entries)
}

fn snapshot_btree(t: &BTreeTable) -> Snapshot {
    let entries =
        t.entries.iter().map(|(k, e)| (*k, e.cap, e.nonce, e.bytes_used, e.ttl_expires)).collect();
    (t.reclaims, t.admission_failures, entries)
}

/// Start instants: zero, a wall-clock reading in ns since the Unix epoch,
/// and just below 2^36 ns block boundaries (the wheel's overflow hand-off).
const STARTS: [u64; 4] = [0, 1_760_000_000_000_000_000, (1 << 36) - 1_000, (3 << 36) - 300_000_000];

/// Grants as (KB, s); `T = 0` makes zero-ttl entries.
const GRANTS: [(u16, u8); 5] = [(1, 1), (8, 4), (32, 10), (1023, 63), (4, 0)];

/// Clock steps in ns, forward and back: 0, 1 ns, 1 µs, 1 ms, 300 ms and
/// 70 s (past the wheel's span); a repeated option is drawn more often.
fn arb_step() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(0),
        Just(0),
        Just(0),
        Just(1),
        Just(1_000),
        Just(1_000_000),
        Just(1_000_000),
        Just(300_000_000),
        Just(300_000_000),
        Just(70_000_000_000),
        prop_oneof![Just(-1i64), Just(-1_000_000), Just(-300_000_000), Just(-70_000_000_000)],
    ]
}

fn arb_len() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), Just(40), 41u32..1500]
}

#[derive(Debug, Clone)]
enum Op {
    /// Create `flow` under capability `cap` (a repeated `cap` on a cached
    /// flow is a same-capability replace; another is a renewal).
    Create { flow: u32, cap: u64, grant: usize, len: u32 },
    Charge { flow: u32, len: u32 },
}

fn arb_op() -> impl Strategy<Value = (i64, Op)> {
    let create = || {
        (0u32..24, 0u64..3, 0..GRANTS.len(), arb_len())
            .prop_map(|(flow, cap, grant, len)| Op::Create { flow, cap, grant, len })
    };
    let charge = || (0u32..24, arb_len()).prop_map(|(flow, len)| Op::Charge { flow, len });
    (arb_step(), prop_oneof![create(), create(), create(), charge(), charge()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn wheel_picks_the_btree_victims(
        start in 0..STARTS.len(),
        capacity in 1usize..=12,
        ops in proptest::collection::vec(arb_op(), 1..160),
    ) {
        let mut wheel = FlowTable::new(capacity);
        let mut btree = BTreeTable::new(capacity);
        let mut now = STARTS[start];
        for (i, (step, op)) in ops.into_iter().enumerate() {
            now = now.saturating_add_signed(step);
            let at = SimTime::from_nanos(now);
            let dst = Addr::new(10, 0, 0, 1);
            match op {
                Op::Create { flow, cap, grant, len } => {
                    let key = FlowKey::new(Addr(flow), dst);
                    let cap = CapValue::new(1, 0xC0 + cap);
                    let nonce = FlowNonce::new(i as u64);
                    let (kb, secs) = GRANTS[grant];
                    let grant = Grant::from_parts(kb, secs);
                    prop_assert_eq!(
                        wheel.create(key, cap, nonce, grant, len, at),
                        btree.create(key, cap, nonce, grant, len, at),
                        "create #{} at {:?}", i, at
                    );
                }
                Op::Charge { flow, len } => {
                    let key = FlowKey::new(Addr(flow), dst);
                    prop_assert_eq!(wheel.charge(key, len, at), btree.charge(key, len, at));
                }
            }
            let (got, want) = (snapshot_wheel(&wheel), snapshot_btree(&btree));
            prop_assert_eq!(got, want, "after op #{} at {:?}", i, at);
            if let Err(e) = wheel.audit() {
                return Err(TestCaseError::fail(format!("after op #{i}: {e}")));
            }
        }
    }
}
