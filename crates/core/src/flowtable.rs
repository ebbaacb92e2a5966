//! Bounded router state: the flow cache and the ttl algorithm of §3.6.
//!
//! A router keeps state **only** for flows with valid capabilities that send
//! faster than `N/T`. Each cache entry carries a ttl denominated in time:
//! charging a packet of `L` bytes adds `L × T / N` seconds. An entry whose
//! ttl has run out may be reclaimed to admit a new flow; an entry with
//! remaining ttl may **never** be evicted — that is what makes the byte
//! bound provable:
//!
//! > "the total bytes used for the capability must be at most
//! > `T/T × N = N` bytes … at most `N + N = 2N` bytes can be sent before
//! > the capability is expired."
//!
//! The table is sized to `C / (N/T)min` records so that, with the minimum
//! rate enforced at validation, a reclaimable entry always exists when a new
//! legitimate fast flow needs one — attackers cannot exhaust the memory
//! (invariant 2 of DESIGN.md).
//!
//! There is one reclaim strategy: a `BTreeSet` ordered by ttl expiry finds
//! an expired victim whenever one exists and proves "every entry is live"
//! from its oldest record alone. A reclaimed entry had `ttl ≤ now`, so the
//! paper's 2N argument already covers the fresh budget a re-admitted
//! capability starts with — nothing about the evicted entry needs
//! remembering (DESIGN.md §4i has the argument and the measurements).

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

use tva_sim::{SimDuration, SimTime};
use tva_wire::{CapValue, DetHashMap, FlowKey, FlowNonce, Grant};

/// One cached flow (§4.3: "the valid capability, the flow nonce, the
/// authorized bytes to send (N), the valid time (T), and the ttl and byte
/// count").
#[derive(Debug, Clone)]
pub struct FlowEntry {
    /// The capability this router validated for the flow.
    pub cap: CapValue,
    /// The sender's flow nonce; nonce-only packets must match it.
    pub nonce: FlowNonce,
    /// The authorized (N, T).
    pub grant: Grant,
    /// Bytes charged against `N` by this entry.
    pub bytes_used: u64,
    /// The instant the entry's ttl reaches zero (reclaim eligibility).
    pub ttl_expires: SimTime,
    /// Where the reclaim index currently records this entry. Lags
    /// `ttl_expires` after charges (the index is refreshed lazily on
    /// reclaim, never on the packet fast path) but never exceeds it, so an
    /// indexed expiry in the future proves the entry is live.
    indexed_at: SimTime,
}

/// Outcome of charging a packet to a cached flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Within budget; packet is authorized.
    Ok,
    /// The byte budget `N` is exhausted; packet must be demoted.
    OverBudget,
}

/// The bounded flow cache.
///
/// `entries` uses the seeded deterministic hasher ([`DetHashMap`]): the
/// packet fast path hashes a [`FlowKey`] per lookup, and SipHash with a
/// random per-process seed is both slower and a determinism hazard.
/// Reclaim never scans `entries` — the victim comes from `by_expiry` — so
/// no behavior depends on hash iteration order; the fixed seed makes that
/// non-dependence hold by construction in every process.
///
/// The index is **lazy**: `charge` extends an entry's `ttl_expires`
/// without re-keying its `by_expiry` record (a per-packet `BTreeSet`
/// remove+insert churns B-tree nodes — measured ≈1 allocation per 7
/// packets on the `tva-node` fast path). Each record's time is
/// therefore a *lower bound* on the entry's true expiry; reclaim refreshes
/// stale records to their true expiry as it meets them. Every refresh is
/// paid for by at least one charge since the record was last keyed, so the
/// amortized cost stays O(1) — and the packet fast path (`get` + `charge`)
/// is pure arithmetic with zero allocations.
pub struct FlowTable {
    entries: DetHashMap<FlowKey, FlowEntry>,
    /// Reclaim index ordered by (indexed expiry, key).
    by_expiry: BTreeSet<(SimTime, FlowKey)>,
    max_entries: usize,
    /// Cumulative entries reclaimed to admit new flows.
    pub reclaims: u64,
    /// Cumulative admissions refused because every entry was still live.
    pub admission_failures: u64,
}

impl FlowTable {
    /// Creates a table bounded at `max_entries` records.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries > 0);
        FlowTable {
            entries: DetHashMap::default(),
            by_expiry: BTreeSet::new(),
            max_entries,
            reclaims: 0,
            admission_failures: 0,
        }
    }

    /// Looks up the entry for `flow`.
    pub fn get(&self, flow: FlowKey) -> Option<&FlowEntry> {
        self.entries.get(&flow)
    }

    /// Charges `len` bytes to the flow's entry at time `now`: updates the
    /// byte count and extends the ttl by the packet's time-equivalent value
    /// `len × T / N` (§3.6). Returns [`Charge::OverBudget`] without
    /// extending anything if the budget would be exceeded.
    ///
    /// This is the packet fast path: it never touches the reclaim index
    /// (the record keeps its now-stale, still-lower-bound time until
    /// reclaim refreshes it), so it performs no allocation.
    pub fn charge(&mut self, flow: FlowKey, len: u32, now: SimTime) -> Charge {
        let Some(entry) = self.entries.get_mut(&flow) else {
            return Charge::OverBudget; // caller must have created state
        };
        if entry.bytes_used + len as u64 > entry.grant.n.bytes() {
            return Charge::OverBudget;
        }
        entry.bytes_used += len as u64;
        let add = ttl_value(len, entry.grant);
        // ttl decrements as time passes: extend from max(now, old expiry).
        entry.ttl_expires = entry.ttl_expires.max(now) + add;
        Charge::Ok
    }

    /// Installs state for a newly validated flow, charging its first packet
    /// of `len` bytes. Fails (returns `false`) when the table is full of
    /// entries whose ttl has not yet reached zero, or when the capability's
    /// byte budget is already spent.
    ///
    /// Byte counts are charged against the **capability**, not the cache
    /// entry: replacing an entry with the *same* capability (e.g. an
    /// attacker cycling flow nonces to force the replace path) carries the
    /// spent bytes over, so nonce churn cannot launder the budget. Only a
    /// genuinely renewed capability (different value) starts a fresh
    /// budget.
    pub fn create(
        &mut self,
        flow: FlowKey,
        cap: CapValue,
        nonce: FlowNonce,
        grant: Grant,
        len: u32,
        now: SimTime,
    ) -> bool {
        let old = self.entries.get(&flow);
        let carried = old.filter(|old| old.cap == cap).map_or(0, |old| old.bytes_used);
        if carried + len as u64 > grant.n.bytes() {
            return false; // the capability's budget is spent
        }
        if let Some(old) = old {
            // Replacing our own old entry (e.g. renewed capability) is
            // always allowed and is not an eviction of another flow.
            self.by_expiry.remove(&(old.indexed_at, flow));
        } else if self.entries.len() >= self.max_entries {
            // Reclaim an expired entry if one exists; never evict live
            // state.
            if !self.reclaim_victim(now) {
                self.admission_failures += 1;
                return false;
            }
            self.reclaims += 1;
        }
        let ttl_expires = now + ttl_value(len, grant);
        self.entries.insert(
            flow,
            FlowEntry {
                cap,
                nonce,
                grant,
                bytes_used: carried + len as u64,
                ttl_expires,
                indexed_at: ttl_expires,
            },
        );
        self.by_expiry.insert((ttl_expires, flow));
        true
    }

    /// Removes one entry whose ttl has reached zero; `false` if every entry
    /// is live.
    ///
    /// Walks `by_expiry` from the oldest record: a record in the future
    /// proves its entry live (indexed times are lower bounds), so the walk
    /// stops there; a stale record — the entry was charged since it was
    /// keyed — is refreshed to the entry's true expiry and the walk
    /// continues. Each refresh strictly advances a record and is paid for
    /// by at least one intervening `charge`, so the amortized cost per
    /// packet stays constant.
    fn reclaim_victim(&mut self, now: SimTime) -> bool {
        while let Some(&(indexed, victim)) = self.by_expiry.first() {
            if indexed > now {
                return false; // oldest record is live ⇒ every entry is
            }
            self.by_expiry.pop_first();
            let Entry::Occupied(slot) = self.entries.entry(victim) else {
                unreachable!("index and table are in bijection");
            };
            if slot.get().ttl_expires <= now {
                slot.remove();
                return true;
            }
            let entry = slot.into_mut();
            entry.indexed_at = entry.ttl_expires;
            self.by_expiry.insert((entry.ttl_expires, victim));
        }
        false
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured record bound.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// A size estimate in bytes of the table's heap state: entries plus
    /// the reclaim index. An estimator, not an allocator measurement — used
    /// by the `statebound` experiment's memory-vs-flow-count curves
    /// alongside process RSS.
    pub fn state_bytes_estimate(&self) -> usize {
        let per_entry = std::mem::size_of::<FlowEntry>() + std::mem::size_of::<FlowKey>() + 16;
        let per_record = std::mem::size_of::<(SimTime, FlowKey)>() + 16;
        self.entries.len() * per_entry + self.by_expiry.len() * per_record
    }

    /// Iterates the live entries (cold path, for auditors tracking per-
    /// capability byte budgets across entry churn).
    pub fn iter_entries(&self) -> impl Iterator<Item = (&FlowKey, &FlowEntry)> {
        self.entries.iter()
    }

    /// Verifies the table's internal consistency (cold path; used by the
    /// `TVA_CHECK` runtime auditors and the bijection proptest):
    ///
    /// * the reclaim index and `entries` are in exact bijection — every
    ///   entry has exactly its `(indexed_at, key)` record and the index
    ///   holds nothing else (a desynchronized index means reclaim picks
    ///   phantom victims or live entries become unreclaimable);
    /// * every index record is a valid lower bound, `indexed_at ≤
    ///   ttl_expires` (an indexed time in the future must *prove* the entry
    ///   live, or reclaim's early stop would skip reclaimable state);
    /// * the record bound holds;
    /// * no entry's `bytes_used` exceeds its grant's `N` (§3.6: over-budget
    ///   packets are demoted before being charged).
    pub fn audit(&self) -> Result<(), String> {
        if self.entries.len() > self.max_entries {
            return Err(format!(
                "flowtable: {} entries exceed bound {}",
                self.entries.len(),
                self.max_entries
            ));
        }
        // Same lengths + every entry present ⇒ bijection (the set cannot
        // hold a duplicate key at a different time without the lengths
        // diverging, because each entry matches exactly one index record).
        if self.by_expiry.len() != self.entries.len() {
            return Err(format!(
                "flowtable: reclaim index has {} records, table has {}",
                self.by_expiry.len(),
                self.entries.len()
            ));
        }
        for (key, entry) in &self.entries {
            if entry.bytes_used > entry.grant.n.bytes() {
                return Err(format!(
                    "flowtable: entry {key:?} charged {} bytes over N={}",
                    entry.bytes_used,
                    entry.grant.n.bytes()
                ));
            }
            if !self.by_expiry.contains(&(entry.indexed_at, *key)) {
                return Err(format!(
                    "flowtable: entry {key:?} (indexed {:?}) missing from reclaim index",
                    entry.indexed_at
                ));
            }
            if entry.indexed_at > entry.ttl_expires {
                return Err(format!(
                    "flowtable: entry {key:?} indexed at {:?}, after its expiry {:?}",
                    entry.indexed_at, entry.ttl_expires
                ));
            }
        }
        Ok(())
    }
}

/// The time-equivalent value of `len` bytes under `grant`: `len × T / N`
/// seconds.
fn ttl_value(len: u32, grant: Grant) -> SimDuration {
    let n = grant.n.bytes().max(1);
    let t_ns = grant.t.secs() as u128 * 1_000_000_000;
    SimDuration::from_nanos((len as u128 * t_ns / n as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_wire::Addr;

    fn flow(i: u32) -> FlowKey {
        FlowKey::new(Addr(i), Addr(0x0A00_0001))
    }

    fn cap() -> CapValue {
        CapValue::new(1, 0xABCD)
    }

    fn grant_32kb_10s() -> Grant {
        Grant::from_parts(32, 10)
    }

    #[test]
    fn ttl_value_formula() {
        // 1024 bytes under 32KB/10s: 1024 × 10 / 32768 = 0.3125 s.
        let d = ttl_value(1024, grant_32kb_10s());
        assert_eq!(d.as_nanos(), 312_500_000);
    }

    #[test]
    fn create_and_charge_within_budget() {
        let mut t = FlowTable::new(10);
        let g = grant_32kb_10s();
        assert!(t.create(flow(1), cap(), FlowNonce::new(7), g, 1000, SimTime::ZERO));
        for _ in 0..31 {
            assert_eq!(t.charge(flow(1), 1000, SimTime::ZERO), Charge::Ok);
        }
        // 32 KB budget = 32768 bytes; 32 packets × 1000 = 32000 used; one
        // more would exceed.
        assert_eq!(t.charge(flow(1), 1000, SimTime::ZERO), Charge::OverBudget);
        assert_eq!(t.get(flow(1)).unwrap().bytes_used, 32_000);
    }

    #[test]
    fn live_entries_are_never_evicted() {
        let mut t = FlowTable::new(2);
        let g = grant_32kb_10s();
        let now = SimTime::ZERO;
        assert!(t.create(flow(1), cap(), FlowNonce::new(1), g, 10_000, now));
        assert!(t.create(flow(2), cap(), FlowNonce::new(2), g, 10_000, now));
        // Both entries have ~3 s of ttl; a third flow must be refused.
        assert!(!t.create(flow(3), cap(), FlowNonce::new(3), g, 1000, now));
        assert_eq!(t.admission_failures, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn expired_entries_are_reclaimed() {
        let mut t = FlowTable::new(2);
        let g = grant_32kb_10s();
        assert!(t.create(flow(1), cap(), FlowNonce::new(1), g, 1000, SimTime::ZERO));
        assert!(t.create(flow(2), cap(), FlowNonce::new(2), g, 1000, SimTime::ZERO));
        // 1000 bytes → ttl ≈ 0.305 s; at t = 1 s both are reclaimable.
        let later = SimTime::from_secs(1);
        assert!(t.create(flow(3), cap(), FlowNonce::new(3), g, 1000, later));
        assert_eq!(t.reclaims, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn replacing_own_entry_never_counts_as_eviction() {
        let mut t = FlowTable::new(1);
        let g = grant_32kb_10s();
        assert!(t.create(flow(1), cap(), FlowNonce::new(1), g, 1000, SimTime::ZERO));
        // Renewed capability (different value) for the same flow replaces
        // in place and restarts the budget.
        let cap2 = CapValue::new(2, 0x9999);
        assert!(t.create(flow(1), cap2, FlowNonce::new(2), g, 1000, SimTime::ZERO));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(flow(1)).unwrap().nonce, FlowNonce::new(2));
        assert_eq!(t.get(flow(1)).unwrap().bytes_used, 1000, "budget restarts");
        assert_eq!(t.reclaims, 0);
    }

    #[test]
    fn nonce_churn_cannot_launder_the_budget() {
        // An attacker resending the *same* capability under fresh nonces
        // forces the replace path every packet; the byte count must carry
        // over and trip N all the same.
        let mut t = FlowTable::new(4);
        let g = grant_32kb_10s(); // 32 KB
        let mut accepted = 0u64;
        for i in 0..100 {
            if t.create(flow(1), cap(), FlowNonce::new(i), g, 1000, SimTime::ZERO) {
                accepted += 1000;
            }
        }
        assert!(accepted <= g.n.bytes(), "laundered {accepted} bytes past N");
        // A genuinely renewed capability starts fresh.
        assert!(t.create(flow(1), CapValue::new(9, 0x42), FlowNonce::new(500), g, 1000, SimTime::ZERO));
    }

    #[test]
    fn charge_extends_ttl_from_now_when_idle() {
        let mut t = FlowTable::new(4);
        let g = grant_32kb_10s();
        t.create(flow(1), cap(), FlowNonce::new(1), g, 1000, SimTime::ZERO);
        let e1 = t.get(flow(1)).unwrap().ttl_expires;
        // Charge long after the ttl ran out: extension is from `now`, not
        // from the stale expiry (ttl cannot go negative).
        let now = SimTime::from_secs(5);
        t.charge(flow(1), 1000, now);
        let e2 = t.get(flow(1)).unwrap().ttl_expires;
        assert!(e2 > now && e2 < now + SimDuration::from_secs(1));
        assert!(e2 > e1);
    }

    #[test]
    fn slow_flow_needs_no_state_for_more_than_its_packets() {
        // A flow sending exactly at N/T keeps its ttl roughly constant: each
        // packet adds exactly the inter-packet gap.
        let mut t = FlowTable::new(4);
        let g = grant_32kb_10s(); // N/T = 3276.8 B/s
        let mut now = SimTime::ZERO;
        t.create(flow(1), cap(), FlowNonce::new(1), g, 1000, now);
        let gap = SimDuration::from_nanos(305_175_781); // 1000 B at N/T
        for _ in 0..20 {
            now += gap;
            t.charge(flow(1), 1000, now);
        }
        let slack = t.get(flow(1)).unwrap().ttl_expires.since(now);
        assert!(
            slack < SimDuration::from_secs(1),
            "ttl stays ≈ one packet's worth for an at-rate flow, got {slack:?}"
        );
    }

    #[test]
    fn churn_at_capacity_reclaims_only_expired_and_keeps_the_index_bijective() {
        // An identity-churning attacker (`Cadence::Rotating`) plants a fresh
        // flow per rotation against a full table. Drive rapid create/expire
        // cycles and check, at every step, that the `entries` ↔ `by_expiry`
        // invariant the reclaim path depends on never desynchronizes.
        let mut t = FlowTable::new(8);
        let g = grant_32kb_10s();
        let mut now = SimTime::ZERO;
        let mut created = 0u64;
        for round in 0u32..50 {
            for i in 0..12 {
                // 1000 B under 32 KB / 10 s → ttl ≈ 0.305 s: by the next
                // round (+400 ms) this round's entries are all reclaimable.
                if t.create(flow(round * 12 + i), cap(), FlowNonce::new(i.into()), g, 1000, now) {
                    created += 1;
                }
                t.audit().expect("bijection and bound hold through churn");
                assert!(t.len() <= t.capacity(), "never overfull");
            }
            now += SimDuration::from_millis(400);
        }
        // Every round admits exactly 8 (the capacity): the round's own
        // entries are live, so its last 4 arrivals fail — live entries are
        // never evicted — and from round 1 on each admission reclaims one
        // of the previous round's expired entries.
        assert_eq!(t.len(), t.capacity(), "table stays full under churn");
        assert_eq!(t.admission_failures, 50 * 4, "live entries are never evicted");
        assert_eq!(created, 50 * 8, "capacity-bounded admissions per round");
        assert_eq!(t.reclaims, 49 * 8, "one reclaim per post-warmup admission");
    }

    #[test]
    fn interleaved_charges_keep_reclaim_order_honest_at_capacity() {
        // Charges move entries around inside `by_expiry` (ttl extension);
        // interleave them with reclaim-driven creates and verify the index
        // still tracks exactly the live set — and that a charged (live)
        // entry is never the reclaim victim while an expired one exists.
        let mut t = FlowTable::new(4);
        let g = grant_32kb_10s();
        let mut now = SimTime::ZERO;
        for i in 0..4 {
            assert!(t.create(flow(i), cap(), FlowNonce::new(i.into()), g, 1000, now));
        }
        // 25 steps keep flow 0 inside its 32 KB budget (26 × 1000 B).
        for step in 0u32..25 {
            now += SimDuration::from_millis(250);
            // Keep flow 0 alive forever by re-charging it...
            assert_eq!(t.charge(flow(0), 1000, now), Charge::Ok);
            t.audit().expect("charge keeps the index consistent");
            // ...while fresh identities churn through the other slots.
            let id = 100 + step;
            if t.create(flow(id), cap(), FlowNonce::new(id.into()), g, 1000, now) {
                t.audit().expect("create keeps the index consistent");
            }
            assert!(t.get(flow(0)).is_some(), "live, charged flow must survive churn");
        }
        assert!(t.reclaims > 0, "expired churn entries were reclaimed");
    }

    // ---- Satellite: same-instant churn against the lazy index ---------

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The PR 8 lazy-index change weakened the audit from
        /// "indexed_at == ttl_expires" to "indexed_at ≤ ttl_expires".
        /// Interleave charge / create-with-reclaim / replace (forget) at
        /// *identical* SimTimes — the regime where a lazily refreshed
        /// record, a same-instant expiry, and a same-instant re-create can
        /// disagree by zero nanoseconds — and prove the weakened invariant
        /// plus the by_expiry bijection still hold after every single op.
        #[test]
        fn same_instant_churn_keeps_lazy_index_sound(
            ops in proptest::collection::vec(
                (0u8..3, 0u32..6, prop_oneof![Just(0u64), Just(0), Just(1), Just(400)]),
                1..120,
            ),
        ) {
            let mut t = FlowTable::new(3);
            let g = Grant::from_parts(32, 10);
            let mut now = SimTime::ZERO;
            let mut nonce = 0u64;
            for (kind, id, dt_ms) in ops {
                // dt is usually 0: most ops land at the same instant.
                now += SimDuration::from_millis(dt_ms);
                nonce += 1;
                match kind {
                    // Charge whatever entry exists for this id (ttl
                    // extension without index refresh).
                    0 => {
                        let _ = t.charge(flow(id), 500, now);
                    }
                    // Create under a shared capability (reclaim path when
                    // full; carries bytes on same-cap replacement).
                    1 => {
                        let _ = t.create(
                            flow(id),
                            CapValue::new(1, 0xABCD),
                            FlowNonce::new(nonce),
                            g,
                            500,
                            now,
                        );
                    }
                    // "Forget": replace with a fresh capability, dropping
                    // the old record at the same instant.
                    _ => {
                        let _ = t.create(
                            flow(id),
                            CapValue::new(2, nonce),
                            FlowNonce::new(nonce),
                            g,
                            500,
                            now,
                        );
                    }
                }
                // The audit asserts indexed_at ≤ ttl_expires and the exact
                // index bijection — the full weakened-form contract.
                if let Err(e) = t.audit() {
                    panic!("audit failed after op ({kind}, {id}, {dt_ms}): {e}");
                }
            }
        }
    }
}
