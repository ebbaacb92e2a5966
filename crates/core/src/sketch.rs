//! Constant-memory request-channel policing: a count-min sketch rate
//! limiter (ROADMAP item 4, `RequestLimiter::Sketched`).
//!
//! The exact request scheduler fair-queues by path identifier, which costs
//! one DRR queue per distinct key — bounded, but the bound is the key-table
//! size an operator must provision. The sketch limiter replaces the key
//! table with a fixed `depth × width` array of byte counters: estimating a
//! path's recent bytes costs `depth` hashes, admission compares the
//! estimate to a per-path budget, and memory never grows no matter how
//! many identifiers an attacker manufactures.
//!
//! Properties the rest of the system relies on:
//!
//! * **One-sided error** — `estimate(k) ≥ true count(k)` always (count-min
//!   with conservative update can only over-estimate). A colluding path
//!   can therefore never *evade* its budget; collisions can only cause
//!   over-policing, and over-budget requests are demoted to legacy
//!   priority rather than dropped (§3.8's demote-don't-drop), so a
//!   collision costs a legitimate request its priority, not its delivery.
//! * **Determinism** — row hashes mix the key with [`splitmix64`]-derived
//!   per-row seeds from the router's `secret_seed`; no process-dependent
//!   state, so sharded runs stay byte-identical.
//! * **Decay** — every `decay` epoch all counters halve (count-min's
//!   standard aging), bounding how long a burst shadows a path without
//!   per-key timestamps.
//!
//! Under `TVA_CHECK=1` the limiter keeps an exact shadow table of true
//! per-key counts (unbounded, check-only memory) and
//! [`SketchLimiter::audit`] verifies the one-sided-error claim for every
//! key ever charged.

use tva_sim::{splitmix64, SimDuration, SimTime};
use tva_wire::DetHashMap;

/// Counter rows in the sketch (number of independent hashes).
pub const SKETCH_DEPTH: usize = 4;
/// Counters per row. Power of two so the row hash masks instead of mods.
pub const SKETCH_WIDTH: usize = 1024;

/// Stream salt separating sketch row seeds from every other consumer of
/// the router's `secret_seed`.
const SKETCH_STREAM: u64 = 0x5CE7_C4C0_0A7E_57A7;

/// A count-min sketch over `u64` keys with conservative update.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// `SKETCH_DEPTH` rows of `SKETCH_WIDTH` counters, flattened.
    counters: Vec<u64>,
    seeds: [u64; SKETCH_DEPTH],
}

impl CountMinSketch {
    /// Creates an empty sketch whose row hashes are derived from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut seeds = [0u64; SKETCH_DEPTH];
        for (i, s) in seeds.iter_mut().enumerate() {
            *s = splitmix64(seed ^ SKETCH_STREAM ^ splitmix64(i as u64 + 1));
        }
        CountMinSketch { counters: vec![0; SKETCH_DEPTH * SKETCH_WIDTH], seeds }
    }

    #[inline]
    fn slot(&self, row: usize, key: u64) -> usize {
        let h = splitmix64(key ^ self.seeds[row]);
        row * SKETCH_WIDTH + (h as usize & (SKETCH_WIDTH - 1))
    }

    /// The current estimate for `key`: the minimum over its row counters.
    /// Never less than the sum of amounts added for `key` since the last
    /// decay halvings (one-sided error).
    #[inline]
    pub fn estimate(&self, key: u64) -> u64 {
        let mut est = u64::MAX;
        for row in 0..SKETCH_DEPTH {
            est = est.min(self.counters[self.slot(row, key)]);
        }
        est
    }

    /// Adds `amount` to `key` with conservative update: each row counter is
    /// raised only as far as `estimate + amount`, which keeps the estimate
    /// one-sided while collisions inflate other keys as little as possible.
    /// Returns the new estimate.
    #[inline]
    pub fn add(&mut self, key: u64, amount: u64) -> u64 {
        let target = self.estimate(key).saturating_add(amount);
        let mut est = u64::MAX;
        for row in 0..SKETCH_DEPTH {
            let slot = self.slot(row, key);
            // Conservative update: raise each row only as far as the
            // estimate requires, never lower it.
            let c = self.counters[slot].max(target);
            self.counters[slot] = c;
            est = est.min(c);
        }
        est
    }

    /// Halves every counter (decay epoch).
    pub fn halve(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
    }

    /// Fraction of counters that are non-zero (occupancy gauge).
    pub fn occupancy(&self) -> f64 {
        let nz = self.counters.iter().filter(|&&c| c != 0).count();
        nz as f64 / self.counters.len() as f64
    }

    /// Fixed memory footprint of the counter array, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
    }
}

/// Statistics a [`SketchLimiter`] accumulates.
#[derive(Debug, Default, Clone)]
pub struct SketchStats {
    /// Requests admitted within budget.
    pub admitted: u64,
    /// Requests refused (estimate over budget) — the caller demotes these.
    pub over_budget: u64,
    /// Decay epochs applied.
    pub decays: u64,
}

/// The request-channel limiter: a [`CountMinSketch`] of recent bytes per
/// path identifier, a per-path budget, and periodic halving decay.
pub struct SketchLimiter {
    sketch: CountMinSketch,
    budget_bytes: u64,
    decay: SimDuration,
    next_decay: SimTime,
    /// Counters.
    pub stats: SketchStats,
    /// Exact per-key byte counts, halved in lockstep with the sketch;
    /// present only under `TVA_CHECK=1` (check-only memory, unbounded on
    /// purpose — it is the oracle the sketch is audited against).
    shadow: Option<DetHashMap<u64, u64>>,
}

impl std::fmt::Debug for SketchLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchLimiter")
            .field("budget_bytes", &self.budget_bytes)
            .field("decay", &self.decay)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

fn check_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| tva_sim::env_flag("TVA_CHECK"))
}

impl SketchLimiter {
    /// Creates a limiter with `budget_bytes` per path per `decay_ms` epoch,
    /// hashing with seeds derived from `seed`.
    pub fn new(seed: u64, budget_bytes: u64, decay_ms: u64) -> Self {
        let decay = SimDuration::from_millis(decay_ms.max(1));
        SketchLimiter {
            sketch: CountMinSketch::new(seed),
            budget_bytes: budget_bytes.max(1),
            decay,
            next_decay: SimTime::ZERO + decay,
            stats: SketchStats::default(),
            shadow: check_enabled().then(DetHashMap::default),
        }
    }

    /// Applies any decay epochs that have elapsed by `now`.
    fn advance(&mut self, now: SimTime) {
        while now >= self.next_decay {
            self.sketch.halve();
            if let Some(shadow) = &mut self.shadow {
                shadow.values_mut().for_each(|v| *v >>= 1);
            }
            self.next_decay += self.decay;
            self.stats.decays += 1;
        }
    }

    /// Charges `len` bytes to `key` at `now` and reports whether the path
    /// is within budget. The charge lands either way: an over-budget path
    /// keeps accumulating (its requests are demoted, and its estimate must
    /// keep covering its true send count for the audit's one-sided bound).
    pub fn admit(&mut self, key: u64, len: u32, now: SimTime) -> bool {
        self.advance(now);
        let est = self.sketch.add(key, len as u64);
        if let Some(shadow) = &mut self.shadow {
            *shadow.entry(key).or_insert(0) += len as u64;
        }
        if est <= self.budget_bytes {
            self.stats.admitted += 1;
            true
        } else {
            self.stats.over_budget += 1;
            false
        }
    }

    /// Sketch occupancy (fraction of non-zero counters).
    pub fn occupancy(&self) -> f64 {
        self.sketch.occupancy()
    }

    /// Mean over-estimate in bytes across shadowed keys (`None` when the
    /// exact shadow is off or empty) — the sketch-error gauge.
    pub fn mean_overestimate(&self) -> Option<f64> {
        let shadow = self.shadow.as_ref()?;
        if shadow.is_empty() {
            return None;
        }
        let total: u64 =
            shadow.iter().map(|(k, &t)| self.sketch.estimate(*k).saturating_sub(t)).sum();
        Some(total as f64 / shadow.len() as f64)
    }

    /// Fixed memory footprint of the sketch (the shadow is check-only and
    /// excluded by design).
    pub fn state_bytes(&self) -> usize {
        self.sketch.state_bytes()
    }

    /// Verifies the one-sided error bound against the exact shadow: for
    /// every key ever charged, `estimate(key) ≥ true count`. A violation
    /// means a path evaded its budget — the property that makes sketched
    /// policing safe to substitute for the exact key table. No-op without
    /// `TVA_CHECK=1`.
    pub fn audit(&self) -> Result<(), String> {
        let Some(shadow) = &self.shadow else { return Ok(()) };
        for (key, &true_count) in shadow {
            let est = self.sketch.estimate(*key);
            if est < true_count {
                return Err(format!(
                    "sketch: estimate {est} for key {key:#x} below true count {true_count} \
                     (one-sided error bound violated)"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_dominates_true_count() {
        let mut s = CountMinSketch::new(7);
        let mut truth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        // Far more keys than SKETCH_WIDTH forces collisions in every row.
        let mut x = 1u64;
        for i in 0..20_000u64 {
            x = splitmix64(x);
            let key = x % 5000;
            let amt = (i % 700) + 1;
            s.add(key, amt);
            *truth.entry(key).or_insert(0) += amt;
        }
        for (key, &t) in &truth {
            assert!(s.estimate(*key) >= t, "estimate below truth for {key}");
        }
    }

    #[test]
    fn conservative_update_beats_plain_update_on_light_keys() {
        // A heavy key hammers the sketch; a light key sharing slots should
        // see bounded inflation with conservative update (its estimate only
        // rises when *all* its rows collide with heavy traffic).
        let mut s = CountMinSketch::new(3);
        for _ in 0..1000 {
            s.add(42, 1000);
        }
        s.add(7, 10);
        // With depth 4 over width 1024 the chance all four of key 7's rows
        // collide with key 42 is negligible for this fixed seed.
        assert!(s.estimate(7) < 1000, "light key inflated to {}", s.estimate(7));
    }

    #[test]
    fn halving_decays_counters() {
        let mut s = CountMinSketch::new(1);
        s.add(9, 1000);
        s.halve();
        assert_eq!(s.estimate(9), 500);
        s.halve();
        assert_eq!(s.estimate(9), 250);
    }

    #[test]
    fn occupancy_grows_with_keys_and_caps_at_one() {
        let mut s = CountMinSketch::new(2);
        assert_eq!(s.occupancy(), 0.0);
        for k in 0..100u64 {
            s.add(k, 1);
        }
        let occ = s.occupancy();
        assert!(occ > 0.0 && occ <= 1.0);
    }

    #[test]
    fn limiter_demotes_over_budget_and_decays_back() {
        let mut l = SketchLimiter::new(5, 1000, 100);
        let now = SimTime::ZERO;
        assert!(l.admit(1, 600, now), "first charge within budget");
        assert!(!l.admit(1, 600, now), "second charge exceeds 1000-byte budget");
        assert_eq!(l.stats.over_budget, 1);
        // Two decay epochs halve 1200 → 300: the path is forgiven.
        let later = SimTime::ZERO + SimDuration::from_millis(250);
        assert!(l.admit(1, 100, later));
        assert_eq!(l.stats.decays, 2);
    }

    #[test]
    fn distinct_paths_do_not_share_budget() {
        let mut l = SketchLimiter::new(5, 1000, 100);
        let now = SimTime::ZERO;
        for key in 0..50u64 {
            assert!(l.admit(key, 900, now), "path {key} must have its own budget");
        }
    }

    #[test]
    fn limiter_memory_is_constant() {
        let mut l = SketchLimiter::new(5, 1000, 100);
        let before = l.state_bytes();
        for key in 0..100_000u64 {
            l.admit(key, 100, SimTime::ZERO);
        }
        assert_eq!(l.state_bytes(), before, "sketch memory must not grow with keys");
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = SketchLimiter::new(99, 4096, 250);
        let mut b = SketchLimiter::new(99, 4096, 250);
        let mut t = SimTime::ZERO;
        for i in 0..5000u64 {
            t += SimDuration::from_micros(137);
            let key = splitmix64(i) % 300;
            assert_eq!(a.admit(key, 64, t), b.admit(key, 64, t));
        }
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn audit_accepts_honest_sketch() {
        // Shadow is env-gated; construct one by hand for the test.
        let mut l = SketchLimiter::new(5, 1 << 20, 1000);
        l.shadow = Some(DetHashMap::default());
        let mut t = SimTime::ZERO;
        for i in 0..10_000u64 {
            t += SimDuration::from_micros(53);
            l.admit(splitmix64(i) % 4000, (i % 900) as u32 + 1, t);
        }
        l.audit().expect("estimate ≥ true count must hold through decay");
        assert!(l.mean_overestimate().is_some());
    }

    #[test]
    fn audit_catches_an_undercounting_sketch() {
        let mut l = SketchLimiter::new(5, 1 << 20, 1000);
        l.shadow = Some(DetHashMap::default());
        l.admit(77, 500, SimTime::ZERO);
        // Sabotage: zero the counters without touching the shadow (models
        // any bug that loses charged bytes).
        l.sketch = CountMinSketch::new(5);
        assert!(l.audit().is_err(), "lost counts must fail the audit");
    }
}
