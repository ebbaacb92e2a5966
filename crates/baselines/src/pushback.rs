//! Pushback / Aggregate-based Congestion Control (Mahajan et al., CCR 2002),
//! as used in the TVA paper's evaluation:
//!
//! > "Pushback is implemented as described in \[16\]. It recursively pushes
//! > destination-based network filters backwards across the incoming link
//! > that contributes most of the flood."
//!
//! Implementation scope (recorded in DESIGN.md): in the Figure 7 dumbbell
//! the only congested element is the access router's bottleneck egress, and
//! that router is *directly attached* to every source link — so recursive
//! propagation terminates immediately at the local router. We therefore
//! implement local ACC faithfully (periodic review, destination-address
//! aggregates, per-incoming-link max-min rate limits sized to drive the
//! aggregate to the target rate) and omit the inter-router protocol, which
//! would be a no-op on every evaluated topology.
//!
//! Identification follows ACC's contribution logic: an incoming link is an
//! identifiable culprit only while it contributes more than a threshold
//! fraction of the offending aggregate (1/40). With few attackers
//! each flooding link stands out and is clamped, protecting legitimate
//! flows. With many attackers *"each incoming link contributes a small
//! fraction of the overall attack"* (§5.1) — no link crosses the threshold,
//! so the router can only rate-limit the aggregate as a whole, and
//! legitimate traffic inside the aggregate shares the indiscriminate drops.
//! That is exactly Figure 8's pushback knee.

use tva_sim::{ChannelId, Ctx, Node, Pkt, SimDuration, SimTime, TokenBucket};
use tva_wire::{Addr, DetHashMap};

/// Timer token for the periodic review.
pub const TOKEN_REVIEW: u64 = 77;

/// Review period.
const INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Declare congestion when an egress's offered rate exceeds this multiple
/// of its capacity.
const TRIGGER_UTILIZATION: f64 = 0.98;
/// Rate-limit the offending aggregate down to this multiple of capacity
/// (leaving headroom for the rest).
const TARGET_UTILIZATION: f64 = 0.95;
/// Release filters after this many consecutive calm reviews.
const CALM_REVIEWS_TO_RELEASE: u32 = 3;
/// Burst allowance of installed rate limiters, bytes.
const FILTER_BURST_BYTES: u64 = 4_000;
/// A link is an identifiable culprit only while it contributes more than
/// this fraction of the offending aggregate.
const CONTRIBUTION_THRESHOLD: f64 = 1.0 / 40.0;

/// An egress link this router manages (configured after topology build).
#[derive(Debug, Clone, Copy)]
pub struct EgressSpec {
    /// The channel.
    pub channel: ChannelId,
    /// Its capacity in bits/second.
    pub capacity_bps: u64,
}

tva_sim::counters! {
    /// Counters. The installed-filter count goes up and down, so it is a
    /// gauge: [`PushbackRouterNode::active_filters`].
    #[derive(Debug, Default, Clone)]
    pub struct PushbackStats {
        /// Packets dropped by installed filters.
        pub filtered_drops: u64,
        /// Reviews that found congestion.
        pub congested_reviews: u64,
    }
}

/// The pushback router node.
#[derive(Default)]
pub struct PushbackRouterNode {
    /// Egress links to manage; set via [`Self::manage`] after topology
    /// construction (channel ids are only known then).
    egresses: Vec<EgressSpec>,
    /// Offered bytes per (egress, aggregate) this window.
    agg_window: DetHashMap<(ChannelId, Addr), u64>,
    /// Offered bytes per (ingress, aggregate) this window.
    ingress_window: DetHashMap<(ChannelId, Addr), u64>,
    /// Installed per-link rate limiters keyed by (ingress, aggregate).
    filters: DetHashMap<(ChannelId, Addr), TokenBucket>,
    /// Indiscriminate aggregate limiters (culprits unidentifiable).
    agg_filters: DetHashMap<Addr, TokenBucket>,
    /// Consecutive calm reviews per egress.
    calm: DetHashMap<ChannelId, u32>,
    started: bool,
    /// Counters.
    pub stats: PushbackStats,
}

impl PushbackRouterNode {
    /// Creates a pushback router. Call [`Self::manage`] for each egress
    /// link once channel ids exist, then kick the node with
    /// [`TOKEN_REVIEW`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Filters currently installed (per-link and aggregate).
    pub(crate) fn active_filters(&self) -> usize {
        self.filters.len() + self.agg_filters.len()
    }

    /// Registers an egress link for congestion management.
    pub fn manage(&mut self, spec: EgressSpec) {
        self.egresses.push(spec);
    }

    /// Max-min fair share λ such that Σ min(dᵢ, λ) = target (bytes/sec).
    fn max_min_share(demands: &[f64], target: f64) -> f64 {
        let mut ds: Vec<f64> = demands.to_vec();
        ds.sort_by(|a, b| a.partial_cmp(b).expect("finite demands"));
        let mut remaining = target;
        let mut left = ds.len();
        for (i, &d) in ds.iter().enumerate() {
            let share = remaining / left as f64;
            if d <= share {
                remaining -= d;
                left -= 1;
            } else {
                // Everyone from i on gets `share`.
                let _ = i;
                return share;
            }
        }
        // Demand sum below target: unconstrained.
        f64::INFINITY
    }

    fn review(&mut self, now: SimTime) {
        let secs = INTERVAL.as_secs_f64();
        for spec in self.egresses.clone() {
            let offered: u64 = self
                .agg_window
                .iter()
                .filter(|((e, _), _)| *e == spec.channel)
                .map(|(_, b)| *b)
                .sum();
            let capacity_bytes = spec.capacity_bps as f64 / 8.0 * secs;
            if (offered as f64) < capacity_bytes * TRIGGER_UTILIZATION {
                // Calm: count toward release.
                let calm = self.calm.entry(spec.channel).or_insert(0);
                *calm += 1;
                if *calm >= CALM_REVIEWS_TO_RELEASE {
                    // Gradual release: double every limit; a filter whose
                    // limit exceeds the link is pointless and is removed.
                    let link_rate = spec.capacity_bps / 8;
                    for f in self.filters.values_mut().chain(self.agg_filters.values_mut()) {
                        f.double_rate();
                    }
                    self.filters.retain(|_, f| f.rate_bytes_per_sec() <= link_rate);
                    self.agg_filters.retain(|_, f| f.rate_bytes_per_sec() <= link_rate);
                }
                continue;
            }
            self.calm.insert(spec.channel, 0);
            self.stats.congested_reviews += 1;

            // The offending aggregate: the destination contributing most
            // offered bytes on this egress. Ties break on the address, not
            // on HashMap iteration order — equal-rate aggregates (e.g. a
            // colluder ring spraying its members evenly) must pick the same
            // victim on every run.
            let Some((&(_, agg), _)) = self
                .agg_window
                .iter()
                .filter(|((e, _), _)| *e == spec.channel)
                .max_by_key(|(&(_, a), &b)| (b, a))
            else {
                continue;
            };

            // Per-ingress demands for the aggregate (bytes/sec), in ingress
            // order: the `f64` sums below depend on the order they add in.
            let mut demands: Vec<(ChannelId, f64)> = self
                .ingress_window
                .iter()
                .filter(|((_, d), _)| *d == agg)
                .map(|((ing, _), b)| (*ing, *b as f64 / secs))
                .collect();
            demands.sort_unstable_by_key(|&(ing, _)| ing);
            if demands.is_empty() {
                continue;
            }
            let agg_rate: f64 = demands.iter().map(|(_, d)| d).sum();
            let non_agg: u64 = self
                .agg_window
                .iter()
                .filter(|((e, d), _)| *e == spec.channel && *d != agg)
                .map(|(_, b)| *b)
                .sum();
            let target = (spec.capacity_bps as f64 / 8.0) * TARGET_UTILIZATION
                - non_agg as f64 / secs;
            let target = target.max(spec.capacity_bps as f64 / 80.0); // floor at 10%

            // Culprit identification (ACC): links contributing more than
            // the threshold fraction of the aggregate.
            let is_culprit = |d: f64| d > agg_rate * CONTRIBUTION_THRESHOLD;
            let culprits: Vec<f64> =
                demands.iter().map(|&(_, d)| d).filter(|&d| is_culprit(d)).collect();
            let culprit_rate: f64 = culprits.iter().sum();
            let innocent_rate = agg_rate - culprit_rate;

            if !culprits.is_empty() && culprit_rate >= (agg_rate - target).max(0.0) {
                // Cutting the culprits suffices: max-min share the budget
                // left after innocents among the culprit links.
                self.agg_filters.remove(&agg);
                let culprit_budget = (target - innocent_rate).max(target * 0.05);
                let lambda = Self::max_min_share(&culprits, culprit_budget);
                for (ing, demand) in demands {
                    let key = (ing, agg);
                    if is_culprit(demand) && demand > lambda {
                        self.filters.insert(
                            key,
                            TokenBucket::new(
                                lambda.max(1.0) as u64,
                                FILTER_BURST_BYTES,
                            ),
                        );
                    } else {
                        self.filters.remove(&key);
                    }
                }
            } else {
                // No identifiable culprits ("each incoming link contributes
                // a small fraction of the overall attack"): rate-limit the
                // whole aggregate indiscriminately.
                self.filters.retain(|&(_, d), _| d != agg);
                self.agg_filters.insert(
                    agg,
                    TokenBucket::new(target.max(1.0) as u64, FILTER_BURST_BYTES),
                );
            }
        }
        self.agg_window.clear();
        self.ingress_window.clear();
        let _ = now;
    }
}

impl tva_obs::Observe for PushbackRouterNode {
    fn observe(&self, prefix: &str, reg: &mut tva_obs::Registry) {
        reg.set_counters(prefix, &self.stats);
        reg.set_gauge(&format!("{prefix}.active_filters"), self.active_filters() as f64);
    }
}

impl Node for PushbackRouterNode {
    fn on_packet(&mut self, pkt: Pkt, from: ChannelId, ctx: &mut dyn Ctx) {
        let now = ctx.now();
        let len = pkt.wire_len();
        if let Some(filter) = self.filters.get_mut(&(from, pkt.dst)) {
            if !filter.try_consume(len, now) {
                self.stats.filtered_drops += 1;
                return;
            }
        }
        if let Some(filter) = self.agg_filters.get_mut(&pkt.dst) {
            if !filter.try_consume(len, now) {
                self.stats.filtered_drops += 1;
                return;
            }
        }
        // Accounting measures *surviving* traffic: in distributed pushback
        // the filters live at upstream routers, so the congested router
        // observes only what they let through. This is what makes pushback
        // oscillate — a becalmed link loosens its filters and the flood
        // surges back (Mahajan et al. §5).
        if let Some(egress) = ctx.route(pkt.dst) {
            *self.agg_window.entry((egress, pkt.dst)).or_insert(0) += len as u64;
            *self.ingress_window.entry((from, pkt.dst)).or_insert(0) += len as u64;
        }
        ctx.send(pkt);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        if token != TOKEN_REVIEW {
            return;
        }
        if self.started {
            self.review(ctx.now());
        }
        self.started = true;
        ctx.set_timer(INTERVAL, TOKEN_REVIEW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_min_share_math() {
        // Demands 0.5×10 + 1.0×10 against target 9.5: λ solves
        // Σ min(dᵢ, λ) = 9.5. Since λ < 0.5, all twenty links are capped:
        // 20λ = 9.5 → λ = 0.475.
        let mut demands = vec![0.5; 10];
        demands.extend(vec![1.0; 10]);
        let l = PushbackRouterNode::max_min_share(&demands, 9.5);
        assert!((l - 0.475).abs() < 1e-9, "λ = {l}");
        // Plenty of capacity: unconstrained.
        let l = PushbackRouterNode::max_min_share(&[0.1, 0.2], 10.0);
        assert!(l.is_infinite());
        // Single huge demand: gets the whole target.
        let l = PushbackRouterNode::max_min_share(&[100.0], 5.0);
        assert!((l - 5.0).abs() < 1e-9);
    }

    /// One ingress sends 2^53 bytes and sixteen send one byte each: summed
    /// from the large one, every single byte rounds away, but summed with
    /// two or more small ones first, they count. The demands add in ingress
    /// order, so both insertion orders install the same filter, sized as if
    /// the innocents sent nothing.
    #[test]
    fn filters_do_not_depend_on_window_insertion_order() {
        let (egress, victim) = (ChannelId(100), Addr(7));
        let filters = |ingresses: Vec<usize>| {
            let mut r = PushbackRouterNode::new();
            r.manage(EgressSpec { channel: egress, capacity_bps: 8_000_000 });
            for i in ingresses {
                let bytes = if i == 0 { 1u64 << 53 } else { 1 };
                *r.agg_window.entry((egress, victim)).or_insert(0) += bytes;
                r.ingress_window.insert((ChannelId(i), victim), bytes);
            }
            r.review(SimTime::from_secs(1));
            let mut f: Vec<_> = r.filters.iter().map(|(k, b)| (*k, b.rate_bytes_per_sec())).collect();
            f.sort_unstable();
            (f, r.agg_filters.len())
        };
        let forward = filters((0..=16).collect());
        assert_eq!(forward, filters((0..=16).rev().collect()));
        assert_eq!(forward, (vec![((ChannelId(0), victim), 950_000)], 0));
    }

    #[test]
    fn many_attackers_drive_share_below_user_needs() {
        // The Figure 8 knee: with 100 attackers at 1.0 and 10 users at 0.5
        // against 9.5 units, λ ≈ 0.086 — below what a user needs.
        let mut demands = vec![0.5; 10];
        demands.extend(vec![1.0; 100]);
        let l = PushbackRouterNode::max_min_share(&demands, 9.5);
        assert!(l < 0.1, "λ = {l}");
    }
}
