//! Structural audits over the paused simulator: queue accounting, flow
//! table integrity, and TVA protocol soundness.
//!
//! Run between `run_until` steps (the stepped driver pauses every
//! `AUDIT_INTERVAL` of simulated time), so state-exhaustion and
//! ledger-drift bugs are caught *while the run is in the offending state*,
//! not just if they happen to persist to the end.

use std::any::Any;

use tva_core::{TvaRouterNode, TvaScheduler};
use tva_sim::{ChannelId, NodeId, Simulator};
use tva_wire::{CapValue, DetHashMap, FlowKey};

use crate::{Violation, MAX_VIOLATIONS};

/// Cross-snapshot state for the per-capability byte-budget check.
///
/// The flow table itself guarantees `bytes_used ≤ N` *per entry*; the
/// laundering hazard is entry churn — replace an entry and the counter
/// could restart. The table's `create` deliberately carries `bytes_used`
/// over when the capability is unchanged (§3.6's 2N argument); this ledger
/// verifies that from the outside by asserting the counter never moves
/// backwards while the same capability occupies a flow's slot.
#[derive(Default)]
struct CapLedger {
    /// `(node, flow)` → the capability occupying the slot, bytes charged
    /// in completed earlier lives of the entry (reclaim/recreate cycles),
    /// and the high-water byte counter of the current life.
    seen: DetHashMap<(usize, FlowKey), CapUse>,
}

#[derive(Clone, Copy)]
struct CapUse {
    cap: CapValue,
    base: u64,
    last: u64,
}

/// The structural auditor: owns the capability ledger and accumulates
/// violations across audit passes.
#[derive(Default)]
pub(crate) struct StructuralAuditor {
    ledger: CapLedger,
    violations: Vec<Violation>,
    passes: u64,
}

impl StructuralAuditor {
    fn violation(&mut self, sim: &Simulator, invariant: &'static str, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { time: sim.now(), invariant, detail });
        }
    }

    /// Audit passes performed so far.
    pub(crate) fn passes(&self) -> u64 {
        self.passes
    }

    /// Runs one full structural audit pass.
    pub(crate) fn step(&mut self, sim: &Simulator) {
        self.passes += 1;
        if let Err(e) = sim.audit_channels() {
            self.violation(sim, "queue-accounting", e);
        }
        for n in 0..sim.node_count() {
            let Some(node) = sim.try_node::<TvaRouterNode>(NodeId(n)) else { continue };
            let router = &node.router;
            if let Err(e) = router.table().audit() {
                self.violation(sim, "flow-table", format!("node {n}: {e}"));
            }
            self.audit_cap_budgets(sim, n, node);
            self.audit_validation_coverage(sim, n, node);
        }
    }

    /// Per-capability byte bound (§3.6): bytes forwarded under one
    /// capability may total at most `2N` — up to `N` charged by a live
    /// entry, plus up to `N` more after the entry's ttl ran out, it was
    /// reclaimed, and the still-unexpired capability re-validated into a
    /// fresh entry. The ledger accumulates the counter across those
    /// reclaim/recreate resets (a decrease for the same capability marks a
    /// reset) and flags any total beyond `2N`. Nonce churn must *not*
    /// reset the counter (`create` carries bytes over for an unchanged
    /// capability), so a laundering bug shows up here as the accumulated
    /// total crossing the bound.
    fn audit_cap_budgets(&mut self, sim: &Simulator, n: usize, node: &TvaRouterNode) {
        let mut over: Vec<String> = Vec::new();
        for (flow, entry) in node.router.table().iter_entries() {
            let (cap, bytes_used) = (entry.cap, entry.bytes_used);
            let slot = self
                .ledger
                .seen
                .entry((n, *flow))
                .or_insert(CapUse { cap, base: 0, last: 0 });
            if slot.cap == cap {
                if bytes_used < slot.last {
                    // Entry was reclaimed and recreated: bank the prior
                    // life's bytes and start counting the new one.
                    slot.base += slot.last;
                    slot.last = bytes_used;
                } else {
                    slot.last = bytes_used;
                }
            } else {
                // A genuinely different capability (renewal) starts a
                // fresh budget.
                *slot = CapUse { cap, base: 0, last: bytes_used };
            }
            let bound = 2 * entry.grant.n.bytes();
            if slot.base + slot.last > bound {
                over.push(format!(
                    "node {n} flow {flow:?}: {} bytes charged to one capability, bound 2N={bound}",
                    slot.base + slot.last
                ));
            }
        }
        for detail in over {
            self.violation(sim, "cap-byte-bound", detail);
        }
    }

    /// Protocol soundness: every regular-class packet a TVA egress
    /// scheduler has accepted passed this router's validation first, so
    /// the router's validation count (nonce hits + full validations) must
    /// cover the sum over its egress schedulers; likewise request packets
    /// and stamping. (Strict inequality is legitimate: validated packets
    /// can be lost at a downed link before reaching the scheduler.)
    fn audit_validation_coverage(&mut self, sim: &Simulator, n: usize, node: &TvaRouterNode) {
        let mut regular = 0u64;
        let mut requests = 0u64;
        let mut any = false;
        for c in 0..sim.channel_count() {
            let ch = sim.channel(ChannelId(c));
            if ch.from != NodeId(n) {
                continue;
            }
            let disc: &dyn Any = ch.queue_disc();
            let Some(sched) = disc.downcast_ref::<TvaScheduler>() else {
                continue;
            };
            any = true;
            regular += sched.regular_offered();
            requests += sched.requests_offered();
        }
        if !any {
            return;
        }
        let stats = &node.router.stats;
        let validations = stats.nonce_hits + stats.full_validations;
        if regular > validations {
            let detail = format!(
                "node {n}: egress schedulers accepted {regular} regular packets but the \
                 router validated only {validations} — forwarding without validation"
            );
            self.violation(sim, "validation-coverage", detail);
        }
        if requests > stats.requests_stamped {
            let detail = format!(
                "node {n}: egress schedulers accepted {requests} request packets but the \
                 router stamped only {} — request forwarded without a pre-capability",
                stats.requests_stamped
            );
            self.violation(sim, "validation-coverage", detail);
        }
    }

    /// The violations, consuming the auditor.
    pub(crate) fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}
