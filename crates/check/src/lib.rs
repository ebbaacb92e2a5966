//! # tva-check
//!
//! Runtime invariant auditors for the TVA reproduction: correctness
//! tooling that verifies, *during real scenario runs*, the properties the
//! paper's security argument rests on and the engine's own bookkeeping
//! identities. Per-component proptests (`tests/invariants.rs`) check each
//! mechanism in isolation; this crate checks that the composed system
//! still honors them under full attack mixes, impairments, and link
//! failures — the gap where implementation bugs hide (NetFence's lesson:
//! resource bounds must hold in the implementation, not just on paper).
//!
//! Four auditor families (DESIGN.md "Invariants" maps them to the paper):
//!
//! * **Packet conservation** — every packet a channel accepts is
//!   transmitted, still queued, delivered, lost with a counted reason, or
//!   corrupted into a counted malformed frame; trace-event counts and
//!   [`tva_sim::ChannelStats`] ledgers must reconcile exactly
//!   ([`trace_audit::TraceAuditor`]).
//! * **Queue accounting** — every queue discipline's `total_bytes` /
//!   `total_pkts` equals the sum over held packets, DRR key tables hold no
//!   stub entries, and `FlowTable`'s map, entry slots and reclaim wheel
//!   are in exact bijection, each slot on the one wheel list its filed
//!   time names ([`StructuralAuditor`] via the `audit()` hooks on
//!   [`tva_sim::QueueDisc`], `Drr`, and `FlowTable`).
//! * **Protocol soundness** — no regular packet enters a TVA egress
//!   scheduler without a validation event at that router, and
//!   per-capability forwarded bytes never exceed the granted budget
//!   (laundering across entry churn is detected by a cross-snapshot
//!   capability ledger).
//! * **Engine sanity** — trace time is monotone and each channel delivers
//!   in FIFO transmission order.
//!
//! One switch gates everything: the `TVA_CHECK=1` environment variable.
//! With it off, no auditor code runs on the packet path — the audits are
//! cold methods invoked only from the stepped driver, so the benchmark
//! gate is unaffected.
//!
//! On violation, the harness dumps a replay artifact (seed + config JSON +
//! violations + the flight-recorder ring) that `invcheck replay`
//! re-executes deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod structural;
pub mod trace_audit;

pub use structural::StructuralAuditor;
pub use trace_audit::{
    install_thread_auditor, take_thread_auditor, thread_audit_record, TraceAuditor,
};

use std::path::PathBuf;

use serde_json::{Map, Value};
use tva_sim::{knobs, SimDuration, SimTime, Simulator, Tracer};

/// Structural-audit interval, simulated time: how often the stepped
/// driver stops the run to audit queues and tables.
pub const AUDIT_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// Runtime checking settings: on with `TVA_CHECK`, artifacts under
/// `<results>/check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Master switch (`TVA_CHECK`).
    pub enabled: bool,
    /// Directory for violation artifacts (the results directory's `check`).
    pub dir: PathBuf,
}

impl CheckConfig {
    /// Reads `TVA_CHECK` and the results directory. With `TVA_CHECK` unset
    /// or falsy, `enabled` is false and callers must skip all checking work.
    pub fn from_env() -> Self {
        CheckConfig { enabled: knobs::check(), dir: knobs::results_dir().join("check") }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulation time at detection.
    pub time: SimTime,
    /// Which invariant family failed (stable, machine-comparable label —
    /// replay round-trips compare these).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// JSON object form for artifacts.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("time_ns".into(), Value::Number(self.time.as_nanos() as f64));
        m.insert("invariant".into(), Value::String(self.invariant.to_string()));
        m.insert("detail".into(), Value::String(self.detail.clone()));
        Value::Object(m)
    }
}

/// The outcome of a checked run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Violations in detection order (bounded; see [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Trace events audited.
    pub events_audited: u64,
    /// Structural audit passes performed.
    pub audit_passes: u64,
}

/// Cap on retained violations: one broken invariant tends to re-fire every
/// interval, and the first few instances carry all the signal.
pub const MAX_VIOLATIONS: usize = 256;

impl CheckReport {
    /// Whether the run satisfied every audited invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct invariant labels violated, in first-detection order —
    /// the replay round-trip's comparison key (counts can differ across
    /// the violation cap; the *set* of broken invariants may not).
    pub fn violated_invariants(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for v in &self.violations {
            if !out.contains(&v.invariant) {
                out.push(v.invariant);
            }
        }
        out
    }

    /// JSON array of the violations.
    pub fn violations_json(&self) -> Value {
        Value::Array(self.violations.iter().map(Violation::to_json).collect())
    }
}

/// The composed runtime checker: installs the trace auditor on this
/// thread, owns the structural auditor, and folds both into a
/// [`CheckReport`]. One per checked run; runs are single-threaded per
/// thread (sweep workers each get their own).
pub struct Checker {
    structural: StructuralAuditor,
}

impl Checker {
    /// Creates the checker and installs this thread's trace auditor plus a
    /// flight-recorder ring of [`tva_obs::FLIGHT_EVENTS`] (replacing any
    /// previous ring — violation artifacts reuse the flight dump path).
    pub fn install() -> Self {
        install_thread_auditor();
        tva_obs::install_thread_flight(tva_obs::FLIGHT_EVENTS);
        Checker { structural: StructuralAuditor::default() }
    }

    /// The tracer to hand to [`Simulator::set_tracer`]: feeds every trace
    /// event to this thread's auditor *and* the flight ring.
    pub fn tracer(&self) -> Tracer {
        Box::new(|ev| {
            thread_audit_record(ev);
            tva_obs::thread_flight_record(ev);
        })
    }

    /// Runs the structural audits against the paused simulator (between
    /// `run_until` steps — never from inside the event loop).
    pub fn step(&mut self, sim: &Simulator) {
        self.structural.step(sim);
    }

    /// Final audit plus trace-ledger reconciliation; consumes the checker
    /// and this thread's trace auditor.
    pub fn finish(mut self, sim: &Simulator) -> CheckReport {
        self.structural.step(sim);
        let mut report =
            CheckReport { audit_passes: self.structural.passes(), ..CheckReport::default() };
        if let Some(mut audit) = take_thread_auditor() {
            audit.reconcile(sim);
            report.events_audited = audit.events_seen();
            report.violations.extend(audit.into_violations());
        }
        for v in self.structural.into_violations() {
            if report.violations.len() >= MAX_VIOLATIONS {
                break;
            }
            report.violations.push(v);
        }
        report.violations.truncate(MAX_VIOLATIONS);
        report
    }
}
