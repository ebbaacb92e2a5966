//! Bounded-state experiment (`statebound` bin): exact vs constant-memory
//! router state under identical load.
//!
//! Three panels, all deterministic:
//!
//! 1. **Memory vs concurrent flows** — drive a router's two stateful
//!    structures (flow cache + request channel) directly with N distinct
//!    concurrent flows, in *exact* mode (table sized to the paper's
//!    `C/(N/T)min` bound, per-path DRR key table) and in *bounded* mode
//!    (the same table capped at 4096 entries, count-min sketch limiter).
//!    Exact state grows linearly with flows; bounded state is flat.
//! 2. **Hit rate vs cache size** — a skewed (log-uniform) reference stream
//!    over 8192 flows against tables of increasing capacity: the cost of
//!    the capped table is misses, not correctness.
//! 3. **Goodput parity** — full scenario runs (fig8 legacy-flood shape and
//!    the PR 7 colluder-ring adversary) in exact vs bounded mode:
//!    legitimate completion must not pay for the flat memory.
//!
//! Peak RSS per leg is measured by re-executing the binary as a
//! single-leg subprocess (`--leg`), so each leg's `VmHWM` is its own;
//! RSS is reported and gated (`--gate`) but kept **out** of the TSV/JSON
//! artifacts, which stay byte-identical across runs and shard counts.

use tva_core::{Charge, FlowTable, RequestLimiter, RouterConfig, TvaScheduler};
use tva_sim::{splitmix64, QueueDisc, SimDuration, SimTime};
use tva_wire::{
    Addr, CapHeader, CapPayload, CapValue, FlowKey, FlowNonce, Grant, PathId, Packet,
    RequestEntry,
};

use crate::scenario::{run, Attack, ScenarioConfig, Scheme};

/// Canonical link rate for the microstate legs: the paper's OC-192-ish
/// example sizes the exact table to ~305k records at 1 Gb/s.
pub const LEG_LINK_BPS: u64 = 1_000_000_000;

/// Bounded-mode flow-cache capacity (entries). Small enough that the
/// 10k → 100k sweep saturates it, so flatness is visible.
pub const BOUNDED_CACHE_ENTRIES: usize = 4096;

/// State-structure modes compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Flow cache at the paper's table bound + per-path DRR key table.
    Exact,
    /// Flow cache capped at [`BOUNDED_CACHE_ENTRIES`] + count-min sketch
    /// request limiter.
    Bounded,
}

impl Mode {
    /// Stable label used in rows and CLI args.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Bounded => "bounded",
        }
    }

    /// Parses a `--leg` argument.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "exact" => Some(Mode::Exact),
            "bounded" => Some(Mode::Bounded),
            _ => None,
        }
    }
}

/// Router config for a microstate leg.
pub fn leg_config(mode: Mode) -> RouterConfig {
    let mut cfg = RouterConfig::default();
    if mode == Mode::Bounded {
        cfg.request_limiter = RequestLimiter::Sketched;
        cfg.max_flow_entries = Some(BOUNDED_CACHE_ENTRIES);
    }
    cfg
}

/// Deterministic state measured after driving one leg.
#[derive(Debug, Clone, Copy)]
pub struct MemPoint {
    /// Which mode was driven.
    pub mode: Mode,
    /// Distinct concurrent flows offered.
    pub flows: usize,
    /// Flow-cache entries actually admitted.
    pub table_entries: usize,
    /// Flow-cache state estimate (bytes).
    pub table_bytes: usize,
    /// Request-channel keys holding state (0 in sketched mode).
    pub request_keys: usize,
    /// Request-channel policing state estimate (bytes).
    pub request_bytes: usize,
}

impl MemPoint {
    /// Total router policing state for the leg.
    pub fn total_bytes(&self) -> usize {
        self.table_bytes + self.request_bytes
    }
}

fn leg_addr(i: usize) -> Addr {
    Addr::new(30, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

fn leg_flow(i: usize) -> FlowKey {
    FlowKey::new(leg_addr(i), Addr::new(10, 0, 0, 1))
}

fn request_pkt(path: u16) -> Packet {
    let mut h = CapHeader::request();
    if let CapPayload::Request { entries } = &mut h.payload {
        entries.push(RequestEntry { path_id: PathId(path), precap: CapValue::new(0, 1) });
    }
    Packet {
        id: tva_wire::PacketId(0),
        src: Addr::new(1, 0, 0, 1),
        dst: Addr::new(10, 0, 0, 1),
        cap: Some(h),
        tcp: None,
        payload_len: 0,
    }
}

/// Drives one (mode, flows) microstate leg: N distinct flows admitted to
/// the flow cache at the same instant (all concurrently live) and one
/// request per distinct path identifier offered to the scheduler.
pub fn drive_leg(mode: Mode, flows: usize) -> MemPoint {
    let cfg = leg_config(mode);
    let bound = cfg.flow_table_bound(LEG_LINK_BPS);
    let mut table = FlowTable::new(bound);
    let mut sched = TvaScheduler::new(LEG_LINK_BPS, &cfg);

    let now = SimTime::from_secs(1);
    let grant = Grant::from_parts(32, 10);
    for i in 0..flows {
        let cap = CapValue::new(1, 0x1_0000 + i as u64);
        table.create(leg_flow(i), cap, FlowNonce::new(i as u64), grant, 1500, now);
        // Path identifiers are 16-bit; beyond 65536 flows the keys wrap,
        // which is exactly the exact key table's saturation point.
        sched.enqueue(request_pkt((i % (1 << 16)) as u16).into(), now);
    }

    MemPoint {
        mode,
        flows,
        table_entries: table.len(),
        table_bytes: table.state_bytes_estimate(),
        request_keys: sched.request_keys(),
        request_bytes: sched.request_state_bytes(),
    }
}

/// Reads this process's peak resident set (`VmHWM`) in KiB.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// One hit-rate measurement: a cache of `capacity` entries under the
/// skewed reference stream.
#[derive(Debug, Clone, Copy)]
pub struct HitPoint {
    /// Cache capacity in entries.
    pub capacity: usize,
    /// References issued.
    pub refs: usize,
    /// References that found their flow cached.
    pub hits: usize,
    /// Misses whose (re-)admission succeeded.
    pub admitted: usize,
    /// Misses refused because every entry was live.
    pub refused: usize,
}

impl HitPoint {
    /// Fraction of references served from cache.
    pub fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.hits as f64 / self.refs as f64
        }
    }
}

/// Universe of distinct flows in the hit-rate workload.
pub const HIT_UNIVERSE: usize = 8192;

/// Cache sizes swept for the hit-rate-vs-size curve.
pub const HIT_SIZES: [usize; 4] = [256, 1024, 4096, 16384];

/// Drives a skewed (log-uniform rank) reference stream against one cache.
/// Time advances 1 ms per reference so the unpopular tail expires and the
/// reclaim policy actually has victims to choose.
pub fn hit_rate_leg(capacity: usize, refs: usize) -> HitPoint {
    let mut table = FlowTable::new(capacity);
    let grant = Grant::from_parts(32, 10);
    let mut gen = vec![0u64; HIT_UNIVERSE];
    let mut now = SimTime::from_secs(1);
    let (mut hits, mut admitted, mut refused) = (0usize, 0usize, 0usize);
    for step in 0..refs {
        let r = splitmix64(0x5B0D_CAFE ^ step as u64);
        let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
        // Log-uniform rank: flow 0 takes ~8% of references, the tail is
        // touched rarely — a zipf-like working set.
        let idx = ((HIT_UNIVERSE as f64).powf(frac) as usize).saturating_sub(1) % HIT_UNIVERSE;
        let flow = leg_flow(idx);
        now += SimDuration::from_micros(1_000);
        let cached = table.get(flow).is_some();
        if cached {
            hits += 1;
            if table.charge(flow, 1500, now) == Charge::OverBudget {
                // Budget spent: model the sender renewing its capability.
                gen[idx] += 1;
                table.create(flow, hit_cap(idx, gen[idx]), FlowNonce::new(step as u64), grant, 1500, now);
            }
        } else if table.create(flow, hit_cap(idx, gen[idx]), FlowNonce::new(step as u64), grant, 1500, now)
        {
            admitted += 1;
        } else {
            refused += 1;
        }
    }
    HitPoint { capacity, refs, hits, admitted, refused }
}

fn hit_cap(idx: usize, gen: u64) -> CapValue {
    CapValue::new(1, ((idx as u64) << 24) | (gen & 0xFF_FFFF))
}

/// Attack shapes for the goodput-parity panel.
pub fn goodput_shapes() -> Vec<(&'static str, Attack)> {
    vec![
        ("legacy_flood", Attack::LegacyFlood),
        ("colluder_ring", Attack::ColluderRing { ring: 3, wave_ms: 1000, duty_pct: 100 }),
    ]
}

/// Scenario config for one goodput leg: fig8 dumbbell shape, TVA scheme,
/// exact (flat DRR key table) or bounded (sketch limiter) request-channel
/// state — the same choice [`leg_config`] makes for the microstate legs.
pub fn goodput_cfg(mode: Mode, attack: Attack, k: usize, duration_s: u64) -> ScenarioConfig {
    ScenarioConfig {
        scheme: Scheme::Tva,
        attack,
        n_attackers: k,
        transfers_per_user: 2_000,
        duration: SimTime::from_secs(duration_s),
        measure_after: SimTime::from_secs(15),
        request_limiter: leg_config(mode).request_limiter,
        ..ScenarioConfig::default()
    }
}

/// One goodput leg's outcome.
#[derive(Debug, Clone)]
pub struct GoodputPoint {
    /// Mode driven.
    pub mode: Mode,
    /// Shape label (see [`goodput_shapes`]).
    pub shape: &'static str,
    /// Attacker count.
    pub k: usize,
    /// Completion fraction of legitimate transfers.
    pub fraction: f64,
    /// Mean completion time (s).
    pub time_s: f64,
    /// Bottleneck drop rate.
    pub drop_rate: f64,
    /// Bottleneck utilization.
    pub util: f64,
}

/// Runs one goodput leg.
pub fn goodput_leg(mode: Mode, shape: &'static str, attack: Attack, k: usize, duration_s: u64) -> GoodputPoint {
    let cfg = goodput_cfg(mode, attack, k, duration_s);
    let r = run(&cfg);
    GoodputPoint {
        mode,
        shape,
        k,
        fraction: r.summary.completion_fraction,
        time_s: r.summary.avg_completion_secs,
        drop_rate: r.bottleneck_drop_rate,
        util: r.bottleneck_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_state_grows_with_flows_while_bounded_stays_flat() {
        // Both bounded legs past the 4096-entry cap, so flatness is the
        // saturated regime the 10k -> 100k acceptance sweep measures.
        let e1 = drive_leg(Mode::Exact, 6_000);
        let e2 = drive_leg(Mode::Exact, 20_000);
        let b1 = drive_leg(Mode::Bounded, 6_000);
        let b2 = drive_leg(Mode::Bounded, 20_000);
        assert!(
            e2.total_bytes() >= 2 * e1.total_bytes(),
            "exact state must track flows: {} -> {}",
            e1.total_bytes(),
            e2.total_bytes()
        );
        assert!(
            b2.total_bytes() <= b1.total_bytes() + b1.total_bytes() / 10,
            "bounded state must stay flat: {} -> {}",
            b1.total_bytes(),
            b2.total_bytes()
        );
        assert_eq!(e1.table_entries, 6_000, "exact admits every live flow");
        assert!(b2.table_entries <= BOUNDED_CACHE_ENTRIES);
        assert_eq!(b2.request_keys, 0, "sketched mode keeps no per-path keys");
    }

    #[test]
    fn hit_rate_improves_with_cache_size() {
        let small = hit_rate_leg(256, 20_000);
        let large = hit_rate_leg(16_384, 20_000);
        assert!(
            large.hit_rate() > small.hit_rate() + 0.05,
            "bigger cache must hit more: {:.3} vs {:.3}",
            small.hit_rate(),
            large.hit_rate()
        );
        assert_eq!(small.refs, small.hits + small.admitted + small.refused);
    }

    #[test]
    fn microstate_legs_are_deterministic() {
        let a = drive_leg(Mode::Bounded, 5_000);
        let b = drive_leg(Mode::Bounded, 5_000);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.table_entries, b.table_entries);
        let ha = hit_rate_leg(1024, 5_000);
        let hb = hit_rate_leg(1024, 5_000);
        assert_eq!(ha.hits, hb.hits);
        assert_eq!(ha.refused, hb.refused);
    }
}
