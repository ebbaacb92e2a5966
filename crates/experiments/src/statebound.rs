//! Bounded-state experiment (`repro statebound`): exact vs capped router
//! state under identical load.
//!
//! Two panels, both deterministic:
//!
//! 1. **Memory vs concurrent flows** — drive a router's two stateful
//!    structures (flow cache + request channel) directly with N distinct
//!    concurrent flows, in *exact* mode (table sized to the paper's
//!    `C/(N/T)min` bound) and in *bounded* mode (the same table capped at
//!    4096 entries). Both modes share the request channel, a per-path key
//!    table capped at `MAX_REQUEST_QUEUES`. Exact state grows linearly
//!    with flows; bounded state is flat.
//! 2. **Hit rate vs cache size** — a skewed (log-uniform) reference stream
//!    over 8192 flows against tables of increasing capacity: the cost of
//!    the capped table is misses, not correctness.
//!
//! Peak RSS per leg is measured by re-executing the binary as a
//! single-leg subprocess (`repro statebound --leg`), so each leg's `VmHWM`
//! is its own; a leg that fails is an error. RSS is reported and gated on
//! every run but kept **out** of the TSV/JSON artifacts, which stay
//! byte-identical across runs.

use std::process::Command;

use tva_core::{Charge, FlowTable, RouterConfig, TvaScheduler};
use tva_sim::{splitmix64, QueueDisc, SimDuration, SimTime};
use tva_obs::{ascii_chart, Series};
use tva_wire::{
    Addr, CapHeader, CapPayload, CapValue, FlowKey, FlowNonce, Grant, PathId, Packet,
    RequestEntry,
};

use crate::report::{records_json, table, tsv, Files, Size};

/// Canonical link rate for the microstate legs: the paper's OC-192-ish
/// example sizes the exact table to ~305k records at 1 Gb/s.
pub(crate) const LEG_LINK_BPS: u64 = 1_000_000_000;

/// Bounded-mode flow-cache capacity (entries). Small enough that the
/// 10k → 100k sweep saturates it, so flatness is visible.
pub(crate) const BOUNDED_CACHE_ENTRIES: usize = 4096;

/// State-structure modes compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Flow cache at the paper's table bound.
    Exact,
    /// Flow cache capped at [`BOUNDED_CACHE_ENTRIES`].
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
pub(crate) fn leg_config(mode: Mode) -> RouterConfig {
    let mut cfg = RouterConfig::default();
    if mode == Mode::Bounded {
        cfg.max_flow_entries = Some(BOUNDED_CACHE_ENTRIES);
    }
    cfg
}

/// Deterministic state measured after driving one leg.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemPoint {
    /// Which mode was driven.
    pub(crate) mode: Mode,
    /// Distinct concurrent flows offered.
    pub(crate) flows: usize,
    /// Flow-cache entries actually admitted.
    pub(crate) table_entries: usize,
    /// Flow-cache state estimate (bytes).
    pub(crate) table_bytes: usize,
    /// Request-channel keys holding state.
    pub(crate) request_keys: usize,
    /// Request-channel policing state estimate (bytes).
    pub(crate) request_bytes: usize,
}

impl MemPoint {
    /// Total router policing state for the leg.
    pub(crate) fn total_bytes(&self) -> usize {
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
pub(crate) fn drive_leg(mode: Mode, flows: usize) -> MemPoint {
    let cfg = leg_config(mode);
    let bound = cfg.flow_table_bound(LEG_LINK_BPS);
    let mut table = FlowTable::new(bound);
    let mut sched = TvaScheduler::new(LEG_LINK_BPS, &cfg);

    let now = SimTime::from_secs(1);
    let grant = Grant::from_parts(32, 10);
    for i in 0..flows {
        let cap = CapValue::new(1, 0x1_0000 + i as u64);
        table.create(leg_flow(i), cap, FlowNonce::new(i as u64), grant, 1500, now);
        // Path identifiers are 16-bit, so past 65536 flows there is no
        // distinct tag left to offer. (A repeated tag would only queue a
        // second packet behind its key: link backlog, not key state, and
        // it would leak into the per-leg peak RSS.)
        if let Ok(path) = u16::try_from(i) {
            sched.enqueue(request_pkt(path).into(), now);
        }
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
pub(crate) fn vm_hwm_kb() -> Option<u64> {
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
pub(crate) struct HitPoint {
    /// Cache capacity in entries.
    pub(crate) capacity: usize,
    /// References issued.
    pub(crate) refs: usize,
    /// References that found their flow cached.
    pub(crate) hits: usize,
    /// Misses refused because every entry was live.
    pub(crate) refused: usize,
}

impl HitPoint {
    /// Fraction of references served from cache.
    pub(crate) fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.hits as f64 / self.refs as f64
        }
    }
}

/// Universe of distinct flows in the hit-rate workload.
pub(crate) const HIT_UNIVERSE: usize = 8192;

/// Cache sizes swept for the hit-rate-vs-size curve.
pub(crate) const HIT_SIZES: [usize; 4] = [256, 1024, 4096, 16384];

/// Drives a skewed (log-uniform rank) reference stream against one cache.
/// Time advances 1 ms per reference so the unpopular tail expires and the
/// reclaim policy actually has victims to choose.
pub(crate) fn hit_rate_leg(capacity: usize, refs: usize) -> HitPoint {
    let mut table = FlowTable::new(capacity);
    let grant = Grant::from_parts(32, 10);
    let mut gen = vec![0u64; HIT_UNIVERSE];
    let mut now = SimTime::from_secs(1);
    let (mut hits, mut refused) = (0usize, 0usize);
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
        } else if !table.create(flow, hit_cap(idx, gen[idx]), FlowNonce::new(step as u64), grant, 1500, now)
        {
            refused += 1;
        }
    }
    HitPoint { capacity, refs, hits, refused }
}

fn hit_cap(idx: usize, gen: u64) -> CapValue {
    CapValue::new(1, ((idx as u64) << 24) | (gen & 0xFF_FFFF))
}

const HEADERS: [&str; 5] = ["section", "mode", "x", "metric", "value"];

/// The hit-rate panel's `mode` column and chart label (the flow cache's one
/// reclaim index).
const HIT_MODE: &str = "exact_ttl";

/// `statebound.{tsv,json}`: both panels, the memory legs at 10k and 100k
/// flows (quick) or 1k–200k (full). Fails unless bounded state and bounded
/// peak RSS stay flat (±10 %) from 10k flows to the largest leg while exact
/// state grows at least 3× and exact peak RSS at least 20 %.
pub fn produce(size: Size) -> Result<Files, String> {
    let (flow_grid, hit_refs): (&[usize], usize) = match size {
        Size::Smoke => return Err("no smoke size (quick or full)".into()),
        Size::Quick => (&[10_000, 100_000], 30_000),
        Size::Full => (&[1_000, 10_000, 100_000, 200_000], 200_000),
    };
    eprintln!("== statebound: exact vs bounded router state ==");
    eprintln!("  memory legs ({} flows grid, per-leg subprocesses)", flow_grid.len());
    let mut mem = Vec::new();
    for &mode in &[Mode::Exact, Mode::Bounded] {
        for &flows in flow_grid {
            let (p, rss) = spawn_leg(mode, flows)?;
            eprintln!(
                "  {} @ {:>7} flows: {:>7} entries, {:>9} B state, peak RSS {rss} kB",
                p.mode.name(),
                p.flows,
                p.table_entries,
                p.total_bytes(),
            );
            mem.push((p, rss));
        }
    }

    eprintln!("  hit-rate legs ({} sizes, {hit_refs} refs)", HIT_SIZES.len());
    let hits: Vec<HitPoint> = HIT_SIZES.iter().map(|&size| hit_rate_leg(size, hit_refs)).collect();

    let mut rows = Vec::new();
    mem_rows(&mem, &mut rows);
    hit_rows(&hits, &mut rows);

    println!("statebound: bounded router state vs exact state\n");
    println!("{}", table(&HEADERS, &rows));
    let mem_series: Vec<Series> = [Mode::Exact, Mode::Bounded]
        .iter()
        .map(|&m| Series {
            label: m.name().into(),
            points: mem
                .iter()
                .filter(|(p, _)| p.mode == m)
                .map(|(p, _)| (p.flows as f64, p.total_bytes() as f64 / 1024.0))
                .collect(),
        })
        .collect();
    println!("{}", ascii_chart("statebound: state (KiB) vs concurrent flows", &mem_series, 60, 12));
    let hit_series = [Series {
        label: HIT_MODE.into(),
        points: hits.iter().map(|p| (p.capacity as f64, p.hit_rate())).collect(),
    }];
    println!("{}", ascii_chart("statebound: hit rate vs cache size", &hit_series, 60, 12));

    gate(&mem, 10_000, flow_grid[flow_grid.len() - 1])?;
    Ok(vec![
        ("statebound.tsv".into(), tsv(&HEADERS, &rows)),
        ("statebound.json".into(), records_json(&HEADERS, &rows)),
    ])
}

/// Runs one microstate leg and returns this process's peak RSS in kB: what
/// a leg subprocess prints.
pub fn leg_rss_kb(mode: Mode, flows: usize) -> u64 {
    drive_leg(mode, flows);
    vm_hwm_kb().unwrap_or(0)
}

/// A microstate leg: its state, driven here, and its peak RSS (kB),
/// measured in a subprocess so it is the leg's own — this executable re-run
/// as `repro statebound --leg MODE --flows N`, which prints [`leg_rss_kb`].
fn spawn_leg(mode: Mode, flows: usize) -> Result<(MemPoint, u64), String> {
    let leg = format!("leg {} @ {flows} flows", mode.name());
    let exe = std::env::current_exe().map_err(|e| format!("{leg}: {e}"))?;
    let out = Command::new(exe)
        .args(["statebound", "--leg", mode.name(), "--flows", &flows.to_string()])
        .output()
        .map_err(|e| format!("{leg}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<u64>() {
        Ok(rss) if out.status.success() && rss > 0 => Ok((drive_leg(mode, flows), rss)),
        _ => Err(format!("{leg} failed ({}): {}", out.status, String::from_utf8_lossy(&out.stderr).trim())),
    }
}

fn mem_rows(points: &[(MemPoint, u64)], rows: &mut Vec<Vec<String>>) {
    for (p, _) in points {
        let x = p.flows.to_string();
        let m = p.mode.name().to_string();
        let mut push = |metric: &str, value: String| {
            rows.push(vec!["memory".into(), m.clone(), x.clone(), metric.into(), value]);
        };
        push("table_entries", p.table_entries.to_string());
        push("table_bytes", p.table_bytes.to_string());
        push("request_keys", p.request_keys.to_string());
        push("request_bytes", p.request_bytes.to_string());
        push("total_bytes", p.total_bytes().to_string());
    }
}

fn hit_rows(points: &[HitPoint], rows: &mut Vec<Vec<String>>) {
    for p in points {
        let x = p.capacity.to_string();
        rows.push(vec![
            "hitrate".into(),
            HIT_MODE.into(),
            x.clone(),
            "hit_rate".into(),
            format!("{:.4}", p.hit_rate()),
        ]);
        rows.push(vec!["hitrate".into(), HIT_MODE.into(), x, "refused".into(), p.refused.to_string()]);
    }
}

fn gate(mem: &[(MemPoint, u64)], lo_flows: usize, hi_flows: usize) -> Result<(), String> {
    let mut failures = Vec::new();
    let find = |mode: Mode, flows: usize| {
        mem.iter().find(|(p, _)| p.mode == mode && p.flows == flows).expect("leg present")
    };
    let (e_lo, e_rss_lo) = find(Mode::Exact, lo_flows);
    let (e_hi, e_rss_hi) = find(Mode::Exact, hi_flows);
    let (b_lo, b_rss_lo) = find(Mode::Bounded, lo_flows);
    let (b_hi, b_rss_hi) = find(Mode::Bounded, hi_flows);

    if b_hi.total_bytes() * 10 > b_lo.total_bytes() * 11 {
        failures.push(format!(
            "bounded state not flat: {} B @ {lo_flows} -> {} B @ {hi_flows} (> +10%)",
            b_lo.total_bytes(),
            b_hi.total_bytes()
        ));
    }
    if e_hi.total_bytes() < 3 * e_lo.total_bytes() {
        failures.push(format!(
            "exact state did not grow: {} B @ {lo_flows} -> {} B @ {hi_flows} (< 3x)",
            e_lo.total_bytes(),
            e_hi.total_bytes()
        ));
    }
    if b_rss_hi * 10 > b_rss_lo * 11 {
        failures.push(format!(
            "bounded peak RSS not flat: {b_rss_lo} kB @ {lo_flows} -> {b_rss_hi} kB @ {hi_flows} (> +10%)"
        ));
    }
    if *e_rss_hi < e_rss_lo + e_rss_lo / 5 {
        failures.push(format!(
            "exact peak RSS did not grow: {e_rss_lo} kB @ {lo_flows} -> {e_rss_hi} kB @ {hi_flows} (< +20%)"
        ));
    }
    if failures.is_empty() {
        println!("statebound gate: OK");
        Ok(())
    } else {
        Err(format!("gate failed: {}", failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_core::MAX_REQUEST_QUEUES;

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
        assert_eq!(b2.request_keys, MAX_REQUEST_QUEUES, "20k paths fill the request key table");
        assert_eq!(b2.request_bytes, e2.request_bytes, "both modes share the request channel");
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
