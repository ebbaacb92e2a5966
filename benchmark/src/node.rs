//! The three daemon workloads: a generator bursts 64 frames into the SPSC
//! ring, `NodeEngine::poll` forwards them, a sink drains and checks them —
//! closed loop, one thread, so offered load tracks what the node absorbs.
//!
//! Untraced reps call `NodeEngine::poll` as the black box it is and time
//! only that call. Traced reps rebuild the same pipeline from the public
//! functions `poll` is made of (`Transport::rx_burst`, `decode_packet`,
//! `Pkt::new`, `TvaRouter::process`, `TvaScheduler::{enqueue, dequeue}`,
//! `encode_packet_into` + `Transport::tx_frame`), one batch-sized stage at
//! a time with an `Instant` pair around each; `node.stage_cover` says how
//! well the staged sum reproduces the untraced cost.

use std::time::{Duration, Instant};

use tva_core::capability::{mint_cap, mint_precap, validate_cap, validate_precap};
use tva_core::{RouterConfig, RouterStats, SchedulerStats};
use tva_crypto::SecretSchedule;
use tva_node::pktgen::GEN_DST;
use tva_node::{
    ring_pair, MixKind, NodeClock, NodeConfig, NodeEngine, NodeStats, PktGen, RingPort, Transport,
    MAX_FRAME, NODE_INGRESS,
};
use tva_sim::{Enqueued, Pkt, QueueDisc, SimTime};
use tva_wire::ipcodec::{decode_packet, encode_packet_into};
use tva_wire::{Addr, CapHeader, CapValue, FlowNonce, Grant, Packet, PacketId};

use crate::spans::Spans;
use crate::stats::median;
use crate::{Outcome, RepClock, RunOpts, Sizing};

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `PktGen` clean mix: > 99.9 % nonce hits.
    Clean,
    /// `PktGen` contested mix over a 1 Gb/s link: the request channel is
    /// over-subscribed.
    Flood,
    /// One pre-minted frame per source, replayed cyclically: every packet
    /// is a full validation plus a flow-table create with a reclaim.
    Churn,
}

/// Egress rate that over-subscribes the 5 % request channel (`Flood`) and
/// bounds the flow table at 305 176 records (`Churn` at 2^20 flows).
const GIGABIT: u64 = 1_000_000_000;

/// `PktGen`'s legitimate sources live in 172.16.0.0/16 (its private
/// `LEGIT_SRC_BASE`); its spoofed and legacy sources do not.
const PKTGEN_LEGIT: (u32, u32) = (0xFFFF_0000, 0xAC10_0000);
/// Churn sources: 11.0.0.0/12, one address per flow.
const CHURN_SRC_BASE: u32 = 0x0B00_0000;
const CHURN_LEGIT: (u32, u32) = (0xFFF0_0000, CHURN_SRC_BASE);

/// The grant every generated capability carries (`PktGen`'s own choice).
fn grant() -> Grant {
    Grant::from_parts(1023, 63)
}

fn node_config(kind: Kind, seed: u64, sizing: &Sizing) -> NodeConfig {
    NodeConfig {
        secret_seed: seed,
        mix: if kind == Kind::Flood { MixKind::Contested } else { MixKind::Clean },
        link_bps: match kind {
            Kind::Clean => NodeConfig::default().link_bps,
            Kind::Flood => GIGABIT,
            // The flow table is sized from the link rate (C / (N/T)min): a
            // gigabit at the full 2^20 flows, scaled with the flow count so
            // the table always holds 29 % of the flows and every revisit
            // finds its entry reclaimed.
            Kind::Churn => (GIGABIT * sizing.churn_flows as u64) >> 20,
        },
        ..NodeConfig::default()
    }
}

/// The churn generator: `flows` pre-encoded `regular_with_caps` frames at
/// a fixed stride, minted against the node's secret seed the way a
/// destination would have returned them, replayed one packet per flow.
struct ChurnGen {
    frames: Vec<u8>,
    stride: usize,
    flows: usize,
    next: usize,
    offered: u64,
}

impl ChurnGen {
    /// Mints and encodes one frame per flow at `now`.
    fn new(secret_seed: u64, flows: usize, now: SimTime) -> Self {
        let schedule = SecretSchedule::from_seed(secret_seed);
        let now_secs = now.as_secs();
        let mut frames = Vec::new();
        let mut scratch = Vec::new();
        let mut stride = 0;
        for i in 0..flows {
            let src = Addr(CHURN_SRC_BASE + i as u32);
            let cap = mint_cap(mint_precap(&schedule, now_secs, src, GEN_DST), grant());
            // 48-bit nonce, distinct per (seed, flow).
            let nonce = FlowNonce::new(tva_sim::splitmix64(secret_seed ^ i as u64) >> 16);
            let pkt = Packet {
                id: PacketId(i as u64),
                src,
                dst: GEN_DST,
                cap: Some(CapHeader::regular_with_caps(nonce, grant(), vec![cap])),
                tcp: None,
                payload_len: 0,
            };
            encode_packet_into(&pkt, &mut scratch);
            stride = scratch.len();
            frames.extend_from_slice(&scratch);
        }
        ChurnGen { frames, stride, flows, next: 0, offered: 0 }
    }

    fn fill_burst(&mut self, port: &mut RingPort, n: usize) -> usize {
        let mut sent = 0;
        for _ in 0..n {
            let frame = &self.frames[self.next * self.stride..(self.next + 1) * self.stride];
            let ok = port.tx_frame(&mut |buf| {
                buf.clear();
                buf.extend_from_slice(frame);
            });
            if !ok {
                break;
            }
            self.next = (self.next + 1) % self.flows;
            sent += 1;
        }
        self.offered += sent as u64;
        sent
    }
}

enum Gen {
    Pkt(Box<PktGen>),
    Churn(ChurnGen),
}

impl Gen {
    fn fill_burst(&mut self, port: &mut RingPort, n: usize, now: SimTime) -> usize {
        match self {
            Gen::Pkt(g) => g.fill_burst(port, n, now),
            Gen::Churn(g) => g.fill_burst(port, n),
        }
    }

    /// (legitimate frames offered, frames refused by a full ring).
    fn offered(&self) -> (u64, u64) {
        match self {
            Gen::Pkt(g) => (g.stats.legit, g.stats.backpressure),
            Gen::Churn(g) => (g.offered, 0),
        }
    }
}

/// The sink behind the node: decodes every forwarded frame and counts the
/// legitimate ones (source in the `legit` (mask, prefix)) that arrive
/// undemoted.
#[derive(Default)]
struct Sink {
    legit: (u32, u32),
    delivered: u64,
    undecodable: u64,
}

impl Sink {
    fn see(&mut self, frame: &[u8]) {
        match decode_packet(frame) {
            Ok(p) => {
                let legit = p.src.to_u32() & self.legit.0 == self.legit.1;
                self.delivered += u64::from(legit && !p.is_demoted());
            }
            Err(_) => self.undecodable += 1,
        }
    }
}

/// The stages of one traced batch, in pipeline order. `FILL` and `SINK`
/// are the harness, never the daemon: they are reported and left out of
/// `node.stage_sum_ns`.
const STAGES: [&str; 10] = [
    "node.pktgen.fill_ns",
    "node.ring.rx_ns",
    "wire.decode_ns",
    "sim.pool.wrap_ns",
    "core.router.process_ns",
    "core.sched.enqueue_ns",
    "core.sched.dequeue_ns",
    "wire.encode_tx_ns",
    "sim.pool.release_ns",
    "node.sink.drain_ns",
];
const FILL: usize = 0;
const SINK: usize = 9;
/// Every `SPAN_EVERY`-th traced batch is kept as verbatim spans.
const SPAN_EVERY: u64 = 1024;

/// One fresh node, generator, ring pair and sink.
struct Rig {
    cfg: NodeConfig,
    clock: NodeClock,
    node: NodeEngine,
    gen: Gen,
    port: RingPort,
    wire: RingPort,
    sink: Sink,
    /// Σ time inside `poll` (untraced) or inside the daemon stages (traced).
    busy: Duration,
}

impl Rig {
    fn new(kind: Kind, seed: u64, sizing: &Sizing) -> Self {
        let cfg = node_config(kind, seed, sizing);
        let clock = NodeClock::new();
        let node = NodeEngine::new(&cfg);
        let (gen, legit) = match kind {
            Kind::Churn => {
                (Gen::Churn(ChurnGen::new(seed, sizing.churn_flows, clock.now())), CHURN_LEGIT)
            }
            _ => (Gen::Pkt(Box::new(PktGen::new(&cfg, clock.now()))), PKTGEN_LEGIT),
        };
        let (port, wire) = ring_pair(cfg.ring_depth);
        Rig {
            cfg,
            clock,
            node,
            gen,
            port,
            wire,
            sink: Sink { legit, ..Sink::default() },
            busy: Duration::ZERO,
        }
    }

    /// One timed call of the black-box `poll`, then the sink drains what
    /// it forwarded. Returns `poll`'s `(rx, tx)`.
    #[inline]
    fn poll_and_sink(&mut self) -> (usize, usize) {
        let batch = self.cfg.batch;
        let t = Instant::now();
        let moved = self.node.poll(&mut self.port, &self.clock, batch);
        self.busy += t.elapsed();
        let sink = &mut self.sink;
        self.wire.rx_burst(2 * batch, &mut |f| sink.see(f));
        moved
    }

    /// One closed-loop iteration: offer a burst, forward it, drain it.
    #[inline]
    fn step(&mut self) {
        self.gen.fill_burst(&mut self.wire, self.cfg.batch, self.clock.now());
        self.poll_and_sink();
    }

    /// Polls without offering until the node has nothing eligible left:
    /// regular and legacy traffic is always eligible, so a poll that
    /// receives nothing and sends less than a batch has emptied both
    /// (paced requests may stay queued — they are the flood, not the
    /// legitimate traffic the delivery check counts).
    fn drain(&mut self) {
        loop {
            let (rx, tx) = self.poll_and_sink();
            if rx == 0 && tx < self.cfg.batch {
                break;
            }
        }
    }

    /// Warm-up, then every meter back to zero. Churn warms by filling the
    /// flow table to capacity so the timed window reclaims on every create;
    /// the `PktGen` mixes warm for a fixed time (pool, flow table, queues).
    fn warm_up(&mut self, kind: Kind, sizing: &Sizing) {
        if kind == Kind::Churn {
            let cap = self.node.router.table().capacity();
            for _ in 0..cap.div_ceil(self.cfg.batch) {
                self.step();
            }
        } else {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(sizing.node_warmup_ms) {
                for _ in 0..8 {
                    self.step();
                }
            }
        }
        self.drain();
        self.node.reset_meters();
        self.sink = Sink { legit: self.sink.legit, ..Sink::default() };
        self.busy = Duration::ZERO;
    }
}

/// What one timed rep measured.
struct Rep {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    busy_ns: f64,
    /// Frame counters of the timed window (`reset_meters` after warm-up).
    stats: NodeStats,
    p50_us: f64,
    p99_us: f64,
    legit_offered: u64,
    legit_delivered: u64,
    undecodable: u64,
    gen_backpressure: u64,
    router: RouterStats,
    sched: SchedulerStats,
    table_len: usize,
    table_cap: usize,
    request_keys: usize,
    state_bytes: usize,
    /// Σ ns per stage (traced reps only).
    stage_ns: [u64; STAGES.len()],
}

/// Reads one number off a rep.
type RepFn<'a> = &'a dyn Fn(&Rep) -> f64;

impl Rep {
    /// Legitimate frames delivered undemoted ÷ offered.
    fn delivery(&self) -> f64 {
        self.legit_delivered as f64 / self.legit_offered.max(1) as f64
    }

    /// Daemon time per received frame: inside `poll`, or Σ daemon stages.
    fn ns_per_rx(&self) -> f64 {
        self.busy_ns / self.stats.rx_frames.max(1) as f64
    }
}

fn router_delta(after: &RouterStats, before: &RouterStats) -> RouterStats {
    RouterStats {
        nonce_hits: after.nonce_hits - before.nonce_hits,
        full_validations: after.full_validations - before.full_validations,
        demoted_bad_cap: after.demoted_bad_cap - before.demoted_bad_cap,
        demotions: after.demotions - before.demotions,
        table_admission_failures: after.table_admission_failures - before.table_admission_failures,
        ..RouterStats::default()
    }
}

fn sched_delta(after: &SchedulerStats, before: &SchedulerStats) -> SchedulerStats {
    SchedulerStats {
        requests_sent: after.requests_sent - before.requests_sent,
        requests_dropped: after.requests_dropped - before.requests_dropped,
        requests_demoted: after.requests_demoted - before.requests_demoted,
        legacy_dropped: after.legacy_dropped - before.legacy_dropped,
        ..SchedulerStats::default()
    }
}

/// Frames one timed rep offers.
fn rep_frames(kind: Kind, sizing: &Sizing) -> u64 {
    match kind {
        Kind::Churn => sizing.churn_flows as u64,
        _ => sizing.node_frames,
    }
}

fn run_rep(kind: Kind, opts: &RunOpts, traced: bool, spans: &mut Spans) -> Rep {
    let t_setup = Instant::now();
    let rep_span =
        spans.open(if traced { "node.rep.traced" } else { "node.rep.untraced" }, None, t_setup);
    let mut rig = Rig::new(kind, opts.seed, &opts.sizing);
    rig.warm_up(kind, &opts.sizing);
    let setup_end = Instant::now();
    // `reset_meters` clears NodeStats and the latency histogram only; the
    // router's and scheduler's counters are reported as deltas.
    let (router0, sched0) = (rig.node.router.stats.clone(), rig.node.sched.stats.clone());
    let (legit0, bp0) = rig.gen.offered();

    let iters = rep_frames(kind, &opts.sizing).div_ceil(rig.cfg.batch as u64);
    let mut stage_ns = [0u64; STAGES.len()];
    let t0 = Instant::now();
    if traced {
        stage_ns = staged_loop(&mut rig, iters, spans, rep_span);
    } else {
        for _ in 0..iters {
            rig.step();
        }
    }
    rig.drain();
    let end = Instant::now();
    spans.close(rep_span, end);
    spans.record("node.setup", Some(rep_span), t_setup, setup_end);
    spans.record("node.measure", Some(rep_span), t0, end);

    let (legit1, bp1) = rig.gen.offered();
    let node = &rig.node;
    Rep {
        traced,
        setup_s: (setup_end - t_setup).as_secs_f64(),
        wall_s: (end - t0).as_secs_f64(),
        busy_ns: rig.busy.as_nanos() as f64,
        stats: node.stats,
        p50_us: node.latency_ns.quantile(0.5) as f64 / 1e3,
        p99_us: node.latency_ns.quantile(0.99) as f64 / 1e3,
        legit_offered: legit1 - legit0,
        legit_delivered: rig.sink.delivered,
        undecodable: rig.sink.undecodable,
        gen_backpressure: bp1 - bp0,
        router: router_delta(&node.router.stats, &router0),
        sched: sched_delta(&node.sched.stats, &sched0),
        table_len: node.router.table().len(),
        table_cap: node.router.table().capacity(),
        request_keys: node.sched.request_keys(),
        state_bytes: node.router.table().state_bytes_estimate() + node.sched.request_state_bytes(),
        stage_ns,
    }
}

/// `iters` closed-loop iterations through the staged pipeline: the body of
/// `NodeEngine::poll`, one batch-sized stage at a time. Returns Σ ns per
/// stage.
fn staged_loop(rig: &mut Rig, iters: u64, spans: &mut Spans, rep_span: u32) -> [u64; STAGES.len()] {
    let batch = rig.cfg.batch;
    let mut bufs: Vec<Vec<u8>> = (0..batch).map(|_| Vec::with_capacity(MAX_FRAME)).collect();
    let mut decoded: Vec<Packet> = Vec::with_capacity(batch);
    let mut held: Vec<Pkt> = Vec::with_capacity(batch);
    let mut out: Vec<Pkt> = Vec::with_capacity(batch);
    let mut sums = [0u64; STAGES.len()];
    let mut t = [Instant::now(); STAGES.len() + 1];

    for it in 0..iters {
        t[0] = Instant::now();
        rig.gen.fill_burst(&mut rig.wire, batch, rig.clock.now());
        t[1] = Instant::now();

        let now_rx = rig.clock.now();
        let mut n = 0;
        rig.port.rx_burst(batch, &mut |f| {
            bufs[n].clear();
            bufs[n].extend_from_slice(f);
            n += 1;
        });
        t[2] = Instant::now();

        let stats = &mut rig.node.stats;
        for frame in &bufs[..n] {
            stats.rx_frames += 1;
            stats.rx_bytes += frame.len() as u64;
            match decode_packet(frame) {
                Ok(p) => decoded.push(p),
                Err(_) => stats.malformed_drops += 1,
            }
        }
        t[3] = Instant::now();

        held.extend(decoded.drain(..).map(Pkt::new));
        t[4] = Instant::now();

        for pkt in held.iter_mut() {
            rig.node.router.process(pkt, NODE_INGRESS, now_rx);
        }
        t[5] = Instant::now();

        for mut pkt in held.drain(..) {
            pkt.set_enqueued_at(now_rx);
            if rig.node.sched.enqueue(pkt, now_rx) == Enqueued::Dropped {
                rig.node.stats.queue_drops += 1;
            }
        }
        t[6] = Instant::now();

        let now_tx = rig.clock.now();
        while out.len() < batch {
            match rig.node.sched.dequeue(now_tx) {
                Some(pkt) => out.push(pkt),
                None => break,
            }
        }
        t[7] = Instant::now();

        for pkt in &out {
            if rig.port.tx_frame(&mut |buf| encode_packet_into(pkt, buf)) {
                rig.node.stats.tx_frames += 1;
                rig.node.stats.tx_bytes += pkt.wire_len() as u64;
                rig.node.latency_ns.record(now_tx.since(pkt.enqueued_at()).as_nanos());
            } else {
                // `poll` would hold the packet and retry; the staged loop
                // has no such slot, and the output check wants zero anyway.
                rig.node.stats.tx_backpressure += 1;
            }
        }
        t[8] = Instant::now();

        out.clear();
        t[9] = Instant::now();

        let sink = &mut rig.sink;
        rig.wire.rx_burst(2 * batch, &mut |f| sink.see(f));
        t[10] = Instant::now();

        for s in 0..STAGES.len() {
            sums[s] += (t[s + 1] - t[s]).as_nanos() as u64;
        }
        if it % SPAN_EVERY == 0 {
            let parent = spans.record("node.batch", Some(rep_span), t[0], t[10]);
            for s in 0..STAGES.len() {
                spans.record(STAGES[s], Some(parent), t[s], t[s + 1]);
            }
        }
    }
    rig.busy += Duration::from_nanos(sums[FILL + 1..SINK].iter().sum());
    sums
}

/// ns per call of `validate_precap` and `validate_cap` on capabilities
/// minted exactly as the workload's generator mints them.
fn crypto_layer(kind: Kind, opts: &RunOpts) -> (f64, f64) {
    let schedule = SecretSchedule::from_seed(opts.seed);
    let now_secs = NodeClock::new().now().as_secs();
    let base = if kind == Kind::Churn { CHURN_SRC_BASE } else { PKTGEN_LEGIT.1 };
    let flows = if kind == Kind::Churn { opts.sizing.churn_flows.min(4096) } else { 128 };
    let minted: Vec<(Addr, CapValue, CapValue)> = (0..flows as u32)
        .map(|i| {
            let src = Addr(base + i);
            let precap = mint_precap(&schedule, now_secs, src, GEN_DST);
            (src, precap, mint_cap(precap, grant()))
        })
        .collect();
    let calls = opts.sizing.crypto_calls;
    let min_rate = RouterConfig::default().min_rate_bytes_per_sec;

    let t = Instant::now();
    let mut ok = 0usize;
    for &(src, precap, _) in minted.iter().cycle().take(calls) {
        ok += usize::from(std::hint::black_box(validate_precap(
            &schedule, now_secs, src, GEN_DST, precap,
        )));
    }
    let precap_ns = t.elapsed().as_nanos() as f64 / calls as f64;
    let t = Instant::now();
    for &(src, _, cap) in minted.iter().cycle().take(calls) {
        ok += usize::from(
            std::hint::black_box(validate_cap(
                &schedule,
                now_secs,
                src,
                GEN_DST,
                grant(),
                cap,
                min_rate,
            ))
            .is_ok(),
        );
    }
    let cap_ns = t.elapsed().as_nanos() as f64 / calls as f64;
    assert_eq!(ok, 2 * calls, "freshly minted capabilities must validate");
    (precap_ns, cap_ns)
}

/// Runs a daemon workload: timed reps on a fresh node each (traced runs
/// alternate an untraced and a traced rep), then the output checks.
pub fn run(kind: Kind, opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut clock = RepClock::new(opts);
    while clock.more() {
        for traced in [false, true] {
            if traced && !opts.trace {
                continue;
            }
            let rep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_rep(kind, opts, traced, spans)
            }));
            out.check(rep.is_ok(), || "a rep panicked".into());
            reps.extend(rep);
        }
    }

    for rep in &reps {
        out.count(
            rep.legit_offered,
            rep.legit_offered.saturating_sub(rep.legit_delivered),
            "legitimate frames delivered undemoted",
        );
        out.check(rep.undecodable == 0, || {
            format!("{} forwarded frames failed decode_packet", rep.undecodable)
        });
        out.check(rep.stats.malformed_drops == 0, || {
            format!("malformed_drops = {}", rep.stats.malformed_drops)
        });
        out.check(rep.stats.tx_backpressure == 0, || {
            format!("tx_backpressure = {}", rep.stats.tx_backpressure)
        });
        out.check(rep.gen_backpressure == 0, || {
            format!("generator hit a full ring {} times", rep.gen_backpressure)
        });
        let delivery = rep.delivery();
        let total = (rep.router.nonce_hits + rep.router.full_validations).max(1) as f64;
        match kind {
            Kind::Clean => {
                out.check(delivery == 1.0, || format!("legit_delivery = {delivery} (want 1.0)"));
                out.check((rep.router.full_validations as f64) < 1e-3 * total, || {
                    format!("clean mix full-validated {} of {total}", rep.router.full_validations)
                });
            }
            Kind::Flood => {
                out.check(delivery >= 0.999, || {
                    format!("legit_delivery = {delivery} (want ≥ 0.999)")
                });
                out.check(rep.sched.requests_dropped > 0, || {
                    "no request was dropped: the request channel is not over-subscribed".into()
                });
            }
            Kind::Churn => {
                out.check(delivery == 1.0, || format!("legit_delivery = {delivery} (want 1.0)"));
                out.check(rep.router.nonce_hits == 0, || {
                    format!("churn took the nonce fast path {} times", rep.router.nonce_hits)
                });
                out.check(rep.router.full_validations == rep.stats.rx_frames, || {
                    format!(
                        "churn full-validated {} of {} frames",
                        rep.router.full_validations, rep.stats.rx_frames
                    )
                });
            }
        }
    }

    let of = |traced: bool, f: RepFn| -> Vec<f64> {
        reps.iter().filter(|r| r.traced == traced).map(f).collect()
    };
    if !opts.trace {
        out.put("setup_s", &of(false, &|r| r.setup_s));
        out.put("fwd_mpps", &of(false, &|r| r.stats.tx_frames as f64 * 1e3 / r.busy_ns.max(1.0)));
        out.put("wall_s", &of(false, &|r| r.wall_s));
    }
    // Reported by both kinds of run; only the traced one hands them to the
    // driver (they are per-layer there: not defined on the sim workloads).
    out.put("fwd_p50_us", &of(false, &|r| r.p50_us));
    out.put("fwd_p99_us", &of(false, &|r| r.p99_us));
    out.put("legit_delivery", &of(false, &Rep::delivery));
    out.put("node.poll_ns", &of(false, &Rep::ns_per_rx));
    if !opts.trace {
        return out;
    }

    for (s, stage) in STAGES.iter().enumerate() {
        out.put(stage, &of(true, &|r| r.stage_ns[s] as f64 / r.stats.rx_frames.max(1) as f64));
        for r in reps.iter().filter(|r| r.traced) {
            spans.total(stage, r.stage_ns[s], r.stats.rx_frames);
        }
    }
    let stage_sum = of(true, &Rep::ns_per_rx);
    out.put("node.stage_sum_ns", &stage_sum);
    let poll_ns = out.get("node.poll_ns").map_or(0.0, |s| s.median);
    let cover = median(&stage_sum) / poll_ns.max(1e-9);
    out.put1("node.stage_cover", cover);
    out.check((0.85..=1.15).contains(&cover), || {
        format!("node.stage_cover = {cover:.3}: the staged trace does not reproduce poll()")
    });
    let (precap_ns, cap_ns) = crypto_layer(kind, opts);
    out.put1("crypto.validate_precap_ns", precap_ns);
    out.put1("crypto.validate_cap_ns", cap_ns);

    let counters: [(&str, RepFn); 19] = [
        ("core.router.nonce_hits", &|r| r.router.nonce_hits as f64),
        ("core.router.full_validations", &|r| r.router.full_validations as f64),
        ("core.router.demoted_bad_cap", &|r| r.router.demoted_bad_cap as f64),
        ("core.router.demotions", &|r| r.router.demotions as f64),
        ("core.router.table_admission_failures", &|r| r.router.table_admission_failures as f64),
        ("core.router.cache_hit_rate", &|r| r.router.cache_hit_rate().unwrap_or(0.0)),
        ("core.flowtable.len", &|r| r.table_len as f64),
        ("core.flowtable.capacity", &|r| r.table_cap as f64),
        ("core.sched.requests_sent", &|r| r.sched.requests_sent as f64),
        ("core.sched.requests_dropped", &|r| r.sched.requests_dropped as f64),
        ("core.sched.requests_demoted", &|r| r.sched.requests_demoted as f64),
        ("core.sched.legacy_dropped", &|r| r.sched.legacy_dropped as f64),
        ("core.sched.request_keys", &|r| r.request_keys as f64),
        ("node.rx_frames", &|r| r.stats.rx_frames as f64),
        ("node.tx_frames", &|r| r.stats.tx_frames as f64),
        ("node.queue_drops", &|r| r.stats.queue_drops as f64),
        ("node.malformed_drops", &|r| r.stats.malformed_drops as f64),
        ("node.tx_backpressure", &|r| r.stats.tx_backpressure as f64),
        ("node.state_bytes", &|r| r.state_bytes as f64),
    ];
    for (name, f) in counters {
        out.put(name, &of(true, f));
    }
    out
}
