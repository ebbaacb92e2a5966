//! The two simulator workloads: the Figure 8 grid run sequentially on the
//! calling thread (`run_driven`, not `run_all`'s worker pool), and the
//! internet-scale tree at a size a shared box can repeat.
//!
//! The trace is again taken from outside: wall time around the topology
//! build and around the drive callback per scenario, the engine's own
//! `events_processed()`, a benchmark-owned `Tracer` folding into
//! `TraceCounts`, and the bottleneck's public `ChannelStats`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tva_bench::dumbbell::{run_dumbbell, run_dumbbell_observed};
use tva_bench::scale::{run_scale_with, ScaleConfig, ScaleRun};
use tva_experiments::{fig8, run_driven, Fidelity, ScenarioConfig, Scheme};
use tva_sim::{SimTime, TraceCounts, TraceEvent};

use crate::spans::Spans;
use crate::stats::median;
use crate::{Outcome, RepClock, RunOpts};

fn key(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Internet => "internet",
        Scheme::Siff => "siff",
        Scheme::Pushback => "pushback",
        Scheme::Tva => "tva",
    }
}

/// One scenario of the grid, as measured from outside.
struct Row {
    scheme: Scheme,
    k: usize,
    build_s: f64,
    drive_s: f64,
    events: u64,
    attempts: usize,
    completion: f64,
    avg_completion_secs: f64,
    drop_rate: f64,
    queued_delay_mean_us: f64,
    trace: TraceCounts,
}

/// Builds and runs one scenario on this thread. `None` if it panicked.
fn scenario(
    cfg: &ScenarioConfig,
    traced: bool,
    spans: &mut Spans,
    parent: Option<u32>,
) -> Option<Row> {
    let counts = Arc::new(Mutex::new(TraceCounts::default()));
    let t0 = Instant::now();
    let (mut t_built, mut t_driven) = (t0, t0);
    let (mut events, mut drop_rate, mut queued_us) = (0, 0.0, 0.0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_driven(
            cfg,
            |sim, _| {
                if traced {
                    let counts = Arc::clone(&counts);
                    sim.set_tracer(Some(Box::new(move |ev: &TraceEvent| {
                        counts.lock().expect("tracer never panics holding the lock").record(ev)
                    })));
                }
                t_built = Instant::now();
                sim.run_until(cfg.duration);
                t_driven = Instant::now();
            },
            |sim, nodes| {
                events = sim.events_processed();
                let stats = &sim.channel(nodes.bottleneck.ab).stats;
                drop_rate = stats.drop_rate();
                queued_us = stats.mean_queued_delay_s() * 1e6;
            },
        )
    }))
    .ok()?;
    let end = Instant::now();
    let span = spans.record("sim.scenario", parent, t0, end);
    spans.record("sim.topology.build", Some(span), t0, t_built);
    spans.record("sim.engine.drive", Some(span), t_built, t_driven);
    spans.record("transport.summarise", Some(span), t_driven, end);
    let trace = counts.lock().expect("tracer never panics holding the lock").clone();
    Some(Row {
        scheme: cfg.scheme,
        k: cfg.n_attackers,
        build_s: (t_built - t0).as_secs_f64(),
        drive_s: (t_driven - t_built).as_secs_f64(),
        events,
        attempts: result.summary.attempts,
        completion: result.summary.completion_fraction,
        avg_completion_secs: result.summary.avg_completion_secs,
        drop_rate,
        queued_delay_mean_us: queued_us,
        trace,
    })
}

/// One sequential pass over the grid.
struct Pass {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    rows: Vec<Row>,
    panicked: u64,
}

impl Pass {
    fn events(&self) -> u64 {
        self.rows.iter().map(|r| r.events).sum()
    }

    fn drive_s(&self) -> f64 {
        self.rows.iter().map(|r| r.drive_s).sum()
    }

    fn ns_per_event(&self, scheme: Scheme) -> f64 {
        let rows = || self.rows.iter().filter(|r| r.scheme == scheme);
        let events: u64 = rows().map(|r| r.events).sum();
        rows().map(|r| r.drive_s).sum::<f64>() * 1e9 / events.max(1) as f64
    }

    fn tva(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.scheme == Scheme::Tva)
    }

    /// The row of `scheme` with the most attackers.
    fn heaviest(&self, scheme: Scheme) -> Option<&Row> {
        self.rows.iter().filter(|r| r.scheme == scheme).max_by_key(|r| r.k)
    }
}

fn grid(opts: &RunOpts) -> Vec<ScenarioConfig> {
    fig8(Fidelity::Quick)
        .into_iter()
        .filter(|c| opts.sizing.fig8_ks.contains(&c.n_attackers))
        .map(|c| ScenarioConfig {
            duration: SimTime::from_secs(opts.sizing.fig8_sim_secs),
            seed: opts.seed,
            ..c
        })
        .collect()
}

/// Warm-up scenario (its time is set-up, not `wall_s`), then the pass.
fn pass(cfgs: &[ScenarioConfig], traced: bool, spans: &mut Spans, out: &mut Outcome) -> Pass {
    let t_setup = Instant::now();
    let lightest_tva = cfgs
        .iter()
        .filter(|c| c.scheme == Scheme::Tva)
        .min_by_key(|c| c.n_attackers)
        .expect("the grid has TVA rows");
    let warm = scenario(lightest_tva, false, spans, None);
    let warm_s = t_setup.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut rows = Vec::new();
    let mut panicked = 0;
    let id = spans.open(if traced { "sim.pass.traced" } else { "sim.pass.untraced" }, None, t0);
    for cfg in cfgs {
        match scenario(cfg, traced, spans, Some(id)) {
            Some(row) => rows.push(row),
            None => panicked += 1,
        }
    }
    let end = Instant::now();
    spans.close(id, end);
    let pass = Pass {
        traced,
        setup_s: warm_s + rows.iter().map(|r| r.build_s).sum::<f64>(),
        wall_s: (end - t0).as_secs_f64(),
        rows,
        panicked,
    };
    // One seed, two runs of the same scenario: the engine must repeat.
    let again = pass.tva().min_by_key(|r| r.k).map(|r| r.events);
    out.check(warm.as_ref().map(|w| w.events) == again && again.is_some(), || {
        format!(
            "TVA k={} run twice with one seed disagrees on events_processed()",
            lightest_tva.n_attackers
        )
    });
    pass
}

/// `sim_fig8`: 4 schemes × k grid, run sequentially on this thread.
pub fn run_fig8(opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let cfgs = grid(opts);
    let mut passes: Vec<Pass> = Vec::new();
    let mut clock = RepClock::new(opts);
    while clock.more() {
        passes.push(pass(&cfgs, false, spans, &mut out));
        if opts.trace {
            passes.push(pass(&cfgs, true, spans, &mut out));
        }
    }

    for p in &passes {
        out.count(cfgs.len() as u64, p.panicked, "scenarios ran to completion");
        for r in p.tva() {
            out.check(r.completion >= 0.99, || {
                format!("TVA completion {:.3} at k={} (want ≥ 0.99)", r.completion, r.k)
            });
        }
        for r in p.rows.iter().filter(|r| r.scheme == Scheme::Internet && r.k == 100) {
            out.check(r.completion <= 0.05, || {
                format!("Internet completion {:.3} at k=100 (want ≤ 0.05)", r.completion)
            });
        }
        // Tracing, and repeating, must not change what the engine does.
        out.check(p.events() == passes[0].events(), || {
            format!("pass dispatched {} events, the first {}", p.events(), passes[0].events())
        });
    }

    let of = |traced: bool, f: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        passes.iter().filter(|p| p.traced == traced).map(f).collect()
    };
    if !opts.trace {
        out.put("setup_s", &of(false, &|p| p.setup_s));
        out.put("fwd_mpps", &of(false, &|p| p.events() as f64 / p.drive_s().max(1e-9) / 1e6));
        out.put("wall_s", &of(false, &|p| p.wall_s));
    }
    let first = &passes[0];
    out.put1("legit_completion", first.tva().map(|r| r.completion).fold(f64::INFINITY, f64::min));
    out.put1("tva_xfer_s", first.heaviest(Scheme::Tva).map_or(0.0, |r| r.avg_completion_secs));
    if !opts.trace {
        return out;
    }

    out.put1("sim.engine.events", first.events() as f64);
    for scheme in Scheme::ALL {
        let name = key(scheme);
        out.put(
            &format!("sim.engine.ns_per_event.{name}"),
            &of(false, &|p| p.ns_per_event(scheme)),
        );
        if let Some(r) = first.heaviest(scheme) {
            out.put1(&format!("sim.bottleneck.drop_rate.{name}"), r.drop_rate);
            out.put1(
                &format!("sim.bottleneck.queued_delay_mean_us.{name}"),
                r.queued_delay_mean_us,
            );
            out.put1(&format!("transport.attempts.{name}"), r.attempts as f64);
            out.put1(&format!("transport.completion_frac.{name}"), r.completion);
        }
    }
    out.put(
        "sim.core.tva_extra_ns_per_event",
        &of(false, &|p| p.ns_per_event(Scheme::Tva) - p.ns_per_event(Scheme::Internet)),
    );
    if let Some(t) = passes.iter().find(|p| p.traced) {
        let sum = |f: &dyn Fn(&TraceCounts) -> u64| t.rows.iter().map(|r| f(&r.trace)).sum::<u64>();
        out.put1("sim.trace.enqueued", sum(&|c| c.enqueued) as f64);
        out.put1("sim.trace.dropped", sum(&|c| c.dropped) as f64);
        out.put1("sim.trace.tx_start", sum(&|c| c.tx_start) as f64);
        out.put1("sim.trace.delivered", sum(&|c| c.delivered) as f64);
    }
    let (plain, traced) = (median(&of(false, &|p| p.wall_s)), median(&of(true, &|p| p.wall_s)));
    out.put1("sim.trace.overhead_pct", (traced / plain.max(1e-9) - 1.0) * 100.0);
    for r in passes.iter().filter(|p| !p.traced).flat_map(|p| &p.rows) {
        let stage = format!("sim.engine.ns_per_event.{}", key(r.scheme));
        spans.total(&stage, (r.drive_s * 1e9) as u64, r.events);
    }
    out.put1("obs.flight_ns_per_event", flight_ns_per_event(opts.sizing.obs_sim_secs, spans));
    out
}

/// Three interleaved pairs of the bench dumbbell without and with the
/// flight-recorder tracer; the median paired difference per event.
fn flight_ns_per_event(sim_secs: u64, spans: &mut Spans) -> f64 {
    let mut diffs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let plain = run_dumbbell(sim_secs);
        let t1 = Instant::now();
        let observed = run_dumbbell_observed(sim_secs);
        let t2 = Instant::now();
        spans.record("obs.dumbbell.plain", None, t0, t1);
        spans.record("obs.dumbbell.observed", None, t1, t2);
        let extra_ns = (t2 - t1).as_nanos() as f64 - (t1 - t0).as_nanos() as f64;
        diffs.push(extra_ns / plain.events.max(observed.events).max(1) as f64);
    }
    median(&diffs)
}

fn scale_config(opts: &RunOpts) -> ScaleConfig {
    let hosts = opts.sizing.scale_hosts;
    ScaleConfig {
        hosts,
        attackers: hosts / 10,
        active_users: (hosts / 100).min(500),
        sim_secs: 2,
        seed: opts.seed,
        ..ScaleConfig::full()
    }
}

fn scale_rep(cfg: ScaleConfig, name: &'static str, spans: &mut Spans) -> Option<ScaleRun> {
    let t0 = Instant::now();
    let run = catch_unwind(|| run_scale_with(cfg, 1)).ok()?;
    let end = Instant::now();
    let span = spans.record(name, None, t0, end);
    let built = t0 + std::time::Duration::from_secs_f64(run.build_s);
    let ran = built + std::time::Duration::from_secs_f64(run.run_s);
    spans.record("sim.scale.build", Some(span), t0, built);
    spans.record("sim.scale.run", Some(span), built, ran);
    spans.record("sim.scale.teardown", Some(span), ran.min(end), end);
    Some(run)
}

/// `sim_scale`: the TVA tree of `run_scale_with` on one shard.
pub fn run_scale(opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let cfg = scale_config(opts);
    // Discarded: the first build pays first-touch page faults for the whole
    // footprint (several times the build time once faulted in).
    let warm = scale_rep(cfg, "sim.scale.warmup", spans);
    out.check(warm.is_some(), || "the warm-up rep panicked".into());

    let mut reps: Vec<ScaleRun> = Vec::new();
    let mut clock = RepClock::new(opts);
    while clock.more() {
        match scale_rep(cfg, "sim.scale.rep", spans) {
            Some(run) => {
                out.check(Some(run.events) == warm.map(|w| w.events), || {
                    format!(
                        "rep dispatched {} events, the warm-up {:?}",
                        run.events,
                        warm.map(|w| w.events)
                    )
                });
                reps.push(run);
            }
            None => out.check(false, || "a rep panicked".into()),
        }
    }

    let of = |f: &dyn Fn(&ScaleRun) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let ns_per_event = |r: &ScaleRun| r.run_s * 1e9 / r.events.max(1) as f64;
    if !opts.trace {
        out.put("setup_s", &of(&|r| r.build_s));
        out.put("fwd_mpps", &of(&|r| r.events as f64 / r.run_s.max(1e-9) / 1e6));
        out.put("wall_s", &of(&|r| r.build_s + r.run_s));
        return out;
    }

    out.put("sim.scale.build_s", &of(&|r| r.build_s));
    out.put("sim.scale.run_s", &of(&|r| r.run_s));
    out.put("sim.scale.events", &of(&|r| r.events as f64));
    out.put("sim.scale.ns_per_event", &of(&ns_per_event));
    out.put(
        "sim.scale.kb_per_host",
        &of(&|r| r.peak_rss_kb.unwrap_or(0) as f64 / r.hosts.max(1) as f64),
    );
    let small =
        scale_rep(ScaleConfig { seed: opts.seed, ..ScaleConfig::quick() }, "sim.scale.10k", spans);
    out.check(small.is_some(), || "the 10 k-host rep panicked".into());
    let small_ns = small.as_ref().map_or(0.0, ns_per_event);
    out.put1("sim.scale.ns_per_event_10k", small_ns);
    let big_ns = out.get("sim.scale.ns_per_event").map_or(0.0, |s| s.median);
    out.put1("sim.scale.size_penalty", big_ns / small_ns.max(1e-9));
    for r in &reps {
        spans.total("sim.scale.ns_per_event", (r.run_s * 1e9) as u64, r.events);
    }
    out
}
