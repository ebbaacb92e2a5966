//! The Figure 7 testbed: one declarative configuration that assembles the
//! dumbbell topology for any of the four schemes and any of the paper's
//! attacks, runs it, and collects the §5 metrics.
//!
//! ```text
//! 10 users ───┐                         ┌─── destination
//!             ├── R1 ══ 10 Mb/s ══ R2 ──┤
//! 1–100 atk ──┘   \  (bottleneck)  /    └─── colluder
//!                  R3 ─ ─ ─ ─ ─ ─ ─          (R3: `backup_path` only)
//! ```
//!
//! All access links are 100 Mb/s with 10 ms delay; the bottleneck is
//! 10 Mb/s with 10 ms delay, giving the paper's 60 ms RTT.
//!
//! With `backup_path` the dumbbell becomes a diamond: the bottleneck is one
//! hop, the R1–R3–R2 detour two, so shortest-path routing prefers the
//! bottleneck until `faults` takes it down and routes re-converge through
//! R3. For TVA that re-route invalidates every capability in flight —
//! capabilities are bound to the router path (§3.1), and R3 has never
//! stamped these flows — so senders must recover via demotion notices and
//! re-request (§3.8). R3's `requests_stamped` counter is the direct
//! evidence that they did.

use tva_baselines::{
    EgressSpec, LegacyRouterNode, PushbackConfig, PushbackRouterNode, SiffConfig, SiffRouterNode,
    SiffScheduler, SiffShim,
};
use tva_core::{
    AllowAll, AuthorizedFlooder, ClientPolicy, GrantPolicy, HostConfig, MimicFlooder,
    PulseFlooder, RequestLimiter, RingFlooder, RotatingFlooder, RouterConfig, ServerPolicy,
    SpoofColluder, SpoofedRequestFlooder, TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{
    DropTail, DutyCycleOutage, Impairments, LinkHandle, Node, NodeId, QueueDisc, SimDuration,
    SimTime, Simulator, TopologyBuilder,
};
use tva_transport::{
    summarize, ClientNode, FloodNode, NullShim, ServerNode, Shim, TcpConfig, TransferRecord,
    TransferSummary, TOKEN_START,
};
use tva_wire::{Addr, CapHeader, Grant, Packet, PacketId};

/// Which DoS-defense architecture the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The full Traffic Validation Architecture.
    Tva,
    /// SIFF (stateless 2-bit marks).
    Siff,
    /// Pushback (aggregate congestion control).
    Pushback,
    /// The unmodified Internet.
    Internet,
}

impl Scheme {
    /// All four, in the paper's plotting order.
    pub const ALL: [Scheme; 4] = [Scheme::Internet, Scheme::Siff, Scheme::Pushback, Scheme::Tva];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Tva => "TVA",
            Scheme::Siff => "SIFF",
            Scheme::Pushback => "pushback",
            Scheme::Internet => "Internet",
        }
    }
}

/// The attack pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// No attackers (baseline).
    None,
    /// Each attacker floods legacy data packets at the destination (§5.1).
    LegacyFlood,
    /// Each attacker floods request packets at the destination (§5.2).
    RequestFlood,
    /// Attackers obtain capabilities from a colluder behind the bottleneck
    /// and flood authorized traffic at it (§5.3).
    AuthorizedColluder,
    /// Attackers obtain one initial grant from the destination itself
    /// (imprecise policy), all flooding at once (§5.4).
    ImpreciseAllAtOnce,
    /// As above, but attackers flood in `groups` successive waves (§5.4).
    ImpreciseStaged {
        /// Number of waves.
        groups: usize,
        /// Seconds per wave.
        wave_secs: u64,
    },
    /// Everything at once (an extension beyond the paper): one third of the
    /// attackers flood legacy traffic, one third flood requests, one third
    /// flood colluder-authorized traffic — all §5 vectors simultaneously.
    Combined,
    /// A *ring* of colluding destinations behind the bottleneck: attackers
    /// obtain capabilities to all of them and flood round-robin in
    /// clock-coordinated waves, multiplying the share per-destination fair
    /// queuing hands the attack (strategic extension of §5.3).
    ColluderRing {
        /// Cooperating destinations in the ring.
        ring: u8,
        /// Wave period in milliseconds.
        wave_ms: u32,
        /// Active fraction of each wave, in percent.
        duty_pct: u8,
    },
    /// Pulse/shrew attackers: short authorized bursts at high peak rate,
    /// phase-locked to the transport's RTO schedule, silent in between.
    /// Peak rate is scaled so the *average* byte budget matches a constant
    /// `attacker_rate_bps` flood.
    PulseShrew {
        /// Pulse period in milliseconds (the transport's min RTO is 200 ms,
        /// initial RTO 1 s).
        period_ms: u32,
        /// Burst length in milliseconds.
        burst_ms: u32,
        /// Phase offset in milliseconds.
        phase_ms: u32,
    },
    /// Flash-crowd mimicry: attackers behave like eager legitimate users —
    /// request, transfer a short burst, think, repeat — and earn real
    /// grants from the destination's policy.
    FlashMimicry {
        /// Bytes per burst, in KB.
        burst_kb: u16,
        /// Mean think time between bursts, in milliseconds.
        think_ms: u32,
    },
    /// Request-channel exhaustion: hand-crafted request packets carrying
    /// forged path-identifier entries from a rotating spoofed source pool,
    /// aimed at the request fair-queuer's key table.
    SpoofedRequestStorm {
        /// Spoofed sources per attacker.
        src_pool: u16,
        /// Forged tagged entries pre-filled per request.
        fill: u8,
    },
    /// Rotating-identity flooders: churn through spoofed sources,
    /// re-acquiring capabilities under each identity (leaked back by a
    /// spoof colluder under TVA), planting a fresh flow-table entry at the
    /// routers on every rotation.
    RotatingIdentity {
        /// Identities per attacker.
        pool: u16,
        /// Rotation interval in milliseconds.
        rotate_ms: u32,
    },
}

/// Wire faults on the bottleneck link: random impairments, periodic
/// blackouts, and one scheduled failure (with optional recovery). The
/// default is a perfect wire that stays up. Probabilities are
/// parts-per-million so a configuration round-trips exactly through a
/// replay artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Per-packet loss probability, in ppm.
    pub loss_ppm: u32,
    /// Per-packet bit-corruption probability, in ppm.
    pub corrupt_ppm: u32,
    /// Periodic outage windows.
    pub outage: Option<DutyCycleOutage>,
    /// When the link goes down, if it does.
    pub down_at: Option<SimTime>,
    /// When it comes back (only read when `down_at` is set).
    pub up_at: Option<SimTime>,
}

impl LinkFaults {
    fn apply(&self, sim: &mut Simulator, link: LinkHandle) {
        sim.impair_link(
            link,
            Impairments {
                loss: f64::from(self.loss_ppm) / 1e6,
                corrupt: f64::from(self.corrupt_ppm) / 1e6,
                outage: self.outage,
            },
        );
        if let Some(down) = self.down_at {
            sim.schedule_link_down(link, down);
            if let Some(up) = self.up_at {
                sim.schedule_link_up(link, up);
            }
        }
    }
}

/// Scenario parameters (defaults reproduce the paper's setup).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Attack pattern.
    pub attack: Attack,
    /// Number of attacking hosts.
    pub n_attackers: usize,
    /// Number of legitimate users.
    pub n_users: usize,
    /// Transfers each user performs.
    pub transfers_per_user: usize,
    /// Transfer size in bytes (paper: 20 KB).
    pub file_size: u32,
    /// Bottleneck capacity (paper: 10 Mb/s).
    pub bottleneck_bps: u64,
    /// Attacker rate (paper: 1 Mb/s each).
    pub attacker_rate_bps: u64,
    /// TVA request-channel fraction (paper simulations: 1%).
    pub request_fraction: f64,
    /// Grant handed out by the destination (Figure 11: 32 KB / 10 s).
    pub grant: Grant,
    /// When attackers start.
    pub attack_start: SimTime,
    /// Simulation horizon.
    pub duration: SimTime,
    /// Unresolved transfers started more than this long before the horizon
    /// count as failures; younger ones are excluded as indeterminate.
    pub failure_grace: SimDuration,
    /// Transfers started before this instant are excluded from the metrics
    /// (warm-up: the paper's 1000-transfer runs dilute the capability
    /// bootstrap transient; shorter runs must skip it explicitly).
    pub measure_after: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// SIFF key rotation (Figure 11 uses 3 s with no previous-key grace).
    pub siff_key_rotation: SimDuration,
    /// SIFF: accept marks from the previous key generation.
    pub siff_accept_previous: bool,
    /// Whether the destination pre-denies attacker addresses (the §5.2
    /// assumption that it can distinguish attacker requests).
    pub deny_attackers: bool,
    /// Override for the TVA routers' per-flow queue byte cap (`None` keeps
    /// the `RouterConfig` default). Small caps model memory-hardened
    /// routers where per-flow admission actually bites; the `invcheck`
    /// fuzzer explores them because that is where queue-admission bugs
    /// (e.g. the DRR stub-key leak) become reachable.
    pub per_queue_cap_bytes: Option<u64>,
    /// Flow-record packet sampling for the TVA routers and schedulers,
    /// 1-in-N (`0` = off, the default — sampling never perturbs the
    /// simulation, it only records). All samplers share the default
    /// `RouterConfig` sampling seed so their records merge into one
    /// per-prefix attribution table after the run.
    pub flow_sample_n: u32,
    /// TVA request-channel policing on every router: the exact per-path
    /// key table (flat, the default, or prefix-first) or the
    /// constant-memory count-min sketch limiter.
    pub request_limiter: RequestLimiter,
    /// Adds a third router R3 and the R1–R3, R3–R2 links (bottleneck
    /// capacity each): a two-hop detour that carries nothing until
    /// `faults` takes the bottleneck down.
    pub backup_path: bool,
    /// Wire faults on the bottleneck link.
    pub faults: LinkFaults,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            scheme: Scheme::Tva,
            attack: Attack::None,
            n_attackers: 0,
            n_users: 10,
            transfers_per_user: 30,
            file_size: 20 * 1024,
            bottleneck_bps: 10_000_000,
            attacker_rate_bps: 1_000_000,
            request_fraction: 0.01,
            grant: Grant::from_parts(100, 10),
            attack_start: SimTime::ZERO,
            duration: SimTime::from_secs(400),
            failure_grace: SimDuration::from_secs(120),
            measure_after: SimTime::ZERO,
            seed: 20050821, // SIGCOMM'05 conference date
            siff_key_rotation: SimDuration::from_secs(128),
            siff_accept_previous: true,
            deny_attackers: false,
            per_queue_cap_bytes: None,
            flow_sample_n: 0,
            request_limiter: RequestLimiter::Flat,
            backup_path: false,
            faults: LinkFaults::default(),
        }
    }
}

/// What the wire faults did and how the network recovered, over one run.
/// All zero on a fault-free dumbbell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transfers that completed strictly after `faults.down_at` — the
    /// liveness half of the recovery story.
    pub completed_after_failure: usize,
    /// Route re-convergence events the engine performed.
    pub reconvergences: u64,
    /// Packets the backup R3→R2 channel carried (any scheme).
    pub backup_pkts: u64,
    /// Requests the backup TVA router stamped (0 for other schemes):
    /// capability re-establishment went through the new path.
    pub backup_requests_stamped: u64,
    /// Regular packets the backup TVA router fully validated (0 for other
    /// schemes): re-issued capabilities were honored there.
    pub backup_validations: u64,
    /// Packets lost on the bottleneck (random loss, outage windows, and
    /// the failure instant combined), both directions.
    pub lost_pkts: u64,
    /// Packets bit-corrupted on the bottleneck.
    pub corrupted_pkts: u64,
    /// Corrupted packets that no longer parsed at all.
    pub malformed_pkts: u64,
    /// Malformed datagrams dropped and counted by the TVA routers.
    pub malformed_drops: u64,
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Aggregate §5 metrics.
    pub summary: TransferSummary,
    /// Every resolved transfer (start time + completion), across users.
    pub transfers: Vec<TransferRecord>,
    /// The same records grouped per user (fairness analyses).
    pub per_user: Vec<Vec<TransferRecord>>,
    /// Bottleneck drop rate over the run.
    pub bottleneck_drop_rate: f64,
    /// Bottleneck utilization over the run.
    pub bottleneck_utilization: f64,
    /// Fault and recovery counters.
    pub faults: FaultCounters,
}

/// Well-known addresses.
pub const DEST: Addr = Addr::new(10, 0, 0, 1);
/// The colluder's address (behind the bottleneck, like the destination).
pub const COLLUDER: Addr = Addr::new(10, 0, 0, 2);

fn user_addr(i: usize) -> Addr {
    Addr::new(20, 0, (i / 200) as u8, (i % 200) as u8 + 1)
}

/// Attacker addresses (public so policies can pre-deny them).
pub fn attacker_addr(i: usize) -> Addr {
    Addr::new(66, 0, (i / 200) as u8, (i % 200) as u8 + 1)
}

/// Addresses of the colluder-ring destinations (behind the bottleneck,
/// alongside [`COLLUDER`]).
pub fn ring_addr(j: usize) -> Addr {
    Addr::new(10, 0, 1, (j % 200) as u8 + 1)
}

const ACCESS_BPS: u64 = 100_000_000;
const LINK_DELAY: SimDuration = SimDuration::from_millis(10);
const HOST_QUEUE: u64 = 1 << 20;
const ROUTER_QUEUE_PKTS: usize = 50;

/// Runs one scenario to completion. When `TVA_OBS_FLIGHT` requests a
/// flight recorder, the run feeds this thread's ring so a panic anywhere
/// (including inside a sweep worker) can dump recent packet history.
pub fn run(cfg: &ScenarioConfig) -> ScenarioResult {
    run_driven(cfg, default_driver(cfg), |_, _| {})
}

/// Node ids of the built testbed, for post-run inspection.
#[derive(Debug, Clone)]
pub struct BuiltNodes {
    /// The access-side router (attackers and users attach here).
    pub r1: NodeId,
    /// The destination-side router.
    pub r2: NodeId,
    /// The destination server.
    pub dest: NodeId,
    /// Legitimate users, in index order.
    pub clients: Vec<NodeId>,
    /// Attackers, in index order.
    pub attackers: Vec<NodeId>,
    /// The attackers' access links, in index order (`.ab` is the
    /// attacker→R1 direction) — wire-level attacker cost accounting.
    pub attacker_links: Vec<LinkHandle>,
    /// The bottleneck link (r1→r2 direction is `.ab`).
    pub bottleneck: LinkHandle,
    /// With `backup_path`: R3 and the R3–R2 link (R3→R2 is `.ab`).
    pub backup: Option<(NodeId, LinkHandle)>,
}

/// Like [`run`], but hands the finished simulator to `inspect` before
/// metrics are returned (tests and diagnostics).
pub fn run_inspect(
    cfg: &ScenarioConfig,
    inspect: impl FnOnce(&Simulator, &BuiltNodes),
) -> ScenarioResult {
    run_driven(cfg, default_driver(cfg), inspect)
}

/// The standard run loop: install the env-configured flight recorder (if
/// any) and run straight to the horizon. With `TVA_CHECK=1` set, the run
/// is instead driven in audited steps and panics (after dumping a replay
/// artifact) on any invariant violation.
fn default_driver(
    cfg: &ScenarioConfig,
) -> impl FnOnce(&mut Simulator, &BuiltNodes) {
    let end = cfg.duration;
    let cfg_check = cfg.clone();
    move |sim, _| {
        let check = tva_check::CheckConfig::from_env();
        if check.enabled {
            let report = crate::check::drive_checked(sim, end, &check);
            crate::check::enforce_clean(&check, &cfg_check, &report);
            return;
        }
        let flight = tva_obs::ObsConfig::from_env().flight_events;
        if flight > 0 {
            tva_obs::install_thread_flight(flight);
            sim.set_tracer(Some(tva_obs::flight_tracer()));
        }
        sim.run_until(end);
    }
}

/// Fully general entry point: `drive` receives the built simulator (kicks
/// already scheduled) and is responsible for advancing it to the horizon —
/// this is how the observability layer steps the clock in sample-sized
/// buckets and installs tracers without the builder knowing about either.
/// `inspect` then sees the finished simulator before metrics collection.
pub fn run_driven(
    cfg: &ScenarioConfig,
    drive: impl FnOnce(&mut Simulator, &BuiltNodes),
    inspect: impl FnOnce(&Simulator, &BuiltNodes),
) -> ScenarioResult {
    let mut b = Builder::new(cfg);
    b.build_and_run(drive, inspect)
}

/// Per-router secret salts, in R1, R2, R3 order.
const TVA_SALTS: [u64; 3] = [0x1111, 0x2222, 0x3333];
const SIFF_SALTS: [u64; 3] = [0x3333, 0x4444, 0x5555];

struct Builder<'a> {
    cfg: &'a ScenarioConfig,
    topo: TopologyBuilder,
    r1: NodeId,
    r2: NodeId,
    /// The backup router, with `backup_path`.
    r3: Option<NodeId>,
    kicks: Vec<(NodeId, u64, SimTime)>,
    clients: Vec<NodeId>,
    attackers: Vec<NodeId>,
    attacker_links: Vec<LinkHandle>,
    /// One per router, in R1, R2, R3 order.
    tva_cfgs: [RouterConfig; 3],
    siff_cfg: SiffConfig,
}

impl<'a> Builder<'a> {
    fn new(cfg: &'a ScenarioConfig) -> Self {
        // Note: `flow_sample_seed` stays at its shared default on purpose —
        // samplers with one (n, seed) pair can be merged across the routers
        // and the egress schedulers for whole-testbed attribution.
        let defaults = RouterConfig::default();
        let tva_cfgs = TVA_SALTS.map(|salt| RouterConfig {
            request_fraction: cfg.request_fraction,
            secret_seed: cfg.seed ^ salt,
            flow_sample_n: cfg.flow_sample_n,
            per_queue_cap_bytes: cfg.per_queue_cap_bytes.unwrap_or(defaults.per_queue_cap_bytes),
            request_limiter: cfg.request_limiter,
            ..defaults.clone()
        });
        let siff_cfg = SiffConfig {
            key_rotation: cfg.siff_key_rotation,
            accept_previous: cfg.siff_accept_previous,
            secret_seed: cfg.seed ^ SIFF_SALTS[0],
            ..SiffConfig::default()
        };
        let router = |i: usize| -> Box<dyn Node> {
            match cfg.scheme {
                Scheme::Tva => {
                    Box::new(TvaRouterNode::new(tva_cfgs[i].clone(), cfg.bottleneck_bps))
                }
                Scheme::Siff => Box::new(SiffRouterNode::new(SiffConfig {
                    secret_seed: cfg.seed ^ SIFF_SALTS[i],
                    ..siff_cfg.clone()
                })),
                Scheme::Pushback => Box::new(PushbackRouterNode::new(PushbackConfig::default())),
                Scheme::Internet => Box::<LegacyRouterNode>::default(),
            }
        };
        let mut topo = TopologyBuilder::new();
        let r1 = topo.add_node(router(0));
        let r2 = topo.add_node(router(1));
        let r3 = cfg.backup_path.then(|| topo.add_node(router(2)));
        Builder {
            cfg,
            topo,
            r1,
            r2,
            r3,
            kicks: Vec::new(),
            clients: Vec::new(),
            attackers: Vec::new(),
            attacker_links: Vec::new(),
            tva_cfgs,
            siff_cfg,
        }
    }

    /// R1, R2 and — with `backup_path` — R3.
    fn routers(&self) -> impl Iterator<Item = NodeId> {
        [self.r1, self.r2].into_iter().chain(self.r3)
    }

    /// An egress queue appropriate for the scheme, for a link of `bps`.
    fn router_queue(&self, which: NodeId, bps: u64) -> Box<dyn QueueDisc> {
        match self.cfg.scheme {
            Scheme::Tva => {
                let i = self.routers().position(|r| r == which).expect("a router of this testbed");
                Box::new(TvaScheduler::new(bps, &self.tva_cfgs[i]))
            }
            Scheme::Siff => Box::new(SiffScheduler::from_config(&self.siff_cfg)),
            Scheme::Pushback | Scheme::Internet => Box::new(DropTail::packets(ROUTER_QUEUE_PKTS)),
        }
    }

    fn host_queue(&self) -> Box<dyn QueueDisc> {
        Box::new(DropTail::new(HOST_QUEUE))
    }

    /// The scheme's host shim for `addr`, granting by `policy`. `tuning` is
    /// the TVA host configuration. Pushback and the Internet have no
    /// authorization concept, so every host there gets the `NullShim`.
    fn host_shim(
        &self,
        addr: Addr,
        policy: Box<dyn GrantPolicy>,
        tuning: HostConfig,
    ) -> Box<dyn Shim> {
        match self.cfg.scheme {
            Scheme::Tva => Box::new(TvaHostShim::new(addr, tuning, policy)),
            Scheme::Siff => {
                // Hosts refresh marks slightly faster than routers rotate keys.
                let refresh = SimDuration::from_nanos(
                    (self.cfg.siff_key_rotation.as_nanos() as f64 * 0.9) as u64,
                );
                let mut s = SiffShim::new(addr, policy, refresh);
                // SIFF keeps its own report threshold; only a colluder's
                // "never reports" carries over from the TVA tuning.
                if tuning.misbehavior_bytes_per_sec == f64::INFINITY {
                    s.misbehavior_bytes_per_sec = f64::INFINITY;
                }
                Box::new(s)
            }
            Scheme::Pushback | Scheme::Internet => Box::new(NullShim),
        }
    }

    /// The destination's shim, honoring `deny_attackers` and the scenario
    /// grant.
    fn dest_shim(&self) -> Box<dyn Shim> {
        // Blacklists are temporary (§3.3): a misflagged legitimate sender
        // recovers once the congestion that made it look bad clears.
        let mut policy = ServerPolicy::new(self.cfg.grant, SimDuration::from_secs(30));
        if self.cfg.deny_attackers {
            for i in 0..self.cfg.n_attackers {
                policy.deny_forever(attacker_addr(i));
            }
        }
        if matches!(
            self.cfg.attack,
            Attack::ImpreciseAllAtOnce | Attack::ImpreciseStaged { .. }
        ) {
            // The paper's imprecise policy: every attacker gets the default
            // grant exactly once; the destination "does not renew
            // capabilities because of the attack" (§5.4).
            for i in 0..self.cfg.n_attackers {
                policy.single_grant(attacker_addr(i));
            }
        }
        self.host_shim(
            DEST,
            Box::new(policy),
            HostConfig { default_grant: self.cfg.grant, ..HostConfig::default() },
        )
    }

    /// A router-to-router link at the bottleneck's capacity.
    fn core_link(&mut self, from: NodeId, to: NodeId) -> LinkHandle {
        let bps = self.cfg.bottleneck_bps;
        let (qf, qt) = (self.router_queue(from, bps), self.router_queue(to, bps));
        self.topo.link(from, to, bps, LINK_DELAY, qf, qt)
    }

    fn attach_host(&mut self, node: NodeId, addr: Addr, via: NodeId) -> LinkHandle {
        self.topo.bind_addr(node, addr);
        let q_router = self.router_queue(via, ACCESS_BPS);
        self.topo.link(node, via, ACCESS_BPS, LINK_DELAY, self.host_queue(), q_router)
    }

    fn add_attackers(&mut self) {
        let cfg = self.cfg;
        let start = cfg.attack_start;
        for i in 0..cfg.n_attackers {
            let addr = attacker_addr(i);
            let node: NodeId = match cfg.attack {
                Attack::None => break,
                Attack::LegacyFlood => self.topo.add_node(Box::new(FloodNode::new(
                    cfg.attacker_rate_bps,
                    Box::new(move |_now, _seq| {
                        Some(Packet {
                            id: PacketId(0),
                            src: addr,
                            dst: DEST,
                            cap: None,
                            tcp: None,
                            payload_len: 980,
                        })
                    }),
                ))),
                Attack::RequestFlood => {
                    // Request packets padded toward 1000 B so the byte rate
                    // matches the paper's 1 Mb/s without inflating the
                    // event count (documented in EXPERIMENTS.md).
                    self.topo.add_node(Box::new(FloodNode::new(
                        cfg.attacker_rate_bps,
                        Box::new(move |_now, _seq| {
                            Some(Packet {
                                id: PacketId(0),
                                src: addr,
                                dst: DEST,
                                cap: Some(CapHeader::request()),
                                tcp: None,
                                payload_len: 960,
                            })
                        }),
                    )))
                }
                Attack::AuthorizedColluder => {
                    let flooder = self.authorized_flooder(addr, COLLUDER, None);
                    self.topo.add_node(flooder)
                }
                Attack::Combined => match i % 3 {
                    0 => self.topo.add_node(Box::new(FloodNode::new(
                        cfg.attacker_rate_bps,
                        Box::new(move |_now, _seq| {
                            Some(Packet {
                                id: PacketId(0),
                                src: addr,
                                dst: DEST,
                                cap: None,
                                tcp: None,
                                payload_len: 980,
                            })
                        }),
                    ))),
                    1 => self.topo.add_node(Box::new(FloodNode::new(
                        cfg.attacker_rate_bps,
                        Box::new(move |_now, _seq| {
                            Some(Packet {
                                id: PacketId(0),
                                src: addr,
                                dst: DEST,
                                cap: Some(CapHeader::request()),
                                tcp: None,
                                payload_len: 960,
                            })
                        }),
                    ))),
                    _ => {
                        let flooder = self.authorized_flooder(addr, COLLUDER, None);
                        self.topo.add_node(flooder)
                    }
                },
                Attack::ImpreciseAllAtOnce => {
                    let flooder = self.authorized_flooder(
                        addr,
                        DEST,
                        Some((start, cfg.duration)),
                    );
                    self.topo.add_node(flooder)
                }
                Attack::ImpreciseStaged { groups, wave_secs } => {
                    let per_group = cfg.n_attackers.div_ceil(groups);
                    let g = (i / per_group) as u64;
                    let w_start = start + SimDuration::from_secs(g * wave_secs);
                    let w_end = w_start + SimDuration::from_secs(wave_secs);
                    let flooder = self.authorized_flooder(addr, DEST, Some((w_start, w_end)));
                    self.topo.add_node(flooder)
                }
                Attack::ColluderRing { ring, wave_ms, duty_pct } => {
                    let targets: Vec<Addr> =
                        (0..ring.max(1) as usize).map(ring_addr).collect();
                    let shim = self.attacker_shim(addr);
                    self.topo.add_node(Box::new(RingFlooder::new(
                        addr,
                        targets,
                        cfg.attacker_rate_bps,
                        shim,
                        SimDuration::from_millis(u64::from(wave_ms)),
                        duty_pct,
                    )))
                }
                Attack::PulseShrew { period_ms, burst_ms, phase_ms } => {
                    // Concentrate the constant flood's byte budget into the
                    // burst: peak = avg * period / burst, capped at the
                    // access-link rate (which silently lowers the average
                    // for extreme duty cycles — the report scores observed
                    // wire bytes, not the nominal budget).
                    let period = u64::from(period_ms.max(10));
                    let burst = u64::from(burst_ms).clamp(1, period);
                    let peak = cfg
                        .attacker_rate_bps
                        .saturating_mul(period)
                        .checked_div(burst)
                        .unwrap_or(cfg.attacker_rate_bps)
                        .min(ACCESS_BPS);
                    let shim = self.attacker_shim(addr);
                    self.topo.add_node(Box::new(PulseFlooder::new(
                        addr,
                        COLLUDER,
                        peak,
                        shim,
                        SimDuration::from_millis(period),
                        SimDuration::from_millis(burst),
                        SimDuration::from_millis(u64::from(phase_ms)),
                    )))
                }
                Attack::FlashMimicry { burst_kb, think_ms } => {
                    let shim = self.attacker_shim(addr);
                    self.topo.add_node(Box::new(MimicFlooder::new(
                        addr,
                        DEST,
                        cfg.attacker_rate_bps,
                        shim,
                        u64::from(burst_kb.max(1)) * 1024,
                        SimDuration::from_millis(u64::from(think_ms)),
                    )))
                }
                Attack::SpoofedRequestStorm { src_pool, fill } => {
                    self.topo.add_node(Box::new(SpoofedRequestFlooder::new(
                        addr,
                        DEST,
                        cfg.attacker_rate_bps,
                        u32::from(src_pool),
                        fill as usize,
                    )))
                }
                Attack::RotatingIdentity { pool, rotate_ms } => {
                    let shim = self.attacker_shim(addr);
                    // SIFF handshake replies must route back to the sender,
                    // so rotation there resets state without spoofing.
                    let spoof = cfg.scheme != Scheme::Siff;
                    self.topo.add_node(Box::new(RotatingFlooder::new(
                        addr,
                        COLLUDER,
                        cfg.attacker_rate_bps,
                        shim,
                        u32::from(pool),
                        SimDuration::from_millis(u64::from(rotate_ms)),
                        spoof,
                    )))
                }
            };
            let link = self.attach_host(node, addr, self.r1);
            self.attackers.push(node);
            self.attacker_links.push(link);
            self.kicks.push((node, 0, start));
        }
    }

    /// The shim for an attacking host: its own policy is irrelevant (it
    /// never grants anyone useful service). Under Pushback / Internet an
    /// authorized strategy degenerates to a data flood via the NullShim,
    /// which the paper notes matches the legacy-flood results.
    fn attacker_shim(&self, addr: Addr) -> Box<dyn Shim> {
        let policy = AllowAll { grant: Grant::from_parts(1023, 10) };
        self.host_shim(addr, Box::new(policy), HostConfig::default())
    }

    fn authorized_flooder(
        &self,
        addr: Addr,
        target: Addr,
        window: Option<(SimTime, SimTime)>,
    ) -> Box<AuthorizedFlooder> {
        let rate = self.cfg.attacker_rate_bps;
        let mut f =
            AuthorizedFlooder::with_shim(addr, target, rate, self.attacker_shim(addr));
        if let Some((s, e)) = window {
            f = f.with_window(s, e);
        }
        Box::new(f)
    }

    /// Adds a cooperating destination at `addr` behind the bottleneck: it
    /// grants every request, never reports misbehavior, and absorbs the
    /// authorized flood.
    fn add_colluder_server(&mut self, addr: Addr) {
        let shim = self.host_shim(
            addr,
            Box::new(AllowAll { grant: Grant::from_parts(1023, 10) }),
            HostConfig {
                default_grant: Grant::from_parts(1023, 10),
                // The colluder never reports its friends.
                misbehavior_bytes_per_sec: f64::INFINITY,
                ..HostConfig::default()
            },
        );
        let colluder =
            self.topo.add_node(Box::new(ServerNode::new(addr, TcpConfig::default(), shim)));
        self.topo.bind_addr(colluder, addr);
        let qc = self.router_queue(self.r2, ACCESS_BPS);
        self.topo.link(self.r2, colluder, ACCESS_BPS, LINK_DELAY, qc, self.host_queue());
    }

    fn build_and_run(
        &mut self,
        drive: impl FnOnce(&mut Simulator, &BuiltNodes),
        inspect: impl FnOnce(&Simulator, &BuiltNodes),
    ) -> ScenarioResult {
        let cfg = self.cfg.clone();

        // Destination host.
        let dest = self.topo.add_node(Box::new(ServerNode::new(
            DEST,
            TcpConfig::default(),
            self.dest_shim(),
        )));
        self.topo.bind_addr(dest, DEST);

        // Bottleneck, then the two-hop detour around it.
        let bottleneck = self.core_link(self.r1, self.r2);
        let detour = self.r3.map(|r3| (self.core_link(self.r1, r3), self.core_link(r3, self.r2)));

        // Destination access link.
        let qd = self.router_queue(self.r2, ACCESS_BPS);
        self.topo.link(self.r2, dest, ACCESS_BPS, LINK_DELAY, qd, self.host_queue());

        // Colluders (only meaningful for the authorized attacks, but
        // harmless otherwise; only add when used to keep runs lean).
        let rotating_tva = matches!(cfg.attack, Attack::RotatingIdentity { .. })
            && cfg.scheme == Scheme::Tva;
        if matches!(
            cfg.attack,
            Attack::AuthorizedColluder
                | Attack::Combined
                | Attack::PulseShrew { .. }
                | Attack::RotatingIdentity { .. }
        ) && !rotating_tva
        {
            self.add_colluder_server(COLLUDER);
        }
        if rotating_tva {
            // Rotating attackers spoof their sources, so an ordinary
            // colluder's grants would be misrouted: use the §7 spoof
            // colluder, which leaks capabilities to the attackers' *real*
            // addresses out-of-band.
            let accomplices: Vec<Addr> =
                (0..cfg.n_attackers).map(attacker_addr).collect();
            let colluder = self.topo.add_node(Box::new(SpoofColluder::new(
                COLLUDER,
                accomplices,
                Grant::from_parts(1023, 10),
            )));
            self.topo.bind_addr(colluder, COLLUDER);
            let qc = self.router_queue(self.r2, ACCESS_BPS);
            self.topo.link(self.r2, colluder, ACCESS_BPS, LINK_DELAY, qc, self.host_queue());
        }
        if let Attack::ColluderRing { ring, .. } = cfg.attack {
            for j in 0..ring.max(1) as usize {
                self.add_colluder_server(ring_addr(j));
            }
        }

        // Users.
        for i in 0..cfg.n_users {
            let addr = user_addr(i);
            let policy = ClientPolicy { grant: Grant::from_parts(100, 10) };
            let shim = self.host_shim(addr, Box::new(policy), HostConfig::default());
            let c = self.topo.add_node(Box::new(ClientNode::new(
                addr,
                DEST,
                cfg.file_size,
                cfg.transfers_per_user,
                TcpConfig::default(),
                shim,
            )));
            self.attach_host(c, addr, self.r1);
            self.clients.push(c);
            // Stagger starts across the first 100 ms to avoid phase locking.
            let start = SimTime::from_nanos(1 + (i as u64) * 10_000_000);
            self.kicks.push((c, TOKEN_START, start));
        }

        // Attackers.
        self.add_attackers();

        // `TVA_SHARDS` selects the engine's shard count; any value yields
        // byte-identical results (the sharded engine's determinism
        // contract), so scenarios honor it unconditionally.
        let mut sim =
            std::mem::take(&mut self.topo).build_sharded(cfg.seed, tva_sim::shards_from_env());

        // Pushback routers need their managed egresses registered (R1's
        // toward R2, direct and via the detour) and their review loop kicked.
        if cfg.scheme == Scheme::Pushback {
            for link in std::iter::once(bottleneck).chain(detour.map(|(r1_r3, _)| r1_r3)) {
                sim.node_mut::<PushbackRouterNode>(self.r1).manage(EgressSpec {
                    channel: link.ab,
                    capacity_bps: cfg.bottleneck_bps,
                });
            }
            for r in self.routers() {
                sim.kick(r, tva_baselines::TOKEN_REVIEW);
            }
        }

        for &(node, token, at) in &self.kicks {
            sim.kick_at(node, token, at);
        }
        cfg.faults.apply(&mut sim, bottleneck);

        let nodes = BuiltNodes {
            r1: self.r1,
            r2: self.r2,
            dest,
            clients: self.clients.clone(),
            attackers: self.attackers.clone(),
            attacker_links: self.attacker_links.clone(),
            bottleneck,
            backup: self.r3.zip(detour.map(|(_, r3_r2)| r3_r2)),
        };
        drive(&mut sim, &nodes);
        inspect(&sim, &nodes);

        // Collect metrics.
        let mut transfers = Vec::new();
        let mut per_user = Vec::new();
        let mut faults = FaultCounters { reconvergences: sim.reconvergences(), ..Default::default() };
        for &c in &self.clients {
            let node = sim.node::<ClientNode>(c);
            if let Some(at) = cfg.faults.down_at {
                faults.completed_after_failure +=
                    node.records.iter().filter(|t| t.finished.is_some_and(|f| f > at)).count();
            }
            per_user.push(
                node.records
                    .iter()
                    .copied()
                    .filter(|t| t.started >= cfg.measure_after)
                    .collect::<Vec<_>>(),
            );
            transfers.extend(node.records.iter().copied());
            // Unresolved transfers old enough to have failed count as
            // failures; recent ones are indeterminate and excluded.
            if let Some(start) = node.in_flight_started() {
                if cfg.duration.since(start) > cfg.failure_grace {
                    transfers.push(TransferRecord { started: start, finished: None });
                }
            }
        }
        transfers.retain(|t| t.started >= cfg.measure_after);
        let summary = summarize(&transfers);
        let st = &sim.channel(bottleneck.ab).stats;
        for wire in [st, &sim.channel(bottleneck.ba).stats] {
            faults.lost_pkts += wire.lost_pkts;
            faults.corrupted_pkts += wire.corrupted_pkts;
            faults.malformed_pkts += wire.malformed_pkts;
        }
        if let Some((_, r3_r2)) = nodes.backup {
            faults.backup_pkts = sim.channel(r3_r2.ab).stats.tx_pkts;
        }
        if cfg.scheme == Scheme::Tva {
            let stats = |r: NodeId| &sim.node::<TvaRouterNode>(r).router.stats;
            faults.malformed_drops = self.routers().map(|r| stats(r).malformed_drops).sum();
            if let Some(r3) = self.r3 {
                faults.backup_requests_stamped = stats(r3).requests_stamped;
                faults.backup_validations = stats(r3).full_validations;
            }
        }
        ScenarioResult {
            summary,
            transfers,
            per_user,
            bottleneck_drop_rate: st.drop_rate(),
            bottleneck_utilization: st.utilization(cfg.bottleneck_bps, sim.now()),
            faults,
        }
    }
}
