//! The testbeds: one declarative configuration that assembles a topology
//! for any of the four schemes and any of the paper's attacks, runs it,
//! and collects the §5 metrics. Every shape is wired from the same
//! per-scheme router, egress-queue, host-shim and attacker factories.
//!
//! ```text
//! 10 users ───┐                         ┌─── destination
//!             ├── R1 ══ 10 Mb/s ══ R2 ──┤
//! 1–100 atk ──┘   \  (bottleneck)  /    └─── colluder
//!                  R3 ─ ─ ─ ─ ─ ─ ─          (R3: `Diamond` only)
//! ```
//!
//! [`Shape::Dumbbell`] is Figure 7: all access links are 100 Mb/s with
//! 10 ms delay; the bottleneck is 10 Mb/s with 10 ms delay, giving the
//! paper's 60 ms RTT.
//!
//! [`Shape::Diamond`] adds R3: the bottleneck is one hop, the R1–R3–R2
//! detour two, so shortest-path routing prefers the bottleneck until
//! `faults` takes it down and routes re-converge through R3. For TVA that
//! re-route invalidates every capability in flight — capabilities are
//! bound to the router path (§3.1), and R3 has never stamped these flows —
//! so senders must recover via demotion notices and re-request (§3.8).
//! R3's `requests_stamped` counter is the direct evidence that they did.
//!
//! [`Shape::Tree`] is Figure 11's shape grown to internet scale: a root
//! router with the destination behind the bottleneck, core routers under
//! the root, access routers under each, and every host a node with its own
//! access link and address (`20.0.0.0 + i`); links are 5 ms. Attackers sit
//! at a fixed stride and a strided sample of users transfers; the other
//! hosts are idle clients, never kicked and never collected. Routing uses
//! [`TopologyBuilder::static_route`]: default routes point up the tree, one
//! static entry per (ancestor, host) points down, O(depth) per host instead
//! of the whole-graph BFS per address that `bind_addr` costs.

use tva_baselines::{
    EgressSpec, LegacyRouterNode, PushbackRouterNode, SiffConfig, SiffRouterNode,
    SiffScheduler, SiffShim,
};
use tva_core::{
    AllowAll, AuthorizedFlooder, Cadence, ClientPolicy, GrantPolicy, RouterConfig,
    ServerPolicy, SpoofColluder, SpoofedRequestFlooder, TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{
    DropTail, DutyCycleOutage, Impairments, LinkHandle, Node, NodeId, QueueDisc, SimDuration,
    SimTime, Simulator, TopologyBuilder, ROUTER_QUEUE_PKTS,
};
use tva_transport::{
    summarize, ClientNode, FloodNode, NullShim, ServerNode, Shim, TransferRecord,
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

/// How a parameter is drawn: uniformly from `[lo, hi)`, or one of a set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Draw {
    /// Uniform over `[lo, hi)`.
    Range(u64, u64),
    /// One of these values, uniformly.
    OneOf(&'static [u64]),
}

/// One parameter of an attack kind.
#[derive(Debug)]
pub(crate) struct Param {
    /// Its key, as the `attacks` report's `params` column spells it.
    pub(crate) key: &'static str,
    /// The `invcheck` fuzzer's draw.
    pub(crate) fuzz: Draw,
    /// The attack search's draw; set on the strategies' parameters only.
    pub(crate) search: Option<Draw>,
}

impl Param {
    /// The key a replay artifact stores this parameter under.
    pub(crate) fn artifact_key(&self) -> String {
        format!("attack_{}", self.key)
    }
}

/// One row of [`ATTACKS`]: an attack kind's name and its parameters, in
/// field order.
#[derive(Debug)]
pub struct AttackKind {
    /// The name the replay codec and the reports use.
    pub name: &'static str,
    /// The variant's fields, in declaration order.
    pub(crate) params: &'static [Param],
}

const fn fuzzed(key: &'static str, lo: u64, hi: u64) -> Param {
    Param { key, fuzz: Draw::Range(lo, hi), search: None }
}

const fn searched(key: &'static str, lo: u64, hi: u64, search: Draw) -> Param {
    Param { key, fuzz: Draw::Range(lo, hi), search: Some(search) }
}

const fn row(name: &'static str, params: &'static [Param]) -> AttackKind {
    AttackKind { name, params }
}

/// Every attack kind, in [`Attack`]'s declaration order — the order the
/// fuzzer indexes, so reordering rows changes every fuzz seed. Search
/// ranges bracket the interesting regimes: pulse periods around the
/// transport's 200 ms min RTO / 1 s initial RTO, rotation faster and
/// slower than the 10 s grant, spoof pools well past the request
/// key-table comfort zone.
pub(crate) static ATTACKS: [AttackKind; 12] = {
    use Draw::{OneOf, Range};
    [
        row("none", &[]),
        row("legacy-flood", &[]),
        row("request-flood", &[]),
        row("authorized-colluder", &[]),
        row("imprecise-all-at-once", &[]),
        row("imprecise-staged", &[fuzzed("groups", 2, 5), fuzzed("wave_secs", 2, 6)]),
        row("combined", &[]),
        row(
            "colluder-ring",
            &[
                searched("ring", 1, 5, Range(2, 5)),
                searched("wave_ms", 200, 4_001, Range(400, 4_001)),
                searched("duty", 20, 101, Range(30, 101)),
            ],
        ),
        row(
            "pulse-shrew",
            &[
                searched("period_ms", 100, 1_201, OneOf(&[200, 500, 1000, 1100])),
                searched("burst_ms", 20, 101, Range(30, 121)),
                searched("phase_ms", 0, 200, Range(0, 100)),
            ],
        ),
        row(
            "flash-mimicry",
            &[
                searched("burst_kb", 8, 65, Range(16, 65)),
                searched("think_ms", 100, 2_001, Range(100, 1_501)),
            ],
        ),
        row(
            "spoofed-request-storm",
            &[searched("src_pool", 1, 257, Range(8, 513)), searched("fill", 0, 33, Range(0, 31))],
        ),
        row(
            "rotating-identity",
            &[
                searched("pool", 2, 65, Range(4, 65)),
                searched("rotate_ms", 50, 2_001, Range(100, 2_001)),
            ],
        ),
    ]
};

/// Narrows parameter `v` to its field's type, or names the key it came
/// under.
fn narrow<T: TryFrom<u64>>((p, v): (&Param, u64)) -> Result<T, String> {
    T::try_from(v).map_err(|_| {
        format!("key {:?}: {v} does not fit in {}", p.artifact_key(), std::any::type_name::<T>())
    })
}

impl Attack {
    /// This attack's row of [`ATTACKS`] and its parameter values.
    fn encode(self) -> (usize, Vec<u64>) {
        match self {
            Attack::None => (0, vec![]),
            Attack::LegacyFlood => (1, vec![]),
            Attack::RequestFlood => (2, vec![]),
            Attack::AuthorizedColluder => (3, vec![]),
            Attack::ImpreciseAllAtOnce => (4, vec![]),
            Attack::ImpreciseStaged { groups, wave_secs } => (5, vec![groups as u64, wave_secs]),
            Attack::Combined => (6, vec![]),
            Attack::ColluderRing { ring, wave_ms, duty_pct } => {
                (7, vec![ring.into(), wave_ms.into(), duty_pct.into()])
            }
            Attack::PulseShrew { period_ms, burst_ms, phase_ms } => {
                (8, vec![period_ms.into(), burst_ms.into(), phase_ms.into()])
            }
            Attack::FlashMimicry { burst_kb, think_ms } => {
                (9, vec![burst_kb.into(), think_ms.into()])
            }
            Attack::SpoofedRequestStorm { src_pool, fill } => {
                (10, vec![src_pool.into(), fill.into()])
            }
            Attack::RotatingIdentity { pool, rotate_ms } => {
                (11, vec![pool.into(), rotate_ms.into()])
            }
        }
    }

    /// This attack's row of [`ATTACKS`].
    pub fn kind(self) -> &'static AttackKind {
        &ATTACKS[self.encode().0]
    }

    /// The kind's name.
    pub fn name(self) -> &'static str {
        self.kind().name
    }

    /// The parameter values, in the order of [`AttackKind::params`].
    pub(crate) fn params(self) -> Vec<u64> {
        self.encode().1
    }

    /// The attack named `name` with parameter `values` in field order.
    /// Rejects an unknown name, a wrong count, and a value its field
    /// cannot hold.
    pub(crate) fn from_params(name: &str, values: &[u64]) -> Result<Attack, String> {
        let i = ATTACKS
            .iter()
            .position(|k| k.name == name)
            .ok_or_else(|| format!("unknown attack {name:?}"))?;
        let params = ATTACKS[i].params;
        if values.len() != params.len() {
            let n = params.len();
            return Err(format!("attack {name:?} takes {n} parameters, not {}", values.len()));
        }
        let v = |j: usize| (&params[j], values[j]);
        Ok(match i {
            0 => Attack::None,
            1 => Attack::LegacyFlood,
            2 => Attack::RequestFlood,
            3 => Attack::AuthorizedColluder,
            4 => Attack::ImpreciseAllAtOnce,
            5 => Attack::ImpreciseStaged { groups: narrow(v(0))?, wave_secs: narrow(v(1))? },
            6 => Attack::Combined,
            7 => Attack::ColluderRing {
                ring: narrow(v(0))?,
                wave_ms: narrow(v(1))?,
                duty_pct: narrow(v(2))?,
            },
            8 => Attack::PulseShrew {
                period_ms: narrow(v(0))?,
                burst_ms: narrow(v(1))?,
                phase_ms: narrow(v(2))?,
            },
            9 => Attack::FlashMimicry { burst_kb: narrow(v(0))?, think_ms: narrow(v(1))? },
            10 => Attack::SpoofedRequestStorm { src_pool: narrow(v(0))?, fill: narrow(v(1))? },
            _ => Attack::RotatingIdentity { pool: narrow(v(0))?, rotate_ms: narrow(v(1))? },
        })
    }
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

/// The testbed's topology (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Shape {
    /// Figure 7's dumbbell.
    #[default]
    Dumbbell,
    /// The dumbbell plus a third router R3 and the R1–R3, R3–R2 links
    /// (bottleneck capacity each): a two-hop detour that carries nothing
    /// until `faults` takes the bottleneck down.
    Diamond,
    /// The scale tree; `n_attackers` and `n_users` are its strided
    /// attackers and active users.
    Tree(TreeConfig),
}

/// The tree's size: `mid_routers` core routers under the root,
/// `leaf_routers_per_mid` access routers under each, and `hosts` hosts
/// (attackers included) spread evenly over the access routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Core routers under the root.
    pub mid_routers: usize,
    /// Access routers under each core router.
    pub leaf_routers_per_mid: usize,
    /// Hosts at the access routers.
    pub hosts: usize,
}

impl TreeConfig {
    /// Host strides of the attackers and of the active users: attacker
    /// positions are multiples of the first, active users sit one past
    /// multiples of the second, so both stay spread across every leaf.
    fn strides(self, n_attackers: usize, n_users: usize) -> (usize, usize) {
        let every = |n: usize| self.hosts.checked_div(n).unwrap_or(usize::MAX).max(1);
        (every(n_attackers), every(n_users))
    }
}

/// Host `i`'s address in the tree.
fn host_addr(i: usize) -> Addr {
    Addr(0x1400_0000 + i as u32) // 20.0.0.0 + i
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
    /// The topology.
    pub shape: Shape,
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
            shape: Shape::Dumbbell,
            faults: LinkFaults::default(),
        }
    }
}

impl ScenarioConfig {
    /// The scale workload on `tree`: request flooders at 100 kb/s each and
    /// users fetching 20 KB files back to back, through a 100 Mb/s
    /// bottleneck, for 2 s. TVA's routers run the default 5 % request
    /// channel. Callers set `n_attackers` and `n_users` (none and ten
    /// here).
    pub fn tree(tree: TreeConfig) -> Self {
        ScenarioConfig {
            attack: Attack::RequestFlood,
            transfers_per_user: 100_000,
            bottleneck_bps: 100_000_000,
            attacker_rate_bps: 100_000,
            request_fraction: RouterConfig::default().request_fraction,
            duration: SimTime::from_secs(2),
            seed: 3,
            shape: Shape::Tree(tree),
            ..ScenarioConfig::default()
        }
    }
}

tva_sim::counters! {
    /// What the wire faults did and how the network recovered, over one run.
    /// All zero on a fault-free dumbbell.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultCounters {
        /// Transfers that completed strictly after `faults.down_at` — the
        /// liveness half of the recovery story.
        pub completed_after_failure: u64,
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
pub(crate) fn ring_addr(j: usize) -> Addr {
    Addr::new(10, 0, 1, (j % 200) as u8 + 1)
}

/// A §5.1 attacker: legacy data packets at the destination.
fn legacy_flood(addr: Addr, rate: u64) -> Box<dyn Node> {
    flood(rate, addr, false, 980)
}

/// A §5.2 attacker: request packets at the destination, padded toward
/// 1000 B so the byte rate matches the paper's 1 Mb/s without inflating
/// the event count (documented in EXPERIMENTS.md).
fn request_flood(addr: Addr, rate: u64) -> Box<dyn Node> {
    flood(rate, addr, true, 960)
}

/// A flooder of `payload_len`-byte packets from `src` at the destination,
/// requests if `request`. The closure holds no header: at a scale tree's
/// 100 000 attackers its size is paid per attacker.
fn flood(rate: u64, src: Addr, request: bool, payload_len: u32) -> Box<dyn Node> {
    Box::new(FloodNode::new(
        rate,
        Box::new(move |_now, _seq| {
            let cap = request.then(CapHeader::request);
            Some(Packet { id: PacketId(0), src, dst: DEST, cap, tcp: None, payload_len })
        }),
    ))
}

const ACCESS_BPS: u64 = 100_000_000;
const LINK_DELAY: SimDuration = SimDuration::from_millis(10);
const HOST_QUEUE: u64 = 1 << 20;
/// The tree's link delay and its core (root–mid) and leaf (mid–leaf) rates.
const TREE_DELAY: SimDuration = SimDuration::from_millis(5);
const TREE_CORE_BPS: u64 = 10_000_000_000;
const TREE_LEAF_BPS: u64 = 1_000_000_000;

/// Runs one scenario to completion. With `TVA_OBS` on, the run feeds this
/// thread's flight recorder so a panic anywhere (including inside a sweep
/// worker) can dump recent packet history.
pub fn run(cfg: &ScenarioConfig) -> ScenarioResult {
    run_driven(cfg, default_driver(cfg), |_, _| {})
}

/// Node ids of the built testbed, for post-run inspection.
#[derive(Debug, Clone)]
pub struct BuiltNodes {
    /// The router that sends over the bottleneck: R1, or the tree's root.
    pub r1: NodeId,
    /// The router the destination hangs off: R2, or the tree's root.
    pub(crate) r2: NodeId,
    /// Every router, in build order: R1, R2 (and R3); in the tree the root,
    /// then each core router followed by its access routers.
    pub routers: Vec<NodeId>,
    /// Attackers, in index order.
    pub attackers: Vec<NodeId>,
    /// The attackers' access links, in index order (`.ab` is the
    /// attacker→router direction) — wire-level attacker cost accounting.
    pub(crate) attacker_links: Vec<LinkHandle>,
    /// The bottleneck link (`.ab` is the direction toward the destination).
    pub bottleneck: LinkHandle,
    /// On the diamond: R3 and the R3–R2 link (R3→R2 is `.ab`).
    pub(crate) backup: Option<(NodeId, LinkHandle)>,
}

/// Like [`run`], but hands the finished simulator to `inspect` before
/// metrics are returned (tests and diagnostics).
pub(crate) fn run_inspect(
    cfg: &ScenarioConfig,
    inspect: impl FnOnce(&Simulator, &BuiltNodes),
) -> ScenarioResult {
    run_driven(cfg, default_driver(cfg), inspect)
}

/// The standard run loop: install the flight recorder (with `TVA_OBS` on)
/// and run straight to the horizon. With `TVA_CHECK=1` set, the run is
/// instead driven in audited steps and panics (after dumping a replay
/// artifact) on any invariant violation.
fn default_driver(
    cfg: &ScenarioConfig,
) -> impl FnOnce(&mut Simulator, &BuiltNodes) {
    let end = cfg.duration;
    let cfg_check = cfg.clone();
    move |sim, _| {
        let check = tva_check::CheckConfig::from_env();
        if check.enabled {
            let report = crate::check::drive_checked(sim, end);
            crate::check::enforce_clean(&check, &cfg_check, &report);
            return;
        }
        if tva_sim::knobs::obs() {
            tva_obs::install_thread_flight(tva_obs::FLIGHT_EVENTS);
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
    Builder::new(cfg).build_and_run(drive, inspect)
}

/// The dumbbell's and the diamond's routers, as indices into
/// `Builder::routers`, and their secret salts in that order. The tree's
/// root is router 0 too.
const R1: usize = 0;
const R2: usize = 1;
const R3: usize = 2;
const TVA_SALTS: [u64; 3] = [0x1111, 0x2222, 0x3333];
const SIFF_SALTS: [u64; 3] = [0x3333, 0x4444, 0x5555];

struct Builder<'a> {
    cfg: &'a ScenarioConfig,
    topo: TopologyBuilder,
    /// The shape's router for the destination and the colluders (R2, or
    /// the tree's root) and its link delay.
    dest_router: usize,
    delay: SimDuration,
    /// Every router, in the order added.
    routers: Vec<NodeId>,
    /// `routers[i]`'s TVA configuration, built for every scheme so the
    /// egress queues can look theirs up by index.
    tva_cfgs: Vec<RouterConfig>,
    kicks: Vec<(NodeId, u64, SimTime)>,
    clients: Vec<NodeId>,
    attackers: Vec<NodeId>,
    attacker_links: Vec<LinkHandle>,
}

impl<'a> Builder<'a> {
    fn new(cfg: &'a ScenarioConfig) -> Self {
        let tree = matches!(cfg.shape, Shape::Tree(_));
        Builder {
            cfg,
            topo: TopologyBuilder::new(),
            dest_router: if tree { R1 } else { R2 },
            delay: if tree { TREE_DELAY } else { LINK_DELAY },
            routers: Vec::new(),
            tva_cfgs: Vec::new(),
            kicks: Vec::new(),
            clients: Vec::new(),
            attackers: Vec::new(),
            attacker_links: Vec::new(),
        }
    }

    /// Adds the scheme's router, its secrets salted by `tva_salt` (TVA) or
    /// `siff_salt` (SIFF) and a TVA router sized for a `bps` link; returns
    /// its index into `routers`.
    fn add_router(&mut self, tva_salt: u64, siff_salt: u64, bps: u64) -> usize {
        let cfg = self.cfg;
        // Every sampler shares `FLOW_SAMPLE_SEED`, so samplers with one
        // `flow_sample_n` can be merged across the routers and the egress
        // schedulers for whole-testbed attribution.
        let defaults = RouterConfig::default();
        let tva = RouterConfig {
            request_fraction: cfg.request_fraction,
            secret_seed: cfg.seed ^ tva_salt,
            flow_sample_n: cfg.flow_sample_n,
            per_queue_cap_bytes: cfg.per_queue_cap_bytes.unwrap_or(defaults.per_queue_cap_bytes),
            ..defaults
        };
        let node: Box<dyn Node> = match cfg.scheme {
            Scheme::Tva => Box::new(TvaRouterNode::new(tva.clone(), bps)),
            Scheme::Siff => Box::new(SiffRouterNode::new(SiffConfig {
                key_rotation: cfg.siff_key_rotation,
                accept_previous: cfg.siff_accept_previous,
                secret_seed: cfg.seed ^ siff_salt,
            })),
            Scheme::Pushback => Box::new(PushbackRouterNode::new()),
            Scheme::Internet => Box::<LegacyRouterNode>::default(),
        };
        self.routers.push(self.topo.add_node(node));
        self.tva_cfgs.push(tva);
        self.routers.len() - 1
    }

    /// An egress queue appropriate for the scheme, for router `r`'s link of
    /// `bps`.
    fn router_queue(&self, r: usize, bps: u64) -> Box<dyn QueueDisc> {
        match self.cfg.scheme {
            Scheme::Tva => Box::new(TvaScheduler::new(bps, &self.tva_cfgs[r])),
            Scheme::Siff => Box::new(SiffScheduler::new()),
            Scheme::Pushback | Scheme::Internet => Box::new(DropTail::packets(ROUTER_QUEUE_PKTS)),
        }
    }

    fn host_queue(&self) -> Box<dyn QueueDisc> {
        Box::new(DropTail::new(HOST_QUEUE))
    }

    /// The scheme's host shim for `addr`, granting by `policy`. Pushback
    /// and the Internet have no authorization concept, so every host there
    /// gets the `NullShim`.
    fn host_shim(&self, addr: Addr, policy: Box<dyn GrantPolicy>) -> Box<dyn Shim> {
        match self.cfg.scheme {
            Scheme::Tva => Box::new(TvaHostShim::new(addr, policy)),
            Scheme::Siff => {
                // Hosts refresh marks slightly faster than routers rotate keys.
                let refresh = SimDuration::from_nanos(
                    (self.cfg.siff_key_rotation.as_nanos() as f64 * 0.9) as u64,
                );
                Box::new(SiffShim::new(addr, policy, refresh))
            }
            Scheme::Pushback | Scheme::Internet => Box::new(NullShim),
        }
    }

    /// Attacker `i`'s address under the shape's address plan.
    fn attacker_at(&self, i: usize) -> Addr {
        match self.cfg.shape {
            Shape::Tree(tree) => host_addr(i * tree.strides(self.cfg.n_attackers, 0).0),
            Shape::Dumbbell | Shape::Diamond => attacker_addr(i),
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
                policy.deny_forever(self.attacker_at(i));
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
                policy.single_grant(self.attacker_at(i));
            }
        }
        self.host_shim(DEST, Box::new(policy))
    }

    /// A link from router `a` to router `b`.
    fn router_link(&mut self, a: usize, b: usize, bps: u64) -> LinkHandle {
        let (qa, qb) = (self.router_queue(a, bps), self.router_queue(b, bps));
        self.topo.link(self.routers[a], self.routers[b], bps, self.delay, qa, qb)
    }

    /// Binds a destination-side host at `addr` and links it under the
    /// destination router; in the tree it also gets its default route.
    fn attach_server(&mut self, node: NodeId, addr: Addr, bps: u64) -> LinkHandle {
        self.topo.bind_addr(node, addr);
        let r = self.dest_router;
        let q = self.router_queue(r, bps);
        let link = self.topo.link(self.routers[r], node, bps, self.delay, q, self.host_queue());
        if matches!(self.cfg.shape, Shape::Tree(_)) {
            self.topo.default_route(node, link.ba);
        }
        link
    }

    /// Binds a dumbbell host at `addr` and links it to R1.
    fn attach_host(&mut self, node: NodeId, addr: Addr) -> LinkHandle {
        self.topo.bind_addr(node, addr);
        let q_router = self.router_queue(R1, ACCESS_BPS);
        self.topo.link(node, self.routers[R1], ACCESS_BPS, LINK_DELAY, self.host_queue(), q_router)
    }

    /// A client at `addr` fetching the scenario's files from the
    /// destination.
    fn client(&self, addr: Addr) -> Box<dyn Node> {
        let policy = ClientPolicy { grant: Grant::from_parts(100, 10) };
        let shim = self.host_shim(addr, Box::new(policy));
        let cfg = self.cfg;
        Box::new(ClientNode::new(addr, DEST, cfg.file_size, cfg.transfers_per_user, shim))
    }

    /// Attacker number `i` at `addr`, by the scenario's attack; `None`
    /// without one.
    fn attacker_node(&self, i: usize, addr: Addr) -> Option<Box<dyn Node>> {
        let cfg = self.cfg;
        let (start, rate) = (cfg.attack_start, cfg.attacker_rate_bps);
        let ms = |n: u32| SimDuration::from_millis(u64::from(n));
        Some(match cfg.attack {
            Attack::None => return None,
            Attack::LegacyFlood => legacy_flood(addr, rate),
            Attack::RequestFlood => request_flood(addr, rate),
            Attack::Combined => match i % 3 {
                0 => legacy_flood(addr, rate),
                1 => request_flood(addr, rate),
                _ => self.flooder(addr, COLLUDER, rate, Cadence::Always),
            },
            Attack::SpoofedRequestStorm { src_pool, fill } => {
                let pool = u32::from(src_pool);
                Box::new(SpoofedRequestFlooder::new(addr, DEST, rate, pool, fill as usize))
            }
            Attack::AuthorizedColluder => self.flooder(addr, COLLUDER, rate, Cadence::Always),
            Attack::ImpreciseAllAtOnce => {
                let window = Cadence::Window { start, end: cfg.duration };
                self.flooder(addr, DEST, rate, window)
            }
            Attack::ImpreciseStaged { groups, wave_secs } => {
                let g = (i / cfg.n_attackers.div_ceil(groups)) as u64;
                let w_start = start + SimDuration::from_secs(g * wave_secs);
                let end = w_start + SimDuration::from_secs(wave_secs);
                self.flooder(addr, DEST, rate, Cadence::Window { start: w_start, end })
            }
            Attack::ColluderRing { ring, wave_ms, duty_pct } => {
                // Waves run on the shared clock (phase 0), so the ring
                // members burst together without coordination traffic.
                let period = ms(wave_ms).max(SimDuration::from_millis(10));
                let duty = f64::from(duty_pct.clamp(1, 100)) / 100.0;
                let on = SimDuration::from_nanos((period.as_nanos() as f64 * duty) as u64);
                let wave = Cadence::Periodic { period, on, phase: SimDuration::ZERO };
                let ring_addrs = (0..ring.max(1) as usize).map(ring_addr).collect();
                Box::new(self.flooder(addr, ring_addr(0), rate, wave).with_targets(ring_addrs))
            }
            Attack::PulseShrew { period_ms, burst_ms, phase_ms } => {
                // Concentrate the constant flood's byte budget into the
                // burst: peak = avg * period / burst, capped at the
                // access-link rate (which silently lowers the average
                // for extreme duty cycles — the report scores observed
                // wire bytes, not the nominal budget).
                let period = period_ms.max(10);
                let burst = burst_ms.clamp(1, period);
                let peak = (rate.saturating_mul(u64::from(period)) / u64::from(burst))
                    .min(ACCESS_BPS);
                let (period, on, phase) = (ms(period), ms(burst), ms(phase_ms));
                self.flooder(addr, COLLUDER, peak, Cadence::Periodic { period, on, phase })
            }
            Attack::FlashMimicry { burst_kb, think_ms } => {
                let bytes = u64::from(burst_kb.max(1)) * 1024;
                let think = ms(think_ms).max(SimDuration::from_millis(10));
                self.flooder(addr, DEST, rate, Cadence::Bursts { bytes, think })
            }
            Attack::RotatingIdentity { pool, rotate_ms } => {
                // SIFF handshake replies must route back to the sender,
                // so rotation there resets state without spoofing.
                let every = ms(rotate_ms).max(SimDuration::from_millis(10));
                let spoof = cfg.scheme != Scheme::Siff;
                let churn = Cadence::Rotating { pool: u32::from(pool), every, spoof };
                self.flooder(addr, COLLUDER, rate, churn)
            }
        })
    }

    /// An authorized flooder at `addr` with the scheme's attacker shim: its
    /// own policy is irrelevant (it never grants anyone useful service).
    /// Under Pushback / Internet every cadence degenerates to a data flood
    /// via the NullShim, which the paper notes matches the legacy-flood
    /// results.
    fn flooder(
        &self,
        addr: Addr,
        target: Addr,
        rate: u64,
        cadence: Cadence,
    ) -> Box<AuthorizedFlooder> {
        let policy = AllowAll { grant: Grant::from_parts(1023, 10) };
        let shim = self.host_shim(addr, Box::new(policy));
        Box::new(AuthorizedFlooder::with_shim(addr, target, rate, shim).with_cadence(cadence))
    }

    /// Adds a cooperating destination at `addr` behind the bottleneck: it
    /// grants every request, never blacklists (`AllowAll` ignores
    /// misbehavior reports), and absorbs the authorized flood.
    fn add_colluder_server(&mut self, addr: Addr) {
        let policy = AllowAll { grant: Grant::from_parts(1023, 10) };
        let shim = self.host_shim(addr, Box::new(policy));
        let colluder = self.topo.add_node(Box::new(ServerNode::new(addr, shim)));
        self.attach_server(colluder, addr, ACCESS_BPS);
    }

    /// The attack's colluders behind the bottleneck, if it has any.
    fn add_colluders(&mut self) {
        let cfg = self.cfg;
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
            let accomplices = (0..cfg.n_attackers).map(|i| self.attacker_at(i)).collect();
            let colluder = self.topo.add_node(Box::new(SpoofColluder::new(
                COLLUDER,
                accomplices,
                Grant::from_parts(1023, 10),
            )));
            self.attach_server(colluder, COLLUDER, ACCESS_BPS);
        }
        if let Attack::ColluderRing { ring, .. } = cfg.attack {
            for j in 0..ring.max(1) as usize {
                self.add_colluder_server(ring_addr(j));
            }
        }
    }

    /// The dumbbell, or with `Diamond` the diamond: routers, destination,
    /// colluders, users, attackers. Returns the bottleneck and the
    /// detour's R1–R3 and R3–R2 links.
    fn dumbbell(&mut self) -> (LinkHandle, Option<(LinkHandle, LinkHandle)>) {
        let cfg = self.cfg;
        let n_routers = if cfg.shape == Shape::Diamond { 3 } else { 2 };
        for (tva_salt, siff_salt) in TVA_SALTS.into_iter().zip(SIFF_SALTS).take(n_routers) {
            self.add_router(tva_salt, siff_salt, cfg.bottleneck_bps);
        }
        let dest = self.topo.add_node(Box::new(ServerNode::new(DEST, self.dest_shim())));
        // Bottleneck, then the two-hop detour around it.
        let bottleneck = self.router_link(R1, R2, cfg.bottleneck_bps);
        let detour = (n_routers == 3).then(|| {
            let r1_r3 = self.router_link(R1, R3, cfg.bottleneck_bps);
            (r1_r3, self.router_link(R3, R2, cfg.bottleneck_bps))
        });
        self.attach_server(dest, DEST, ACCESS_BPS);
        self.add_colluders();

        for i in 0..cfg.n_users {
            let addr = user_addr(i);
            let c = self.topo.add_node(self.client(addr));
            self.attach_host(c, addr);
            self.clients.push(c);
            // Stagger starts across the first 100 ms to avoid phase locking.
            let start = SimTime::from_nanos(1 + (i as u64) * 10_000_000);
            self.kicks.push((c, TOKEN_START, start));
        }
        for i in 0..cfg.n_attackers {
            let addr = attacker_addr(i);
            let Some(node) = self.attacker_node(i, addr) else { break };
            let node = self.topo.add_node(node);
            let link = self.attach_host(node, addr);
            self.attackers.push(node);
            self.attacker_links.push(link);
            self.kicks.push((node, 0, cfg.attack_start));
        }
        (bottleneck, detour)
    }

    /// The scale tree: the root with the destination behind the bottleneck,
    /// the core and access routers, then every host, leaf by leaf, kicked
    /// in host order. Returns the bottleneck.
    fn tree(&mut self, tree: TreeConfig) -> LinkHandle {
        let cfg = self.cfg;
        let leaves_total = tree.mid_routers * tree.leaf_routers_per_mid;
        assert!(leaves_total > 0 && tree.hosts >= leaves_total, "at least one host per leaf");
        let root = self.add_router(0xB007, 0xB007, cfg.bottleneck_bps);
        let server = self.topo.add_node(Box::new(ServerNode::new(DEST, self.dest_shim())));
        let bottleneck = self.attach_server(server, DEST, cfg.bottleneck_bps);
        self.add_colluders();

        // Every router's default points up; downward reachability comes
        // from the per-host static routes installed below. Tuples: (leaf,
        // mid, mid→leaf channel, root→mid channel).
        let mut leaves = Vec::with_capacity(leaves_total);
        for m in 0..tree.mid_routers {
            let salt = 0x4D00 + m as u64;
            let mid = self.add_router(salt, salt, TREE_CORE_BPS);
            let mid_up = self.router_link(mid, root, TREE_CORE_BPS);
            self.topo.default_route(self.routers[mid], mid_up.ab);
            for l in 0..tree.leaf_routers_per_mid {
                let salt = 0x1EAF_0000 + (m * 256 + l) as u64;
                let leaf = self.add_router(salt, salt, TREE_LEAF_BPS);
                let leaf_up = self.router_link(leaf, mid, TREE_LEAF_BPS);
                self.topo.default_route(self.routers[leaf], leaf_up.ab);
                leaves.push((leaf, self.routers[mid], leaf_up.ba, mid_up.ba));
            }
        }

        let (attack_every, active_every) = tree.strides(cfg.n_attackers, cfg.n_users);
        self.kicks.reserve_exact(cfg.n_attackers + cfg.n_users);
        self.attackers.reserve_exact(cfg.n_attackers);
        self.attacker_links.reserve_exact(cfg.n_attackers);
        let root = self.routers[root];
        let mut host = 0;
        for (li, &(leaf, mid, leaf_down, root_down)) in leaves.iter().enumerate() {
            let share = tree.hosts / leaves_total + usize::from(li < tree.hosts % leaves_total);
            for _ in 0..share {
                let addr = host_addr(host);
                let attacker = (self.attackers.len() < cfg.n_attackers
                    && host.is_multiple_of(attack_every))
                .then(|| self.attacker_node(self.attackers.len(), addr))
                .flatten();
                let is_attacker = attacker.is_some();
                let node = self.topo.add_node(attacker.unwrap_or_else(|| self.client(addr)));
                let (q_host, q_leaf) = (self.host_queue(), self.router_queue(leaf, ACCESS_BPS));
                let leaf = self.routers[leaf];
                let access = self.topo.link(node, leaf, ACCESS_BPS, TREE_DELAY, q_host, q_leaf);
                if is_attacker {
                    self.attackers.push(node);
                    self.attacker_links.push(access);
                    self.kicks.push((node, 0, cfg.attack_start));
                } else if self.clients.len() < cfg.n_users && host % active_every == 1 {
                    self.clients.push(node);
                    self.kicks.push((node, TOKEN_START, SimTime::ZERO));
                }
                self.topo.default_route(node, access.ab);
                self.topo.static_route(leaf, addr, access.ba);
                self.topo.static_route(mid, addr, leaf_down);
                self.topo.static_route(root, addr, root_down);
                host += 1;
            }
        }
        bottleneck
    }

    fn build_and_run(
        mut self,
        drive: impl FnOnce(&mut Simulator, &BuiltNodes),
        inspect: impl FnOnce(&Simulator, &BuiltNodes),
    ) -> ScenarioResult {
        let cfg = self.cfg;
        let (bottleneck, detour) = match cfg.shape {
            Shape::Tree(tree) => (self.tree(tree), None),
            Shape::Dumbbell | Shape::Diamond => self.dumbbell(),
        };
        let mut sim = std::mem::take(&mut self.topo).build(cfg.seed);

        // Pushback routers need their managed egresses registered (the
        // bottleneck's sender toward the destination, direct and via the
        // detour) and their review loop kicked.
        if cfg.scheme == Scheme::Pushback {
            for link in std::iter::once(bottleneck).chain(detour.map(|(r1_r3, _)| r1_r3)) {
                sim.node_mut::<PushbackRouterNode>(self.routers[R1]).manage(EgressSpec {
                    channel: link.ab,
                    capacity_bps: cfg.bottleneck_bps,
                });
            }
            for &r in &self.routers {
                sim.kick(r, tva_baselines::TOKEN_REVIEW);
            }
        }

        for &(node, token, at) in &self.kicks {
            sim.kick_at(node, token, at);
        }
        cfg.faults.apply(&mut sim, bottleneck);

        let nodes = BuiltNodes {
            r1: self.routers[R1],
            r2: self.routers[self.dest_router],
            backup: detour.map(|(_, r3_r2)| (self.routers[R3], r3_r2)),
            routers: self.routers,
            attackers: self.attackers,
            attacker_links: self.attacker_links,
            bottleneck,
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
                    node.records.iter().filter(|t| t.finished.is_some_and(|f| f > at)).count()
                        as u64;
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
            faults.malformed_drops = nodes.routers.iter().map(|&r| stats(r).malformed_drops).sum();
            if let Some((r3, _)) = nodes.backup {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The scale tree in miniature: 200 hosts under 2 × 2 routers, 20
    /// request flooders and 10 active users, 2 s.
    fn miniature(scheme: Scheme) -> ScenarioConfig {
        let tree = TreeConfig { mid_routers: 2, leaf_routers_per_mid: 2, hosts: 200 };
        ScenarioConfig { scheme, n_attackers: 20, n_users: 10, ..ScenarioConfig::tree(tree) }
    }

    /// What the scale run reports of a tree: routers built, events,
    /// bottleneck packets and attack packets emitted.
    #[derive(Debug, Default)]
    struct TreeRun {
        routers: usize,
        events: u64,
        bottleneck_tx_pkts: u64,
        attack_pkts_emitted: u64,
    }

    fn run_tree(cfg: &ScenarioConfig) -> (TreeRun, ScenarioResult) {
        let mut run = TreeRun::default();
        let result = run_inspect(cfg, |sim, nodes| {
            run = TreeRun {
                routers: nodes.routers.len(),
                events: sim.events_processed(),
                bottleneck_tx_pkts: sim.channel(nodes.bottleneck.ab).stats.tx_pkts,
                attack_pkts_emitted: nodes
                    .attackers
                    .iter()
                    .map(|&n| sim.node::<FloodNode>(n).emitted)
                    .sum(),
            };
        });
        (run, result)
    }

    /// Every scheme runs on the tree: its bottleneck carries packets and
    /// its users complete transfers.
    #[test]
    fn miniature_tree_runs_every_scheme() {
        for scheme in Scheme::ALL {
            let (run, result) = run_tree(&miniature(scheme));
            assert!(run.bottleneck_tx_pkts > 0, "{scheme:?}: the bottleneck must carry packets");
            assert!(result.summary.completed > 0, "{scheme:?}: {:?}", result.summary);
        }
    }

    /// A miniature tree (same shape, 200 hosts) must carry attack traffic
    /// to the bottleneck and serve legitimate transfers.
    #[test]
    fn miniature_tree_carries_traffic() {
        let (run, _) = run_tree(&miniature(Scheme::Tva));
        assert_eq!(run.routers, 1 + 2 * 3);
        assert!(run.attack_pkts_emitted > 0, "attackers must emit");
        assert!(run.bottleneck_tx_pkts > 0, "bottleneck must carry packets");
        assert!(run.events > run.bottleneck_tx_pkts);
    }

    /// The miniature tree's outcome, pinned: the engine's event order and
    /// the TVA stack's behaviour at the scale workload's shape (TVA
    /// routers, floods, static routes) must not move silently.
    #[test]
    fn miniature_tree_event_count_is_pinned() {
        let (run, result) = run_tree(&miniature(Scheme::Tva));
        assert_eq!(
            (run.events, run.bottleneck_tx_pkts, run.attack_pkts_emitted, result.summary.completed),
            (45_564, 2_802, 539, 90)
        );
    }
}
