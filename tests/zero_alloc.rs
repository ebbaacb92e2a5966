//! Zero heap allocations per forwarded packet, once warm, on both data
//! paths: the simulator's (a steady-state dumbbell) and the daemon's
//! (`tva-node` over its ring pair, flow sampling off and at 1-in-16); and
//! the heap an idle host costs in the scale tree.
//!
//! PAPER §6's case for commodity routers rests on a small, bounded cost per
//! packet; an allocation per packet is neither. §5–§6's case for Internet
//! scale rests on small per-host state. This test binary installs a
//! counting global allocator around [`System`], so `cargo test` holds both
//! properties in the default build. Each thread counts only its own
//! allocations, and every leg runs on the thread that measures it, so the
//! test harness's other threads cannot move a count between a reset and
//! an assert.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tva::bench::dumbbell::run_dumbbell;
use tva::bench::scale::{run_scale, ScaleConfig};
use tva::sim::{
    pool_stats, ChannelId, ChannelStats, Ctx, DropTail, Node, Pkt, SimDuration, SimTime, SinkNode,
    TopologyBuilder,
};
use tva::wire::{Addr, Packet, PacketId};
use tva_node::{ring_pair, NodeClock, NodeConfig, NodeEngine, PktGen, RingPort, Transport};

// The calling thread's counters: `const`-initialised `Cell`s of types with
// no destructor, so the allocator can read and write them at any point of
// a thread's life without allocating or registering anything.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, as requested (not
    /// as the allocator rounds them), so the figure is the same on every
    /// host. Signed: a thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// High-water mark of [`LIVE`] since the last [`reset_peak_live`].
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK_LIVE.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

/// [`System`], counting every call that can hand out fresh memory and the
/// bytes it holds.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only additions are updates of
// the calling thread's counters, which allocate nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    // A realloc that moves is a fresh allocation from the data path's point
    // of view; counting every call overstates rather than hides churn.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // The old block is gone once this returns: count the change.
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => shrink(layout.size() - new_size),
            }
        }
        new
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn peak_live() -> i64 {
    PEAK_LIVE.with(Cell::get)
}

/// Starts a fresh high-water mark at the current live bytes and returns
/// them.
fn reset_peak_live() -> i64 {
    let now = live();
    PEAK_LIVE.with(|peak| peak.set(now));
    now
}

#[test]
fn counter_sees_a_boxed_allocation() {
    let before = allocs();
    let base = reset_peak_live();
    drop(std::hint::black_box(vec![0u8; 1 << 20]));
    assert_eq!(allocs() - before, 1, "the allocation must be counted once");
    assert_eq!(peak_live() - base, 1 << 20, "its bytes must be counted live");
    assert_eq!(live(), base, "and freed");
}

#[test]
fn another_threads_allocation_is_not_counted() {
    let base = reset_peak_live();
    let child = std::thread::spawn(|| {
        let before = allocs();
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        allocs() - before
    });
    assert_eq!(child.join().expect("child thread"), 1, "the spawned thread counts its own allocation");
    let here = peak_live() - base;
    assert!(here < 1 << 16, "{here} B peak on this thread: the child's 1 MiB leaked into its count");
}

/// Once the packet pool and the long-lived tables (routing, flow cache,
/// scheduler queues, connection maps) are warm, forwarding a packet does
/// not touch the heap: the pool recycles packet storage, DRR sub-queues
/// recycle their ring buffers, and the TCP stack recycles connection maps
/// across transfers. A warm-up run primes everything; a second, identical
/// run is measured.
#[test]
fn steady_state_forwarding_does_not_allocate() {
    run_dumbbell(50);

    let pool_before = pool_stats();
    let allocs_before = allocs();
    let run = run_dumbbell(50);
    let allocs = allocs() - allocs_before;
    let pool = pool_stats();

    assert_eq!(pool.allocs, pool_before.allocs, "no packet-storage allocations once warm");
    assert!(pool.reuses > pool_before.reuses, "the measured run must actually have recycled packets");

    // A handful of simulation-setup allocations amortized over tens of
    // thousands of packets; anything per packet would push this over 1.
    let per_packet = allocs as f64 / run.bottleneck_tx_pkts.max(1) as f64;
    assert!(
        per_packet < 0.1,
        "steady-state allocations per forwarded packet must round to zero, \
         got {allocs} allocs / {} pkts = {per_packet:.3}",
        run.bottleneck_tx_pkts
    );
}

/// Bursts before the measured window: enough to populate the packet pool,
/// the flow table and every queue's steady capacity.
const WARMUP_BURSTS: usize = 2_000;
/// Bursts in the measured window (× 64 frames per burst). With the warm-up
/// it stays inside every flow's first capability budget (~13 000 frames ×
/// 128 flows), so the window holds established flows only.
const BURSTS: usize = 1_000;
/// Enough further bursts to take every flow through a capability rotation.
const ROTATION_BURSTS: usize = 25_000;

/// Generator, node and sink on one thread over the ring pair.
struct Loopback {
    node: NodeEngine,
    gen: PktGen,
    node_port: RingPort,
    wire: RingPort,
    clock: NodeClock,
    batch: usize,
}

impl Loopback {
    /// `bursts` × (one generator burst, one node poll, one sink drain).
    fn run(&mut self, bursts: usize) {
        for _ in 0..bursts {
            self.gen.fill_burst(&mut self.wire, self.batch, self.clock.now());
            self.node.poll(&mut self.node_port, &self.clock, self.batch);
            self.wire.rx_burst(self.batch, &mut |_| ());
        }
    }
}

#[test]
fn warm_fast_path_does_not_allocate() {
    let base = NodeConfig::default();
    let legs = [
        ("sampling off", base.clone()),
        ("telemetry 1-in-16", NodeConfig { sample_n: 16, ..base }),
    ];
    for (leg, cfg) in legs {
        let clock = NodeClock::new();
        let (node_port, wire) = ring_pair(cfg.ring_depth);
        let mut lb = Loopback {
            node: NodeEngine::new(&cfg),
            gen: PktGen::new(&cfg, clock.now()),
            node_port,
            wire,
            clock,
            batch: cfg.batch,
        };
        lb.run(WARMUP_BURSTS);
        lb.node.reset_meters();

        let before = allocs();
        lb.run(BURSTS);
        let allocs_in_window = allocs() - before;
        let forwarded = lb.node.stats.tx_frames;
        assert!(forwarded > 1000, "{leg}: loopback must forward ({forwarded})");
        assert_eq!(lb.node.stats.malformed_drops, 0, "{leg}: clean mix");
        assert_eq!(
            allocs_in_window, 0,
            "{leg}: {allocs_in_window} allocations over {forwarded} forwarded frames"
        );

        // A rotated flow is a new flow-table entry, and an insert may grow
        // the table's index (measured: 22 allocations over 1.92 M frames).
        // That is per new flow, not per frame: it must round to zero at the
        // four decimals the per-frame rate is quoted to.
        lb.run(ROTATION_BURSTS);
        let allocs_total = allocs() - before;
        let forwarded = lb.node.stats.tx_frames;
        assert!(lb.node.router.stats.full_validations > 0, "{leg}: no flow rotated");
        assert!(
            allocs_total * 20_000 < forwarded,
            "{leg}: {allocs_total} allocations over {forwarded} forwarded frames across a rotation"
        );
    }
}

/// Peak live heap bytes per host while building the scale tree
/// (`run_scale`'s shape at 10 000 hosts, with no simulated time):
/// requested sizes, so the figure does not depend on the allocator or the
/// host. 89.5 % of those hosts never exchange a packet, so this is mostly
/// what an idle host costs. Measured 1 084.4 B (1 079.2 B before the tree
/// was wired by the scenario builder, whose per-kick and per-attacker
/// bookkeeping is the difference); the bound is 5 % above the 1 080.9 B
/// measured when it was set. 1 474.9 B with every channel's
/// counters and every client shim's peer state built eagerly and
/// `compute_routes` copying the channels.
const SCALE_BUILD_HEAP_BYTES_PER_HOST: f64 = 1_135.0;

#[test]
fn scale_tree_build_heap_per_host_stays_bounded() {
    let cfg = ScaleConfig { sim_secs: 0, ..ScaleConfig::quick() };
    let base = reset_peak_live();
    let run = run_scale(cfg);
    let peak = peak_live() - base;
    assert_eq!(run.hosts, 10_000);
    let per_host = peak as f64 / run.hosts as f64;
    eprintln!("scale tree build: {peak} B peak live heap, {per_host:.1} B per host");
    assert!(
        per_host <= SCALE_BUILD_HEAP_BYTES_PER_HOST,
        "{per_host:.1} B of peak live heap per host (bound {SCALE_BUILD_HEAP_BYTES_PER_HOST})"
    );
}

/// Routes every arriving packet on toward its destination.
struct Forward;

impl Node for Forward {
    fn on_packet(&mut self, pkt: Pkt, _from: ChannelId, ctx: &mut dyn Ctx) {
        ctx.send(pkt);
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Ctx) {}
}

/// A channel's counters are built by its first write: one that never
/// carried a packet reads all zeros, and reading it allocates nothing.
#[test]
fn never_written_channel_reads_zero_without_allocating() {
    let mut t = TopologyBuilder::new();
    let a = t.add_node(Box::new(Forward));
    let b = t.add_node(Box::<SinkNode>::default());
    let dst = Addr::new(10, 0, 0, 2);
    t.bind_addr(b, dst);
    let l = t.link(
        a,
        b,
        1_000_000,
        SimDuration::from_millis(1),
        Box::new(DropTail::new(1 << 20)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut sim = t.build(1);
    let src = Addr::new(10, 0, 0, 1);
    let pkt = Packet { id: PacketId(1), src, dst, cap: None, tcp: None, payload_len: 100 };
    sim.inject(a, l.ba, pkt);
    sim.run_until(SimTime::from_secs(1));

    let (used, idle) = (&sim.channel(l.ab).stats, &sim.channel(l.ba).stats);
    assert!(used.is_built() && used.tx_pkts == 1, "the used direction counted its packet");
    let before = allocs();
    assert!(!idle.is_built(), "nothing wrote the idle direction's counters");
    assert_eq!(*idle, ChannelStats::default());
    assert_eq!((idle.drop_rate(), idle.mean_queued_delay_s()), (0.0, 0.0));
    assert_eq!(allocs(), before, "reading an unwritten table allocates nothing");
}
