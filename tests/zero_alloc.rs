//! Zero heap allocations per forwarded packet, once warm, on both data
//! paths: the simulator's (a steady-state dumbbell) and the daemon's
//! (`tva-node` over its ring pair, flow sampling off and at 1-in-16).
//!
//! PAPER §6's case for commodity routers rests on a small, bounded cost per
//! packet; an allocation per packet is neither. This test binary installs a
//! counting global allocator around [`System`], so `cargo test` holds the
//! property in the default build. The counter is process-wide, so the
//! tests here run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tva::bench::dumbbell::run_dumbbell;
use tva::sim::pool_stats;
use tva_node::{ring_pair, NodeClock, NodeConfig, NodeEngine, PktGen, RingPort, Transport};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`], counting every call that can hand out fresh memory.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// counter bump, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // A realloc that moves is a fresh allocation from the data path's point
    // of view; counting every call overstates rather than hides churn.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

#[test]
fn counter_sees_a_boxed_allocation() {
    let _one = one_at_a_time();
    let before = allocs();
    drop(std::hint::black_box(Box::new([0u8; 1024])));
    assert!(allocs() > before, "Box::new must be counted");
}

/// Once the packet pool and the long-lived tables (routing, flow cache,
/// scheduler queues, connection maps) are warm, forwarding a packet does
/// not touch the heap: the pool recycles packet storage, DRR sub-queues
/// recycle their ring buffers, and the TCP stack recycles connection maps
/// across transfers. A warm-up run primes everything; a second, identical
/// run is measured.
#[test]
fn steady_state_forwarding_does_not_allocate() {
    let _one = one_at_a_time();
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
    let _one = one_at_a_time();
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
