//! Bulk transfers across a seeded lossy wire: every byte arrives intact,
//! and equal seeds reproduce the retransmission schedule exactly.
//!
//! This is a deterministic grid rather than a proptest: the property
//! "completes under ≤20% random loss" holds for these seeds by
//! construction (mini-TCP may legitimately abort under adversarial
//! patterns — a segment has a 10-transmission budget), and a fixed grid
//! keeps CI stable while still sweeping the whole 0–20% range.

use std::sync::{Arc, Mutex};

use tva_sim::{
    format_event, DropTail, Impairments, NodeId, SimDuration, SimTime, Simulator,
    TopologyBuilder,
};
use tva_transport::{ClientNode, NullShim, ServerNode, TOKEN_START};
use tva_wire::Addr;

const CLIENT: Addr = Addr::new(20, 0, 0, 1);
const SERVER: Addr = Addr::new(10, 0, 0, 1);
const FILE: u32 = 20 * 1024;

fn q() -> Box<DropTail> {
    Box::new(DropTail::new(1 << 20))
}

/// Client —(10 Mb/s, lossy both ways)— server; one bulk transfer.
fn build(loss: f64, seed: u64) -> (Simulator, NodeId, NodeId) {
    let mut t = TopologyBuilder::new();
    let c = t.add_node(Box::new(ClientNode::new(
        CLIENT,
        SERVER,
        FILE,
        1,
        Box::new(NullShim),
    )));
    let s = t.add_node(Box::new(ServerNode::new(SERVER, Box::new(NullShim))));
    t.bind_addr(c, CLIENT);
    t.bind_addr(s, SERVER);
    let l = t.link(c, s, 10_000_000, SimDuration::from_nanos(10_000_000), q(), q());
    t.impair_link(l, Impairments::loss(loss));
    let mut sim = t.build(seed);
    sim.kick(c, TOKEN_START);
    (sim, c, s)
}

fn run(loss: f64, seed: u64) -> (Simulator, NodeId, NodeId) {
    let (mut sim, c, s) = build(loss, seed);
    sim.run_until(SimTime::from_secs(600));
    (sim, c, s)
}

#[test]
fn bulk_transfer_survives_the_loss_grid_with_all_bytes_intact() {
    // 12 (seed, loss) points spanning 0–20% per direction.
    for i in 0..12u64 {
        let loss = i as f64 * 0.2 / 11.0;
        let (sim, c, s) = run(loss, 1000 + i);
        let client = sim.node::<ClientNode>(c);
        assert_eq!(client.records.len(), 1, "loss {loss:.3}: transfer resolved");
        assert!(
            client.records[0].finished.is_some(),
            "loss {loss:.3} seed {}: transfer completed",
            1000 + i
        );
        assert_eq!(
            sim.node::<ServerNode>(s).delivered_bytes(),
            FILE as u64,
            "loss {loss:.3}: every byte delivered exactly once, in order"
        );
    }
}

#[test]
fn twenty_percent_loss_fixed_seed_completes() {
    let (sim, c, s) = run(0.20, 20050821);
    assert!(sim.node::<ClientNode>(c).records[0].finished.is_some());
    assert_eq!(sim.node::<ServerNode>(s).delivered_bytes(), FILE as u64);
}

/// Full trace of a lossy run — includes every enqueue, transmission, loss
/// and delivery, i.e. the complete retransmission schedule.
fn traced(loss: f64, seed: u64) -> Vec<String> {
    let (mut sim, _c, _s) = build(loss, seed);
    let trace = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    sim.set_tracer(Some(Box::new(move |ev| {
        sink.lock().unwrap().push(format_event(ev));
    })));
    sim.run_until(SimTime::from_secs(600));
    drop(sim);
    Arc::try_unwrap(trace).unwrap().into_inner().unwrap()
}

#[test]
fn equal_seeds_reproduce_the_retransmission_trace_exactly() {
    let a = traced(0.15, 77);
    let b = traced(0.15, 77);
    assert!(!a.is_empty());
    assert_eq!(a, b, "equal seeds, byte-identical traces");
    // And the loss pattern really is seed-dependent.
    let c = traced(0.15, 78);
    assert_ne!(a, c);
}

