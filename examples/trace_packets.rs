//! Packet tracing: watch the capability machinery work, packet by packet.
//!
//! Attaches a tracer to a small TVA scenario and prints classic trace
//! records ('+' enqueue, '-' transmit, 'r' deliver, 'd' drop) for the
//! first moments of a transfer — the request going out, capabilities
//! coming back, data flowing.
//!
//! Run: `cargo run --release --example trace_packets`

use std::sync::{Arc, Mutex};

use tva::core::{ClientPolicy, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode, TvaScheduler};
use tva::sim::{format_event, DropTail, SimDuration, SimTime, TopologyBuilder, TraceCounts};
use tva::transport::{ClientNode, ServerNode, TOKEN_START};
use tva::wire::{Addr, Grant};

fn main() {
    const CLIENT: Addr = Addr::new(20, 0, 0, 1);
    const SERVER: Addr = Addr::new(10, 0, 0, 1);
    let rcfg = RouterConfig { secret_seed: 9, ..Default::default() };
    let mut t = TopologyBuilder::new();
    let router = t.add_node(Box::new(TvaRouterNode::new(rcfg.clone(), 10_000_000)));
    let client = t.add_node(Box::new(ClientNode::new(
        CLIENT,
        SERVER,
        4 * 1024,
        1,
        Box::new(TvaHostShim::new(
            CLIENT,
            Box::new(ClientPolicy { grant: Grant::from_parts(100, 10) }),
        )),
    )));
    let server = t.add_node(Box::new(ServerNode::new(
        SERVER,
        Box::new(TvaHostShim::new(
            SERVER,
            Box::new(ServerPolicy::new(
                Grant::from_parts(100, 10),
                SimDuration::from_secs(30),
            )),
        )),
    )));
    t.bind_addr(client, CLIENT);
    t.bind_addr(server, SERVER);
    let d = SimDuration::from_millis(10);
    t.link(
        client,
        router,
        10_000_000,
        d,
        Box::new(DropTail::new(1 << 20)),
        Box::new(TvaScheduler::new(10_000_000, &rcfg)),
    );
    t.link(
        router,
        server,
        10_000_000,
        d,
        Box::new(TvaScheduler::new(10_000_000, &rcfg)),
        Box::new(DropTail::new(1 << 20)),
    );

    let mut sim = t.build(1);
    let lines = Arc::new(Mutex::new(Vec::new()));
    let counts = Arc::new(Mutex::new(TraceCounts::default()));
    {
        let lines = lines.clone();
        let counts = counts.clone();
        sim.set_tracer(Some(Box::new(move |ev| {
            counts.lock().unwrap().record(ev);
            let mut lines = lines.lock().unwrap();
            if lines.len() < 40 {
                lines.push(format_event(ev));
            }
        })));
    }
    sim.kick(client, TOKEN_START);
    sim.run_until(SimTime::from_secs(5));

    println!("First 40 trace records of a 4 KB TVA transfer:\n");
    for l in lines.lock().unwrap().iter() {
        println!("{l}");
    }
    let c = counts.lock().unwrap().clone();
    println!(
        "\ntotals: {} enqueued, {} dropped, {} transmitted, {} delivered",
        c.enqueued, c.dropped, c.tx_start, c.delivered
    );
    println!("legend: + enqueue   - transmit   r deliver   d drop (per channel)");
}
