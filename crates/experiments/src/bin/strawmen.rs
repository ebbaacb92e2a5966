//! The §2 strawmen: why fair queuing alone cannot stop floods.
//!
//! > "k hosts attacking a destination limit a good connection to 1/k of the
//! > bandwidth … The problem is worse if fair queuing is performed across
//! > source and destination address pairs. Then, an attacker in control of
//! > k well-positioned hosts can create a large number of flows to limit
//! > the useful traffic to only 1/k² of the congested link."
//!
//! A victim and k attackers saturate a bottleneck governed by per-source or
//! per-(source, destination) DRR; attackers spray k destinations each in
//! pair mode. The victim's measured share tracks 1/(k+1) and 1/(k²+1).
//!
//! Run: `cargo run --release -p tva-experiments --bin strawmen`

use tva_baselines::{FqKey, FqScheduler};
use tva_experiments::{ascii_chart, table, write_tsv, Series};
use tva_sim::{DropTail, SimDuration, SimTime, TopologyBuilder};
use tva_transport::FloodNode;
use tva_wire::{Addr, Packet, PacketId};

const BOTTLENECK: u64 = 10_000_000;

/// A plain forwarding router.
#[derive(Default)]
struct Fwd;

impl tva_sim::Node for Fwd {
    fn on_packet(
        &mut self,
        pkt: tva_sim::Pkt,
        _from: tva_sim::ChannelId,
        ctx: &mut dyn tva_sim::Ctx,
    ) {
        ctx.send(pkt);
    }
    fn on_timer(&mut self, _t: u64, _ctx: &mut dyn tva_sim::Ctx) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn main() {
    let ks = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (key, label) in [(FqKey::BySource, "per-source"), (FqKey::BySourceDest, "per-pair")] {
        let mut pts = Vec::new();
        for &k in &ks {
            let share = victim_share_counted(key, k);
            let ideal = match key {
                FqKey::BySource => 1.0 / (k as f64 + 1.0),
                FqKey::BySourceDest => 1.0 / ((k * k) as f64 + 1.0),
                FqKey::ByDest => unreachable!(),
            };
            rows.push(vec![
                label.to_string(),
                k.to_string(),
                format!("{share:.4}"),
                format!("{ideal:.4}"),
            ]);
            pts.push((k as f64, share));
        }
        series.push(Series { label: label.into(), points: pts });
    }
    println!("§2 strawmen: the victim's bottleneck share under fair queuing\n");
    println!("{}", table(&["queuing", "attackers", "victim share", "analytic"], &rows));
    println!(
        "{}",
        ascii_chart("victim share vs attackers (k)", &series, 50, 12)
    );
    println!(
        "With 16 attackers, per-pair fair queuing leaves the victim {:.2}% of the\n\
         link — the paper's \"30 well-placed hosts could cut a gigabit link to\n\
         only a megabit\". TVA's authorization + per-destination queuing avoids\n\
         both collapses (see fig8/fig10).",
        rows.last().map(|r| r[2].parse::<f64>().unwrap_or(0.0) * 100.0).unwrap_or(0.0)
    );
    let path = tva_experiments::figrun::results_dir().join("strawmen.tsv");
    let _ = write_tsv(&path, &["queuing", "attackers", "share", "analytic"], &rows);
    println!("wrote {}", path.display());
}

/// Measures the victim's delivered share of the bottleneck: a victim flood
/// and k attacker floods contend under `key` fair queuing; a counting sink
/// tallies the victim's surviving bytes.
fn victim_share_counted(key: FqKey, k: usize) -> f64 {
    let mut t = TopologyBuilder::new();
    let victim_src = Addr::new(20, 0, 0, 1);
    let victim_dst = Addr::new(10, 0, 0, 1);

    let router = t.add_node(Box::<Fwd>::default());
    let sink = t.add_node(Box::new(CountingSink { victim: victim_dst, victim_bytes: 0 }));
    t.bind_addr(sink, victim_dst);
    let sprayed = if key == FqKey::BySourceDest { k.max(1) } else { 1 };
    for a in 0..k {
        for d in 0..sprayed {
            t.bind_addr(sink, Addr::new(10, 1, a as u8 + 1, d as u8 + 1));
        }
    }
    t.link(
        router,
        sink,
        BOTTLENECK,
        SimDuration::from_millis(5),
        Box::new(FqScheduler::new(key, 1500, 32 * 1024, 4096)),
        Box::new(DropTail::new(1 << 20)),
    );
    let v = t.add_node(Box::new(FloodNode::new(
        BOTTLENECK,
        Box::new(move |_n, _s| {
            Some(Packet {
                id: PacketId(0),
                src: victim_src,
                dst: victim_dst,
                cap: None,
                tcp: None,
                payload_len: 980,
            })
        }),
    )));
    t.bind_addr(v, victim_src);
    t.link(
        v,
        router,
        100_000_000,
        SimDuration::from_millis(5),
        Box::new(DropTail::new(1 << 20)),
        Box::new(DropTail::new(1 << 20)),
    );
    let mut kicks = vec![v];
    for a in 0..k {
        let src = Addr::new(66, 0, 0, a as u8 + 1);
        let n_dsts = sprayed;
        let node = t.add_node(Box::new(FloodNode::new(
            BOTTLENECK,
            Box::new(move |_now, seq| {
                let d = (seq as usize % n_dsts) as u8;
                Some(Packet {
                    id: PacketId(0),
                    src,
                    dst: Addr::new(10, 1, a as u8 + 1, d + 1),
                    cap: None,
                    tcp: None,
                    payload_len: 980,
                })
            }),
        )));
        t.bind_addr(node, src);
        t.link(
            node,
            router,
            100_000_000,
            SimDuration::from_millis(5),
            Box::new(DropTail::new(1 << 20)),
            Box::new(DropTail::new(1 << 20)),
        );
        kicks.push(node);
    }
    let mut sim = t.build(7 + k as u64);
    for &n in &kicks {
        sim.kick(n, 0);
    }
    let horizon = SimTime::from_secs(20);
    sim.run_until(horizon);
    let victim_bytes = sim.node::<CountingSink>(tva_sim::NodeId(1)).victim_bytes;
    victim_bytes as f64 * 8.0 / (BOTTLENECK as f64 * horizon.as_secs_f64())
}

struct CountingSink {
    victim: Addr,
    victim_bytes: u64,
}

impl tva_sim::Node for CountingSink {
    fn on_packet(
        &mut self,
        pkt: tva_sim::Pkt,
        _from: tva_sim::ChannelId,
        _ctx: &mut dyn tva_sim::Ctx,
    ) {
        if pkt.dst == self.victim {
            self.victim_bytes += pkt.wire_len() as u64;
        }
    }
    fn on_timer(&mut self, _t: u64, _ctx: &mut dyn tva_sim::Ctx) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
