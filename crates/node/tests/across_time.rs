//! The daemon across time (PAPER §3.4–§3.5): one long-lived node is stepped
//! through ten minutes of a stopped clock — every second, plus one
//! nanosecond either side of each 128 s secret rotation and each 256 s
//! timestamp wrap — while capabilities minted at 127 s, 255 s and 383 s (one
//! second before a rotation each; the middle one also before a wrap) are
//! offered at every step.
//!
//! The router keeps its secret's current and previous generation keys
//! between rotations. At every step the long-lived node's verdict must equal
//! a freshly built node's (nothing cached) and `validate_cap` on a schedule
//! that was never refreshed, and a capability must pass exactly while
//! `mint ≤ now ≤ mint + T` — never before, never after, however the
//! rotations and the wrap fall.

use tva_core::{mint_cap, mint_precap, validate_cap, RouterConfig};
use tva_crypto::SecretSchedule;
use tva_node::{ring_pair, NodeClock, NodeConfig, NodeEngine, Transport};
use tva_sim::SimTime;
use tva_wire::{
    decode_packet, encode_packet, Addr, CapHeader, CapValue, FlowNonce, Grant, Packet, PacketId,
};

const DST: Addr = Addr::new(10, 9, 0, 1);
const HORIZON_SECS: u64 = 600;

/// One capability under test: its sender, mint second and grant.
struct Minted {
    src: Addr,
    mint_secs: u64,
    grant: Grant,
    cap: CapValue,
}

/// Every whole second to the horizon, and ±1 ns around each multiple of
/// 128 s (which includes every multiple of 256 s).
fn instants() -> Vec<SimTime> {
    let mut at: Vec<SimTime> = (0..=HORIZON_SECS).map(SimTime::from_secs).collect();
    for k in 1..=HORIZON_SECS / 128 {
        let edge_ns = SimTime::from_secs(k * 128).as_nanos();
        at.push(SimTime::from_nanos(edge_ns - 1));
        at.push(SimTime::from_nanos(edge_ns + 1));
    }
    at.sort();
    at
}

/// Whether `node` forwards each capability's packet at `now` undemoted.
/// Every packet carries a fresh nonce, so each one is fully validated.
fn verdicts(node: &mut NodeEngine, minted: &[Minted], now: SimTime, nonce: &mut u64) -> Vec<bool> {
    let (mut port, mut wire) = ring_pair(16);
    for m in minted {
        *nonce += 1;
        let pkt = Packet {
            id: PacketId(*nonce),
            src: m.src,
            dst: DST,
            cap: Some(CapHeader::regular_with_caps(FlowNonce::new(*nonce), m.grant, vec![m.cap])),
            tcp: None,
            payload_len: 0,
        };
        assert!(wire.tx_frame(&mut |b| {
            b.clear();
            b.extend_from_slice(&encode_packet(&pkt));
        }));
    }
    assert_eq!(node.poll(&mut port, &NodeClock::stopped_at(now), 16), (minted.len(), minted.len()));
    let mut out = Vec::new();
    wire.rx_burst(16, &mut |f| out.push(decode_packet(f).expect("forwarded frame decodes")));
    minted
        .iter()
        .map(|m| {
            let pkt = out.iter().find(|p| p.src == m.src).expect("every packet is forwarded");
            !pkt.is_demoted()
        })
        .collect()
}

#[test]
fn capabilities_live_exactly_their_grant_across_rotations_and_the_wrap() {
    let cfg = NodeConfig::default();
    let schedule = SecretSchedule::from_seed(cfg.secret_seed);
    let min_rate = RouterConfig::default().min_rate_bytes_per_sec;
    let minted: Vec<Minted> = [(127, 63), (255, 10), (383, 63)]
        .into_iter()
        .enumerate()
        .map(|(i, (mint_secs, t))| {
            let src = Addr::new(10, 0, 0, i as u8 + 1);
            let grant = Grant::from_parts(1023, t);
            let cap = mint_cap(mint_precap(&schedule, mint_secs, src, DST), grant);
            Minted { src, mint_secs, grant, cap }
        })
        .collect();

    let mut node = NodeEngine::new(&cfg);
    let mut nonce = 0;
    let mut passed = vec![0u32; minted.len()];
    for now in instants() {
        let secs = now.as_secs();
        let warm = verdicts(&mut node, &minted, now, &mut nonce);
        let cold = verdicts(&mut NodeEngine::new(&cfg), &minted, now, &mut nonce);
        assert_eq!(warm, cold, "long-lived vs fresh node at {now:?}");
        for ((m, ok), passes) in minted.iter().zip(warm).zip(&mut passed) {
            let direct =
                validate_cap(&schedule, secs, m.src, DST, m.grant, m.cap, min_rate).is_ok();
            assert_eq!(ok, direct, "node vs validate_cap, minted {} s, at {now:?}", m.mint_secs);
            let live = (m.mint_secs..=m.mint_secs + u64::from(m.grant.t.secs())).contains(&secs);
            assert_eq!(ok, live, "minted {} s, T {} s, at {now:?}", m.mint_secs, m.grant.t.secs());
            *passes += u32::from(ok);
        }
    }
    // Whole seconds of the window, plus the ±1 ns instants inside it (each
    // window holds exactly one rotation edge).
    assert_eq!(passed, [64 + 2, 11 + 2, 64 + 2]);
    assert_eq!(node.stats.malformed_drops, 0);
}
