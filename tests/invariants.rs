//! Cross-crate property tests for the DESIGN.md invariants.

use proptest::prelude::*;
use tva::core::{capability, Charge, FlowTable, RouterConfig, TvaRouter, Verdict};
use tva::crypto::SecretSchedule;
use tva::sim::{ChannelId, SimDuration, SimTime};
use tva::wire::{Addr, CapValue, FlowKey, FlowNonce, Grant, Packet, PacketId};

const SRC: Addr = Addr::new(1, 0, 0, 1);
const DST: Addr = Addr::new(2, 0, 0, 2);

/// Invariant 1 (§3.6, Figure 4): no schedule of packet arrivals and state
/// reclaims can push a capability past 2N bytes, and without reclaims past
/// N.
///
/// The adversary controls packet sizes and timing; the table is tiny so
/// competing flows force reclaims of expired entries.
#[derive(Debug, Clone)]
enum Step {
    /// Adversary sends a packet of this size after this many milliseconds.
    Send { gap_ms: u64, len: u32 },
    /// A competing flow tries to claim the adversary's slot.
    Compete { gap_ms: u64 },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..3000, 40u32..1500).prop_map(|(gap_ms, len)| Step::Send { gap_ms, len }),
            (0u64..3000).prop_map(|gap_ms| Step::Compete { gap_ms }),
        ],
        1..200,
    )
}

/// `FlowTable::create`, held to a naive scan on the one decision the lazy
/// reclaim index makes: a key not in the table arriving at a full table is
/// admitted iff some entry's ttl has run out (every `len` the callers pass
/// is under N, so a fresh key's budget always allows), and the admission
/// costs exactly one other entry, which was expired. Any other create just
/// runs.
fn create_vs_scan(
    table: &mut FlowTable,
    flow: FlowKey,
    cap: CapValue,
    nonce: FlowNonce,
    grant: Grant,
    len: u32,
    now: SimTime,
) -> Result<(), TestCaseError> {
    if table.get(flow).is_some() || table.len() < table.capacity() {
        let _ = table.create(flow, cap, nonce, grant, len, now);
        return Ok(());
    }
    let before: Vec<(FlowKey, SimTime)> =
        table.iter_entries().map(|(k, e)| (*k, e.ttl_expires)).collect();
    let victim_exists = before.iter().any(|&(_, ttl)| ttl <= now);
    let (reclaims, failures) = (table.reclaims, table.admission_failures);
    let admitted = table.create(flow, cap, nonce, grant, len, now);
    prop_assert_eq!(admitted, victim_exists, "admission must match the scan at {:?}", now);
    let gone: Vec<_> = before.iter().filter(|(k, _)| table.get(*k).is_none()).collect();
    if admitted {
        prop_assert_eq!(gone.len(), 1, "one admission reclaims one entry");
        prop_assert!(gone[0].1 <= now, "reclaimed {:?}, live until {:?}", gone[0].0, gone[0].1);
        prop_assert_eq!((table.reclaims, table.admission_failures), (reclaims + 1, failures));
    } else {
        prop_assert!(gone.is_empty(), "a refused admission evicted {:?}", gone);
        prop_assert_eq!((table.reclaims, table.admission_failures), (reclaims, failures + 1));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_bound_2n_holds(steps in arb_steps(), n_kb in 4u16..64) {
        let grant = Grant::from_parts(n_kb, 10);
        let n = grant.n.bytes();
        let t_end = SimTime::ZERO + SimDuration::from_secs(grant.t.secs() as u64);
        // A 1-entry table maximizes reclaim pressure.
        let mut table = FlowTable::new(1);
        let flow = FlowKey::new(SRC, DST);
        let competitor = FlowKey::new(Addr::new(9, 9, 9, 9), DST);
        let cap = CapValue::new(0, 0xAB);
        let nonce = FlowNonce::new(7);

        let mut now = SimTime::ZERO;
        let mut accepted: u64 = 0;
        for step in steps {
            match step {
                Step::Send { gap_ms, len } => {
                    now += SimDuration::from_millis(gap_ms);
                    if now > t_end {
                        break; // the capability has expired (T check)
                    }
                    let ok = match table.get(flow) {
                        Some(e) if e.nonce == nonce => {
                            table.charge(flow, len, now) == Charge::Ok
                        }
                        _ => table.create(flow, cap, nonce, grant, len, now),
                    };
                    if ok {
                        accepted += len as u64;
                    }
                }
                Step::Compete { gap_ms } => {
                    now += SimDuration::from_millis(gap_ms);
                    // The competitor may only take the slot when the
                    // adversary's ttl reached zero (create refuses
                    // otherwise).
                    let _ = table.create(
                        competitor,
                        CapValue::new(0, 0xCD),
                        FlowNonce::new(8),
                        grant,
                        100,
                        now,
                    );
                }
            }
        }
        prop_assert!(
            accepted <= 2 * n,
            "accepted {accepted} bytes > 2N = {} (N = {n})",
            2 * n
        );
    }

    /// Without reclaim pressure (table never fills), the bound is exactly N.
    #[test]
    fn byte_bound_n_without_reclaims(lens in proptest::collection::vec(40u32..1500, 1..200)) {
        let grant = Grant::from_parts(16, 10);
        let mut table = FlowTable::new(1024);
        let flow = FlowKey::new(SRC, DST);
        let cap = CapValue::new(0, 0xAB);
        let nonce = FlowNonce::new(7);
        let now = SimTime::ZERO;
        let mut accepted = 0u64;
        for len in lens {
            let ok = match table.get(flow) {
                Some(_) => table.charge(flow, len, now) == Charge::Ok,
                None => table.create(flow, cap, nonce, grant, len, now),
            };
            if ok {
                accepted += len as u64;
            }
        }
        prop_assert!(accepted <= grant.n.bytes());
    }

    /// Invariant 2: flow-table occupancy never exceeds its bound no matter
    /// how many distinct flows offer traffic.
    #[test]
    fn state_bound_holds(srcs in proptest::collection::vec(any::<u32>(), 1..500)) {
        let bound = 16;
        let mut table = FlowTable::new(bound);
        let grant = Grant::from_parts(100, 10);
        let now = SimTime::ZERO;
        for (i, s) in srcs.iter().enumerate() {
            let flow = FlowKey::new(Addr(*s), DST);
            let _ = table.create(
                flow,
                CapValue::new(0, i as u64),
                FlowNonce::new(i as u64),
                grant,
                1000,
                now,
            );
            prop_assert!(table.len() <= bound);
        }
    }

    /// Invariant 3: a router never validates a capability whose (src, dst,
    /// N, T) differ from minting, under any mutation.
    #[test]
    fn unforgeability(seed: u64, kb in 1u16..1023, secs in 1u8..63,
                      flip_src: bool, flip_dst: bool, dn in 0i32..3, dt in 0i32..3) {
        let schedule = SecretSchedule::from_seed(seed);
        let grant = Grant::from_parts(kb, secs);
        let cap = capability::mint_cap(
            capability::mint_precap(&schedule, 100, SRC, DST),
            grant,
        );
        let src = if flip_src { Addr::new(6, 6, 6, 6) } else { SRC };
        let dst = if flip_dst { Addr::new(7, 7, 7, 7) } else { DST };
        let kb2 = (kb as i32 + dn - 1).clamp(1, 1023) as u16;
        let secs2 = (secs as i32 + dt - 1).clamp(1, 63) as u8;
        let grant2 = Grant::from_parts(kb2, secs2);
        let mutated = flip_src || flip_dst || grant2 != grant;
        let ok = capability::validate_cap(&schedule, 100, src, dst, grant2, cap, 1.0).is_ok();
        if mutated {
            prop_assert!(!ok, "mutated tuple must not validate");
        } else {
            prop_assert!(ok, "unmutated tuple must validate");
        }
    }

    /// The flow table's `entries` map and `by_expiry` reclaim index stay in
    /// exact bijection under any interleaving of creates (fresh flows,
    /// same-capability replacements, renewals), charges, and reclaim
    /// pressure — the pairing the `TVA_CHECK` flow-table auditor enforces
    /// at runtime. A desync would let reclaim pick phantom victims or
    /// strand live entries forever. Every create at a full table is also
    /// compared with a brute-force scan ([`create_vs_scan`]): the lazy
    /// index finds a victim whenever one exists, and only an expired one.
    #[test]
    fn flowtable_index_stays_in_bijection(
        ops in proptest::collection::vec(
            (0u8..5, 0u32..6, 0u64..2000, 40u32..1500, 0u64..4),
            1..300,
        ),
        bound in 1usize..6,
    ) {
        let mut table = FlowTable::new(bound);
        let grant = Grant::from_parts(8, 4);
        let mut now = SimTime::ZERO;
        for (op, flow_i, gap_ms, len, cap_i) in ops {
            now += SimDuration::from_millis(gap_ms);
            let flow = FlowKey::new(Addr(flow_i), DST);
            match op {
                // Create: may be a fresh admission, a same-capability
                // replacement (nonce churn), a renewal, or a reclaim of
                // some other flow's expired slot.
                0 | 1 => {
                    let nonce = FlowNonce::new(now.as_nanos());
                    create_vs_scan(&mut table, flow, CapValue::new(0, cap_i), nonce, grant, len, now)?;
                }
                // Charge an existing entry (no-op when absent).
                2 => {
                    let _ = table.charge(flow, len, now);
                }
                // Land on the exact instant the earliest entry expires
                // (`ttl == now` is already reclaimable), then a competitor.
                3 => {
                    if let Some(t) = table.iter_entries().map(|(_, e)| e.ttl_expires).min() {
                        now = now.max(t);
                    }
                    let comp = FlowKey::new(Addr::new(9, 9, 9, 9), DST);
                    create_vs_scan(&mut table, comp, CapValue::new(0, 0xC9), FlowNonce::new(9), grant, 100, now)?;
                }
                // A long idle gap, then maximum reclaim pressure from a
                // burst of competitors.
                _ => {
                    now += SimDuration::from_secs(3);
                    for c in 0..4u32 {
                        let comp = FlowKey::new(Addr::new(9, 9, 9, c as u8), DST);
                        let cap = CapValue::new(0, 0xC0 + c as u64);
                        create_vs_scan(&mut table, comp, cap, FlowNonce::new(c as u64), grant, 100, now)?;
                    }
                }
            }
            prop_assert!(table.audit().is_ok(), "{}", table.audit().unwrap_err());
            prop_assert!(table.len() <= bound);
        }
    }

    /// A router demotes (never panics on) arbitrary garbage capability
    /// headers decoded from random bytes.
    #[test]
    fn router_survives_decoded_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut router = TvaRouter::new(RouterConfig::default(), 10_000_000);
        if let Ok((header, _)) = tva::wire::decode(&data) {
            let mut pkt = Packet {
                id: PacketId(0),
                src: SRC,
                dst: DST,
                cap: Some(header),
                tcp: None,
                payload_len: 100,
            };
            let v = router.process(&mut pkt, ChannelId(0), SimTime::from_secs(5));
            // Requests are stamped; everything else from random bytes must
            // fail validation (2^-56 forgery chance treated as impossible).
            prop_assert!(matches!(v, Verdict::Request | Verdict::Legacy));
        }
    }
}
