//! The SIFF host layer: a [`Shim`] that explores, carries marks, and
//! re-explores when marks go stale.
//!
//! Compared to the TVA shim there is no nonce fast path, no byte budget, no
//! renewal packets and no demotion echo: data always carries the mark list,
//! and the only recovery mechanism is sending a new explorer.

use std::collections::HashMap;

use tva_core::{GrantPolicy, RequestInfo};
use tva_sim::{SimDuration, SimTime};
use tva_transport::Shim;
use tva_wire::{
    Addr, CapHeader, CapList, CapPayload, FlowNonce, Grant, Packet, PacketId, PathId, ReturnInfo,
};

/// A dummy grant carried in headers; SIFF routers ignore (N, T).
fn dummy_grant() -> Grant {
    Grant::from_parts(1023, 63)
}

/// Misbehavior threshold (bytes/second) for the destination role.
const MISBEHAVIOR_BYTES_PER_SEC: f64 = 100.0 * 1024.0;

struct SiffPeer {
    /// Marks we hold for sending to this peer.
    marks: Option<(CapList, SimTime)>,
    /// Marks to return to this peer (destination role), sticky like TVA's.
    pending_return: Option<(CapList, SimTime)>,
}

/// SIFF host shim.
pub struct SiffShim {
    local: Addr,
    policy: Box<dyn GrantPolicy>,
    peers: HashMap<Addr, SiffPeer>,
    outbox: Vec<Packet>,
    /// Re-explore when held marks are older than this (senders cannot see
    /// router keys, so they refresh on a timer — set it to the deployment's
    /// key rotation period).
    pub(crate) refresh_after: SimDuration,
    rx: HashMap<Addr, (SimTime, u64)>,
    /// Explorers sent.
    pub(crate) explorers_sent: u64,
    /// Mark sets acquired.
    pub(crate) marks_acquired: u64,
}

impl SiffShim {
    /// Creates a shim. `refresh_after` should match the routers' key
    /// rotation period.
    pub fn new(local: Addr, policy: Box<dyn GrantPolicy>, refresh_after: SimDuration) -> Self {
        SiffShim {
            local,
            policy,
            peers: HashMap::new(),
            outbox: Vec::new(),
            refresh_after,
            rx: HashMap::new(),
            explorers_sent: 0,
            marks_acquired: 0,
        }
    }

    fn peer(&mut self, addr: Addr) -> &mut SiffPeer {
        self.peers
            .entry(addr)
            .or_insert_with(|| SiffPeer { marks: None, pending_return: None })
    }

    fn note_rx(&mut self, src: Addr, len: u32, now: SimTime) {
        let e = self.rx.entry(src).or_insert((now, 0));
        if now.since(e.0) > SimDuration::from_secs(1) {
            *e = (now, 0);
        }
        e.1 += len as u64;
        if e.1 as f64 > MISBEHAVIOR_BYTES_PER_SEC {
            *e = (now, 0);
            self.policy.note_misbehavior(src, now);
        }
    }
}

impl Shim for SiffShim {
    fn on_send(&mut self, pkt: &mut Packet, now: SimTime) {
        let refresh = self.refresh_after;
        // SIFF capabilities are per *flow*, not per host pair (the paper
        // lists host-pair capabilities as a TVA advantage, §3.2, and its
        // SIFF analysis models every transfer as needing its own request
        // through the low-priority channel). Every connection-opening SYN
        // therefore travels as an explorer.
        let force_explore = pkt.tcp.is_some_and(|t| t.flags.syn && !t.flags.ack);
        let st = self.peer(pkt.dst);
        let mut header = match &st.marks {
            Some((marks, acquired)) if !force_explore && now.since(*acquired) < refresh => {
                CapHeader::regular_with_caps(FlowNonce::new(0), dummy_grant(), marks.clone())
            }
            _ => {
                if !force_explore {
                    st.marks = None;
                }
                self.explorers_sent += 1;
                CapHeader::request()
            }
        };
        // Destination role: piggyback pending marks.
        let st = self.peer(pkt.dst);
        if let Some((marks, granted_at)) = &st.pending_return {
            if now.since(*granted_at) < SimDuration::from_secs(30) {
                header.return_info = Some(ReturnInfo::Capabilities {
                    grant: dummy_grant(),
                    caps: marks.clone(),
                });
            } else {
                st.pending_return = None;
            }
        }
        pkt.cap = Some(header);
    }

    fn on_receive(&mut self, pkt: &mut Packet, now: SimTime) -> bool {
        let src = pkt.src;
        let Some(header) = pkt.cap.as_ref() else { return true };

        if let Some(ReturnInfo::Capabilities { caps, .. }) = &header.return_info {
            if !caps.is_empty() {
                let st = self.peer(src);
                let dup = st.marks.as_ref().is_some_and(|(m, _)| m == caps);
                if !dup {
                    st.marks = Some((caps.clone(), now));
                    self.marks_acquired += 1;
                }
            }
        }

        match &header.payload {
            CapPayload::Request { entries } => {
                let initiated = {
                    let st = self.peer(src);
                    st.marks.is_some()
                };
                let info = RequestInfo { src, path_id: PathId::NONE, initiated };
                match self.policy.decide(info, now) {
                    Some(_) => {
                        let marks: CapList = entries.iter().map(|e| e.precap).collect();
                        if !marks.is_empty() {
                            self.peer(src).pending_return = Some((marks, now));
                            let is_syn = pkt.tcp.is_some_and(|t| t.flags.syn);
                            if !is_syn {
                                let mut reply = Packet {
                                    id: PacketId(0),
                                    src: self.local,
                                    dst: src,
                                    cap: None,
                                    tcp: None,
                                    payload_len: 0,
                                };
                                self.on_send(&mut reply, now);
                                self.outbox.push(reply);
                            }
                        }
                        true
                    }
                    None => false,
                }
            }
            CapPayload::Regular { .. } => {
                self.note_rx(src, pkt.wire_len(), now);
                self.peer(src).pending_return = None;
                true
            }
        }
    }

    fn ready_to_send(&self, dst: Addr, now: SimTime) -> bool {
        self.peers
            .get(&dst)
            .and_then(|p| p.marks.as_ref())
            .is_some_and(|(_, acquired)| now.since(*acquired) < self.refresh_after)
    }

    fn take_outbox(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tva_core::AllowAll;
    use tva_wire::CapValue;

    const ME: Addr = Addr::new(1, 0, 0, 1);
    const PEER: Addr = Addr::new(2, 0, 0, 2);

    fn shim() -> SiffShim {
        SiffShim::new(
            ME,
            Box::new(AllowAll { grant: dummy_grant() }),
            SimDuration::from_secs(3),
        )
    }

    fn data(src: Addr, dst: Addr) -> Packet {
        Packet { id: PacketId(0), src, dst, cap: None, tcp: None, payload_len: 100 }
    }

    #[test]
    fn explores_then_carries_marks_then_refreshes() {
        let mut s = shim();
        let t0 = SimTime::from_secs(1);
        let mut p = data(ME, PEER);
        s.on_send(&mut p, t0);
        assert!(matches!(p.cap.as_ref().unwrap().payload, CapPayload::Request { .. }));

        // Marks return.
        let mut reply = data(PEER, ME);
        let mut h = CapHeader::regular_with_caps(FlowNonce::new(0), dummy_grant(), vec![]);
        h.return_info = Some(ReturnInfo::Capabilities {
            grant: dummy_grant(),
            caps: [CapValue::new(0, 2)].into(),
        });
        reply.cap = Some(h);
        s.on_receive(&mut reply, t0);

        let mut p2 = data(ME, PEER);
        s.on_send(&mut p2, t0 + SimDuration::from_secs(1));
        assert!(matches!(
            p2.cap.as_ref().unwrap().payload,
            CapPayload::Regular { caps: Some(_), .. }
        ));

        // Past the refresh horizon the shim re-explores.
        let mut p3 = data(ME, PEER);
        s.on_send(&mut p3, t0 + SimDuration::from_secs(4));
        assert!(matches!(p3.cap.as_ref().unwrap().payload, CapPayload::Request { .. }));
    }

    #[test]
    fn grants_explorer_marks_back() {
        let mut s = shim();
        let now = SimTime::from_secs(1);
        let mut req = data(PEER, ME);
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(tva_wire::RequestEntry {
                path_id: PathId::NONE,
                precap: CapValue::new(0, 3),
            });
        }
        req.cap = Some(h);
        assert!(s.on_receive(&mut req, now));
        let replies = s.take_outbox();
        assert_eq!(replies.len(), 1);
        let ret = replies[0].cap.as_ref().unwrap().return_info.as_ref().unwrap();
        assert!(matches!(ret, ReturnInfo::Capabilities { caps, .. } if caps.len() == 1));
    }
}
