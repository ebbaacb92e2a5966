//! The live introspection endpoint: a nonblocking stats socket serving
//! newline-delimited JSON snapshots of a running node over UDP.
//!
//! Protocol: any datagram sent to the stats address is a poll request; the
//! reply is one line — a `tva_obs::snapshot` document (schema-versioned,
//! same shape the simulator's `run_observed` scenarios write) with a
//! `seq` poll counter, a `now_ns` clock reading, and a `flows` section
//! carrying the sampled flow records merged from the router and the
//! egress scheduler.
//!
//! The socket is *never* on the fast path: the serve loop only calls
//! [`StatsServer::poll`] when idle or on a coarse iteration stride, the
//! socket is nonblocking, and a poll with no pending request is one
//! `recv` returning `WouldBlock`. Snapshot assembly allocates freely —
//! it runs at most once per poll request, not per packet.

use std::io;
use std::net::UdpSocket;

use serde_json::Value;
use tva_obs::{snapshot, Registry};

use crate::node::{NodeClock, NodeEngine};
use crate::transport::MAX_FRAME;

/// The stats endpoint: bound socket plus the poll sequence counter.
pub struct StatsServer {
    sock: UdpSocket,
    seq: u64,
}

impl StatsServer {
    /// Binds the stats socket at `addr` (e.g. `127.0.0.1:47100`),
    /// nonblocking, unconnected (any client may poll).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_nonblocking(true)?;
        Ok(StatsServer { sock, seq: 0 })
    }

    /// The locally bound address (useful with port 0 binds in tests).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.sock.local_addr()
    }

    /// Answers every pending poll request with one snapshot line each.
    /// Returns how many were served (0 on an idle socket).
    pub fn poll(&mut self, node: &NodeEngine, clock: &NodeClock) -> io::Result<usize> {
        let mut buf = [0u8; MAX_FRAME];
        let mut served = 0usize;
        loop {
            match self.sock.recv_from(&mut buf) {
                Ok((_, from)) => {
                    self.seq += 1;
                    let line = snapshot_line(node, clock, self.seq);
                    // A reply the client's buffer can't take is the
                    // client's problem; never stall the daemon.
                    let _ = self.sock.send_to(line.as_bytes(), from);
                    served += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(served)
    }
}

/// Renders one newline-terminated snapshot document for a node: the
/// `tva_obs::snapshot` schema with `seq`, `now_ns`, and `flows` extras.
/// Shared by the socket server and the `serve` loop's periodic stderr
/// line, and exercised directly by tests.
pub(crate) fn snapshot_line(node: &NodeEngine, clock: &NodeClock, seq: u64) -> String {
    let mut reg = Registry::new();
    node.observe(&mut reg);
    let mut flows = node.router.flow.clone();
    flows.merge(&node.sched.flow);
    let doc = snapshot::document_with(
        "tva-node",
        &reg,
        vec![
            ("seq".into(), Value::Number(seq as f64)),
            ("now_ns".into(), Value::Number(clock.now().as_nanos() as f64)),
            ("flows".into(), flows.to_json()),
        ],
    );
    let mut line = serde_json::to_string(&doc).expect("snapshot serializes");
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;
    use std::time::Duration;

    #[test]
    fn snapshot_line_is_valid_versioned_json() {
        let node = NodeEngine::new(&NodeConfig::default());
        let clock = NodeClock::new();
        let line = snapshot_line(&node, &clock, 7);
        assert!(line.ends_with('\n'));
        let doc = serde_json::from_str(line.trim()).expect("parses");
        snapshot::validate(&doc).expect("schema-valid");
        let Value::Object(root) = &doc else { panic!() };
        assert_eq!(root.get("seq"), Some(&Value::Number(7.0)));
        assert_eq!(root.get("label"), Some(&Value::String("tva-node".into())));
    }

    #[test]
    fn stats_server_answers_polls_with_monotone_counters() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        let mut server = StatsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

        let poll_once = |node: &NodeEngine, server: &mut StatsServer| -> Value {
            client.send_to(b"?", addr).unwrap();
            // Nonblocking server side: spin until the request lands.
            let mut served = 0;
            for _ in 0..200 {
                served = server.poll(node, &clock).unwrap();
                if served > 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(served, 1);
            let mut buf = [0u8; 65536];
            let (n, _) = client.recv_from(&mut buf).unwrap();
            serde_json::from_str(std::str::from_utf8(&buf[..n]).unwrap().trim()).unwrap()
        };

        let first = poll_once(&node, &mut server);
        snapshot::validate(&first).unwrap();
        // Traffic between polls: counters may only grow.
        node.stats.rx_frames += 10;
        node.stats.tx_frames += 10;
        let second = poll_once(&node, &mut server);
        snapshot::validate(&second).unwrap();
        snapshot::counters_monotone(&first, &second).expect("counters monotone across polls");
        assert_eq!(server.seq, 2, "two snapshots served");
    }

    #[test]
    fn idle_poll_serves_nothing_and_never_blocks(){
        let node = NodeEngine::new(&NodeConfig::default());
        let clock = NodeClock::new();
        let mut server = StatsServer::bind("127.0.0.1:0").unwrap();
        assert_eq!(server.poll(&node, &clock).unwrap(), 0);
    }
}
