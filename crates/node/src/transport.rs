//! Frame transports the node forwards over: the ring virtual NIC pair
//! (in-process, one thread, maximum rate) and nonblocking UDP sockets
//! driven in `recvmmsg`-style bursts.
//!
//! The std-only environment has no `libc`, so the UDP path cannot issue a
//! real `recvmmsg(2)`/`sendmmsg(2)`; it approximates the same shape — amortize
//! wakeups over batches of N datagrams — with a nonblocking socket drained
//! until `WouldBlock`. DESIGN.md §"Fast path daemon" discusses the gap.

use std::cell::RefCell;
use std::io;
use std::net::UdpSocket;
use std::rc::Rc;

use crate::ring::Ring;

/// Largest frame any transport must carry: an IPv4 total length caps at
/// 65535 but TVA frames are small; 2 KiB covers an MTU-sized packet with a
/// full shim with headroom.
pub const MAX_FRAME: usize = 2048;

/// A bidirectional frame port: burst receive, frame-at-a-time transmit into
/// retained buffers. Implementations must be allocation-free in steady
/// state.
pub trait Transport {
    /// Receives up to `max` frames, handing each to `sink` as a borrow
    /// valid only for the call. Returns the number received.
    fn rx_burst(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize;

    /// Transmits one frame produced by `fill` into a retained buffer.
    /// Returns `false` on backpressure (ring full / socket buffer full), in
    /// which case the frame was not sent (though `fill` may have run).
    fn tx_frame(&mut self, fill: &mut dyn FnMut(&mut Vec<u8>)) -> bool;
}

/// One end of an in-process virtual NIC pair: TX ring toward the peer, RX
/// ring from the peer. Each ring is shared with the peer port through an
/// `Rc`, so both ends of a pair live on one thread (`RingPort` is not
/// `Send`); [`UdpPort`] is the transport that crosses threads.
pub struct RingPort {
    tx: Rc<RefCell<Ring>>,
    rx: Rc<RefCell<Ring>>,
}

/// Builds two cross-connected [`RingPort`]s (`a.tx → b.rx`, `b.tx → a.rx`),
/// each direction a `depth`-slot ring of `MAX_FRAME`-capacity buffers.
pub fn ring_pair(depth: usize) -> (RingPort, RingPort) {
    let a_to_b = Rc::new(RefCell::new(Ring::new(depth)));
    let b_to_a = Rc::new(RefCell::new(Ring::new(depth)));
    (
        RingPort { tx: Rc::clone(&a_to_b), rx: Rc::clone(&b_to_a) },
        RingPort { tx: b_to_a, rx: a_to_b },
    )
}

impl Transport for RingPort {
    /// `sink` must not transmit into the ring it is reading from (the peer
    /// port's `tx_frame`): the ring is borrowed for the whole burst.
    #[inline]
    fn rx_burst(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
        let mut rx = self.rx.borrow_mut();
        let mut n = 0;
        while n < max && rx.try_pop_with(|f| sink(f)).is_some() {
            n += 1;
        }
        n
    }

    #[inline]
    fn tx_frame(&mut self, fill: &mut dyn FnMut(&mut Vec<u8>)) -> bool {
        self.tx.borrow_mut().try_push_with(fill)
    }
}

/// A UDP frame port: one datagram per frame, nonblocking, drained in
/// bursts. The socket is connected, so RX only accepts the peer and TX
/// needs no per-send address.
pub struct UdpPort {
    sock: UdpSocket,
    rx_buf: Vec<u8>,
    tx_buf: Vec<u8>,
    /// Datagrams dropped by TX backpressure or transient send errors.
    pub(crate) tx_errors: u64,
}

impl UdpPort {
    /// Binds `bind` (e.g. `127.0.0.1:47001`) and connects to `peer`.
    pub fn bind_connect(bind: &str, peer: &str) -> io::Result<Self> {
        let sock = UdpSocket::bind(bind)?;
        sock.connect(peer)?;
        sock.set_nonblocking(true)?;
        Ok(UdpPort {
            sock,
            rx_buf: vec![0; MAX_FRAME],
            tx_buf: Vec::with_capacity(MAX_FRAME),
            tx_errors: 0,
        })
    }

    fn from_socket(sock: UdpSocket) -> io::Result<Self> {
        sock.set_nonblocking(true)?;
        Ok(UdpPort {
            sock,
            rx_buf: vec![0; MAX_FRAME],
            tx_buf: Vec::with_capacity(MAX_FRAME),
            tx_errors: 0,
        })
    }
}

/// Two loopback UDP ports connected to each other on kernel-assigned
/// ports — the socket analogue of [`ring_pair`], used by the in-process
/// end-to-end demo and tests.
pub fn udp_pair() -> io::Result<(UdpPort, UdpPort)> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    a.connect(b.local_addr()?)?;
    b.connect(a.local_addr()?)?;
    Ok((UdpPort::from_socket(a)?, UdpPort::from_socket(b)?))
}

impl Transport for UdpPort {
    fn rx_burst(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
        let mut n = 0;
        while n < max {
            match self.sock.recv(&mut self.rx_buf) {
                Ok(len) => {
                    sink(&self.rx_buf[..len]);
                    n += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Connected UDP can surface async ICMP errors (e.g. peer
                // port unreachable between demo phases); treat as "nothing
                // readable" rather than dying mid-burst.
                Err(_) => break,
            }
        }
        n
    }

    fn tx_frame(&mut self, fill: &mut dyn FnMut(&mut Vec<u8>)) -> bool {
        fill(&mut self.tx_buf);
        match self.sock.send(&self.tx_buf) {
            Ok(_) => true,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(_) => {
                self.tx_errors += 1;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pair_is_cross_connected() {
        let (mut a, mut b) = ring_pair(8);
        assert!(a.tx_frame(&mut |buf| {
            buf.clear();
            buf.extend_from_slice(b"ping");
        }));
        let mut got = Vec::new();
        assert_eq!(b.rx_burst(16, &mut |f| got.extend_from_slice(f)), 1);
        assert_eq!(got, b"ping");
        assert!(b.tx_frame(&mut |buf| {
            buf.clear();
            buf.extend_from_slice(b"pong");
        }));
        got.clear();
        assert_eq!(a.rx_burst(16, &mut |f| got.extend_from_slice(f)), 1);
        assert_eq!(got, b"pong");
    }

    #[test]
    fn udp_port_roundtrip() {
        let (mut a, mut b) = udp_pair().unwrap();
        assert!(a.tx_frame(&mut |buf| {
            buf.clear();
            buf.extend_from_slice(b"hello");
        }));
        let mut got = Vec::new();
        for _ in 0..100 {
            if b.rx_burst(4, &mut |f| got.extend_from_slice(f)) > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, b"hello");
    }
}
