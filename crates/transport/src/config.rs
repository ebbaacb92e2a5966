//! The transport's constants: the paper's §5 setup, fixed once.
//!
//! They encode the *modified* TCP of the paper's simulations:
//!
//! > "the timeout for TCP SYNs is fixed at one second (without the normal
//! > exponential backoff) and up to eight retransmissions are performed. …
//! > we set the TCP data exchange to abort the connection if its
//! > retransmission timeout for a regular data packet exceeds 64 seconds, or
//! > it has transmitted the same packet more than 10 times."

use tva_sim::SimDuration;

/// The well-known server port file transfers connect to.
pub(crate) const SERVER_PORT: u16 = 80;

/// Maximum segment payload in bytes.
pub(crate) const MSS: u32 = 1000;
/// Initial congestion window in segments.
pub(crate) const INIT_CWND: u32 = 2;
/// Initial slow-start threshold in segments (effectively unbounded).
pub(crate) const INIT_SSTHRESH: u32 = 64;
/// Fixed SYN retransmission timeout (no exponential backoff).
pub(crate) const SYN_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// Maximum SYN transmissions (1 initial + 8 retransmissions).
pub(crate) const SYN_MAX_TX: u32 = 9;
/// Initial data RTO before any RTT sample.
pub(crate) const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);
/// Lower bound on the data RTO.
pub(crate) const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Abort the connection once the backed-off data RTO exceeds this.
pub(crate) const ABORT_RTO: SimDuration = SimDuration::from_secs(64);
/// Abort the connection once one segment has been transmitted this many
/// times.
pub(crate) const MAX_SEG_TX: u32 = 10;
/// Duplicate ACKs that trigger a fast retransmit.
pub(crate) const DUPACK_THRESHOLD: u32 = 3;
/// Receiver connections idle longer than this are pruned (their sender
/// aborted without a FIN). Comfortably beyond the sender's worst-case
/// ~110 s retransmission lifetime.
pub(crate) const RECEIVER_IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(180);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(SYN_TIMEOUT, SimDuration::from_secs(1));
        assert_eq!(SYN_MAX_TX, 9, "1 initial + 8 retransmissions");
        assert_eq!(ABORT_RTO, SimDuration::from_secs(64));
        assert_eq!(MAX_SEG_TX, 10);
    }
}
