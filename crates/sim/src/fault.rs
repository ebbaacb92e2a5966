//! Fault injection: per-channel wire impairments and their RNG stream.
//!
//! Three impairment kinds model a hostile or degraded physical layer
//! (DESIGN.md "Failure model"):
//!
//! * **Random loss** — each packet leaving the serializer is discarded with
//!   probability `loss`, independently.
//! * **Bit corruption** — with probability `corrupt` the packet is encoded
//!   to its on-wire bytes ([`tva_wire::ipcodec::encode_packet`]), a few random bits
//!   are flipped, and the result is decoded again. If it still parses, the
//!   (possibly altered) packet is delivered; if not, the receiving node gets
//!   a *malformed* delivery ([`crate::node::Node::on_malformed`]) carrying
//!   the [`tva_wire::WireError`] — this is how decode failures reach router
//!   ingress without ever panicking the engine.
//! * **Duty-cycle outage** — a deterministic periodic blackout: the channel
//!   loses every packet while `(now + phase) mod period < down`. Outages
//!   draw no randomness at all.
//!
//! Loss and corruption draw from a **dedicated fault RNG** seeded as a fixed
//! function of the simulation seed but advanced only by impaired channels.
//! The engine RNG that nodes observe through [`crate::node::Ctx::rng`] is
//! never touched, so enabling impairments cannot perturb event order or
//! node behavior beyond the faults themselves, and a zero-impairment run is
//! bit-identical to one built without this module (invariant 6 holds in
//! both directions).

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::time::{SimDuration, SimTime};

/// XOR'd into the simulation seed to derive the fault RNG stream, keeping it
/// disjoint from the engine RNG that is seeded with the raw value.
pub(crate) const FAULT_STREAM: u64 = 0x00FA_171A_7ED0_5EED;

/// The SplitMix64 finalizer: a cheap bijective mixer with full avalanche,
/// used to derive well-separated per-entity RNG seeds from the simulation
/// seed (sequential entity ids would otherwise produce correlated
/// `SmallRng` states).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed for entity `id`'s private RNG stream within the family tagged by
/// `salt` (e.g. [`FAULT_STREAM`] for per-channel wire faults, or the node
/// stream). A pure function of `(seed, salt, id)`, so a stream's draws do
/// not depend on when other consumers draw.
#[inline]
pub(crate) fn stream_seed(seed: u64, salt: u64, id: u64) -> u64 {
    splitmix64(seed ^ salt ^ splitmix64(id))
}

/// A deterministic periodic outage: the channel is dead for `down` out of
/// every `period`, starting `phase` into the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DutyCycleOutage {
    /// Full cycle length (must be non-zero to have any effect).
    pub period: SimDuration,
    /// How long the channel is down at the start of each cycle.
    pub down: SimDuration,
    /// Offset of the cycle relative to simulation start.
    pub phase: SimDuration,
}

impl DutyCycleOutage {
    /// A cycle with no phase offset.
    pub fn new(period: SimDuration, down: SimDuration) -> Self {
        DutyCycleOutage { period, down, phase: SimDuration::ZERO }
    }

    /// Whether the channel is in a blackout window at `now`.
    #[inline]
    pub(crate) fn is_down(&self, now: SimTime) -> bool {
        let period = self.period.as_nanos();
        if period == 0 {
            return false;
        }
        (now.as_nanos().wrapping_add(self.phase.as_nanos())) % period < self.down.as_nanos()
    }
}

/// Per-channel impairment configuration. The default is a perfect wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Impairments {
    /// Probability in `[0, 1]` that a packet is lost on the wire.
    pub loss: f64,
    /// Probability in `[0, 1]` that a packet's on-wire bytes are corrupted.
    pub corrupt: f64,
    /// Optional periodic blackout.
    pub outage: Option<DutyCycleOutage>,
}

impl Impairments {
    /// Random loss only.
    pub fn loss(p: f64) -> Self {
        Impairments { loss: p, ..Default::default() }
    }

    /// Bit corruption only.
    pub fn corrupt(p: f64) -> Self {
        Impairments { corrupt: p, ..Default::default() }
    }

    /// Whether this configuration perturbs nothing (treated as "no
    /// impairment" so the hot path stays branch-only).
    pub(crate) fn is_noop(&self) -> bool {
        self.loss <= 0.0 && self.corrupt <= 0.0 && self.outage.is_none()
    }
}

/// A uniform draw in `[0, 1)` from the top 53 bits of one `u64` (the
/// vendored `rand` subset has no float support of its own).
#[inline]
pub(crate) fn unit_f64(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Flips 1–3 random bits in `bytes` (at least one, so a "corrupted" packet
/// never survives unchanged by accident).
pub(crate) fn corrupt_bytes(bytes: &mut [u8], rng: &mut SmallRng) {
    if bytes.is_empty() {
        return;
    }
    let flips = 1 + (rng.next_u64() % 3) as usize;
    for _ in 0..flips {
        let bit = rng.next_u64() as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_is_noop() {
        assert!(Impairments::default().is_noop());
        assert!(!Impairments::loss(0.1).is_noop());
        assert!(!Impairments::corrupt(0.1).is_noop());
        let outage = DutyCycleOutage::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
        );
        assert!(!Impairments { outage: Some(outage), ..Default::default() }.is_noop());
    }

    #[test]
    fn duty_cycle_windows() {
        // 1 s down out of every 10 s.
        let o = DutyCycleOutage::new(SimDuration::from_secs(10), SimDuration::from_secs(1));
        assert!(o.is_down(SimTime::ZERO));
        assert!(o.is_down(SimTime::from_nanos(999_999_999)));
        assert!(!o.is_down(SimTime::from_secs(1)));
        assert!(!o.is_down(SimTime::from_secs(9)));
        assert!(o.is_down(SimTime::from_secs(10)));
        // Phase shifts the window.
        let shifted = DutyCycleOutage { phase: SimDuration::from_secs(5), ..o };
        assert!(!shifted.is_down(SimTime::ZERO));
        assert!(shifted.is_down(SimTime::from_secs(5)));
        // Zero period never fires.
        let degenerate = DutyCycleOutage::new(SimDuration::ZERO, SimDuration::from_secs(1));
        assert!(!degenerate.is_down(SimTime::from_secs(3)));
    }

    #[test]
    fn unit_f64_in_range_and_deterministic() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = unit_f64(&mut a);
            assert!((0.0..1.0).contains(&x));
            assert_eq!(x, unit_f64(&mut b));
        }
    }

    #[test]
    fn corrupt_bytes_changes_something() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let orig = vec![0xAAu8; 64];
            let mut buf = orig.clone();
            corrupt_bytes(&mut buf, &mut rng);
            assert_ne!(orig, buf, "at least one bit must flip");
        }
        // Empty input is a no-op, not a panic.
        corrupt_bytes(&mut [], &mut rng);
    }
}
