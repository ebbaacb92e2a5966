//! Minting and validating pre-capabilities and capabilities (Figure 3,
//! §3.4–§3.5).
//!
//! A **pre-capability** is minted by a router on a request packet:
//!
//! ```text
//! timestamp (8 bits) | hash(src IP, dest IP, timestamp, router secret) (56 bits)
//! ```
//!
//! The destination converts each pre-capability into a full **capability**
//! by hashing it with the grant it chose:
//!
//! ```text
//! timestamp (8 bits) | hash(pre-capability, N, T) (56 bits)
//! ```
//!
//! A router validates by recomputing both hashes from packet fields plus its
//! own secret — it keeps no per-sender secret state — and then checks the
//! expiry (`now ≤ timestamp + T` under the modulo-256 clock) and the byte
//! budget (via the flow table).

use tva_crypto::{keyed56, second56, HashInput, SecretSchedule};
use tva_wire::{Addr, CapValue, Grant};

/// Mints the pre-capability a router attaches to a request from `src` to
/// `dst` at wall-clock second `now_secs`.
pub fn mint_precap(schedule: &SecretSchedule, now_secs: u64, src: Addr, dst: Addr) -> CapValue {
    let ts = schedule.timestamp(now_secs);
    let key = schedule.mint_key(now_secs);
    let mut input = HashInput::new();
    input.push_u32(src.to_u32());
    input.push_u32(dst.to_u32());
    input.push_u8(ts);
    CapValue::new(ts, keyed56(key, input.as_bytes()))
}

/// Recomputes the pre-capability hash for a stamp carrying `ts`, selecting
/// the current or previous secret via the timestamp's high bit (§3.4).
fn recompute_precap(
    schedule: &SecretSchedule,
    now_secs: u64,
    src: Addr,
    dst: Addr,
    ts: u8,
) -> CapValue {
    let key = schedule.validate_key(ts, now_secs);
    let mut input = HashInput::new();
    input.push_u32(src.to_u32());
    input.push_u32(dst.to_u32());
    input.push_u8(ts);
    CapValue::new(ts, keyed56(key, input.as_bytes()))
}

/// Verifies that `precap` is a stamp this router minted for (src, dst)
/// recently enough that its secret generation is still current-or-previous.
pub fn validate_precap(
    schedule: &SecretSchedule,
    now_secs: u64,
    src: Addr,
    dst: Addr,
    precap: CapValue,
) -> bool {
    recompute_precap(schedule, now_secs, src, dst, precap.timestamp()) == precap
}

/// Converts a pre-capability into a full capability bound to `grant`
/// (performed by the destination, §3.5).
pub fn mint_cap(precap: CapValue, grant: Grant) -> CapValue {
    // 11 bytes: the pre-capability big-endian, N in KB low byte first, T.
    let mut input = [0u8; 11];
    input[..8].copy_from_slice(&precap.to_u64().to_be_bytes());
    input[8..10].copy_from_slice(&grant.n.kb().to_le_bytes());
    input[10] = grant.t.secs();
    CapValue::new(precap.timestamp(), second56(&input))
}

/// Why capability validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapError {
    /// The capability's validity period `T` has elapsed.
    Expired,
    /// The hash does not match (forged, stolen onto a different src/dst
    /// path, stale secret, or wrong router).
    BadHash,
    /// The grant's sustained rate `N/T` is below the architectural minimum,
    /// which would break the router state bound (§3.6).
    RateTooLow,
}

/// Checks `cap` as a router would: recompute the two hashes from this
/// router's secret and the packet's addresses and grant, then check expiry
/// under the modulo-256 clock.
pub fn validate_cap(
    schedule: &SecretSchedule,
    now_secs: u64,
    src: Addr,
    dst: Addr,
    grant: Grant,
    cap: CapValue,
    min_rate_bytes_per_sec: f64,
) -> Result<(), CapError> {
    if grant.rate_bytes_per_sec() < min_rate_bytes_per_sec {
        return Err(CapError::RateTooLow);
    }
    if expired(now_secs, cap.timestamp(), grant) {
        return Err(CapError::Expired);
    }
    let precap = recompute_precap(schedule, now_secs, src, dst, cap.timestamp());
    if mint_cap(precap, grant) != cap {
        return Err(CapError::BadHash);
    }
    Ok(())
}

/// Expiry check under the modulo-256 seconds clock: the capability is valid
/// while `(now - timestamp) mod 256 ≤ T`. `T ≤ 63 < 128` keeps the modular
/// comparison unambiguous (§3.5); replays older than a full wrap are killed
/// by secret rotation, not by this check.
pub fn expired(now_secs: u64, ts: u8, grant: Grant) -> bool {
    let now_mod = (now_secs % 256) as u8;
    let elapsed = now_mod.wrapping_sub(ts);
    elapsed > grant.t.secs()
}

/// The absolute wall-clock second at which a capability minted at
/// `mint_secs` with `grant` expires (for hosts that know the mint time).
pub fn expiry_secs(mint_secs: u64, grant: Grant) -> u64 {
    mint_secs + grant.t.secs() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Addr = Addr::new(1, 2, 3, 4);
    const DST: Addr = Addr::new(5, 6, 7, 8);

    fn sched() -> SecretSchedule {
        SecretSchedule::from_seed(42)
    }

    #[test]
    fn precap_roundtrip() {
        let s = sched();
        let pc = mint_precap(&s, 100, SRC, DST);
        assert!(validate_precap(&s, 100, SRC, DST, pc));
        assert!(validate_precap(&s, 150, SRC, DST, pc), "valid a bit later");
    }

    #[test]
    fn precap_bound_to_addresses() {
        let s = sched();
        let pc = mint_precap(&s, 100, SRC, DST);
        assert!(!validate_precap(&s, 100, DST, SRC, pc), "reversed path");
        assert!(!validate_precap(&s, 100, Addr::new(9, 9, 9, 9), DST, pc));
        assert!(!validate_precap(&s, 100, SRC, Addr::new(9, 9, 9, 9), pc));
    }

    #[test]
    fn precap_dies_after_two_rotations() {
        let s = sched();
        let pc = mint_precap(&s, 10, SRC, DST);
        assert!(validate_precap(&s, 10 + 127, SRC, DST, pc));
        assert!(!validate_precap(&s, 10 + 300, SRC, DST, pc));
    }

    #[test]
    fn cap_valid_within_t() {
        let s = sched();
        let grant = Grant::from_parts(100, 10);
        let pc = mint_precap(&s, 100, SRC, DST);
        let cap = mint_cap(pc, grant);
        for dt in 0..=10 {
            assert_eq!(
                validate_cap(&s, 100 + dt, SRC, DST, grant, cap, 1.0),
                Ok(()),
                "dt={dt}"
            );
        }
        assert_eq!(
            validate_cap(&s, 111, SRC, DST, grant, cap, 1.0),
            Err(CapError::Expired)
        );
    }

    #[test]
    fn cap_bound_to_grant() {
        let s = sched();
        let grant = Grant::from_parts(100, 10);
        let pc = mint_precap(&s, 100, SRC, DST);
        let cap = mint_cap(pc, grant);
        // An attacker claiming a bigger N with the same capability fails.
        let bigger = Grant::from_parts(1000, 10);
        assert_eq!(
            validate_cap(&s, 100, SRC, DST, bigger, cap, 1.0),
            Err(CapError::BadHash)
        );
        // Claiming a longer T fails too.
        let longer = Grant::from_parts(100, 60);
        assert_eq!(
            validate_cap(&s, 100, SRC, DST, longer, cap, 1.0),
            Err(CapError::BadHash)
        );
    }

    #[test]
    fn cap_bound_to_router_secret() {
        let s1 = sched();
        let s2 = SecretSchedule::from_seed(43);
        let grant = Grant::from_parts(100, 10);
        let cap = mint_cap(mint_precap(&s1, 100, SRC, DST), grant);
        assert_eq!(
            validate_cap(&s2, 100, SRC, DST, grant, cap, 1.0),
            Err(CapError::BadHash),
            "a different router's secret must not validate"
        );
    }

    #[test]
    fn min_rate_enforced() {
        let s = sched();
        // 1 KB over 63 s ≈ 16 B/s, below a 410 B/s floor.
        let grant = Grant::from_parts(1, 63);
        let cap = mint_cap(mint_precap(&s, 100, SRC, DST), grant);
        assert_eq!(
            validate_cap(&s, 100, SRC, DST, grant, cap, 410.0),
            Err(CapError::RateTooLow)
        );
    }

    #[test]
    fn expiry_wraps_modulo_clock() {
        let grant = Grant::from_parts(100, 10);
        // Minted at second 250 (ts=250), now=260 → now_mod=4, elapsed
        // wraps to 10 → still valid.
        assert!(!expired(260, 250, grant));
        assert!(expired(261, 250, grant));
    }

    #[test]
    fn validate_across_secret_rotation() {
        // Mint just before a rotation, validate just after: the high-bit
        // trick must recover the minting secret.
        let s = sched();
        let grant = Grant::from_parts(100, 10);
        let pc = mint_precap(&s, 127, SRC, DST);
        let cap = mint_cap(pc, grant);
        assert_eq!(validate_cap(&s, 130, SRC, DST, grant, cap, 1.0), Ok(()));
    }

    /// Capabilities minted by the streaming SHA-1 that preceded the one-block
    /// `second56`, captured before it changed: the hashed bytes (precap
    /// big-endian, N in KB low byte first, T) and their digest are pinned, so
    /// every capability a host already holds still validates.
    #[test]
    fn mint_cap_bytes_are_pinned() {
        #[rustfmt::skip]
        // (precap timestamp, precap hash, N in KB, T in s) → capability.
        const PINNED: [(u8, u64, u16, u8, u64); 16] = [
            (0x00, 0x0000000000000000, 0, 0, 0x00e89931b7aa0422),
            (0x01, 0x0000000000000001, 100, 10, 0x01e83ff969fdf8ff),
            (0x7f, 0x00ffffffffffffff, 513, 30, 0x7f40d9b362b23f29),
            (0x80, 0x00123456789abcde, 1, 1, 0x80d8d4b5f8e406e2),
            (0xff, 0x00deadbeef012345, 255, 63, 0xff35129f996bf2f0),
            (0x2a, 0x0000000000000100, 1023, 63, 0x2adf28400059d0e5),
            (0x7f, 0x0080000000000000, 32, 10, 0x7f6e4ae75fc4d3fe),
            (0x80, 0x0055aa55aa55aa55, 256, 7, 0x80228e42c6ce7591),
            (0x00, 0x0000000000000000, 1, 1, 0x00528aaf88cc72f1),
            (0x01, 0x0000000000000001, 255, 63, 0x01b0b9d1d161bfe2),
            (0x7f, 0x00ffffffffffffff, 1023, 63, 0x7fc06e0cfccddba2),
            (0x80, 0x00123456789abcde, 32, 10, 0x8064b97e939a637a),
            (0xff, 0x00deadbeef012345, 256, 7, 0xff5e4f0c26b905e1),
            (0x2a, 0x0000000000000100, 0, 0, 0x2a421465a956e57b),
            (0x7f, 0x0080000000000000, 100, 10, 0x7f5816f326baf511),
            (0x80, 0x0055aa55aa55aa55, 513, 30, 0x8089a68872a3bd43),
        ];
        for (ts, hash, kb, t, want) in PINNED {
            let cap = mint_cap(CapValue::new(ts, hash), Grant::from_parts(kb, t));
            assert_eq!(cap.to_u64(), want, "precap ({ts:#x}, {hash:#x}), grant {kb} KB / {t} s");
        }
    }
}
