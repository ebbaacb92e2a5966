//! Attack-damage metric naming.
//!
//! The attack-strategy search scores adversaries by *legitimate-goodput
//! damage per attacker byte*. This module pins the metric names that the
//! search writes into a [`Registry`](crate::Registry) snapshot, so the
//! `results/attacks_metrics.json` schema stays stable as strategies are
//! added: every trial lands under `attack.<scheme>.<strategy>.*`.

use crate::registry::Registry;

/// Records one attack trial's damage metrics into `reg` under the stable
/// `attack.<scheme>.<strategy>.*` namespace:
///
/// - `….damage_bytes` — legitimate goodput lost versus the no-attack
///   baseline (bytes over the measured window);
/// - `….attacker_bytes` — wire bytes the attackers offered to the network;
/// - `….damage_per_attacker_byte` — the search's objective, the ratio of
///   the two.
///
/// Re-recording the same scheme/strategy pair overwrites the gauges, so
/// callers typically record each strategy's *best* trial.
pub fn record_attack_damage(
    reg: &mut Registry,
    scheme: &str,
    strategy: &str,
    damage_bytes: u64,
    attacker_bytes: u64,
    score: f64,
) {
    let d = reg.gauge(&format!("attack.{scheme}.{strategy}.damage_bytes"));
    reg.set(d, damage_bytes as f64);
    let a = reg.gauge(&format!("attack.{scheme}.{strategy}.attacker_bytes"));
    reg.set(a, attacker_bytes as f64);
    let s = reg.gauge(&format!("attack.{scheme}.{strategy}.damage_per_attacker_byte"));
    reg.set(s, score);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_under_stable_names() {
        let mut reg = Registry::new();
        record_attack_damage(&mut reg, "TVA", "shrew", 1_000, 500, 2.0);
        let snap = serde_json::to_string(&reg.snapshot()).unwrap();
        assert!(snap.contains("attack.TVA.shrew.damage_bytes"));
        assert!(snap.contains("attack.TVA.shrew.damage_per_attacker_byte"));
    }

    #[test]
    fn rerecording_overwrites() {
        let mut reg = Registry::new();
        record_attack_damage(&mut reg, "SIFF", "ring", 10, 10, 1.0);
        record_attack_damage(&mut reg, "SIFF", "ring", 20, 10, 2.0);
        assert_eq!(reg.gauge_by_name("attack.SIFF.ring.damage_bytes"), Some(20.0));
    }
}
