//! Per-figure experiment definitions: the exact parameter grids behind each
//! figure of the paper's §5, at two fidelity levels (quick for CI, full for
//! faithful reproduction).

use tva_sim::{SimDuration, SimTime};
use tva_wire::Grant;

use crate::scenario::{Attack, ScenarioConfig, Scheme};

/// Fidelity of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Fewer transfers, shorter horizon, sparser attacker grid — minutes.
    Quick,
    /// The paper's grid (1–100 attackers) with enough transfers for tight
    /// averages — tens of minutes.
    Full,
}

impl Fidelity {
    /// Attacker counts swept on the x axis.
    pub(crate) fn attacker_grid(self) -> Vec<usize> {
        match self {
            Fidelity::Quick => vec![1, 10, 30, 60, 100],
            Fidelity::Full => vec![1, 2, 5, 10, 20, 30, 40, 60, 80, 100],
        }
    }

    /// Transfers per user: effectively unbounded so users stay busy for the
    /// whole horizon, as in the paper ("a thousand times"); the run is
    /// bounded by `duration`, not by this count.
    pub fn transfers(self) -> usize {
        match self {
            Fidelity::Quick => 2_000,
            Fidelity::Full => 10_000,
        }
    }

    /// Simulation horizon.
    pub fn duration(self) -> SimTime {
        match self {
            Fidelity::Quick => SimTime::from_secs(200),
            Fidelity::Full => SimTime::from_secs(600),
        }
    }
}

fn base(fidelity: Fidelity) -> ScenarioConfig {
    ScenarioConfig {
        transfers_per_user: fidelity.transfers(),
        duration: fidelity.duration(),
        // Skip the capability-bootstrap transient (the paper's much longer
        // runs amortize it; see EXPERIMENTS.md).
        measure_after: SimTime::from_secs(15),
        ..ScenarioConfig::default()
    }
}

/// Figure 8: legacy packet floods, all four schemes × attacker grid.
pub fn fig8(fidelity: Fidelity) -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for &scheme in &Scheme::ALL {
        for &k in &fidelity.attacker_grid() {
            configs.push(ScenarioConfig {
                scheme,
                attack: Attack::LegacyFlood,
                n_attackers: k,
                ..base(fidelity)
            });
        }
    }
    configs
}

/// Figure 9: request packet floods. The destination can distinguish
/// attacker requests (paper §5.2), so it pre-denies them.
pub fn fig9(fidelity: Fidelity) -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for &scheme in &Scheme::ALL {
        for &k in &fidelity.attacker_grid() {
            configs.push(ScenarioConfig {
                scheme,
                attack: Attack::RequestFlood,
                n_attackers: k,
                deny_attackers: true,
                ..base(fidelity)
            });
        }
    }
    configs
}

/// Figure 10: authorized floods via a colluder behind the bottleneck.
pub fn fig10(fidelity: Fidelity) -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for &scheme in &Scheme::ALL {
        for &k in &fidelity.attacker_grid() {
            configs.push(ScenarioConfig {
                scheme,
                attack: Attack::AuthorizedColluder,
                n_attackers: k,
                ..base(fidelity)
            });
        }
    }
    configs
}

/// Figure 11: imprecise authorization policy — the destination grants
/// everyone 32 KB / 10 s once and never renews misbehavers. TVA vs SIFF
/// (with a 3-second key), two attack shapes, transfer-time time series.
pub fn fig11(fidelity: Fidelity) -> Vec<ScenarioConfig> {
    let horizon = SimTime::from_secs(70);
    let attack_start = SimTime::from_secs(10);
    // 100 attackers in 10 groups of 10 is load-bearing: each staged wave
    // must reach the bottleneck rate (10 × 1 Mb/s) for SIFF's rolling
    // outage to appear, so both fidelities keep the paper's count.
    let n_attackers = match fidelity {
        Fidelity::Quick => 100,
        Fidelity::Full => 100,
    };
    let mut configs = Vec::new();
    for scheme in [Scheme::Tva, Scheme::Siff] {
        for attack in [
            Attack::ImpreciseAllAtOnce,
            Attack::ImpreciseStaged { groups: 10, wave_secs: 3 },
        ] {
            configs.push(ScenarioConfig {
                scheme,
                attack,
                n_attackers,
                n_users: 10,
                // Users keep transferring for the whole window.
                transfers_per_user: 400,
                grant: Grant::from_parts(32, 10),
                attack_start,
                duration: horizon,
                failure_grace: SimDuration::from_secs(30),
                siff_key_rotation: SimDuration::from_secs(3),
                siff_accept_previous: false,
                ..ScenarioConfig::default()
            });
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_all_schemes() {
        let cfgs = fig8(Fidelity::Quick);
        assert_eq!(cfgs.len(), 4 * 5);
        for &scheme in &Scheme::ALL {
            assert!(cfgs.iter().any(|c| c.scheme == scheme));
        }
    }

    #[test]
    fn fig9_denies_attackers() {
        assert!(fig9(Fidelity::Quick).iter().all(|c| c.deny_attackers));
    }

    #[test]
    fn fig11_uses_paper_constants() {
        let cfgs = fig11(Fidelity::Full);
        assert_eq!(cfgs.len(), 4);
        for c in &cfgs {
            assert_eq!(c.grant, Grant::from_parts(32, 10));
            assert_eq!(c.n_attackers, 100);
            if c.scheme == Scheme::Siff {
                assert_eq!(c.siff_key_rotation, SimDuration::from_secs(3));
                assert!(!c.siff_accept_previous);
            }
        }
    }
}
