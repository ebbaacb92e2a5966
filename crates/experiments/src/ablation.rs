//! Ablation: how the fine-grained byte budget `N` bounds attack damage.
//!
//! §3.5 argues that binary authorizations let "even a very small rate of
//! false authorizations … deny service", and that limiting each grant to N
//! bytes bounds the damage of every wrong decision. This sweep repeats the
//! Figure 11 all-at-once attack while varying the destination's default
//! grant, and reports per N the mean transfer time before the attack
//! (`baseline_s`), the seconds by which transfers started at or after the
//! attack exceed that baseline in sum (`total_excess_s`, floored at 0),
//! the slowest such transfer (`worst_s`) and the completion fraction.
//!
//! What it shows (`results/ablation_grant.tsv`): `total_excess_s` is 0 at
//! every N, because small grants make the pre-attack baseline itself slow
//! (users renew mid-transfer through the rate-limited request channel:
//! 3.4 s at 8 KB, 0.33 s from 128 KB). The attack shows only in
//! `worst_s`, 15–20 s at N ≤ 32 KB against 3–5 s at N ≥ 128 KB.

use tva_obs::{ascii_chart, Series};
use tva_sim::{SimDuration, SimTime};
use tva_wire::Grant;

use crate::report::{table, tsv, Files, Size};
use crate::scenario::{run, Attack, ScenarioConfig, Scheme};

/// `ablation_grant.tsv`: one row per N ∈ {8, 16, 32, 64, 128, 256} KB.
/// Deterministic, under a second; one size.
pub fn produce(_size: Size) -> Result<Files, String> {
    let attack_start = 10u64;
    let mut rows = Vec::new();
    let mut pts = Vec::new();
    println!("Grant-size ablation: Figure 11's attack with varying N (T = 10 s)\n");
    for n_kb in [8u16, 16, 32, 64, 128, 256] {
        let cfg = ScenarioConfig {
            scheme: Scheme::Tva,
            attack: Attack::ImpreciseAllAtOnce,
            n_attackers: 100,
            transfers_per_user: 4000,
            grant: Grant::from_parts(n_kb, 10),
            attack_start: SimTime::from_secs(attack_start),
            duration: SimTime::from_secs(60),
            failure_grace: SimDuration::from_secs(30),
            ..ScenarioConfig::default()
        };
        let r = run(&cfg);
        // Baseline = mean before the attack; damage = extra seconds summed
        // over transfers starting in/after the attack window.
        let (mut pre_sum, mut pre_n) = (0.0, 0u32);
        let (mut post_sum, mut post_n) = (0.0, 0u32);
        let mut worst: f64 = 0.0;
        for t in &r.transfers {
            let Some(d) = t.duration_secs() else { continue };
            if t.started.as_secs() < attack_start {
                pre_sum += d;
                pre_n += 1;
            } else {
                post_sum += d;
                post_n += 1;
                worst = worst.max(d);
            }
        }
        let baseline = pre_sum / pre_n.max(1) as f64;
        let excess_total = post_sum - baseline * post_n as f64;
        rows.push(vec![
            n_kb.to_string(),
            format!("{baseline:.3}"),
            format!("{:.3}", excess_total.max(0.0)),
            format!("{worst:.2}"),
            format!("{:.3}", r.summary.completion_fraction),
        ]);
        pts.push((n_kb as f64, excess_total.max(0.0)));
        eprintln!("  N={n_kb}KB done");
    }
    println!(
        "{}",
        table(&["N_kb", "baseline_s", "total_excess_s", "worst_s", "fraction"], &rows)
    );
    println!(
        "{}",
        ascii_chart(
            "total excess transfer time (s) vs grant size N (KB)",
            &[Series { label: "TVA".into(), points: pts }],
            50,
            12
        )
    );
    let headers = ["n_kb", "baseline_s", "total_excess_s", "worst_s", "fraction"];
    Ok(vec![("ablation_grant.tsv".into(), tsv(&headers, &rows))])
}
