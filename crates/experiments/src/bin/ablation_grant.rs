//! Ablation: how the fine-grained byte budget `N` bounds attack damage.
//!
//! §3.5 argues that binary authorizations let "even a very small rate of
//! false authorizations … deny service", and that limiting each grant to N
//! bytes bounds the damage of every wrong decision. This sweep repeats the
//! Figure 11 all-at-once attack while varying the destination's default
//! grant.
//!
//! The measured tradeoff is *non-monotonic*: each attacker's budget scales
//! with N, but so does every legitimate user's slack. Below ~2 transfers'
//! worth, users renew mid-transfer constantly, and any renewal delayed by
//! congestion strands them in the rate-limited request channel — the
//! baseline itself degrades and the attack's bump is amplified. Well above
//! the transfer size, users ride out the burst untouched and the attack
//! buys only its brief regular-class congestion. The destination's grant
//! knob therefore wants to sit a small multiple above the expected
//! exchange size — which is exactly where the paper's examples (32–100 KB
//! for ~20 KB workloads) put it.
//!
//! Run: `cargo run --release -p tva-experiments --bin ablation_grant`

use tva_experiments::{ascii_chart, table, write_tsv, Series};
use tva_experiments::{run, Attack, ScenarioConfig, Scheme};
use tva_sim::{SimDuration, SimTime};
use tva_wire::Grant;

fn main() {
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
        table(
            &["N_kb", "baseline_s", "total_excess_s", "worst_s", "fraction"],
            &rows
        )
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
    let path = tva_sim::knobs::results_dir().join("ablation_grant.tsv");
    let _ = write_tsv(
        &path,
        &["n_kb", "baseline_s", "total_excess_s", "worst_s", "fraction"],
        &rows,
    );
    println!("wrote {}", path.display());
}
