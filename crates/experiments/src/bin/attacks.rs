//! Attack-strategy damage search across all four schemes.
//!
//! ```text
//! cargo run --release -p tva-experiments --bin attacks [-- --smoke]
//! ```
//!
//! Samples randomized parameters for each strategic adversary
//! (colluder rings, RTO-locked pulses, flash-crowd mimicry, spoofed-path
//! request storms, rotating identities), runs every candidate against
//! TVA / SIFF / pushback / Internet, and reports the Pareto frontier of
//! legitimate-goodput damage versus attacker bytes into
//! `results/attacks.{tsv,json}` (+ a metrics snapshot). A constant-rate
//! authorized flood runs as the reference point.
//!
//! `TVA_CHECK=1` audits every run (README's knob table lists every
//! variable). `--smoke` runs one trial per strategy and asserts (a) every
//! strategy drew traffic and (b) at least one strategy strictly dominates
//! the constant-rate flood against at least one scheme — the robustness
//! acceptance gate.

use std::process::ExitCode;

use tva_experiments::attacks::{
    attribute, attribution_rows, print_report, schemes_dominated, search, write_attribution,
    strategies, write_reports, SearchConfig, ATTRIBUTION_HEADERS,
};
use tva_experiments::report::table;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut sc = SearchConfig::default();
    if smoke {
        sc.trials = 1;
    }
    eprintln!(
        "== attacks: damage-frontier search ({} trials/strategy, seed {}) ==",
        sc.trials, sc.seed
    );
    let trials = search(&sc);
    print_report(&trials);
    if let Err(e) = write_reports(&trials) {
        eprintln!("attacks: could not write report: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", tva_sim::knobs::results_dir().join("attacks.tsv").display());

    // Per-prefix attribution: who hurt the bottleneck, from the sampled
    // flow records of a colluder-ring run against TVA.
    let attribution = attribute(&sc);
    println!("per-prefix attribution (TVA, colluder-ring, sampled):");
    println!("{}", table(&ATTRIBUTION_HEADERS, &attribution_rows(&attribution)));
    match write_attribution(&attribution) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("attacks: could not write attribution: {e}");
            return ExitCode::FAILURE;
        }
    }

    if smoke {
        // The attribution table must name the colluder-ring attackers'
        // source prefix as the top offender, with refused traffic showing
        // the defense actually pushed back.
        match attribution.first() {
            Some(top) if top.prefix == "66.0.0/24" && top.est_refused_bytes > 0 => {
                println!(
                    "smoke ok: top offender {} ({} est bytes, {} refused)",
                    top.prefix, top.est_bytes, top.est_refused_bytes
                );
            }
            top => {
                eprintln!("SMOKE FAIL: attribution did not name the attacker prefix: {top:?}");
                return ExitCode::FAILURE;
            }
        }
        // Every strategy must actually have engaged the network...
        for strategy in strategies().map(|k| k.name) {
            let active = trials
                .iter()
                .any(|t| t.strategy == strategy && t.attacker_bytes > 0);
            if !active {
                eprintln!("SMOKE FAIL: strategy {strategy} emitted no attacker bytes");
                return ExitCode::FAILURE;
            }
        }
        // ...and adaptivity must pay: some strategy beats constant-rate
        // flooding outright against some scheme.
        let dominated = schemes_dominated(&trials);
        if dominated.is_empty() {
            eprintln!(
                "SMOKE FAIL: no strategy strictly dominates the constant-rate flood"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "smoke ok: const-flood dominated against {}",
            dominated.iter().map(|s| s.name()).collect::<Vec<_>>().join(", ")
        );
    }
    ExitCode::SUCCESS
}
