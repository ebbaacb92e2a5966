//! Table 1: processing overhead of different packet types.
//!
//! Replays the paper's §6 micro-benchmark on this machine: one million
//! packets of each type through the capability router pipeline, reporting
//! mean nanoseconds per packet next to the paper's Xeon numbers. The
//! absolute values differ with hardware; the ordering and rough ratios are
//! the reproduced result.

use tva_bench::{PktType, Rig};

/// The paper's Table 1 values in nanoseconds (3.2 GHz Xeon, 2005).
fn paper_ns(t: PktType) -> Option<f64> {
    match t {
        PktType::LegacyIp => None,
        PktType::Request => Some(460.0),
        PktType::RegularCached => Some(33.0),
        PktType::RegularUncached => Some(1486.0),
        PktType::RenewalCached => Some(439.0),
        PktType::RenewalUncached => Some(1821.0),
    }
}

fn main() {
    let n: usize = if std::env::args().any(|a| a == "--full") { 1_000_000 } else { 200_000 };
    let mut rig = Rig::new(65_536, 262_144);
    println!("Table 1: processing overhead of different types of packets");
    println!("({n} packets per type)\n");
    println!("{:<22} {:>12} {:>12}", "Packet type", "measured ns", "paper ns");
    println!("{}", "-".repeat(48));
    let mut rows = Vec::new();
    for t in PktType::ALL {
        // Warm up the caches and branch predictors.
        rig.measure(t, n / 10);
        let secs = rig.measure(t, n);
        let ns = secs * 1e9;
        let paper = paper_ns(t).map_or("-".to_string(), |p| format!("{p:.0}"));
        println!("{:<22} {:>12.0} {:>12}", t.name(), ns, paper);
        rows.push(vec![t.key().to_string(), format!("{ns:.1}")]);
    }
    let path = tva_experiments::figrun::results_dir().join("table1.tsv");
    if let Err(e) = tva_experiments::write_tsv(&path, &["type", "ns_per_packet"], &rows) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("\nwrote {}", path.display());
    }
}
