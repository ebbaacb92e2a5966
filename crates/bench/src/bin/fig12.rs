//! Figure 12: the peak output rate of different types of packets.
//!
//! The paper swept a kernel packet generator's input rate against the
//! netfilter prototype and plotted output rate, which saturates at a
//! per-type peak (interrupt-dominated at 160–280 kpps in 2005). We measure
//! this pipeline's sustained per-type capacity and print the same
//! output-vs-input series: output = min(input, capacity).

use tva_bench::{PktType, Rig};
use tva_experiments::{ascii_chart, Series};

fn main() {
    let n: usize = if std::env::args().any(|a| a == "--full") { 1_000_000 } else { 200_000 };
    let mut rig = Rig::new(65_536, 262_144);
    println!("Figure 12: peak output rate by packet type ({n} packets per type)\n");
    println!("{:<22} {:>14}", "Packet type", "peak kpps");
    println!("{}", "-".repeat(38));
    let mut peaks = Vec::new();
    for t in PktType::ALL {
        rig.measure(t, n / 10);
        let secs = rig.measure(t, n);
        let kpps = 1.0 / secs / 1000.0;
        println!("{:<22} {:>14.0}", t.name(), kpps);
        peaks.push((t, kpps));
    }

    // The paper's x axis: input 0..400 kpps. Ours can be much faster;
    // sweep to 1.2x the fastest peak so every curve's knee is visible.
    let x_max = peaks.iter().map(|&(_, p)| p).fold(0.0, f64::max) * 1.2;
    let series: Vec<Series> = peaks
        .iter()
        .map(|&(t, peak)| Series {
            label: t.name().to_string(),
            points: (0..=24)
                .map(|i| {
                    let input = x_max * i as f64 / 24.0;
                    (input, input.min(peak))
                })
                .collect(),
        })
        .collect();
    println!();
    println!("{}", ascii_chart("fig12: output kpps vs input kpps", &series, 64, 14));

    let rows: Vec<Vec<String>> = peaks
        .iter()
        .map(|&(t, p)| vec![t.key().to_string(), format!("{p:.1}")])
        .collect();
    let path = tva_sim::knobs::results_dir().join("fig12.tsv");
    if let Err(e) = tva_experiments::write_tsv(&path, &["type", "peak_kpps"], &rows) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}
