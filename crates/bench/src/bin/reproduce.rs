//! Regenerates every table and figure of the paper's evaluation section, plus
//! the ablations, and prints paper-reference vs measured values.
//!
//! ```text
//! cargo run -p tps-bench --bin reproduce --release                 # everything
//! cargo run -p tps-bench --bin reproduce --release -- fig18 batch  # chosen sections
//! ```
//!
//! Section names: fig18 fig19 fig20 loc dissem mesh latency batch rebalance
//! (see `tps_bench::figures::SECTIONS`).

use tps_bench::figures::SECTIONS;
use tps_bench::DEFAULT_SEED;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "all" && !SECTIONS.iter().any(|(name, _)| name == a))
    {
        let names: Vec<&str> = SECTIONS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "unknown section `{unknown}`; sections: {} (or all)",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!("Reproduction of 'OS Support for P2P Programming: a Case for TPS' (ICDCS 2002)");
    println!("seed = {DEFAULT_SEED}; all times are virtual (simulated JXTA 1.0 testbed)");
    for &(name, render) in SECTIONS {
        if wanted(name) {
            print!("{}", render());
        }
    }
}
