//! Regenerates every table and figure of the paper's evaluation section and
//! prints paper-reference vs measured values.
//!
//! ```text
//! cargo run -p tps-bench --bin reproduce --release            # everything
//! cargo run -p tps-bench --bin reproduce --release -- fig18   # one figure
//! ```

use ski_rental::loc_report;
use tps_bench::figures::{dissem, fig18, fig19, fig20};
use tps_bench::{figure_header, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!("Reproduction of 'OS Support for P2P Programming: a Case for TPS' (ICDCS 2002)");
    println!("seed = {DEFAULT_SEED}; all times are virtual (simulated JXTA 1.0 testbed)");

    if wanted("fig18") {
        print!("{}", fig18());
    }
    if wanted("fig19") {
        print!("{}", fig19());
    }
    if wanted("fig20") {
        print!("{}", fig20());
    }
    if wanted("loc") {
        loc();
    }
    if wanted("dissem") {
        print!("{}", dissem());
    }
}

fn loc() {
    println!(
        "{}",
        figure_header("Section 4.4 - Programming effort (non-blank, non-comment lines)")
    );
    let report = loc_report();
    println!(
        "code a TPS user writes (type + SR-TPS app):        {:>6}",
        report.tps_user_loc
    );
    println!(
        "code a direct-JXTA user writes (SR-JXTA app):      {:>6}",
        report.jxta_user_loc
    );
    println!(
        "TPS library functionality the JXTA user forgoes:   {:>6}",
        report.tps_library_loc
    );
    println!(
        "savings, minimal functionality (paper: >= 900):    {:>6}",
        report.minimal_savings()
    );
    println!(
        "savings, full API functionality (paper: ~5000):    {:>6}",
        report.full_api_savings()
    );
}
