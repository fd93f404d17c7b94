//! Pins the `reproduce` sections that have no golden test of their own.
//!
//! `tests/figures_shape.rs` checks the *shape* of the paper's figures
//! (orderings, slopes); the golden tests check the magnitudes. Every number
//! in these tables is virtual time at seed 2002, exact per build profile and
//! host, so the text of each section in `tps_bench::figures::SECTIONS` is
//! compared byte for byte with its file under `golden/`: `<name>.txt` for
//! every section listed here, which is every section but the three below. A
//! new section is pinned as soon as it is listed. A change that means to
//! move a row re-records the file (paste the printed text) and lists the rows
//! it moved.
//!
//! Left out here:
//! - Figures 18–20 (`golden/figures.txt`) and `dissem` (`golden/dissem.txt`)
//!   keep their own tests, `figures_golden.rs` and `dissem_golden.rs`;
//! - the §4.4 line-count section (`loc`) is not pinned at all: it counts
//!   source lines and would move with every change.

use std::collections::BTreeMap;
use tps_bench::figures::SECTIONS;

/// The golden file a section is pinned in here, or `None` for a section
/// pinned by its own test or not pinned.
fn golden_file(section: &str) -> Option<String> {
    match section {
        "loc" | "fig18" | "fig19" | "fig20" | "dissem" => None,
        other => Some(format!("{other}.txt")),
    }
}

#[test]
fn each_ablation_section_matches_its_recorded_table() {
    let mut actual: BTreeMap<String, String> = BTreeMap::new();
    for &(name, render) in SECTIONS {
        if let Some(file) = golden_file(name) {
            actual.entry(file).or_default().push_str(&render());
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut drifted = String::new();
    for (file, text) in &actual {
        let committed = std::fs::read_to_string(format!("{dir}/{file}")).unwrap_or_default();
        if committed != *text {
            drifted.push_str(&format!(
                "--- committed crates/bench/tests/golden/{file} ---\n{committed}\
                 --- this build (paste to re-record) ---\n{text}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "sections drifted from their golden files:\n{drifted}"
    );
}
