//! Pins the paper's Figures 18–20 across commits.
//!
//! `tests/figures_shape.rs` checks the *shape* of each figure (orderings,
//! slopes); nothing else checks a magnitude. Every number in these tables is
//! virtual time at seed 2002, exact per build profile and host, so the text
//! `reproduce` prints is compared byte for byte with `golden/figures.txt`. A
//! change that means to move a row of the paper's own evaluation re-records
//! the file (paste the printed text) and lists the rows it moved.
//!
//! The §4.4 line-count section is left out: it counts source lines and would
//! move with every change.

use tps_bench::figures::{fig18, fig19, fig20};

const GOLDEN: &str = include_str!("golden/figures.txt");

#[test]
fn figures_18_to_20_match_the_recorded_tables() {
    let actual = [fig18(), fig19(), fig20()].concat();
    assert!(
        actual == GOLDEN,
        "the paper's figures drifted from crates/bench/tests/golden/figures.txt.\n\
         --- committed ---\n{GOLDEN}--- this build (paste to re-record) ---\n{actual}"
    );
}
