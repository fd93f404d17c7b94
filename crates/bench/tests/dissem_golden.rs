//! Pins the dissemination ablation across commits.
//!
//! `reproduce -- dissem` prints the mean publisher invocation time of every
//! strategy at 1, 4, 16 and 32 subscribers. Every number is virtual time at
//! seed 2002, exact per build profile and host, so the text is compared byte
//! for byte with `golden/dissem.txt`. A change that means to move a row
//! re-records the file (paste the printed text) and lists the rows it moved.

use tps_bench::figures::dissem;

const GOLDEN: &str = include_str!("golden/dissem.txt");

#[test]
fn the_dissemination_ablation_matches_the_recorded_table() {
    let actual = dissem();
    assert!(
        actual == GOLDEN,
        "the dissemination ablation drifted from crates/bench/tests/golden/dissem.txt.\n\
         --- committed ---\n{GOLDEN}--- this build (paste to re-record) ---\n{actual}"
    );
}
