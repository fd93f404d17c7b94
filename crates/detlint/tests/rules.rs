//! Rule behaviour over the fixture corpus: every rule's hit AND miss side,
//! allow-annotation suppression, stale-allow (D005) regression, D004
//! exhaustiveness, and baseline diffing.
//!
//! Fixtures live in `tests/fixtures/` and are pulled in with `include_str!`
//! so they are never compiled and never scanned as workspace sources (the
//! walker skips `fixtures/` directories). Each test mounts its fixture at a
//! fake kernel-crate path to bring it into D002/D003 scope.

use detlint::exhaustive::{Pair, Region, RegionKind};
use detlint::rules::{Finding, Rule};

const KERNEL_PATH: &str = "crates/simnet/src/fixture.rs";

fn scan_at(path: &str, source: &str) -> Vec<Finding> {
    detlint::scan_sources(&[(path.to_owned(), source.to_owned())], &[])
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn d001_fires_on_wall_clock_reads() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d001_bad.rs"));
    let d001: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::D001).collect();
    assert!(
        d001.len() >= 2,
        "expected Instant::now and SystemTime hits, got {findings:?}"
    );
    assert!(d001.iter().any(|f| f.key == "Instant::now"));
    assert!(d001.iter().any(|f| f.key == "SystemTime"));
    assert!(
        d001.iter().any(|f| f.item.contains("Sampler")),
        "item paths attach: {d001:?}"
    );
}

#[test]
fn d001_ignores_strings_and_comments_but_fires_in_bench_code() {
    let good = include_str!("fixtures/d001_good.rs");
    assert!(
        scan_at(KERNEL_PATH, good).is_empty(),
        "virtual clock must be clean"
    );
    // No path is exempt: bench code is audited like the kernel.
    let bad = include_str!("fixtures/d001_bad.rs");
    assert!(scan_at("crates/bench/src/figures.rs", bad)
        .iter()
        .any(|f| f.rule == Rule::D001));
}

#[test]
fn d002_fires_on_hash_iteration_shapes() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d002_bad.rs"));
    let keys: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    assert!(keys.contains(&"counts.keys()"), "method-call iteration: {keys:?}");
    assert!(
        keys.contains(&"for-in:members"),
        "for-loop over hash set: {keys:?}"
    );
    assert!(
        keys.iter().any(|k| k.starts_with("counts.drain")),
        "drain: {keys:?}"
    );
    assert!(rules_of(&findings).iter().all(|r| *r == Rule::D002));
}

#[test]
fn d002_spares_ordered_containers_lookups_and_mitigated_statements() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d002_good.rs"));
    assert!(
        findings.is_empty(),
        "known-good fixture must be clean, got {findings:?}"
    );
}

#[test]
fn d002_outside_kernel_crates_is_out_of_scope() {
    let findings = scan_at(
        "crates/detlint/src/other.rs",
        include_str!("fixtures/d002_bad.rs"),
    );
    assert!(findings.iter().all(|f| f.rule != Rule::D002));
}

#[test]
fn d002_allow_annotation_suppresses_and_is_not_stale() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d002_allowed.rs"));
    assert!(
        findings.is_empty(),
        "allowed iteration must produce no findings, got {findings:?}"
    );
}

#[test]
fn d003_fires_on_thread_and_os_nondeterminism() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d003_bad.rs"));
    let keys: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    assert!(keys.contains(&"rand::random"), "{keys:?}");
    assert!(keys.contains(&"env::var"), "{keys:?}");
    assert!(keys.contains(&"thread::spawn"), "{keys:?}");
    assert!(rules_of(&findings).iter().all(|r| *r == Rule::D003));
}

#[test]
fn d004_reports_missing_variant_but_not_complete_regions() {
    let path = "crates/simnet/src/flavor.rs";
    let pairs = [Pair {
        enum_name: "Flavor",
        enum_file: "crates/simnet/src/flavor.rs",
        regions: &[
            Region {
                file: "crates/simnet/src/flavor.rs",
                kind: RegionKind::Const,
                name: "ALL",
            },
            Region {
                file: "crates/simnet/src/flavor.rs",
                kind: RegionKind::Fn,
                name: "label",
            },
        ],
    }];
    let findings = detlint::scan_sources(
        &[(
            path.to_owned(),
            include_str!("fixtures/d004_region.rs").to_owned(),
        )],
        &pairs,
    );
    let d004: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::D004).collect();
    assert_eq!(
        d004.len(),
        1,
        "only `label` is missing Gamma (wildcards don't count): {d004:?}"
    );
    assert_eq!(d004[0].key, "Flavor::Gamma!label");
}

#[test]
fn d004_flags_table_drift_when_anchor_disappears() {
    let pairs = [Pair {
        enum_name: "Vanished",
        enum_file: "crates/simnet/src/flavor.rs",
        regions: &[],
    }];
    let findings = detlint::scan_sources(
        &[(
            "crates/simnet/src/flavor.rs".to_owned(),
            include_str!("fixtures/d004_region.rs").to_owned(),
        )],
        &pairs,
    );
    assert!(findings
        .iter()
        .any(|f| f.rule == Rule::D004 && f.key == "missing-enum:Vanished"));
}

#[test]
fn d005_stale_and_malformed_allows_are_errors() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d005_stale.rs"));
    let d005: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::D005).collect();
    assert_eq!(d005.len(), 2, "one stale + one malformed, got {findings:?}");
    assert!(d005.iter().any(|f| f.key == "stale-allow:D002"));
    assert!(d005.iter().any(|f| f.key == "malformed-allow"));
}

#[test]
fn d005_regression_allow_goes_stale_when_the_code_is_fixed() {
    // The exact lifecycle the rule exists for: an allow is valid while the
    // hash iteration exists…
    let before = "use std::collections::HashMap;\n\
                  pub struct S { m: HashMap<u32, u32> }\n\
                  impl S {\n\
                      pub fn f(&self) {\n\
                          // detlint::allow(D002, reason = \"commutative\")\n\
                          for v in self.m.values() { let _ = v; }\n\
                      }\n\
                  }\n";
    assert!(scan_at(KERNEL_PATH, before).is_empty());
    // …and becomes an error the moment the iteration is gone.
    let after = "use std::collections::HashMap;\n\
                 pub struct S { m: HashMap<u32, u32> }\n\
                 impl S {\n\
                     pub fn f(&self) -> usize {\n\
                         // detlint::allow(D002, reason = \"commutative\")\n\
                         self.m.len()\n\
                     }\n\
                 }\n";
    let findings = scan_at(KERNEL_PATH, after);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::D005);
    assert_eq!(findings[0].key, "stale-allow:D002");
}

#[test]
fn baseline_diff_separates_new_old_and_stale() {
    let findings = scan_at(KERNEL_PATH, include_str!("fixtures/d002_bad.rs"));
    assert!(!findings.is_empty());

    // Baseline everything → nothing is new.
    let full = detlint::baseline::parse(&detlint::baseline::render(&findings));
    let (new, old, stale) = detlint::baseline::diff(&findings, &full);
    assert!(new.is_empty());
    assert_eq!(old.len(), findings.len());
    assert!(stale.is_empty());

    // Empty baseline → everything is new.
    let empty = detlint::baseline::parse("# nothing accepted\n");
    let (new, old, _) = detlint::baseline::diff(&findings, &empty);
    assert_eq!(new.len(), findings.len());
    assert!(old.is_empty());

    // A baseline entry that no longer fires is reported stale.
    let mut with_ghost = full.clone();
    with_ghost.insert("D002\tcrates/simnet/src/gone.rs\tGone::walk\tm.keys()".to_owned());
    let (_, _, stale) = detlint::baseline::diff(&findings, &with_ghost);
    assert_eq!(stale.len(), 1);
}

#[test]
fn identities_are_line_number_free() {
    let source = include_str!("fixtures/d002_bad.rs");
    let shifted = format!("// shifted\n//\n//\n{source}");
    let a: Vec<String> = scan_at(KERNEL_PATH, source)
        .iter()
        .map(detlint::rules::Finding::identity)
        .collect();
    let b: Vec<String> = scan_at(KERNEL_PATH, &shifted)
        .iter()
        .map(detlint::rules::Finding::identity)
        .collect();
    assert_eq!(a, b, "prepending comment lines must not change identities");
}
