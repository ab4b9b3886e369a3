//! End-to-end rule coverage over the fixture tree in `tests/fixtures/tree`
//! — a miniature workspace with at least one positive and one negative
//! fixture per rule, its own allowlist manifests, and both valid
//! and broken suppression directives. The real workspace walk skips this
//! tree, so the deliberate violations here can never fail the repo gate.

use kinet_lint::rules::{
    RULE_NONDET_ITER, RULE_NO_UNSAFE, RULE_SUPPRESSION, RULE_THREAD_KNOB, RULE_WALL_CLOCK,
};
use kinet_lint::{run_workspace, Finding, LintReport};
use std::path::PathBuf;

fn fixture_report() -> LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree");
    run_workspace(&root).expect("fixture tree lints").report
}

fn in_file<'a>(r: &'a LintReport, file: &str) -> Vec<&'a Finding> {
    r.findings.iter().filter(|f| f.file == file).collect()
}

#[test]
fn injected_violations_fail_the_gate() {
    let r = fixture_report();
    assert!(!r.gate_passes(), "fixture tree must trip the gate");
    assert!(r.unsuppressed >= 10, "every rule fires: {r:?}");
    assert!(
        r.suppressed >= 1,
        "the reasoned allow surfaces as suppressed"
    );
    assert!(r.files_scanned >= 11);
}

#[test]
fn nondeterministic_iteration_positive_and_negative() {
    let r = fixture_report();
    let pos = in_file(&r, "crates/kg/src/nondet_pos.rs");
    assert!(pos.iter().all(|f| f.rule == RULE_NONDET_ITER));
    assert!(
        pos.iter().any(|f| f.message.contains("for-loop")),
        "iteration itself flagged: {pos:?}"
    );
    assert!(pos.len() >= 2, "declaration + iteration: {pos:?}");
    assert!(
        in_file(&r, "crates/kg/src/nondet_neg.rs").is_empty(),
        "BTreeMap is clean"
    );
}

#[test]
fn wall_clock_positive_and_negative() {
    let r = fixture_report();
    let pos = in_file(&r, "crates/fleet/src/wall_pos.rs");
    assert!(pos.iter().all(|f| f.rule == RULE_WALL_CLOCK));
    assert!(pos.iter().any(|f| f.message.contains("Instant::now")));
    assert!(pos.iter().any(|f| f.message.contains("SystemTime")));
    assert!(
        in_file(&r, "crates/bench/src/wall_neg.rs").is_empty(),
        "bench harness path is allowlisted"
    );
}

#[test]
fn no_new_unsafe_positive_and_negative() {
    let r = fixture_report();
    let pos = in_file(&r, "crates/tensor/src/unsafe_pos.rs");
    assert_eq!(pos.len(), 1, "{pos:?}");
    assert_eq!(pos[0].rule, RULE_NO_UNSAFE);
    assert!(
        !pos[0].suppressed,
        "no-new-unsafe is never inline-suppressible"
    );
    assert!(
        in_file(&r, "crates/tensor/src/unsafe_neg.rs").is_empty(),
        "SAFETY comment + allowlist entry clears the site"
    );
}

#[test]
fn thread_knob_positive_and_negative() {
    let r = fixture_report();
    let pos = in_file(&r, "crates/data/src/knob_pos.rs");
    assert_eq!(pos.len(), 2, "env string + num_threads call: {pos:?}");
    assert!(pos.iter().all(|f| f.rule == RULE_THREAD_KNOB));
    assert!(
        in_file(&r, "crates/tensor/src/pool.rs").is_empty(),
        "the pool module owns the knob"
    );
}

#[test]
fn valid_suppression_carries_its_reason() {
    let r = fixture_report();
    let hits = in_file(&r, "crates/fleet/src/suppressed_ok.rs");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].suppressed);
    assert_eq!(hits[0].rule, RULE_WALL_CLOCK);
    assert_eq!(hits[0].reason, "fixture: report-only timing");
}

#[test]
fn broken_suppressions_are_findings() {
    let r = fixture_report();
    let hits = in_file(&r, "crates/fleet/src/suppress_bad.rs");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits
        .iter()
        .all(|f| f.rule == RULE_SUPPRESSION && !f.suppressed));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("without a written reason")));
    assert!(hits.iter().any(|f| f.message.contains("unknown rule")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("suppresses nothing")));
}
