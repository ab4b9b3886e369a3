//! End-to-end coverage of the interprocedural analyses over the fixture
//! tree: one positive and one negative fixture per analysis
//! (determinism-taint, panic-path), the
//! allowlist/stale-entry/root-drift diagnostics, and the call-graph
//! summary the gate uploads as `callgraph.json`.

use kinet_lint::rules::{RULE_DETERMINISM_TAINT, RULE_PANIC_PATH, RULE_SUPPRESSION};
use kinet_lint::{run_workspace, Finding, WorkspaceLint};
use std::path::PathBuf;

fn fixture_lint() -> WorkspaceLint {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree");
    run_workspace(&root).expect("fixture tree lints")
}

fn by_rule<'a>(lint: &'a WorkspaceLint, rule: &str) -> Vec<&'a Finding> {
    lint.report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn determinism_taint_positive_and_negative() {
    let lint = fixture_lint();
    let hits = by_rule(&lint, RULE_DETERMINISM_TAINT);
    let pos: Vec<_> = hits
        .iter()
        .filter(|f| f.file == "crates/fleet/src/taint_pos.rs")
        .collect();
    assert_eq!(pos.len(), 1, "one two-hop clock read: {hits:?}");
    let f = pos[0];
    assert!(!f.suppressed);
    assert!(
        f.message
            .contains("deterministic root `RoundDigest::deterministic_digest`"),
        "root spec named: {}",
        f.message
    );
    assert!(
        f.message
            .contains("digest_mix_fx → clock_stamp_fx → `Instant::now()`"),
        "two-hop chain rendered: {}",
        f.message
    );
    assert!(
        hits.iter()
            .all(|f| f.file != "crates/fleet/src/taint_neg.rs"),
        "the pure digest must not be flagged"
    );
}

#[test]
fn panic_path_positive_negative_and_allowlisted() {
    let lint = fixture_lint();
    let hits = by_rule(&lint, RULE_PANIC_PATH);
    // Positive: the root's own indexing plus the unwrap one call below,
    // grouped per function.
    let pos: Vec<_> = hits
        .iter()
        .filter(|f| f.file == "crates/fleet/src/panic_pos.rs")
        .collect();
    assert_eq!(pos.len(), 2, "serve_rows_fx and pick_best_fx: {hits:?}");
    assert!(pos.iter().all(|f| !f.suppressed));
    assert!(
        pos.iter()
            .any(|f| f.message.contains("`pick_best_fx`") && f.message.contains("unwrap()")),
        "the one-hop unwrap is grouped under its function: {pos:?}"
    );
    // Negative: checked accessors stay clean.
    assert!(
        hits.iter()
            .all(|f| f.file != "crates/fleet/src/panic_neg.rs"),
        "match-guarded access must not be flagged"
    );
    // Allowlisted: reported but suppressed, with the written reason.
    let allowed: Vec<_> = hits
        .iter()
        .filter(|f| f.file == "crates/fleet/src/panic_allowed.rs")
        .collect();
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].suppressed);
    assert!(
        allowed[0].reason.contains("caller contract"),
        "the allowlist reason travels with the finding: {:?}",
        allowed[0]
    );
}

#[test]
fn stale_allowlist_entries_and_ghost_roots_are_findings() {
    let lint = fixture_lint();
    let supp = by_rule(&lint, RULE_SUPPRESSION);
    assert!(
        supp.iter()
            .any(|f| f.file == "crates/lint/panic_allowlist.txt"
                && !f.suppressed
                && f.message.contains("never_reached")),
        "the stale allowlist entry must surface: {supp:?}"
    );
    // Root drift is charged to the analysis whose coverage rotted.
    let drift = by_rule(&lint, RULE_DETERMINISM_TAINT);
    assert!(
        drift.iter().any(|f| f.file == "crates/lint/reach.toml"
            && !f.suppressed
            && f.message.contains("ghost_root_fx")),
        "a root spec matching nothing is policy drift: {drift:?}"
    );
}

#[test]
fn callgraph_summary_reports_ledger_and_root_sizes() {
    let lint = fixture_lint();
    let g = &lint.graph;
    assert_eq!(g.schema_version, kinet_lint::SCHEMA_VERSION);
    assert!(g.nodes > 0 && g.edges > 0);
    assert!(
        !g.unresolved.is_empty(),
        "std calls in the fixtures must land in the ledger"
    );
    assert!(g.unresolved_sites >= g.unresolved.len());
    // Every policy root gets a row; the taint positive reaches its two
    // helpers, the ghost root reaches nothing.
    let taint_pos = g
        .roots
        .iter()
        .find(|r| r.root == "RoundDigest::deterministic_digest")
        .expect("taint root row");
    assert_eq!(taint_pos.analysis, "taint");
    assert_eq!(
        taint_pos.reachable, 3,
        "root + digest_mix_fx + clock_stamp_fx"
    );
    let ghost = g
        .roots
        .iter()
        .find(|r| r.root == "ghost_root_fx")
        .expect("ghost root row");
    assert_eq!(ghost.reachable, 0);
    let panic_pos = g
        .roots
        .iter()
        .find(|r| r.analysis == "panic" && r.root == "serve_rows_fx")
        .expect("panic root row");
    assert_eq!(panic_pos.reachable, 2, "root + pick_best_fx");
    assert!(
        g.roots
            .iter()
            .all(|r| r.analysis == "taint" || r.analysis == "panic"),
        "only the taint and panic analyses own roots: {:?}",
        g.roots
    );
}
