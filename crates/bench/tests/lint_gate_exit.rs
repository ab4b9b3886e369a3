//! Exit-code contract of the `lint_gate` binary: non-zero (with both
//! artifacts still written) on a tree with unsuppressed findings, zero
//! on the committed workspace. Each test passes its own `--out` /
//! `--graph-out` names so concurrent tests never race on an artifact.

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn exits_nonzero_on_injected_violations_and_still_writes_both_artifacts() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lint/tests/fixtures/tree");
    let out = Command::new(env!("CARGO_BIN_EXE_lint_gate"))
        .current_dir(workspace_root())
        .args([
            "--root",
            fixture.to_str().unwrap(),
            "--out",
            "lint_fixture_report",
            "--graph-out",
            "lint_fixture_graph",
        ])
        .output()
        .expect("lint_gate runs");
    assert!(!out.status.success(), "violations must fail the gate");
    let artifact = workspace_root().join("target/experiments/lint_fixture_report.json");
    let text = std::fs::read_to_string(&artifact).expect("report written even on failure");
    let report: kinet_lint::LintReport = serde_json::from_str(&text).expect("report parses");
    assert!(report.unsuppressed > 0);
    assert!(
        report.suppressed > 0,
        "the fixture's reasoned allow is recorded"
    );
    assert_eq!(report.schema_version, kinet_lint::SCHEMA_VERSION);
    let graph_artifact = workspace_root().join("target/experiments/lint_fixture_graph.json");
    let text = std::fs::read_to_string(&graph_artifact).expect("graph written even on failure");
    let graph: kinet_lint::CallGraphSummary = serde_json::from_str(&text).expect("graph parses");
    assert_eq!(graph.schema_version, kinet_lint::SCHEMA_VERSION);
    assert!(graph.nodes > 0 && graph.edges > 0);
    assert!(
        !graph.unresolved.is_empty(),
        "the fixture tree's std calls must land in the unresolved ledger"
    );
    assert!(
        graph.roots.iter().any(|r| r.reachable > 1),
        "at least one analysis root reaches beyond itself"
    );
}

#[test]
fn exits_zero_on_the_committed_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_lint_gate"))
        .current_dir(workspace_root())
        .args([
            "--out",
            "lint_report_selftest",
            "--graph-out",
            "callgraph_selftest",
        ])
        .output()
        .expect("lint_gate runs");
    assert!(
        out.status.success(),
        "committed tree must be lint-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let graph_artifact = workspace_root().join("target/experiments/callgraph_selftest.json");
    let text = std::fs::read_to_string(&graph_artifact).expect("graph artifact written");
    let graph: kinet_lint::CallGraphSummary = serde_json::from_str(&text).expect("graph parses");
    assert!(
        !graph.unresolved.is_empty(),
        "over-approximation must stay visible on the real tree"
    );
    assert!(
        graph
            .roots
            .iter()
            .any(|r| r.analysis == "panic" && r.reachable > 1),
        "the serving roots must reach into the tree"
    );
}

#[test]
fn artifacts_follow_the_experiments_dir_not_the_working_directory() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lint/tests/fixtures/tree");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_gate_experiments_dir");
    let experiments = scratch.join("experiments");
    let elsewhere = scratch.join("cwd");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&elsewhere).expect("create working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_lint_gate"))
        .current_dir(&elsewhere)
        .env("KINET_EXPERIMENTS_DIR", &experiments)
        .args(["--root", fixture.to_str().unwrap()])
        .output()
        .expect("lint_gate runs");
    assert!(!out.status.success(), "violations must fail the gate");
    for artifact in ["lint_report.json", "callgraph.json"] {
        assert!(
            experiments.join(artifact).is_file(),
            "{artifact} must land in KINET_EXPERIMENTS_DIR"
        );
    }
    assert!(
        !elsewhere.join("target").exists(),
        "nothing may be written relative to the working directory"
    );
}
