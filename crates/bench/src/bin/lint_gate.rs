//! Workspace invariant-lint gate: runs `kinet_lint` (per-file rules plus
//! the interprocedural call-graph analyses) over every workspace and
//! `vendor/` source file, persists the full report as `lint_report.json`
//! and the call-graph summary as `callgraph.json` in the experiments
//! directory (both uploaded by CI whether the gate passes or not),
//! prints every finding, and exits 1 when any
//! finding lacks a reasoned suppression (inline `kinet-lint: allow(...)`
//! or, for panic-path, a `panic_allowlist.txt` entry).
//!
//! ```text
//! lint_gate [--root DIR] [--out NAME] [--graph-out NAME]
//! ```
//!
//! `--root` defaults to the workspace root (resolved relative to this
//! crate's manifest, so the gate works from any working directory).

use kinet_bench::gate::{self, Failures};
use kinet_lint::WorkspaceLint;
use std::path::PathBuf;

const USAGE: &str = "lint_gate [--root DIR] [--out NAME] [--graph-out NAME]";

struct Args {
    root: PathBuf,
    out: String,
    graph_out: String,
}

fn run(args: &Args) -> Result<WorkspaceLint, String> {
    let root = args
        .root
        .canonicalize()
        .map_err(|e| format!("resolve {}: {e}", args.root.display()))?;
    kinet_lint::run_workspace(&root)
}

fn main() {
    let args = gate::parse_args(USAGE, |f| {
        Ok(Args {
            root: PathBuf::from(f.value("--root", concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))),
            out: f.value("--out", "lint_report"),
            graph_out: f.value("--graph-out", "callgraph"),
        })
    });
    let WorkspaceLint { report, graph } = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint_gate: {e}");
            std::process::exit(1);
        }
    };
    // Persist both artifacts before deciding pass/fail so CI can always
    // upload them.
    let mut failures = Failures::default();
    gate::write_evidence(&mut failures, &args.out, &report);
    gate::write_evidence(&mut failures, &args.graph_out, &graph);
    println!(
        "call graph: {} nodes, {} edges, {} ambiguous call site(s), {} unresolved site(s) \
         across {} ledger entrie(s)",
        graph.nodes,
        graph.edges,
        graph.ambiguous_call_sites,
        graph.unresolved_sites,
        graph.unresolved.len()
    );
    for r in &graph.roots {
        println!(
            "  [{}] {} -> {} reachable fn(s)",
            r.analysis, r.root, r.reachable
        );
    }
    println!(
        "scanned {} files; {} findings ({} suppressed, {} unsuppressed)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        report.unsuppressed
    );
    for f in &report.findings {
        println!("  {f}");
    }
    if !report.gate_passes() {
        failures.push(format!(
            "{} unsuppressed finding(s); fix the code or add a reasoned \
             `// kinet-lint: allow(<rule>) — <why>`",
            report.unsuppressed
        ));
    }
    gate::conclude("lint_gate", &failures, "PASS");
}
