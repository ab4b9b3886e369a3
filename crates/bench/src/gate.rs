//! What the gate binaries share.
//!
//! * **The bench regression gate**: diffs freshly persisted
//!   `BENCH_*.json` summaries against the committed baselines in
//!   `benches/baseline/` and fails above a median-ratio threshold.
//!   Summaries are parsed with the vendored `serde_json` deserializer.
//! * **The gate harness**: the scaffolding of `sim_gate`, `chaos_gate`,
//!   `service_gate`, `obs_gate`, `fleet_demo` and `lint_gate` — command
//!   line parsing, runs at every [`THREAD_COUNTS`] entry with their
//!   fingerprints compared, the scenario and exit-code probe records,
//!   typed exit codes, evidence writing and the verdict. Each gate keeps
//!   only its scenario table, its floors and its checks.
//!
//! Every artifact lives in [`fresh_dir`]: gates write there and reload
//! their previous snapshot from there.

use crate::write_json;
use kinet_fleet::FleetError;
use serde::value::Value as JsonValue;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};

/// Median nanoseconds per benchmark name, parsed from one summary file.
pub type BenchMedians = BTreeMap<String, u128>;

/// One benchmark's fresh-vs-baseline comparison.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Bench file stem (`kg`, `tensor`, …).
    pub bench: String,
    /// Benchmark name within the file.
    pub name: String,
    /// Committed baseline median (ns).
    pub baseline_ns: u128,
    /// Freshly measured median (ns).
    pub fresh_ns: u128,
    /// `fresh / baseline`.
    pub ratio: f64,
}

impl GateRow {
    /// `true` when the fresh median exceeds `threshold ×` the baseline.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio > threshold
    }
}

/// Parses the criterion shim's summary JSON into per-benchmark medians.
/// Records without a `name` or numeric `median_ns` are skipped (never
/// produced by the shim; tolerated so a hand-edited baseline cannot crash
/// the gate).
pub fn parse_medians(json: &str) -> BenchMedians {
    let mut out = BTreeMap::new();
    let Ok(root) = serde_json::parse_value(json) else {
        return out;
    };
    let field = |v: &Value, key: &str| -> Option<Value> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, fv)| fv.clone()),
            _ => None,
        }
    };
    let Some(Value::Array(results)) = field(&root, "results") else {
        return out;
    };
    for record in &results {
        let Some(Value::String(name)) = field(record, "name") else {
            continue;
        };
        let Some(Value::Number(median)) = field(record, "median_ns") else {
            continue;
        };
        if median.fract() == 0.0 && median >= 0.0 {
            out.insert(name, median as u128);
        }
    }
    out
}

/// Compares every benchmark present in both maps.
pub fn compare(bench: &str, baseline: &BenchMedians, fresh: &BenchMedians) -> Vec<GateRow> {
    baseline
        .iter()
        .filter_map(|(name, &base_ns)| {
            let &fresh_ns = fresh.get(name)?;
            Some(GateRow {
                bench: bench.to_string(),
                name: name.clone(),
                baseline_ns: base_ns,
                fresh_ns,
                ratio: fresh_ns as f64 / base_ns.max(1) as f64,
            })
        })
        .collect()
}

/// Baselined benchmark names with no fresh counterpart. A non-empty
/// result means coverage quietly evaporated (bench renamed or dropped);
/// the gate treats it as a failure so regressions cannot hide by
/// disappearing.
pub fn missing_names(baseline: &BenchMedians, fresh: &BenchMedians) -> Vec<String> {
    baseline
        .keys()
        .filter(|name| !fresh.contains_key(*name))
        .cloned()
        .collect()
}

/// The committed baseline directory: `benches/baseline/` at the workspace
/// root, resolved relative to this crate so the gate works from any CWD.
pub fn baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benches/baseline")
}

/// The experiments directory every artifact is written to and read
/// from: `KINET_EXPERIMENTS_DIR` or `target/experiments` at the
/// workspace root.
pub fn fresh_dir() -> PathBuf {
    match std::env::var("KINET_EXPERIMENTS_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments"),
    }
}

/// The regression threshold: `KINET_GATE_THRESHOLD` or 1.5.
pub fn threshold() -> f64 {
    std::env::var("KINET_GATE_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 1.0)
        .unwrap_or(1.5)
}

/// Thread counts every gate scenario must fingerprint identically across.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A gate's parsed command line. The usage line is the flag spec:
/// `[--flag]` is a switch and `[--flag VALUE]` takes one value. A flag
/// given twice keeps its last value.
#[derive(Debug)]
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    /// Parses `args` against `usage`; `Ok(None)` means `--help` or `-h`
    /// came before any error.
    pub fn parse(
        usage: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Option<Self>, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let takes_value = usage.split('[').skip(1).find_map(|entry| {
                let mut words = entry.split(']').next()?.split_whitespace();
                (words.next()? == arg).then(|| words.next().is_some())
            });
            let value = match takes_value {
                None => return Err(format!("unknown argument {arg:?}")),
                Some(false) => String::new(),
                Some(true) => it.next().ok_or_else(|| format!("{arg} requires a value"))?,
            };
            flags.insert(arg, value);
        }
        Ok(Some(Self(flags)))
    }

    /// Whether the switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// The flag's value, or `default` when it is absent.
    pub fn value(&self, flag: &str, default: &str) -> String {
        self.0.get(flag).map_or(default, String::as_str).to_string()
    }

    /// The flag's value as a number, or `default` when it is absent.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.0.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("invalid number {v:?}"))
        })
    }
}

/// Parses the process command line for the gate named by the first word
/// of `usage` and hands the flags to `build`. `--help` prints the usage
/// and exits 0; a malformed command line, or flags `build` rejects, print
/// `<gate>: <error>` and exit 1 before any work starts.
pub fn parse_args<T>(usage: &str, build: impl FnOnce(&Flags) -> Result<T, String>) -> T {
    let gate = usage.split_whitespace().next().unwrap_or("gate");
    match Flags::parse(usage, std::env::args().skip(1))
        .and_then(|f| f.map(|f| build(&f)).transpose())
    {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("usage: {usage}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{gate}: {e}");
            std::process::exit(1);
        }
    }
}

/// The command line of the gates whose usage is `<gate> [--quick] [--seed N]`.
pub struct QuickArgs {
    /// CI-smoke scale: tiny models, quality floors off.
    pub quick: bool,
    /// Master seed (default 42).
    pub seed: u64,
}

/// Parses a [`QuickArgs`] command line, then prints the gate's banner.
pub fn quick_args(usage: &str, title: &str) -> QuickArgs {
    let args = parse_args(usage, |f| {
        Ok(QuickArgs {
            quick: f.switch("--quick"),
            seed: f.num("--seed", 42)?,
        })
    });
    let gate = usage.split_whitespace().next().unwrap_or("gate");
    let mode = if args.quick { " (quick mode)" } else { "" };
    println!("{gate} — {title}{mode}\n");
    args
}

/// Runs `run` once per [`THREAD_COUNTS`] entry at that kernel thread
/// count. A failed run becomes a failure naming its thread count; the
/// successful runs come back in thread-count order.
pub fn run_at_thread_counts<R, E: Display>(
    failures: &mut Vec<String>,
    mut run: impl FnMut() -> Result<R, E>,
) -> Vec<(usize, R)> {
    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        match kinet_tensor::pool::with_threads(threads, &mut run) {
            Ok(r) => runs.push((threads, r)),
            Err(e) => failures.push(format!("run failed at {threads} thread(s): {e}")),
        }
    }
    runs
}

/// Compares `key` of every run against the first run's, naming that
/// run's real thread count as the base of each divergence. `true` when
/// there is at least one run and all of them agree.
pub fn compare_across_threads<R, K: PartialEq>(
    runs: &[(usize, R)],
    what: &str,
    key: impl Fn(&R) -> K,
    failures: &mut Vec<String>,
) -> bool {
    let Some(((base, first), rest)) = runs.split_first() else {
        return false;
    };
    let base_key = key(first);
    let before = failures.len();
    for (threads, run) in rest {
        if key(run) != base_key {
            failures.push(format!(
                "{what} diverges between {base} and {threads} thread(s)"
            ));
        }
    }
    failures.len() == before
}

/// One gate scenario's evidence.
pub struct ScenarioRecord<R> {
    /// Scenario name.
    pub scenario: String,
    /// What the scenario injects and asserts.
    pub description: String,
    /// The thread counts every run used.
    pub thread_counts: Vec<usize>,
    /// Whether every run's fingerprint matched the base run's.
    pub fingerprints_identical: bool,
    /// Failed runs, divergences and violated checks.
    pub failures: Vec<String>,
    /// The base (lowest thread count) run's report.
    pub report: Option<R>,
}

// The vendored serde derive does not take generic types.
impl<R: Serialize> Serialize for ScenarioRecord<R> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("scenario".into(), self.scenario.to_json_value()),
            ("description".into(), self.description.to_json_value()),
            ("thread_counts".into(), self.thread_counts.to_json_value()),
            (
                "fingerprints_identical".into(),
                self.fingerprints_identical.to_json_value(),
            ),
            ("failures".into(), self.failures.to_json_value()),
            ("report".into(), self.report.to_json_value()),
        ])
    }
}

/// Prints the scenario header, runs `run` at every [`THREAD_COUNTS`]
/// entry and compares the runs' fingerprints. The caller appends its
/// checks of the report to the record's failures.
pub fn run_scenario<R, E: Display>(
    name: &str,
    description: &str,
    run: impl FnMut() -> Result<R, E>,
    fingerprint: impl Fn(&R) -> String,
) -> ScenarioRecord<R> {
    println!("[{name}] {description}");
    let mut failures = Vec::new();
    let runs = run_at_thread_counts(&mut failures, run);
    let fingerprints_identical =
        compare_across_threads(&runs, "fingerprint", fingerprint, &mut failures);
    ScenarioRecord {
        scenario: name.to_string(),
        description: description.to_string(),
        thread_counts: THREAD_COUNTS.to_vec(),
        fingerprints_identical,
        failures,
        report: runs.into_iter().next().map(|(_, r)| r),
    }
}

/// The verdict of a run that must fail with one dedicated exit code.
#[derive(Serialize)]
pub struct ProbeRecord {
    /// What the probe injects.
    pub description: String,
    /// The exit code the run must fail with.
    pub expected_exit_code: i32,
    /// The exit code it failed with; `None` when it succeeded.
    pub actual_exit_code: Option<i32>,
    /// The error, or why the outcome is wrong.
    pub error: String,
    /// Whether the run failed with the expected code.
    pub pass: bool,
}

/// Classifies an exit-code probe's `outcome` and prints the verdict;
/// `survived` is the error text when the run wrongly succeeded.
pub fn exit_code_probe<T>(
    description: &str,
    expected: i32,
    outcome: Result<T, FleetError>,
    survived: &str,
) -> ProbeRecord {
    let (actual, error, pass) = match outcome {
        Ok(_) => (None, survived.to_string(), false),
        Err(e) if e.exit_code() == expected => (Some(expected), e.to_string(), true),
        Err(e) => (
            Some(e.exit_code()),
            format!("wrong error class: {e}"),
            false,
        ),
    };
    println!("      exit code {actual:?} (expected {expected}): {error}");
    ProbeRecord {
        description: description.to_string(),
        expected_exit_code: expected,
        actual_exit_code: actual,
        error,
        pass,
    }
}

/// A gate's failures and its exit code: a violated assertion exits 1,
/// and the first typed fleet-run error escalates to that error's code.
#[derive(Debug, Default)]
pub struct Failures {
    /// Every failure, in the order found.
    pub msgs: Vec<String>,
    run_error_code: Option<i32>,
}

impl Failures {
    /// Records a violated assertion.
    pub fn push(&mut self, msg: String) {
        self.msgs.push(msg);
    }

    /// Records a failed fleet run; its typed exit code wins over 1.
    pub fn push_run_error(&mut self, context: &str, e: &FleetError) {
        self.msgs.push(format!("{context}: {e}"));
        self.run_error_code.get_or_insert(e.exit_code());
    }

    /// Records each failure of `record`, prefixed by its scenario name.
    pub fn extend_scenario<R>(&mut self, record: &ScenarioRecord<R>) {
        let name = &record.scenario;
        self.msgs
            .extend(record.failures.iter().map(|f| format!("[{name}] {f}")));
    }

    /// The process exit code for these failures.
    pub fn exit_code(&self) -> i32 {
        self.run_error_code.unwrap_or(1)
    }
}

/// Reloads the previous run's `<id>.json` from [`fresh_dir`] for a delta
/// print: `None` without a file; an unreadable one is reported.
pub fn previous_snapshot<T: Deserialize>(gate: &str, id: &str) -> Option<T> {
    let text = std::fs::read_to_string(fresh_dir().join(format!("{id}.json"))).ok()?;
    serde_json::from_str(&text)
        .map_err(|e| eprintln!("{gate}: previous snapshot unreadable ({e}); skipping delta"))
        .ok()
}

/// Writes one evidence artifact as `<id>.json` and prints its path; a
/// failed write becomes a failure.
pub fn write_evidence<T: Serialize>(
    failures: &mut Failures,
    id: &str,
    value: &T,
) -> Option<PathBuf> {
    write_json(id, value)
        .inspect(|path| println!("wrote {}", path.display()))
        .map_err(|e| failures.push(format!("could not write {id}.json: {e}")))
        .ok()
}

/// Writes the flight recorder as `obs_dump.json` on every run, pass or
/// fail, so each gate's CI artifact holds its own records; without a
/// capture the snapshot is empty.
pub fn write_flight_recorder(failures: &mut Failures, capture: Option<&kinet_obs::Capture>) {
    let ring = capture.map_or(&[][..], |c| &c.ring[..]);
    write_evidence(failures, "obs_dump", &kinet_obs::snapshot_records(ring));
}

/// The verdict, once the evidence is written: prints `<gate>: <pass>`,
/// or prints each failure as `<gate> FAIL: <failure>` and exits with the
/// failures' exit code.
pub fn conclude(gate: &str, failures: &Failures, pass: &str) {
    if failures.msgs.is_empty() {
        println!("{gate}: {pass}");
        return;
    }
    for f in &failures.msgs {
        eprintln!("{gate} FAIL: {f}");
    }
    std::process::exit(failures.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "kg",
  "unix_time": 1,
  "results": [
    {"name": "validity_rate/20k_string", "min_ns": 90, "median_ns": 100, "mean_ns": 105, "samples": 10, "iters_per_sample": 1},
    {"name": "validity_rate/20k_interned", "min_ns": 8, "median_ns": 10, "mean_ns": 11, "samples": 10, "iters_per_sample": 1}
  ]
}
"#;

    #[test]
    fn parses_names_and_medians() {
        let m = parse_medians(SAMPLE);
        assert_eq!(m.len(), 2);
        assert_eq!(m["validity_rate/20k_string"], 100);
        assert_eq!(m["validity_rate/20k_interned"], 10);
    }

    #[test]
    fn compare_flags_regressions_only_above_threshold() {
        let baseline = parse_medians(SAMPLE);
        let mut fresh = baseline.clone();
        fresh.insert("validity_rate/20k_interned".into(), 16); // 1.6x
        fresh.insert("validity_rate/20k_string".into(), 120); // 1.2x
        let rows = compare("kg", &baseline, &fresh);
        assert_eq!(rows.len(), 2);
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed(1.5))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(regressed, ["validity_rate/20k_interned"]);
    }

    #[test]
    fn missing_benchmarks_are_reported_not_skipped() {
        let baseline = parse_medians(SAMPLE);
        let mut fresh = BenchMedians::new();
        assert!(compare("kg", &baseline, &fresh).is_empty());
        assert_eq!(missing_names(&baseline, &fresh).len(), 2);
        fresh.insert("validity_rate/20k_string".into(), 100);
        assert_eq!(
            missing_names(&baseline, &fresh),
            ["validity_rate/20k_interned"]
        );
    }

    fn parse(args: &[&str]) -> Result<Option<Flags>, String> {
        let args = args.iter().map(|a| a.to_string());
        Flags::parse("demo [--quick] [--seed N] [--out NAME]", args)
    }

    #[test]
    fn parser_reads_switches_values_and_defaults() {
        let flags = parse(&["--quick", "--seed", "7", "--seed", "9"])
            .unwrap()
            .unwrap();
        assert!(flags.switch("--quick"));
        assert_eq!(flags.num("--seed", 42u64), Ok(9), "last value wins");
        assert_eq!(flags.value("--out", "report"), "report");
        let flags = parse(&[]).unwrap().unwrap();
        assert!(!flags.switch("--quick"));
        assert_eq!(flags.num("--seed", 42u64), Ok(42));
    }

    #[test]
    fn parser_rejects_unknown_flags_missing_values_and_bad_numbers() {
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument \"--bogus\""
        );
        assert_eq!(
            parse(&["--quick", "7"]).unwrap_err(),
            "unknown argument \"7\""
        );
        assert_eq!(
            parse(&["--quick", "--seed"]).unwrap_err(),
            "--seed requires a value"
        );
        let flags = parse(&["--seed", "x"]).unwrap().unwrap();
        assert_eq!(
            flags.num("--seed", 42u64).unwrap_err(),
            "invalid number \"x\""
        );
        assert!(parse(&["--help", "--bogus"]).unwrap().is_none());
        assert!(
            parse(&["--bogus", "-h"]).is_err(),
            "an earlier error wins over help"
        );
    }

    #[test]
    fn comparator_names_the_real_base_thread_count() {
        let mut failures = Vec::new();
        let key = |r: &&'static str| *r;
        assert!(compare_across_threads(
            &[(1, "a"), (2, "a"), (4, "a")],
            "fp",
            key,
            &mut failures
        ));
        assert!(failures.is_empty());
        // The 1-thread run failed, so the 2-thread run is the base.
        assert!(!compare_across_threads(
            &[(2, "a"), (4, "b")],
            "fp",
            key,
            &mut failures
        ));
        assert_eq!(failures, ["fp diverges between 2 and 4 thread(s)"]);
        assert!(!compare_across_threads(&[], "fp", key, &mut Vec::new()));
    }

    #[test]
    fn thread_count_runs_record_failures_by_thread_count() {
        let mut failures = Vec::new();
        let mut calls = 0;
        let runs = run_at_thread_counts(&mut failures, || {
            calls += 1;
            if calls == 2 {
                Err("boom")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(runs, [(1, 1), (4, 3)]);
        assert_eq!(failures, ["run failed at 2 thread(s): boom"]);
    }

    fn quorum_lost() -> FleetError {
        FleetError::QuorumLost {
            reported: 0,
            required: 2,
            n_devices: 4,
            degraded: Vec::new(),
        }
    }

    #[test]
    fn probe_passes_only_on_the_expected_exit_code() {
        let code = quorum_lost().exit_code();
        let pass = exit_code_probe::<()>("p", code, Err(quorum_lost()), "survived");
        assert!(pass.pass && pass.actual_exit_code == Some(code));
        assert_eq!(pass.error, quorum_lost().to_string());
        let survived = exit_code_probe("p", code, Ok(()), "survived");
        assert!(!survived.pass && survived.actual_exit_code.is_none());
        assert_eq!(survived.error, "survived");
        let internal = FleetError::Internal("x".into());
        let internal_code = internal.exit_code();
        let wrong = exit_code_probe::<()>("p", code, Err(internal), "survived");
        assert!(!wrong.pass && wrong.actual_exit_code == Some(internal_code));
        assert!(wrong.error.starts_with("wrong error class: "));
    }

    #[test]
    fn first_run_error_sets_the_exit_code() {
        let mut failures = Failures::default();
        failures.push("floor broke".into());
        assert_eq!(failures.exit_code(), 1);
        failures.push_run_error("round", &quorum_lost());
        failures.push_run_error("round", &FleetError::Internal("x".into()));
        assert_eq!(failures.exit_code(), quorum_lost().exit_code());
        assert_eq!(failures.msgs.len(), 3);
    }

    #[test]
    fn default_threshold_is_one_point_five() {
        assert!((threshold() - 1.5).abs() < 1e-9 || std::env::var("KINET_GATE_THRESHOLD").is_ok());
    }
}
