//! Observability gate: proves the `kinet_obs` layer is deterministic,
//! invisible to fingerprints, and cheap enough to leave on.
//!
//! Four contracts, each persisted as evidence before the verdict:
//!
//! 1. **Journal determinism** — one faulted fleet round (straggler retry
//!    plus a poisoned share, so the retry/quarantine events actually
//!    fire) executed at `KINET_THREADS` ∈ {1, 2, 4} must produce a
//!    byte-identical journal rendering *and* a byte-identical metrics
//!    snapshot: virtual ticks only, merged in `(scope, seq)` order.
//! 2. **Fingerprint invisibility** — the same round with no session
//!    active must fingerprint bit-identically to the instrumented runs:
//!    recording never perturbs the round it watches.
//! 3. **Serving throughput floor** — an instrumented serving burst must
//!    clear a wall-clock rows/s floor, and the synthetic-tick p99 comes
//!    from the `serving.batch_ticks` histogram, not from timers.
//! 4. **Flight recorder** — the bounded ring holds the most recent
//!    records (≤ capacity, never empty after an instrumented round) and
//!    is dumped to `obs_dump.json` in the experiments directory
//!    unconditionally, so a red gate still uploads its last moments.
//!
//! ```text
//! obs_gate [--quick] [--seed N]
//! ```
//!
//! Exit code 1 on any violated assertion.

use kinet_bench::gate::{self, Failures, QuickArgs, THREAD_COUNTS};
use kinet_fleet::{
    DeviceFaultSpec, FaultConfig, FaultKind, FleetConfig, FleetSim, ModelKind, ResilienceConfig,
    ServingModel, SharingPolicy, UnionConfig,
};
use kinet_obs::ObsConfig;
use serde::Serialize;
use std::time::Instant;

/// Flight-recorder capacity the gate sessions run with.
const RING_CAPACITY: usize = 256;

/// Wall-clock serving floor (rows/s). Deliberately conservative: the
/// committed `bench_fleet` baseline measures the real number; this floor
/// only catches order-of-magnitude regressions (e.g. accidental
/// allocation or locking in `score_rows`) on a loaded CI box.
const SERVING_ROWS_PER_SEC_FLOOR: f64 = 20_000.0;

const USAGE: &str = "obs_gate [--quick] [--seed N]";

/// The faulted round every determinism check runs: a transient straggler
/// on device 1 (exercises `fleet.retry`) and a NaN-poisoned share from
/// device 3 (exercises `fleet.quarantine`).
fn faulted_config(args: &QuickArgs) -> FleetConfig {
    let (rows, epochs) = if args.quick { (220, 2) } else { (400, 8) };
    let mut resilience = ResilienceConfig::tolerant();
    if args.quick {
        // 2-epoch generators emit noise with KG validity under the
        // tolerant floor; keep only the non-finite quarantine armed.
        resilience.min_share_validity = 0.0;
    }
    FleetConfig {
        n_devices: 4,
        rows_per_device: rows,
        test_records: 600,
        policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
        model_epochs: epochs,
        seed: args.seed,
        union: UnionConfig::enabled(),
        fault: FaultConfig::scripted(vec![
            DeviceFaultSpec::transient(1, FaultKind::Straggle, 1).with_magnitude(2500),
            DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan),
        ]),
        resilience,
        ..FleetConfig::default()
    }
}

#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    fingerprint: String,
    journal_records: usize,
    journal_bytes: usize,
    metrics_bytes: usize,
    retries: u64,
    quarantines: u64,
}

#[derive(Serialize)]
struct ServingProbe {
    batches: usize,
    rows_scored: u64,
    wall_secs: f64,
    rows_per_sec: f64,
    rows_per_sec_floor: f64,
    p50_ticks: u64,
    p95_ticks: u64,
    p99_ticks: u64,
}

#[derive(Serialize)]
struct ObsReport {
    quick: bool,
    seed: u64,
    thread_counts: Vec<usize>,
    journal_identical: bool,
    metrics_identical: bool,
    fingerprint_obs_on: String,
    fingerprint_obs_off: String,
    obs_invisible_to_fingerprint: bool,
    ring_capacity: usize,
    ring_len: usize,
    phase_summary: String,
    serving: Option<ServingProbe>,
    runs: Vec<ThreadRun>,
    failures: Vec<String>,
}

fn counter_value(metrics: &kinet_obs::metrics::MetricsSnapshot, name: &str) -> u64 {
    metrics
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

/// One instrumented run's evidence: its report fingerprint, journal
/// rendering, metrics snapshot and capture.
struct Instrumented {
    fingerprint: String,
    journal: String,
    metrics: String,
    capture: kinet_obs::Capture,
}

fn main() {
    let args = gate::quick_args(USAGE, "deterministic tracing + metrics contracts");
    let cfg = faulted_config(&args);
    let mut failures = Failures::default();

    // ---- contract 1: journal + metrics byte-identical across threads ----
    let captures = gate::run_at_thread_counts(&mut failures.msgs, || {
        let session = kinet_obs::start(ObsConfig {
            ring_capacity: RING_CAPACITY,
        });
        let outcome = FleetSim::new(cfg.clone()).run();
        let capture = session.finish();
        let report = outcome?;
        Ok::<_, kinet_fleet::FleetError>(Instrumented {
            fingerprint: report.deterministic_fingerprint(),
            journal: capture.journal.render(),
            metrics: capture.metrics.to_json_value().to_json_string(),
            capture,
        })
    });
    let runs: Vec<ThreadRun> = captures
        .iter()
        .map(|(threads, run)| {
            let capture = &run.capture;
            println!("[threads={threads}] {}", capture.journal.phase_summary());
            ThreadRun {
                threads: *threads,
                fingerprint: run.fingerprint.clone(),
                journal_records: capture.journal.records().len(),
                journal_bytes: run.journal.len(),
                metrics_bytes: run.metrics.len(),
                retries: counter_value(&capture.metrics, "fleet.retries"),
                quarantines: counter_value(&capture.metrics, "fleet.quarantines"),
            }
        })
        .collect();
    let journal_identical = gate::compare_across_threads(
        &captures,
        "journal rendering",
        |r| r.journal.clone(),
        &mut failures.msgs,
    );
    let metrics_identical = gate::compare_across_threads(
        &captures,
        "metrics snapshot",
        |r| r.metrics.clone(),
        &mut failures.msgs,
    );
    if let Some(run) = runs.first() {
        if run.journal_records == 0 {
            failures.push("instrumented faulted round produced an empty journal".into());
        }
        if run.retries == 0 {
            failures.push("straggler injection produced no fleet.retries count".into());
        }
        if run.quarantines == 0 {
            failures.push("poisoned share produced no fleet.quarantines count".into());
        }
    }

    // ---- contract 2: obs is invisible to the round fingerprint ----
    // No session active: every instrumentation site takes the one-relaxed-
    // load disabled path. The round must not notice the difference.
    let fingerprint_obs_on = runs
        .first()
        .map(|r| r.fingerprint.clone())
        .unwrap_or_default();
    let fingerprint_obs_off = match FleetSim::new(cfg.clone()).run() {
        Ok(r) => r.deterministic_fingerprint(),
        Err(e) => {
            failures.push(format!("obs-off round failed: {e}"));
            String::new()
        }
    };
    let obs_invisible_to_fingerprint =
        !fingerprint_obs_on.is_empty() && fingerprint_obs_on == fingerprint_obs_off;
    if !obs_invisible_to_fingerprint {
        failures.push("fingerprint differs between obs-on and obs-off runs".into());
    }

    // ---- contract 4 (checked before 3 so the dump reflects the round):
    // the flight recorder is bounded and non-empty.
    let last_capture = captures.last().map(|(_, run)| &run.capture);
    let ring_len = last_capture.map_or(0, |c| c.ring.len());
    if ring_len == 0 && !captures.is_empty() {
        failures.push("flight recorder is empty after an instrumented round".into());
    }
    if ring_len > RING_CAPACITY {
        failures.push(format!(
            "flight recorder holds {ring_len} records, capacity {RING_CAPACITY}"
        ));
    }

    // ---- contract 3: instrumented serving burst clears the floor ----
    let serving = run_serving_probe(&args, &cfg, &mut failures);

    // Evidence before verdict: both artifacts are written even when red.
    println!();
    gate::write_flight_recorder(&mut failures, last_capture);
    let report = ObsReport {
        quick: args.quick,
        seed: args.seed,
        thread_counts: THREAD_COUNTS.to_vec(),
        journal_identical,
        metrics_identical,
        fingerprint_obs_on,
        fingerprint_obs_off,
        obs_invisible_to_fingerprint,
        ring_capacity: RING_CAPACITY,
        ring_len,
        phase_summary: last_capture
            .map(|c| c.journal.phase_summary())
            .unwrap_or_default(),
        serving,
        runs,
        failures: failures.msgs.clone(),
    };
    gate::write_evidence(&mut failures, "obs_report", &report);
    gate::conclude(
        "obs_gate",
        &failures,
        "journal deterministic, fingerprints untouched, serving floor holds",
    );
}

/// Trains a serving model on the faulted round's committed pool, then
/// scores a flow burst under an active session: rows/s is wall clock
/// (this is `crates/bench`, the sanctioned timing module), latency
/// quantiles come from the deterministic synthetic-tick histogram.
fn run_serving_probe(
    args: &QuickArgs,
    cfg: &FleetConfig,
    failures: &mut Failures,
) -> Option<ServingProbe> {
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    let pool = match FleetSim::new(cfg.clone()).run_detailed() {
        Ok((_, Some(pool))) if pool.n_rows() > 0 => pool,
        Ok(_) => {
            failures.push("faulted round committed no pool for the serving probe".into());
            return None;
        }
        Err(e) => {
            failures.push(format!("serving-probe round failed: {e}"));
            return None;
        }
    };
    let model = match ServingModel::train(&pool, if args.quick { 10 } else { 25 }, args.seed ^ 7) {
        Ok(m) => m,
        Err(e) => {
            failures.push(format!("serving model training failed: {e}"));
            return None;
        }
    };
    let batches = if args.quick { 40 } else { 200 };
    let batch_rows = 96;
    let mut flows = Vec::with_capacity(batches);
    for b in 0..batches {
        match LabSimulator::new(LabSimConfig::small(batch_rows, args.seed ^ (b as u64 + 11)))
            .generate()
        {
            Ok(t) => flows.push(t),
            Err(e) => {
                failures.push(format!("serving flow batch {b} generation failed: {e}"));
                return None;
            }
        }
    }

    let session = kinet_obs::start(ObsConfig {
        ring_capacity: RING_CAPACITY,
    });
    // Wall clock is sanctioned in crates/bench (the timing-owned module);
    // journal/metric ticks stay virtual.
    let t0 = Instant::now();
    let mut rows_scored = 0u64;
    for flow in &flows {
        match model.score_batch(flow) {
            Ok((rows, _, _)) => rows_scored += rows as u64,
            Err(e) => {
                failures.push(format!("serving burst batch failed: {e}"));
                break;
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let capture = session.finish();

    let hist = capture
        .metrics
        .histograms
        .iter()
        .find(|h| h.name == "serving.batch_ticks");
    let (p50, p95, p99) = hist.map(|h| (h.p50, h.p95, h.p99)).unwrap_or((0, 0, 0));
    if hist.map(|h| h.count).unwrap_or(0) != batches as u64 {
        failures.push(format!(
            "serving.batch_ticks observed {} batches, expected {batches}",
            hist.map(|h| h.count).unwrap_or(0)
        ));
    }
    let rows_per_sec = rows_scored as f64 / wall_secs;
    println!(
        "[serving] {batches} batches, {rows_scored} rows in {:.4}s — {:.0} rows/s \
         (floor {:.0}), tick quantiles p50={p50} p95={p95} p99={p99}",
        wall_secs, rows_per_sec, SERVING_ROWS_PER_SEC_FLOOR
    );
    if rows_per_sec < SERVING_ROWS_PER_SEC_FLOOR {
        failures.push(format!(
            "serving throughput {rows_per_sec:.0} rows/s under floor {SERVING_ROWS_PER_SEC_FLOOR}"
        ));
    }
    if p99 == 0 {
        failures.push("serving.batch_ticks p99 is zero after an instrumented burst".into());
    }
    Some(ServingProbe {
        batches,
        rows_scored,
        wall_secs,
        rows_per_sec,
        rows_per_sec_floor: SERVING_ROWS_PER_SEC_FLOOR,
        p50_ticks: p50,
        p95_ticks: p95,
        p99_ticks: p99,
    })
}
