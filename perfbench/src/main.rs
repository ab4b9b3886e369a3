//! `perfbench` — the repository's benchmark: three workloads over the
//! KiNETGAN fleet, each in its own process.
//!
//! ```text
//! perfbench --workload table1_round|fleet_stream|serve_under_train
//!           [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//!           [--expect-table1 ACC,RECALL,VALIDITY] [--out-dir DIR]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` a
//! separate traced run prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Any failed output check sets `correct` to false and exits with code 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod host;
mod rounds;
mod serve;
mod service;
mod trace;

use host::{json_str, median, now, peak_rss_mb, Host};
use kinet_fleet::{
    FleetConfig, ModelKind, ServiceConfig, ServiceReport, ServingConfig, SharingPolicy,
};
use kinet_obs::metrics::{
    DATA_CHUNKS_DECODED, DATA_PEAK_DECODED_ROWS, SERVICE_ROUNDS_COMMITTED, SERVING_ROWS_SCORED,
    SNAPSHOT_BYTES_WRITTEN,
};
use kinetgan::KinetGanConfig;
use rounds::{median_of, Outcome, RoundTrace};
use serve::{ServeSetup, Serving};
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

/// Table 1 of the paper, as this repository reproduces it at seed 42:
/// accuracy, attack recall and KG validity of the synthetic round.
const TABLE1_SEED42: [f64; 3] = [0.811, 0.849, 0.630];

/// Detection quality depends on the seed, and across seeds KG validity
/// is bimodal (near 0.6 or near 0.8 on `table1_round`), so the reported
/// quality is the mean over this many independent seeds, the first being
/// the workload seed.
const QUALITY_SEEDS: u64 = 4;

/// The traced replay must account for at least this share of a round's
/// wall time, or its layer breakdown misses work.
const MIN_COVERAGE: f64 = 0.9;

/// Setup is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Table1Round,
    FleetStream,
    ServeUnderTrain,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Table1Round,
        Workload::FleetStream,
        Workload::ServeUnderTrain,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Table1Round => "table1_round",
            Workload::FleetStream => "fleet_stream",
            Workload::ServeUnderTrain => "serve_under_train",
        }
    }
}

/// Input sizes: `full` is the benchmark, `tiny` is for the self-test.
pub struct Size {
    pub tiny: bool,
    pub scorer_pool_rows: usize,
    pub scorer_epochs: usize,
    pub flow_batches: usize,
    pub batch_rows: usize,
    /// Batches per second in the light and heavy serving phases.
    pub light_rate: f64,
    pub heavy_rate: f64,
}

impl Size {
    fn new(tiny: bool) -> Self {
        if tiny {
            Self {
                tiny,
                scorer_pool_rows: 300,
                scorer_epochs: 5,
                flow_batches: 8,
                batch_rows: 32,
                light_rate: 500.0,
                heavy_rate: 1000.0,
            }
        } else {
            Self {
                tiny,
                scorer_pool_rows: 2000,
                scorer_epochs: ServingConfig::default().train_epochs,
                flow_batches: 64,
                batch_rows: 128,
                light_rate: 4000.0,
                heavy_rate: 8000.0,
            }
        }
    }

    /// The round a round workload repeats.
    fn fleet_config(&self, workload: Workload, seed: u64) -> FleetConfig {
        match (workload, self.tiny) {
            // The paper's deployment, as `sim_gate` runs it.
            (Workload::Table1Round, false) => FleetConfig {
                n_devices: 4,
                rows_per_device: 500,
                test_records: 800,
                policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
                model_epochs: 60,
                seed,
                ..FleetConfig::default()
            },
            (Workload::Table1Round, true) => FleetConfig {
                n_devices: 2,
                rows_per_device: 120,
                test_records: 200,
                policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
                model_epochs: 2,
                seed,
                ..FleetConfig::default()
            },
            (_, tiny) => FleetConfig {
                n_devices: if tiny { 4 } else { 64 },
                rows_per_device: if tiny { 600 } else { 5000 },
                chunk_rows: if tiny { 128 } else { 512 },
                device_window: Some(if tiny { 32 } else { 128 }),
                test_records: if tiny { 200 } else { 600 },
                policy: SharingPolicy::Raw,
                seed,
                ..FleetConfig::default()
            },
        }
    }

    /// The resident service of `serve_under_train`: one Table-1 round per
    /// service run, each run on a fresh store.
    fn service_config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig {
            fleet: self.fleet_config(Workload::Table1Round, seed),
            rounds: 1,
            serving: if self.tiny {
                ServingConfig::enabled(1, 32)
            } else {
                ServingConfig::enabled(4, 128)
            },
            ..ServiceConfig::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    expect_table1: Option<[f64; 3]>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Table1Round,
        seed: 42,
        seconds: 30.0,
        trace: false,
        size: Size::new(false),
        expect_table1: None,
        out_dir: PathBuf::from(".bench_build/perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::new(false),
                    "tiny" => Size::new(true),
                    other => return Err(format!("unknown size {other:?}")),
                }
            }
            "--expect-table1" => {
                let vals = value.split(',').map(num).collect::<Result<Vec<_>, _>>()?;
                let vals: [f64; 3] = vals
                    .try_into()
                    .map_err(|_| "--expect-table1 takes ACC,RECALL,VALIDITY".to_string())?;
                args.expect_table1 = Some(vals);
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Metrics in print order, with failed checks and operation counts.
#[derive(Default)]
struct Results {
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
    attempted: usize,
    failed_ops: usize,
}

impl Results {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed_ops + self.failures.len(),
            metrics.join(", ")
        )
    }
}

fn put_round(res: &mut Results, round_s: f64, [accuracy, recall, validity]: [f64; 3]) {
    res.put("round_s", round_s, "s");
    res.put("accuracy", accuracy, "ratio");
    res.put("attack_recall", recall, "ratio");
    res.put("kg_validity", validity, "ratio");
}

/// End-to-end serving metrics.
fn put_serving(res: &mut Results, serving: &Serving) {
    res.put("serve_p50_us.light", serving.light.latency_q(0.50), "us");
    res.put("serve_p50_us.heavy", serving.heavy.latency_q(0.50), "us");
    res.put("serve_sla_share", serving.sla_share(), "ratio");
}

fn count_serving(res: &mut Results, serving: &Serving) {
    res.attempted += serving.due();
    res.failed_ops += serving.failed();
    res.check(serving.failed() == 0, || {
        format!(
            "{} flow batch(es) errored, went unanswered or disagreed with setup",
            serving.failed()
        )
    });
}

/// Per-layer figures of a traced run. A layer the run does not reach
/// keeps its 0.
#[derive(Default)]
struct Layers {
    shard_s: f64,
    shard_max_s: f64,
    chunks_decoded: f64,
    peak_decoded_rows: f64,
    fit_s: f64,
    fit_step_us: f64,
    sample_s: f64,
    kg_valid_ratio: f64,
    kg_check_s: f64,
    eval_nids_s: f64,
    worker_idle_share: f64,
    thread_speedup: f64,
    rows_scored: f64,
    rounds_committed: f64,
    snapshot_bytes: f64,
    load_latest_s: f64,
    coverage: f64,
    overhead_s: f64,
}

fn put_layers(res: &mut Results, l: &Layers, serving: &Serving) {
    res.put("datasets.shard_s", l.shard_s, "s");
    res.put("datasets.shard_max_s", l.shard_max_s, "s");
    res.put("data.chunks_decoded", l.chunks_decoded, "count");
    res.put("data.peak_decoded_rows", l.peak_decoded_rows, "rows");
    res.put("core.fit_s", l.fit_s, "s");
    res.put("core.fit_step_us", l.fit_step_us, "us");
    res.put("core.sample_s", l.sample_s, "s");
    res.put("kg.valid_ratio", l.kg_valid_ratio, "ratio");
    res.put("kg.check_s", l.kg_check_s, "s");
    res.put("eval.nids_s", l.eval_nids_s, "s");
    res.put("fleet.worker_idle_share", l.worker_idle_share, "ratio");
    res.put("fleet.thread_speedup", l.thread_speedup, "ratio");
    for (name, phase, q) in [
        ("serve.p90_us.light", &serving.light, 0.90),
        ("serve.p99_us.light", &serving.light, 0.99),
        ("serve.p90_us.heavy", &serving.heavy, 0.90),
        ("serve.p99_us.heavy", &serving.heavy, 0.99),
    ] {
        res.put(name, phase.windowed_latency_q(q), "us");
    }
    res.put("nids.score_us.p50", serving.score_q(0.50), "us");
    res.put("nids.score_us.p99", serving.score_q(0.99), "us");
    res.put("serve.queue_us.p50", serving.queue_q(0.50), "us");
    res.put("serve.queue_us.p99", serving.queue_q(0.99), "us");
    res.put("serve.generator_late_us.max", serving.late_max_us(), "us");
    res.put("serve.rows_scored", l.rows_scored, "rows");
    res.put("service.rounds_committed", l.rounds_committed, "count");
    res.put("storage.snapshot_bytes", l.snapshot_bytes, "bytes");
    res.put("storage.load_latest_s", l.load_latest_s, "s");
    res.put("trace.coverage", l.coverage, "ratio");
    res.put("trace.overhead_s", l.overhead_s, "s");
}

/// Checks a round against the pinned Table-1 figures.
fn check_table1(res: &mut Results, pin: Option<[f64; 3]>, got3: [f64; 3]) {
    let Some(pin) = pin else { return };
    let ok = pin.iter().zip(got3).all(|(p, g)| (p - g).abs() < 5e-4);
    res.check(ok, || {
        format!(
            "Table-1 figures (acc, recall, validity) = ({:.3}, {:.3}, {:.3}), pinned {pin:?}",
            got3[0], got3[1], got3[2]
        )
    });
}

/// Rounds of one config must all report the same fingerprint.
fn check_rounds(res: &mut Results, rounds: &rounds::Rounds) {
    res.attempted += rounds.wall_s.len();
    res.failed_ops += rounds.failed;
    res.check(rounds.failed == 0, || {
        format!("{} round(s) failed", rounds.failed)
    });
    let same = rounds.reports.iter().all(|(k, r)| {
        let first = rounds.reports.iter().find(|(i, _)| i == k).map(|(_, f)| f);
        first.map(|f| f.deterministic_fingerprint()) == Some(r.deterministic_fingerprint())
    });
    res.check(same, || {
        "rounds of one config reported different fingerprints".into()
    });
}

/// Mean accuracy, attack recall and KG validity over `outcomes`.
fn mean_quality(outcomes: &[[f64; 3]]) -> [f64; 3] {
    let n = outcomes.len().max(1) as f64;
    let mut mean = [0.0; 3];
    for o in outcomes {
        for (m, v) in mean.iter_mut().zip(o) {
            *m += v / n;
        }
    }
    mean
}

/// The seeds quality is averaged over: the workload seed first, then
/// independent seeds derived from it.
fn quality_seeds(seed: u64, traced: bool) -> Vec<u64> {
    let n = if traced { 1 } else { QUALITY_SEEDS };
    (0..n)
        .map(|k| seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect()
}

fn round_workload(args: &Args, serve: &ServeSetup, res: &mut Results, pin: Option<[f64; 3]>) {
    let cfgs: Vec<FleetConfig> = quality_seeds(args.seed, args.trace)
        .into_iter()
        .map(|seed| args.size.fleet_config(args.workload, seed))
        .collect();
    let cfg = &cfgs[0];
    let budget = Duration::from_secs_f64(args.seconds);
    let rounds_share = if args.trace { 0.2 } else { 0.6 };
    let rounds = rounds::run_rounds(&cfgs, budget.mul_f64(rounds_share), cfgs.len());
    check_rounds(res, &rounds);
    let outcomes: Vec<Outcome> = rounds
        .last_per_config(cfgs.len())
        .into_iter()
        .map(Outcome::of)
        .collect();
    if outcomes.len() < cfgs.len() {
        res.check(false, || "a config committed no round".into());
        return;
    }
    let outcome = outcomes[0].clone();
    let quality: Vec<[f64; 3]> = outcomes
        .iter()
        .map(|o| [o.accuracy, o.attack_recall, o.kg_validity])
        .collect();
    check_table1(res, pin, quality[0]);
    if let Some(bound) = cfg.device_window.map(|w| w + cfg.chunk_rows) {
        let peak = outcomes.iter().map(|o| o.peak_decoded_rows).max();
        res.check(peak <= Some(bound), || {
            format!("peak decoded rows {peak:?} > chunk + window {bound}")
        });
    }
    let round_s = median(&mut rounds.wall_s.clone());

    if !args.trace {
        let serving = serve_tail(args, serve, budget);
        put_round(res, round_s, mean_quality(&quality));
        put_serving(res, &serving);
        count_serving(res, &serving);
        return;
    }

    // Traced: replay rounds at 2 workers and at 1, then the serving tail,
    // all inside this process's one observability session.
    let session = kinet_obs::start(kinet_obs::ObsConfig::default());
    let tracer = Tracer::new();
    let workers = kinet_tensor::pool::num_threads().min(cfg.n_devices);
    let replay_budget = budget.mul_f64(0.4);
    let start = now();
    let (mut two, mut one) = (Vec::new(), Vec::new());
    let mut run = 0u64;
    while two.is_empty() || start.elapsed() < replay_budget {
        for single in [false, true] {
            run += 1;
            let t = now();
            let replayed = if single {
                kinet_tensor::with_threads(1, || rounds::replay(cfg, &tracer, run))
            } else {
                rounds::replay(cfg, &tracer, run)
            };
            let wall = t.elapsed().as_secs_f64();
            res.attempted += 1;
            match replayed {
                Ok(got) => res.check(got == outcome, || {
                    format!("replay {run} gave {got:?}, the round reported {outcome:?}")
                }),
                Err(e) => {
                    res.failed_ops += 1;
                    res.check(false, || format!("replay {run}: {e}"));
                }
            }
            if single {
                one.push(wall);
            } else {
                two.push(run);
            }
        }
    }
    let chunks = DATA_CHUNKS_DECODED.current_value() as f64 / run as f64;
    let peak = DATA_PEAK_DECODED_ROWS.current_value() as usize;
    let serving = serve_tail(args, serve, budget);
    let rows_scored = SERVING_ROWS_SCORED.current_value() as usize;
    let service_commits = SERVICE_ROUNDS_COMMITTED.current_value();
    drop(session.finish());

    let chunk_rounds = cfg.rows_per_device.div_ceil(cfg.chunk_rows) * cfg.n_devices;
    res.check(chunks == chunk_rounds as f64, || {
        format!("{chunks} chunks decoded per round, expected {chunk_rounds}")
    });
    res.check(peak == outcome.peak_decoded_rows, || {
        format!(
            "obs peak {peak} != report peak {}",
            outcome.peak_decoded_rows
        )
    });
    res.check(rows_scored == serving.rows(), || {
        format!(
            "obs rows scored {rows_scored} != client rows {}",
            serving.rows()
        )
    });
    res.check(service_commits == 0, || "no service runs here".into());
    count_serving(res, &serving);

    let spans = tracer.recorded();
    let traces: Vec<RoundTrace> = two
        .iter()
        .filter_map(|run| RoundTrace::of(&spans, *run, workers))
        .collect();
    let traced_round_s = median_of(&traces, |t| t.wall_s);
    let fit_s = median_of(&traces, |t| t.fit_s);
    let coverage = median_of(&traces, |t| t.coverage);
    res.check(coverage >= MIN_COVERAGE, || {
        format!("the trace covers {coverage:.3} of the round's wall time, under {MIN_COVERAGE}")
    });
    let layers = Layers {
        shard_s: median_of(&traces, |t| t.shard_sum_s),
        shard_max_s: median_of(&traces, |t| t.shard_max_s),
        chunks_decoded: chunks,
        peak_decoded_rows: peak as f64,
        fit_s,
        fit_step_us: match cfg.policy {
            SharingPolicy::Synthetic(_) => {
                let batch = KinetGanConfig::small_shard().batch_size;
                let steps = cfg.n_devices * cfg.model_epochs * cfg.rows_per_device.div_ceil(batch);
                fit_s / steps as f64 * 1e6
            }
            _ => 0.0,
        },
        sample_s: median_of(&traces, |t| t.sample_s),
        kg_valid_ratio: outcome.kg_validity,
        kg_check_s: median_of(&traces, |t| t.kg_check_s),
        eval_nids_s: median_of(&traces, |t| t.eval_s),
        worker_idle_share: median_of(&traces, |t| t.worker_idle_share),
        thread_speedup: median(&mut one) / traced_round_s,
        rows_scored: rows_scored as f64,
        coverage,
        overhead_s: traced_round_s - round_s,
        ..Layers::default()
    };
    put_layers(res, &layers, &serving);
    write_spans(args, &spans);
}

/// The round workloads' serving tail: the setup scorer on an otherwise
/// idle process, light then heavy, a fifth of the run each.
fn serve_tail(args: &Args, serve: &ServeSetup, budget: Duration) -> Serving {
    let phase = budget.mul_f64(0.2);
    Serving {
        light: serve.run_phase(args.size.light_rate, phase, &|| false),
        heavy: serve.run_phase(args.size.heavy_rate, phase, &|| false),
    }
}

/// Accuracy, recall and validity of the last committed round of `report`.
fn last_committed(report: &ServiceReport) -> Option<[f64; 3]> {
    let round = report
        .rounds
        .iter()
        .rev()
        .find(|r| r.fleet_fingerprint.is_some())?;
    let validity = round
        .fleet_fingerprint
        .as_deref()?
        .split_whitespace()
        .find_map(|f| f.strip_prefix("validity="))?
        .parse()
        .ok()?;
    Some([round.global_accuracy?, round.attack_recall?, validity])
}

/// Every service run commits every scheduled round; runs of one config
/// report the same fingerprint; the last store reloads its generation.
fn check_service(res: &mut Results, rounds: usize, runs: &service::ServiceRuns) {
    res.attempted += runs.runs * rounds;
    let uncommitted = runs.runs * rounds - runs.committed();
    res.failed_ops += uncommitted;
    res.check(uncommitted == 0 && runs.errors.is_empty(), || {
        format!(
            "service committed {} of {} scheduled rounds; errors: {:?}",
            runs.committed(),
            runs.runs * rounds,
            runs.errors
        )
    });
    let same = runs.reports.iter().all(|(k, _, r)| {
        let first = runs.reports.iter().find(|(i, _, _)| i == k);
        first.map(|(_, _, f)| f.deterministic_fingerprint()) == Some(r.deterministic_fingerprint())
    });
    res.check(same, || {
        "service runs of one config reported different fingerprints".into()
    });
    res.check(runs.reloaded_generation == Some(rounds as u64), || {
        format!(
            "restart reload found generation {:?}, expected {rounds}",
            runs.reloaded_generation
        )
    });
}

fn serve_workload(
    args: &Args,
    serve: &ServeSetup,
    res: &mut Results,
    pin: Option<[f64; 3]>,
    store_root: &Path,
) {
    if kinet_tensor::pool::num_threads() < 2 {
        res.check(false, || {
            "serve_under_train needs KINET_THREADS >= 2".into()
        });
        return;
    }
    let cfgs: Vec<ServiceConfig> = quality_seeds(args.seed, args.trace)
        .into_iter()
        .map(|seed| args.size.service_config(seed))
        .collect();
    let rounds = cfgs[0].rounds;
    let budget = Duration::from_secs_f64(args.seconds);
    let first_share = if args.trace { 1.0 / 3.0 } else { 1.0 };
    let untraced = service::run_block(
        &cfgs,
        serve,
        &args.size,
        budget.mul_f64(first_share),
        store_root,
        None,
    );
    check_service(res, rounds, &untraced.service);
    count_serving(res, &untraced.serving);
    let quality: Vec<[f64; 3]> = (0..cfgs.len())
        .filter_map(|k| {
            let runs = &untraced.service.reports;
            let (_, _, report) = runs.iter().rev().find(|(i, _, _)| *i == k)?;
            last_committed(report)
        })
        .collect();
    if quality.len() < cfgs.len() {
        res.check(false, || "a config committed no round to report".into());
        return;
    }
    check_table1(res, pin, quality[0]);

    if !args.trace {
        put_round(res, untraced.service.round_s(), mean_quality(&quality));
        put_serving(res, &untraced.serving);
        return;
    }

    let session = kinet_obs::start(kinet_obs::ObsConfig::default());
    let tracer = Tracer::new();
    let traced = service::run_block(
        &cfgs,
        serve,
        &args.size,
        budget.mul_f64(1.0 - first_share),
        store_root,
        Some((&tracer, 1)),
    );
    let rows_scored = SERVING_ROWS_SCORED.current_value() as usize;
    let commits = SERVICE_ROUNDS_COMMITTED.current_value() as usize;
    let snapshot_bytes = SNAPSHOT_BYTES_WRITTEN.current_value() as f64;
    let chunks = DATA_CHUNKS_DECODED.current_value() as f64;
    let peak = DATA_PEAK_DECODED_ROWS.current_value() as f64;
    drop(session.finish());
    check_service(res, rounds, &traced.service);
    count_serving(res, &traced.serving);

    let service_rows: usize = traced
        .service
        .reports
        .iter()
        .map(|(_, _, r)| r.serving_rows())
        .sum();
    res.check(rows_scored == traced.serving.rows() + service_rows, || {
        format!(
            "obs rows scored {rows_scored} != client {} + service {service_rows}",
            traced.serving.rows()
        )
    });
    res.check(commits == traced.service.committed(), || {
        format!(
            "obs rounds committed {commits} != service reports {}",
            traced.service.committed()
        )
    });
    let spans = tracer.recorded();
    let rounds = commits.max(1) as f64;
    // The fleet layers run inside `FleetService::run`, out of reach of
    // spans placed from outside; they keep their 0.
    let layers = Layers {
        chunks_decoded: chunks / rounds,
        peak_decoded_rows: peak,
        kg_valid_ratio: quality[0][2],
        rows_scored: rows_scored as f64,
        rounds_committed: commits as f64,
        snapshot_bytes: snapshot_bytes / rounds,
        load_latest_s: traced.service.load_latest_s,
        coverage: spans
            .iter()
            .find(|s| s.name == "serve.block")
            .map_or(0.0, |root| trace::coverage(&spans, root)),
        overhead_s: traced.service.round_s() - untraced.service.round_s(),
        ..Layers::default()
    };
    put_layers(res, &layers, &traced.serving);
    write_spans(args, &spans);
}

fn write_spans(args: &Args, spans: &[trace::Span]) {
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = trace::write_spans(&path, spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() {
    let process_start = now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let store_root = args.out_dir.join(format!("stores-{}", std::process::id()));
    let mut res = Results::default();

    // Setup, repeated; the first one includes process start.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut serve = None;
    for i in 0..SETUP_REPEATS {
        let t = if i == 0 { process_start } else { now() };
        let built = std::fs::create_dir_all(&store_root)
            .map_err(|e| format!("store root: {e}"))
            .and_then(|()| ServeSetup::build(args.seed, &args.size));
        match built {
            Ok(s) => serve = Some(s),
            Err(e) => {
                eprintln!("perfbench: setup failed: {e}");
                std::process::exit(1);
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let serve = serve.expect("setup ran at least once");
    let setup_s = median(&mut setup_times);

    // Both the round workload and the service's round reproduce Table 1.
    let pin = args
        .expect_table1
        .or(
            (args.workload != Workload::FleetStream && !args.size.tiny && args.seed == 42)
                .then_some(TABLE1_SEED42),
        );
    match args.workload {
        Workload::Table1Round | Workload::FleetStream => {
            round_workload(&args, &serve, &mut res, pin)
        }
        Workload::ServeUnderTrain => serve_workload(&args, &serve, &mut res, pin, &store_root),
    }
    let _ = std::fs::remove_dir_all(&store_root);

    if !args.trace {
        let ok_share = 1.0 - res.failed_ops as f64 / res.attempted.max(1) as f64;
        res.metrics.insert(0, ("setup_s", setup_s, "s"));
        res.put("peak_rss_mb", peak_rss_mb(), "MB");
        res.put("success_share", ok_share, "ratio");
    }

    let host = Host::probe();
    let result = res.json();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"failures\": [{}], \"result\": {result}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        res.failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let path = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    for f in &res.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    println!("host: {}", host.to_json());
    for (name, value, unit) in &res.metrics {
        println!("{name:<28} {value:>14.6} {unit}");
    }
    println!("{result}");
    if !res.failures.is_empty() {
        std::process::exit(1);
    }
}
