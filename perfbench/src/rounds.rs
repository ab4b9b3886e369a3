//! The round workloads: back-to-back `FleetSim::run` rounds, and the
//! traced replay of one round through the layers' public calls.
//!
//! The replay follows a fault-free, union-off round step by step: the same
//! seeds, the same order and the same worker pool as `FleetSim`. It must
//! reproduce the round's report exactly, which the caller checks.

use crate::host::{median, now};
use crate::trace::{coverage, Span, Tracer};
use kinet_data::stream::{PeakRows, Reservoir, StreamValidity, StreamingShard};
use kinet_data::synth::TabularSynthesizer;
use kinet_data::{DataError, Table};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_eval::utility::evaluate_nids;
use kinet_fleet::resilience::validate_share;
use kinet_fleet::{schedule, FleetConfig, FleetReport, FleetSim, ModelKind, SharingPolicy};
use kinetgan::{KinetGan, KinetGanConfig};
use std::collections::BTreeSet;
use std::time::Duration;

/// Device identities in slot order, as the fleet assigns them.
const DEVICE_CYCLE: [&str; 4] = ["blink_camera", "smart_plug", "motion_sensor", "tag_manager"];

/// The report fields the replay must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub accuracy: f64,
    pub attack_recall: f64,
    pub kg_validity: f64,
    pub bytes_shared: usize,
    pub pool_rows: usize,
    pub peak_decoded_rows: usize,
}

impl Outcome {
    pub fn of(report: &FleetReport) -> Self {
        Self {
            accuracy: report.global_accuracy,
            attack_recall: report.attack_recall,
            kg_validity: report.pool_kg_validity,
            bytes_shared: report.bytes_shared,
            pool_rows: report.pool_rows,
            peak_decoded_rows: report.peak_decoded_rows,
        }
    }
}

/// Untraced back-to-back rounds.
pub struct Rounds {
    pub wall_s: Vec<f64>,
    pub failed: usize,
    /// Per committed round: the index of its config, and its report.
    pub reports: Vec<(usize, FleetReport)>,
}

impl Rounds {
    /// The last report of each config, in config order.
    pub fn last_per_config(&self, configs: usize) -> Vec<&FleetReport> {
        (0..configs)
            .filter_map(|k| self.reports.iter().rev().find(|(i, _)| *i == k))
            .map(|(_, r)| r)
            .collect()
    }
}

/// Runs rounds back to back, cycling through `cfgs`, until `budget` is
/// spent and at least `min_rounds` have run.
pub fn run_rounds(cfgs: &[FleetConfig], budget: Duration, min_rounds: usize) -> Rounds {
    let sims: Vec<FleetSim> = cfgs.iter().cloned().map(FleetSim::new).collect();
    let start = now();
    let mut out = Rounds {
        wall_s: Vec::new(),
        failed: 0,
        reports: Vec::new(),
    };
    while out.wall_s.len() < min_rounds.max(1) || start.elapsed() < budget {
        let k = out.wall_s.len() % sims.len();
        let t = now();
        let result = sims[k].run();
        out.wall_s.push(t.elapsed().as_secs_f64());
        match result {
            Ok(report) => out.reports.push((k, report)),
            Err(e) => {
                eprintln!("perfbench: round failed: {e}");
                out.failed += 1;
            }
        }
    }
    out
}

/// One device after streaming its shard.
struct Stage {
    local: Table,
    shard_rows: usize,
}

/// Replays one round of `cfg` under the tracer; spans carry `run`.
pub fn replay(cfg: &FleetConfig, tracer: &Tracer, run: u64) -> Result<Outcome, String> {
    if cfg.union.enabled || cfg.fault.enabled {
        return Err("the replay covers fault-free, union-off rounds only".into());
    }
    tracer.span("round", crate::trace::ROOT, run, |root| {
        let peak = PeakRows::new();
        let test = tracer.span("datasets.test_stream", root, run, |_| {
            LabSimulator::new(LabSimConfig {
                n_records: cfg.test_records,
                seed: cfg.seed ^ 0xfeed,
                ..LabSimConfig::default()
            })
            .generate()
            .map_err(|e| format!("test stream: {e}"))
        })?;

        let stages = tracer.span("fleet.acquire", root, run, |phase| {
            schedule::run_indexed_settled(cfg.n_devices, |d| {
                tracer.span("datasets.shard", phase, run, |_| acquire(cfg, d, &peak))
            })
        });
        let stages = stages
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("acquire: {e}"))?;

        let shares = tracer.span("fleet.prepare", root, run, |phase| {
            schedule::run_indexed_settled(cfg.n_devices, |d| {
                tracer.span("fleet.device_task", phase, run, |task| {
                    prepare(cfg, d, &stages[d], tracer, task, run)
                })
            })
        });
        let shares = shares.into_iter().collect::<Result<Vec<_>, _>>()?;

        let kg = tracer.span("kg.build", root, run, |_| LabSimulator::knowledge_graph());
        let mut pool: Option<Table> = None;
        let mut validity = StreamValidity::new();
        let mut bytes_shared = 0usize;
        for share in shares {
            let share_validity = tracer
                .span("kg.check", root, run, |_| {
                    validate_share(&share, &kg, &cfg.resilience, cfg.chunk_rows)
                })
                .map_err(|why| format!("share quarantined: {}", why.describe()))?;
            bytes_shared += tracer
                .span("data.wire", root, run, |_| {
                    let mut wire = Vec::new();
                    share.write_csv(&mut wire).map(|()| wire.len())
                })
                .map_err(|e| format!("wire encoding: {e}"))?;
            validity.absorb(&share_validity);
            tracer
                .span("data.pool", root, run, |_| match &mut pool {
                    Some(p) => p.append(&share),
                    None => {
                        pool = Some(share);
                        Ok(())
                    }
                })
                .map_err(|e| format!("pooling: {e}"))?;
        }
        let pool = pool.ok_or("no device shared any data")?;
        let eval = tracer
            .span("eval.nids", root, run, |_| {
                evaluate_nids(
                    &pool,
                    &test,
                    &test,
                    LabSimulator::label_column(),
                    &LabSimulator::attack_events(),
                )
            })
            .map_err(|e| format!("evaluation: {e}"))?;
        Ok(Outcome {
            accuracy: eval.accuracy,
            attack_recall: eval.attack_recall,
            kg_validity: validity.rate(),
            bytes_shared,
            pool_rows: pool.n_rows(),
            peak_decoded_rows: peak.peak(),
        })
    })
}

/// Streams device `d`'s shard into its working window.
fn acquire(cfg: &FleetConfig, d: usize, peak: &PeakRows) -> Result<Stage, DataError> {
    let id = cfg.member_id(d);
    let device = DEVICE_CYCLE[id as usize % DEVICE_CYCLE.len()];
    let seed = cfg.seed.wrapping_add(id.wrapping_mul(101));
    let sim = LabSimulator::new(LabSimConfig {
        n_records: cfg.rows_per_device,
        seed,
        attack_fraction: cfg.attack_fraction_for(d),
    });
    let mut shard = StreamingShard::new(
        sim.device_chunk_source(device, cfg.rows_per_device),
        cfg.chunk_rows,
        peak.clone(),
    );
    let schema = LabSimulator::schema();
    let numeric = schema.continuous_names();
    // The class vocabulary a device publishes for the condition union;
    // gathered, as the fleet does, even with the union off.
    let mut vocab = BTreeSet::new();
    let mut window = cfg
        .device_window
        .map(|cap| Reservoir::new(schema.clone(), cap, seed ^ 0x5a3d));
    let mut eager = Table::empty(schema.clone());
    shard.for_each_chunk(|chunk| -> Result<usize, DataError> {
        // The fleet's device-side integrity scan.
        for col in &numeric {
            if chunk.num_column(col)?.iter().any(|v| !v.is_finite()) {
                return Err(DataError::Parse(format!("non-finite {col} cell")));
            }
        }
        for v in chunk.cat_column(LabSimulator::label_column())? {
            if !vocab.contains(v) {
                vocab.insert(v.clone());
            }
        }
        match &mut window {
            Some(reservoir) => {
                reservoir.offer(chunk)?;
                Ok(reservoir.len())
            }
            None => {
                eager.append(chunk)?;
                Ok(eager.n_rows())
            }
        }
    })?;
    Ok(Stage {
        local: window.map_or(eager, Reservoir::into_table),
        shard_rows: shard.rows_seen(),
    })
}

/// Produces device `d`'s share: its raw window, or a KiNETGAN release.
fn prepare(
    cfg: &FleetConfig,
    d: usize,
    stage: &Stage,
    tracer: &Tracer,
    task: u64,
    run: u64,
) -> Result<Table, String> {
    let seed = cfg.seed.wrapping_add(cfg.member_id(d).wrapping_mul(101));
    match &cfg.policy {
        SharingPolicy::Raw => Ok(stage.local.clone()),
        SharingPolicy::Synthetic(ModelKind::KinetGan) => {
            let mcfg = KinetGanConfig::small_shard()
                .with_epochs(cfg.model_epochs)
                .with_seed(seed);
            let mut model = KinetGan::new(mcfg, LabSimulator::knowledge_graph());
            tracer
                .span("core.fit", task, run, |_| model.fit(&stage.local))
                .map_err(|e| format!("device {d} fit: {e}"))?;
            let n_release = cfg.release_rows.unwrap_or(stage.shard_rows);
            tracer
                .span("core.sample", task, run, |_| {
                    model.sample(n_release, seed ^ 1)
                })
                .map_err(|e| format!("device {d} sample: {e}"))
        }
        other => Err(format!("the replay does not cover policy {other:?}")),
    }
}

/// Per-round figures read off one replay's spans.
pub struct RoundTrace {
    pub wall_s: f64,
    pub shard_sum_s: f64,
    pub shard_max_s: f64,
    pub fit_s: f64,
    pub sample_s: f64,
    pub kg_check_s: f64,
    pub eval_s: f64,
    /// 1 − device-task busy time ÷ (workers × phase wall time), over the
    /// acquire and prepare phases.
    pub worker_idle_share: f64,
    pub coverage: f64,
}

impl RoundTrace {
    pub fn of(spans: &[Span], run: u64, workers: usize) -> Option<Self> {
        let spans: Vec<Span> = spans.iter().filter(|s| s.run == run).cloned().collect();
        let root = spans.iter().find(|s| s.name == "round")?;
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::secs)
                .fold(0.0, |a, b| a + b)
        };
        let shards: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "datasets.shard")
            .map(Span::secs)
            .collect();
        let mut busy = 0.0;
        let mut capacity = 0.0;
        for phase in spans
            .iter()
            .filter(|s| s.name == "fleet.acquire" || s.name == "fleet.prepare")
        {
            busy += spans
                .iter()
                .filter(|s| s.parent == phase.id)
                .map(Span::secs)
                .sum::<f64>();
            capacity += workers as f64 * phase.secs();
        }
        Some(Self {
            wall_s: root.secs(),
            shard_sum_s: shards.iter().sum(),
            shard_max_s: shards.iter().copied().fold(0.0, f64::max),
            fit_s: total("core.fit"),
            sample_s: total("core.sample"),
            kg_check_s: total("kg.check"),
            eval_s: total("eval.nids"),
            worker_idle_share: if capacity > 0.0 {
                1.0 - busy / capacity
            } else {
                0.0
            },
            coverage: coverage(&spans, root),
        })
    }
}

/// Median of one field over several rounds' traces.
pub fn median_of(traces: &[RoundTrace], f: impl Fn(&RoundTrace) -> f64) -> f64 {
    median(&mut traces.iter().map(f).collect::<Vec<_>>())
}
