//! The flow-serving client: a detector model trained in setup, answering
//! lab flow batches sent on an open-loop schedule.
//!
//! Batch `i` of a phase is *due* at `phase start + i / rate`, whatever the
//! scorer is doing. The client waits for the due time, sends, and times
//! the answer from the due time, so a stall also charges the batches queued
//! behind it.

use crate::host::{now, quantile};
use crate::Size;
use kinet_data::Table;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_fleet::ServingModel;
use kinet_nids::{FlowScorer, FlowVerdict};
use std::time::Duration;

/// A batch answered later than this after its due time misses the SLA.
pub const SLA_US: f64 = 1000.0;

/// Tail latency is taken per window of this many seconds of due times,
/// and the median over windows reported: a rare host stall then moves one
/// window, while a stall the program causes every round moves them all.
const WINDOW_S: f64 = 0.5;

/// The round in flight when the client scores; the scorer's model is
/// installed at round 0, so every answer is fresh.
const ROUND: usize = 0;

/// The serving inputs, built in setup.
pub struct ServeSetup {
    scorer: FlowScorer,
    batches: Vec<Table>,
    /// The verdict computed for each batch in setup; every later answer
    /// for that batch must equal it.
    expected: Vec<FlowVerdict>,
}

impl ServeSetup {
    /// Trains the scorer's model on a seeded lab pool, generates the flow
    /// batches and scores each once (the reference verdicts, and warm-up).
    pub fn build(seed: u64, size: &Size) -> Result<Self, String> {
        let pool = LabSimulator::new(LabSimConfig::small(size.scorer_pool_rows, seed ^ 0x5e7e))
            .generate()
            .map_err(|e| format!("scorer pool: {e}"))?;
        let model = ServingModel::train(&pool, size.scorer_epochs, seed)
            .map_err(|e| format!("scorer model: {e}"))?;
        let mut scorer = FlowScorer::empty();
        scorer.install(model, 1, ROUND);
        let batches = (0..size.flow_batches as u64)
            .map(|i| {
                LabSimulator::new(LabSimConfig::small(
                    size.batch_rows,
                    seed ^ 0xf10e ^ i.wrapping_mul(0x9e37_79b9),
                ))
                .generate()
                .map_err(|e| format!("flow batch {i}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let expected = batches
            .iter()
            .map(|b| match scorer.score(b, ROUND) {
                Ok(Some(v)) => Ok(v),
                Ok(None) => Err("setup scorer has no model installed".to_string()),
                Err(e) => Err(format!("setup scoring: {e}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scorer,
            batches,
            expected,
        })
    }

    /// Runs one open-loop phase at `rate` batches/s. Batches stop falling
    /// due after `duration`, or later while `keep_going()` holds.
    pub fn run_phase(&self, rate: f64, duration: Duration, keep_going: &dyn Fn() -> bool) -> Phase {
        let mut phase = Phase {
            rate,
            ..Phase::default()
        };
        let start = now();
        let mut i = 0usize;
        loop {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if due - start >= duration && !keep_going() {
                break;
            }
            let mut sent = now();
            while sent < due {
                std::hint::spin_loop();
                sent = now();
            }
            let k = i % self.batches.len();
            let answer = self.scorer.score(&self.batches[k], ROUND);
            let done = now();
            let ok = matches!(&answer, Ok(Some(v)) if *v == self.expected[k]);
            let latency_us = (done - due).as_secs_f64() * 1e6;
            let score_us = (done - sent).as_secs_f64() * 1e6;
            phase.latency_us.push(latency_us);
            phase.score_us.push(score_us);
            phase.late_max_us = phase.late_max_us.max((sent - due).as_secs_f64() * 1e6);
            if ok {
                phase.rows += self.batches[k].n_rows();
                if latency_us <= SLA_US {
                    phase.within_sla += 1;
                }
            } else {
                phase.failed += 1;
            }
            i += 1;
        }
        phase
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct Phase {
    /// Batches per second.
    pub rate: f64,
    /// Per batch: answer time minus due time.
    pub latency_us: Vec<f64>,
    /// Per batch: time inside `FlowScorer::score`.
    pub score_us: Vec<f64>,
    /// How late the client sent, at worst.
    pub late_max_us: f64,
    /// Rows in batches answered correctly.
    pub rows: usize,
    /// Batches answered correctly within [`SLA_US`] of their due time.
    pub within_sla: usize,
    /// Batches that errored, went unanswered or disagreed with setup.
    pub failed: usize,
}

impl Phase {
    pub fn due(&self) -> usize {
        self.latency_us.len()
    }

    pub fn latency_q(&self, q: f64) -> f64 {
        quantile(&mut self.latency_us.clone(), q)
    }

    /// Median over [`WINDOW_S`] windows of each window's `q` quantile;
    /// a trailing window under half full is left out.
    pub fn windowed_latency_q(&self, q: f64) -> f64 {
        let n = ((self.rate * WINDOW_S) as usize).max(1);
        let mut per_window: Vec<f64> = self
            .latency_us
            .chunks(n)
            .filter(|w| w.len() * 2 >= n)
            .map(|w| quantile(&mut w.to_vec(), q))
            .collect();
        crate::host::median(&mut per_window)
    }
}

/// Light then heavy phase, as one serving run.
pub struct Serving {
    pub light: Phase,
    pub heavy: Phase,
}

impl Serving {
    pub fn due(&self) -> usize {
        self.light.due() + self.heavy.due()
    }

    pub fn failed(&self) -> usize {
        self.light.failed + self.heavy.failed
    }

    pub fn rows(&self) -> usize {
        self.light.rows + self.heavy.rows
    }

    pub fn sla_share(&self) -> f64 {
        (self.light.within_sla + self.heavy.within_sla) as f64 / self.due().max(1) as f64
    }

    fn both(&self, f: impl Fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
        f(&self.light)
            .iter()
            .chain(f(&self.heavy))
            .copied()
            .collect()
    }

    /// Time inside the scorer, quantile `q` over both phases.
    pub fn score_q(&self, q: f64) -> f64 {
        quantile(&mut self.both(|p| &p.score_us), q)
    }

    /// Latency minus score time: how long batches waited, quantile `q`.
    pub fn queue_q(&self, q: f64) -> f64 {
        let mut queue: Vec<f64> = self
            .both(|p| &p.latency_us)
            .iter()
            .zip(self.both(|p| &p.score_us))
            .map(|(l, s)| l - s)
            .collect();
        quantile(&mut queue, q)
    }

    pub fn late_max_us(&self) -> f64 {
        self.light.late_max_us.max(self.heavy.late_max_us)
    }
}
