//! `serve_under_train`: a resident `FleetService` trains and commits
//! rounds on one worker while an open-loop client scores flow batches on
//! the other, both as settled tasks on the program's own pool.

use crate::host::now;
use crate::serve::{ServeSetup, Serving};
use crate::trace::{Tracer, ROOT};
use crate::Size;
use kinet_fleet::{
    schedule, DirStorage, FleetService, ServiceConfig, ServiceReport, SnapshotStore,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What the service task measured in one block.
pub struct ServiceRuns {
    /// `FleetService::run` calls made.
    pub runs: usize,
    /// Per successful run: the index of its config, its wall time and
    /// its report.
    pub reports: Vec<(usize, f64, ServiceReport)>,
    pub errors: Vec<String>,
    /// `SnapshotStore::load_latest` over the last run's store, reopened
    /// as a restarted service would.
    pub load_latest_s: f64,
    /// Generation that reload found.
    pub reloaded_generation: Option<u64>,
}

impl ServiceRuns {
    pub fn committed(&self) -> usize {
        self.reports
            .iter()
            .map(|(_, _, r)| r.committed_rounds)
            .sum()
    }

    /// Median over service runs of run wall time ÷ rounds it committed.
    pub fn round_s(&self) -> f64 {
        let mut per_round: Vec<f64> = self
            .reports
            .iter()
            .map(|(_, wall, r)| wall / r.committed_rounds.max(1) as f64)
            .collect();
        crate::host::median(&mut per_round)
    }
}

pub struct Block {
    pub service: ServiceRuns,
    pub serving: Serving,
}

enum Task {
    Service(ServiceRuns),
    Client(Serving),
}

/// Runs the service and the client side by side for `budget`. Service
/// runs cycle through `cfgs`, at least one run per config; the service
/// starts no new run once `budget` is spent and every config has run.
/// The client keeps sending at the heavy rate until the service has
/// stopped, so every service round runs beside it.
pub fn run_block(
    cfgs: &[ServiceConfig],
    serve: &ServeSetup,
    size: &Size,
    budget: Duration,
    store_root: &Path,
    tracer: Option<(&Tracer, u64)>,
) -> Block {
    let service_done = AtomicBool::new(false);
    let start = now();
    let mut tasks = schedule::run_indexed_settled(2, |task| {
        if task == 0 {
            let runs = run_service(cfgs, start, budget, store_root, tracer);
            service_done.store(true, Ordering::SeqCst);
            Task::Service(runs)
        } else {
            let light = serve.run_phase(size.light_rate, budget / 2, &|| false);
            let heavy = serve.run_phase(size.heavy_rate, budget / 2, &|| {
                !service_done.load(Ordering::SeqCst)
            });
            Task::Client(Serving { light, heavy })
        }
    });
    let (Some(Task::Client(serving)), Some(Task::Service(service))) = (tasks.pop(), tasks.pop())
    else {
        unreachable!("task 0 is the service, task 1 the client");
    };
    Block { service, serving }
}

fn run_service(
    cfgs: &[ServiceConfig],
    start: Instant,
    budget: Duration,
    store_root: &Path,
    tracer: Option<(&Tracer, u64)>,
) -> ServiceRuns {
    let mut out = ServiceRuns {
        runs: 0,
        reports: Vec::new(),
        errors: Vec::new(),
        load_latest_s: 0.0,
        reloaded_generation: None,
    };
    let span = |name: &'static str, parent: u64, f: &mut dyn FnMut(u64)| match tracer {
        Some((t, run)) => t.span(name, parent, run, f),
        None => f(ROOT),
    };
    let mut last_dir: Option<PathBuf> = None;
    span("serve.block", ROOT, &mut |block| {
        while out.runs < cfgs.len() || start.elapsed() < budget {
            let k = out.runs % cfgs.len();
            let dir = store_root.join(format!("store-{}", out.runs));
            out.runs += 1;
            let _ = std::fs::remove_dir_all(&dir);
            if let Some(prev) = last_dir.replace(dir.clone()) {
                let _ = std::fs::remove_dir_all(prev);
            }
            let mut store = match DirStorage::open(&dir) {
                Ok(storage) => SnapshotStore::new(Box::new(storage)),
                Err(e) => {
                    out.errors.push(format!("store: {e}"));
                    break;
                }
            };
            let t = now();
            let mut result = None;
            span("fleet.service_run", block, &mut |_| {
                result = Some(FleetService::new(cfgs[k].clone()).run(&mut store));
            });
            let wall = t.elapsed().as_secs_f64();
            match result.expect("the span ran its body") {
                Ok(report) => out.reports.push((k, wall, report)),
                Err(e) => out.errors.push(format!("service run: {e}")),
            }
        }
        if let Some(dir) = &last_dir {
            span("storage.load_latest", block, &mut |_| {
                let t = now();
                let loaded = DirStorage::open(dir)
                    .map_err(|e| e.to_string())
                    .and_then(|s| {
                        SnapshotStore::new(Box::new(s))
                            .load_latest()
                            .map_err(|e| e.to_string())
                    });
                out.load_latest_s = t.elapsed().as_secs_f64();
                match loaded {
                    Ok(snapshot) => out.reloaded_generation = snapshot.map(|s| s.generation),
                    Err(e) => out.errors.push(format!("reload: {e}")),
                }
            });
        }
    });
    if let Some(dir) = last_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}
