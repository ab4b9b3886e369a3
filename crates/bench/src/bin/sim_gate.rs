//! Distributed-sim quality gate: runs the Table-1 deployment scenario
//! (by default 4 devices × 500 records, the small-shard training schedule)
//! for all three sharing policies, asserts the utility floors, and
//! persists the full [`DistributedReport`]s as `<out>.json` in the
//! experiments directory (`kinet_bench::gate::fresh_dir`) so per-PR CI
//! artifacts make utility regressions as visible as the perf ones
//! `bench_gate` guards.
//!
//! When a previous snapshot exists at the output path it is reloaded
//! through the vendored JSON deserializer and a per-policy delta is
//! printed — quality drift is visible at a glance, not just floor breaks.
//!
//! ```text
//! sim_gate [--devices N] [--rows-per-device N] [--seed N] [--out NAME]
//! ```
//!
//! Defaults reproduce the CI floor configuration exactly. Exit code 1
//! when any floor is violated or an argument is malformed; a failed
//! simulation run instead exits with the typed
//! [`kinet_nids::FleetError`] code (2 config-invalid, 3 quorum-lost,
//! 4 internal).

use kinet_bench::gate::{self, Failures};
use kinet_datasets::lab::LabSimulator;
use kinet_nids::{DistributedConfig, DistributedReport, DistributedSim, ModelKind, SharingPolicy};

/// The asserted floors, shared with `crates/nids/src/sim.rs` tests and
/// documented in README's Table-1 section.
const RAW_ACC_FLOOR: f64 = 0.9;
const SYNTH_ACC_FLOOR: f64 = 0.5;
const SYNTH_KG_VALIDITY_FLOOR: f64 = 0.5;

const USAGE: &str = "sim_gate [--devices N] [--rows-per-device N] [--seed N] [--out NAME]";

struct Args {
    devices: usize,
    rows_per_device: usize,
    seed: u64,
    out: String,
}

fn print_delta(previous: &[DistributedReport], fresh: &DistributedReport) {
    // Match the previous run on policy AND device count so e.g. a
    // `--devices 8` exploration against a default 4-device snapshot is
    // not misread as quality drift (the report does not record
    // rows/seed, so runs varying those should pick a distinct `--out`).
    let Some(prev) = previous
        .iter()
        .find(|p| p.policy == fresh.policy && p.n_devices == fresh.n_devices)
    else {
        return;
    };
    println!(
        "  Δ vs last run        acc {:+.3}  attack-recall {:+.3}  kg-valid {:+.3}  bytes {:+}",
        fresh.global_accuracy - prev.global_accuracy,
        fresh.attack_recall - prev.attack_recall,
        fresh.pool_kg_validity - prev.pool_kg_validity,
        fresh.bytes_shared as i64 - prev.bytes_shared as i64,
    );
}

fn main() {
    let args = gate::parse_args(USAGE, |f| {
        let args = Args {
            devices: f.num("--devices", 4)?,
            rows_per_device: f.num("--rows-per-device", 500)?,
            seed: f.num("--seed", DistributedConfig::default().seed)?,
            out: f.value("--out", "distributed_report"),
        };
        if args.devices == 0 || args.rows_per_device == 0 {
            return Err("--devices and --rows-per-device must be positive".into());
        }
        Ok(args)
    });
    println!(
        "sim_gate — distributed NIDS quality floors ({} devices x {} records, seed {})\n",
        args.devices, args.rows_per_device, args.seed
    );
    let previous: Vec<DistributedReport> =
        gate::previous_snapshot("sim_gate", &args.out).unwrap_or_default();
    let session = kinet_obs::start(kinet_obs::ObsConfig::default());
    let mut reports = Vec::new();
    let mut failures = Failures::default();
    for policy in [
        SharingPolicy::Raw,
        SharingPolicy::Synthetic(ModelKind::KinetGan),
        SharingPolicy::LocalOnly,
    ] {
        let sim = DistributedSim::new(DistributedConfig {
            n_devices: args.devices,
            records_per_device: args.rows_per_device,
            test_records: 800,
            seed: args.seed,
            policy: policy.clone(),
            ..DistributedConfig::default()
        });
        match sim.run() {
            Ok(report) => {
                println!("{report}");
                print_delta(&previous, &report);
                reports.push((policy, report));
            }
            Err(e) => failures.push_run_error(&format!("{policy:?}: simulation failed"), &e),
        }
    }

    // Dispatch on the policy enum (not the report's label string) so a
    // reworded label or edited policy list cannot silently skip a floor.
    for (policy, report) in &reports {
        let mut check = |ok: bool, what: &str| {
            if !ok {
                failures.push(format!("{}: {what}: {report}", report.policy));
            }
        };
        match policy {
            SharingPolicy::Raw => {
                check(
                    report.global_accuracy >= RAW_ACC_FLOOR,
                    "raw-sharing accuracy under floor",
                );
            }
            SharingPolicy::Synthetic(ModelKind::KinetGan) => {
                check(
                    report.global_accuracy >= SYNTH_ACC_FLOOR,
                    "synthetic-sharing accuracy under floor",
                );
                check(
                    report.attack_recall > 0.0,
                    "attack recall collapsed to zero",
                );
                check(
                    report.pool_kg_validity >= SYNTH_KG_VALIDITY_FLOOR,
                    "pooled KG validity under floor",
                );
                check(
                    report.pool_attack_count(&LabSimulator::attack_events()) > 0,
                    "no attack-class rows in the shared pool (class collapse)",
                );
                check(
                    report.device_diags.len() == report.n_devices,
                    "missing per-device training diagnostics",
                );
            }
            SharingPolicy::Synthetic(_) | SharingPolicy::LocalOnly => {}
        }
    }

    println!();
    let json_reports: Vec<_> = reports.iter().map(|(_, r)| r).collect();
    gate::write_evidence(&mut failures, &args.out, &json_reports);
    let capture = session.finish();
    println!("{}", capture.journal.phase_summary());
    gate::write_flight_recorder(&mut failures, Some(&capture));
    gate::conclude("sim_gate", &failures, "all quality floors hold");
}
