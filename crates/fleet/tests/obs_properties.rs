//! Property and regression tests of the observability determinism
//! contract (DESIGN.md §2.10): journal bytes are invariant across
//! worker-pool sizes for arbitrary scoped workloads, and turning the
//! layer on never perturbs a fleet round's deterministic fingerprint.
//!
//! Sessions are exclusive (a global lock serializes them), and a session
//! records only from its own threads, so these tests are safe under the
//! default parallel test runner: sessioned tests queue behind one
//! another, and an un-sessioned round running beside them stays out of
//! their journals.

use kinet_fleet::schedule::run_indexed_settled;
use kinet_fleet::{
    DeviceFaultSpec, FaultConfig, FaultKind, FleetConfig, FleetSim, ModelKind, ResilienceConfig,
    SharingPolicy, UnionConfig,
};
use kinet_obs::{event, kv, span_close, span_open, start, with_scope, ObsConfig, Scope};
use kinet_tensor::pool::with_threads;
use proptest::prelude::*;

/// Runs one synthetic scoped workload under an obs session and returns
/// the canonical journal rendering plus the flight-recorder length.
///
/// The workload mimics the fleet's phase shape: the orchestrator opens a
/// span, `n_tasks` device closures race on the settled scheduler (each
/// emitting a deterministic burst of events from its own scope), and the
/// orchestrator closes the span after the barrier. Event payloads are
/// pure functions of the device index, never of scheduling order.
fn journal_of(
    threads: usize,
    n_tasks: usize,
    events_per_task: usize,
    ring: usize,
) -> (String, usize) {
    let session = start(ObsConfig {
        ring_capacity: ring,
    });
    with_threads(threads, || {
        with_scope(Scope::Orch, || {
            span_open("prop.round", 0, &[kv("tasks", n_tasks as u64)]);
        });
        run_indexed_settled(n_tasks, |d| {
            with_scope(Scope::Device(d as u32), || {
                for i in 0..events_per_task {
                    event(
                        "prop.step",
                        0,
                        &[kv("device", d as u64), kv("step", i as u64)],
                    );
                }
                d
            })
        });
        with_scope(Scope::Orch, || {
            span_close(
                "prop.round",
                0,
                &[
                    kv("ticks", 0),
                    kv("rows", (n_tasks * events_per_task) as u64),
                ],
            );
        });
    });
    let capture = session.finish();
    (capture.journal.render(), capture.ring.len())
}

/// The faulted-round configuration from the chaos suite: retries,
/// quarantine, and union fallback all fire, so the instrumented code
/// paths this crate added in PR 10 are actually exercised.
fn faulted_config() -> FleetConfig {
    let mut cfg = FleetConfig::fast(SharingPolicy::Synthetic(ModelKind::KinetGan));
    cfg.n_devices = 4;
    cfg.rows_per_device = 220;
    cfg.model_epochs = 2;
    cfg.chunk_rows = 64;
    cfg.device_attack_fraction = vec![(1, 0.0), (2, 0.0), (3, 0.0)];
    cfg.union = UnionConfig::enabled();
    cfg.fault = FaultConfig::scripted(vec![
        DeviceFaultSpec::transient(1, FaultKind::CrashAcquire, 1).with_magnitude(50),
        DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan),
    ]);
    cfg.resilience = ResilienceConfig {
        quorum_frac: 0.5,
        min_share_validity: 0.0,
        ..ResilienceConfig::default()
    };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Journal bytes are identical across 1, 2, and 4 workers for any
    /// task fan-out, per-task event burst, and ring capacity — the
    /// (scope, seq) merge order fully hides the scheduler interleaving.
    #[test]
    fn journal_bytes_invariant_across_thread_counts(
        n_tasks in 1usize..9,
        events_per_task in 0usize..6,
        ring in prop::sample::select(vec![1usize, 4, 64, 256]),
    ) {
        let (r1, len1) = journal_of(1, n_tasks, events_per_task, ring);
        let (r2, len2) = journal_of(2, n_tasks, events_per_task, ring);
        let (r4, len4) = journal_of(4, n_tasks, events_per_task, ring);
        prop_assert_eq!(&r1, &r2, "1 vs 2 workers");
        prop_assert_eq!(&r1, &r4, "1 vs 4 workers");
        // The flight recorder is bounded by its capacity and holds the
        // same count regardless of worker parallelism.
        let total = 2 + n_tasks * events_per_task;
        prop_assert_eq!(len1, total.min(ring));
        prop_assert_eq!(len2, len1);
        prop_assert_eq!(len4, len1);
        // The journal itself is unbounded: every record survives merge.
        prop_assert_eq!(r1.lines().count(), total);
    }
}

/// Regression: enabling observability around a faulted round leaves the
/// round's deterministic fingerprint byte-identical — the taps read
/// state, they never steer it.
#[test]
fn faulted_round_fingerprint_identical_obs_on_vs_off() {
    let cfg = faulted_config();
    let plain = with_threads(2, || FleetSim::new(cfg.clone()).run().unwrap());
    let session = start(ObsConfig::default());
    let observed = with_threads(2, || FleetSim::new(cfg.clone()).run().unwrap());
    let capture = session.finish();
    assert_eq!(
        plain.deterministic_fingerprint(),
        observed.deterministic_fingerprint(),
        "observability must be a pure read of the round"
    );
    // The session actually saw the round: retries and quarantines fired.
    assert!(
        capture.journal.events_for("fleet.retry").count() > 0,
        "scripted transient crash should surface as a retry event"
    );
    assert!(
        capture.journal.events_for("fleet.quarantine").count() > 0,
        "poisoned share should surface as a quarantine event"
    );
    assert!(!capture.journal.render().is_empty());
}

/// The instrumented journal itself is thread-count-invariant for a real
/// faulted round, not just for synthetic workloads.
#[test]
fn faulted_round_journal_bytes_invariant() {
    let cfg = faulted_config();
    let mut renders = Vec::new();
    for threads in [1usize, 2, 4] {
        let session = start(ObsConfig::default());
        with_threads(threads, || FleetSim::new(cfg.clone()).run().unwrap());
        renders.push(session.finish().journal.render());
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 workers");
    assert_eq!(renders[0], renders[2], "1 vs 4 workers");
}

/// Regression: a faulted round with no session, running beside a
/// sessioned one, must not leak into the session's journal. The session
/// records only from the thread that started it and the scheduler
/// workers that inherit its mark.
#[test]
fn unsessioned_round_stays_out_of_an_open_session() {
    let cfg = faulted_config();
    let solo = {
        let session = start(ObsConfig::default());
        with_threads(2, || FleetSim::new(cfg.clone()).run().unwrap());
        session.finish().journal.render()
    };
    let session = start(ObsConfig::default());
    std::thread::scope(|s| {
        s.spawn(|| with_threads(2, || FleetSim::new(cfg.clone()).run().unwrap()));
        with_threads(2, || FleetSim::new(cfg.clone()).run().unwrap());
    });
    let shared = session.finish().journal.render();
    assert_eq!(
        solo, shared,
        "the un-sessioned round leaked records into the open session"
    );
}
