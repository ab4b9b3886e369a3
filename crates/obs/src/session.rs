//! Session lifecycle: exclusive start/finish around an instrumented
//! run.
//!
//! Instrumented library code never starts a session — gates, benches,
//! and tests do, so the library's default cost is one relaxed load per
//! instrumentation site. A session holds a global lock for its whole
//! lifetime, so two sessions never overlap: a second [`start`] waits.
//! The lock does not keep *un-sessioned* work out of a capture — the
//! thread mark does: only the thread that called [`start`], and workers
//! running under its [`crate::ThreadMark`], record into the session.

use crate::journal::{lock_poison_free, merge_records, SEQS, SINK};
use crate::metrics::{metrics_snapshot, reset_metrics, MetricsSnapshot};
use crate::ring::{ring_drain, ring_reset};
use crate::{close_epoch, open_epoch, Journal, Record};
use std::sync::{Mutex, MutexGuard};

static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Session configuration.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Flight-recorder capacity in records; 0 disables the recorder.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { ring_capacity: 256 }
    }
}

/// An active observability session. Dropping it (with or without
/// [`Session::finish`]) turns recording back off.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

/// Starts an exclusive session: resets the journal sink, sequence map,
/// flight recorder, and metrics registry, marks the calling thread as the
/// session's, then enables recording. Blocks while another session (e.g.
/// a parallel test) is active.
pub fn start(cfg: ObsConfig) -> Session {
    let guard = lock_poison_free(&SESSION_LOCK);
    lock_poison_free(&SINK).clear();
    lock_poison_free(&SEQS).clear();
    ring_reset(cfg.ring_capacity);
    reset_metrics();
    open_epoch();
    Session { _guard: guard }
}

impl Session {
    /// Stops recording and returns everything captured.
    pub fn finish(self) -> Capture {
        close_epoch();
        let records: Vec<Record> = std::mem::take(&mut *lock_poison_free(&SINK));
        lock_poison_free(&SEQS).clear();
        let mut ring = ring_drain();
        merge_records(&mut ring);
        let metrics = metrics_snapshot();
        reset_metrics();
        Capture {
            journal: Journal::from_records(records),
            ring,
            metrics,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        close_epoch();
    }
}

/// Everything one session recorded.
pub struct Capture {
    /// The merged journal, in canonical `(scope, seq)` order.
    pub journal: Journal,
    /// Flight-recorder contents (most recent records, canonical order).
    pub ring: Vec<Record>,
    /// Metrics registry snapshot.
    pub metrics: MetricsSnapshot,
}
