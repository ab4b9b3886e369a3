//! `kinet_obs` — deterministic observability for the fleet.
//!
//! Three pieces, all honoring the repo's bit-for-bit determinism
//! contract (see DESIGN.md §2.10):
//!
//! * **Journal** ([`journal`]) — typed `SpanOpen`/`SpanClose`/`Event`
//!   records with a static `target`, up to [`MAX_FIELDS`] `key=value`
//!   fields, and *virtual-tick* timestamps supplied by the caller
//!   (never a wall clock). Records are buffered per worker thread in
//!   scope frames and merged in `(scope key, sequence)` order, so the
//!   rendered journal bytes are identical for any `KINET_THREADS`.
//! * **Metrics** ([`metrics`]) — a static registry of monotonic
//!   counters, max-gauges, and fixed-bucket histograms, all plain
//!   relaxed atomics whose totals are order-independent and therefore
//!   thread-count-invariant.
//! * **Flight recorder** ([`ring`] via [`Capture::ring`]) — a bounded
//!   ring of the most recent records, dumped by the gate binaries as
//!   `target/experiments/obs_dump.json` when a run goes red.
//!
//! The whole layer is **off by default**: every record/increment entry
//! point first reads one relaxed [`AtomicBool`], and the disabled path
//! allocates nothing (measured by the counting-allocator test
//! `tests/hot_paths_alloc_free.rs`). Instrumented library code never
//! starts a session itself — gates, benches, and tests opt in with
//! [`start`]. Sessions are exclusive (a global lock makes a second
//! [`start`] wait), and a session records only from the threads that
//! belong to it: [`start`] marks the calling thread, and worker threads
//! join by running under the spawner's [`ThreadMark`] (the fleet
//! scheduler does this for every task worker). A run on any other thread
//! — a sibling test's un-sessioned round, say — stays invisible to the
//! open session.
//!
//! Timestamp discipline: records emitted from *inside* concurrently
//! scheduled device closures must not read the shared `VirtualClock`
//! (the interleaving would vary with the thread count) — they carry
//! locally known deterministic quantities (backoff ticks, attempt
//! numbers) or `0`. Orchestrator-side records read the clock only at
//! phase barriers, where its value is deterministic.

pub mod journal;
pub mod metrics;
pub mod ring;
pub mod session;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub use journal::{
    event, merge_records, snapshot_records, span_close, span_open, with_scope, FieldSnap, Journal,
    JournalSnapshot, RecordSnap,
};
pub use session::{start, Capture, ObsConfig, Session};

/// Master switch. Off outside an active [`Session`]; every entry point
/// checks it first so the disabled path costs one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped by every session start. A thread belongs to the open session
/// when its mark equals the current epoch; stale thread-local scope
/// frames are detected the same way.
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The session epoch this thread records into (0: none).
    static MARK: Cell<u64> = const { Cell::new(0) };
}

/// `true` while an observability session is active *and* the calling
/// thread belongs to it. The global flag is read first, so outside a
/// session this is one relaxed load.
///
/// Written in qualified form: as a method call, `.load(` resolves by name
/// in `kinet_lint`'s call graph to `Dataset::load` and
/// `RoundCheckpoint::load`, and the panic-path analysis would then charge
/// their `expect()`s to the serving roots that reach this switch.
#[inline]
pub fn enabled() -> bool {
    AtomicBool::load(&ENABLED, Ordering::Relaxed) && MARK.get() == current_epoch()
}

/// The current session epoch; qualified for the same reason as
/// [`enabled`].
pub(crate) fn current_epoch() -> u64 {
    AtomicU64::load(&EPOCH, Ordering::Relaxed)
}

/// Opens a new epoch, marks the calling thread as its member, and turns
/// recording on (session start).
pub(crate) fn open_epoch() {
    let epoch = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    MARK.set(epoch);
    ENABLED.store(true, Ordering::SeqCst);
}

pub(crate) fn close_epoch() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Which session, if any, a thread records into. Copy it on the spawning
/// thread with [`thread_mark`] and hand it to a worker's
/// [`with_thread_mark`], so the worker's records land in the same
/// session as its spawner's — and nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadMark(u64);

/// The calling thread's session membership.
#[inline]
pub fn thread_mark() -> ThreadMark {
    ThreadMark(MARK.get())
}

/// Runs `f` with the calling thread carrying `mark`, restoring its own
/// mark afterwards.
pub fn with_thread_mark<T>(mark: ThreadMark, f: impl FnOnce() -> T) -> T {
    let prev = MARK.replace(mark.0);
    let out = f();
    MARK.set(prev);
    out
}

/// Maximum `key=value` fields carried inline by one [`Record`].
pub const MAX_FIELDS: usize = 4;

/// One `key=value` pair. Values are `u64` only — enough for ticks,
/// rows, generations, and counts, and trivially deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    /// Static field name.
    pub key: &'static str,
    /// Field value.
    pub val: u64,
}

/// The empty-slot sentinel for a record's fixed field array.
pub const NO_FIELD: Field = Field { key: "", val: 0 };

/// Shorthand [`Field`] constructor: `kv("rows", 500)`.
#[inline]
pub fn kv(key: &'static str, val: u64) -> Field {
    Field { key, val }
}

/// Record discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A phase or span began at `ticks`.
    SpanOpen,
    /// A span ended at `ticks`; conventionally carries `ticks` (the
    /// span duration) and `rows` fields for [`Journal::phase_summary`].
    SpanClose,
    /// A point event.
    Event,
}

/// One journal record. `Copy` so the record path moves plain words,
/// never heap data.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Merge key, first component: see [`scope_key`].
    pub scope: u64,
    /// Merge key, second component: position within the scope.
    pub seq: u32,
    /// Virtual-tick timestamp supplied by the caller (0 when the site
    /// has no deterministic clock reading available).
    pub ticks: u64,
    /// Discriminant.
    pub kind: RecordKind,
    /// Static target label, e.g. `"fleet.acquire"`.
    pub target: &'static str,
    /// Inline fields; only the first `n_fields` are meaningful.
    pub fields: [Field; MAX_FIELDS],
    /// Number of live entries in `fields`.
    pub n_fields: u8,
}

impl Record {
    /// The live prefix of the field array.
    pub fn active_fields(&self) -> &[Field] {
        let n = (self.n_fields as usize).min(MAX_FIELDS);
        self.fields.get(..n).unwrap_or(&[])
    }

    /// Looks up a field value by key.
    pub fn field_val(&self, key: &str) -> Option<u64> {
        self.active_fields()
            .iter()
            .find(|f| f.key == key)
            .map(|f| f.val)
    }
}

/// Who is recording. Device indices come from the deterministic fleet
/// schedule, so the scope key order is the merge order the journal
/// promises: orchestrator, serving, then devices by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// The round orchestrator (serial, between phase barriers).
    Orch,
    /// The serving path (flow-batch answering).
    Serve,
    /// One device closure, by schedule index.
    Device(u32),
}

/// Dense merge key for a scope: `orch=0`, `serve=1`, `device d=2+d`.
pub fn scope_key(scope: Scope) -> u64 {
    match scope {
        Scope::Orch => 0,
        Scope::Serve => 1,
        Scope::Device(d) => 2 + d as u64,
    }
}

/// Human label for a scope key, used by the canonical rendering.
pub fn scope_label(key: u64) -> String {
    match key {
        0 => "orch".to_string(),
        1 => "serve".to_string(),
        d => format!("dev{}", d - 2),
    }
}

/// Deterministic synthetic cost model for one serving batch, in virtual
/// ticks: one tick of dispatch overhead, one per row, plus one per 64
/// row-feature products. A pure function of the batch shape, so the
/// histogram it feeds is bit-identical across thread counts (DESIGN.md
/// §2.10 documents the model).
#[inline]
pub fn serving_cost_ticks(rows: u64, width: u64) -> u64 {
    1u64.saturating_add(rows)
        .saturating_add(rows.saturating_mul(width) / 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_keys_are_dense_and_ordered() {
        assert_eq!(scope_key(Scope::Orch), 0);
        assert_eq!(scope_key(Scope::Serve), 1);
        assert_eq!(scope_key(Scope::Device(0)), 2);
        assert_eq!(scope_key(Scope::Device(7)), 9);
        assert_eq!(scope_label(9), "dev7");
    }

    #[test]
    fn field_lookup_sees_only_live_entries() {
        let mut rec = Record {
            scope: 0,
            seq: 0,
            ticks: 0,
            kind: RecordKind::Event,
            target: "t",
            fields: [NO_FIELD; MAX_FIELDS],
            n_fields: 0,
        };
        rec.fields[0] = kv("rows", 5);
        assert_eq!(rec.field_val("rows"), None, "n_fields gates visibility");
        rec.n_fields = 1;
        assert_eq!(rec.field_val("rows"), Some(5));
        assert_eq!(rec.field_val("missing"), None);
    }

    #[test]
    fn serving_cost_is_monotone_in_rows_and_width() {
        assert_eq!(serving_cost_ticks(0, 10), 1);
        assert!(serving_cost_ticks(100, 16) < serving_cost_ticks(200, 16));
        assert!(serving_cost_ticks(100, 16) < serving_cost_ticks(100, 64));
        // No overflow at absurd shapes.
        assert!(serving_cost_ticks(u64::MAX, u64::MAX) > 0);
    }
}
