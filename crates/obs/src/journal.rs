//! The deterministic span/event journal.
//!
//! Records are buffered in per-thread **scope frames**: entering
//! [`with_scope`] pushes a frame that owns the scope's next sequence
//! number (continued across activations through a global per-scope
//! counter map), every record lands in the innermost frame, and leaving
//! the scope flushes the frame into the global sink and the flight
//! recorder. The merge key is `(scope key, sequence)` — unique per
//! record — so sorting the sink reproduces one canonical order no
//! matter which worker flushed first, and the rendered bytes are
//! identical for any `KINET_THREADS` value.
//!
//! The correctness argument for sequence continuation: a scope key is
//! only ever *active* on one thread at a time (each device index is
//! claimed by exactly one worker per phase, and phases are separated by
//! barriers; the orchestrator and serving scopes live on the caller
//! thread), so reading and writing its next-sequence entry around the
//! activation races with nobody.

use crate::{
    current_epoch, enabled, scope_key, scope_label, Field, Record, RecordKind, Scope, MAX_FIELDS,
    NO_FIELD,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One active scope on this thread.
struct Frame {
    /// Session epoch at push time — frames stranded by a panicking
    /// test are ignored and reaped instead of polluting later sessions.
    epoch: u64,
    /// Scope merge key.
    key: u64,
    /// Next record sequence number within the scope.
    seq: u32,
    /// Buffered records, flushed on scope exit.
    buf: Vec<Record>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Per-scope next-sequence continuation map.
pub(crate) static SEQS: Mutex<BTreeMap<u64, u32>> = Mutex::new(BTreeMap::new());

/// Flushed records, merged at session finish.
pub(crate) static SINK: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Locks a mutex, recovering from poisoning instead of panicking —
/// this layer must stay panic-free on the serving path.
pub(crate) fn lock_poison_free<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with `scope` active on this thread. Nested activation of a
/// scope already on this thread's stack is a *continuation*: `f` runs
/// without a new frame and its records keep flowing to the innermost
/// frame. Disabled sessions run `f` untouched.
pub fn with_scope<T>(scope: Scope, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let key = scope_key(scope);
    let epoch = current_epoch();
    let cont = STACK.with_borrow_mut(|s| {
        s.retain(|fr| fr.epoch == epoch);
        s.iter().any(|fr| fr.key == key)
    });
    if cont {
        return f();
    }
    let seq = {
        let seqs = lock_poison_free(&SEQS);
        seqs.get(&key).copied().unwrap_or(0)
    };
    STACK.with_borrow_mut(|s| {
        s.push(Frame {
            epoch,
            key,
            seq,
            buf: Vec::with_capacity(32),
        })
    });
    let out = f();
    let frame = STACK.with_borrow_mut(|s| s.pop());
    if let Some(frame) = frame {
        if frame.epoch == current_epoch() {
            flush_frame(frame);
        }
    }
    out
}

/// Records a point event into the innermost active scope. `ticks` must
/// be a deterministic quantity (a barrier-point clock reading, a
/// locally computed delay, or 0) — see the crate docs.
pub fn event(target: &'static str, ticks: u64, fields: &[Field]) {
    record(RecordKind::Event, target, ticks, fields);
}

/// Records a span opening.
pub fn span_open(target: &'static str, ticks: u64, fields: &[Field]) {
    record(RecordKind::SpanOpen, target, ticks, fields);
}

/// Records a span close. Carry `ticks` (duration) and `rows` fields to
/// feed [`Journal::phase_summary`].
pub fn span_close(target: &'static str, ticks: u64, fields: &[Field]) {
    record(RecordKind::SpanClose, target, ticks, fields);
}

fn record(kind: RecordKind, target: &'static str, ticks: u64, fields: &[Field]) {
    if !enabled() {
        return;
    }
    let epoch = current_epoch();
    STACK.with_borrow_mut(|s| {
        if let Some(frame) = s.last_mut() {
            if frame.epoch == epoch {
                push_record(frame, kind, target, ticks, fields);
            }
        }
    });
}

/// Appends one record to an active frame. Hot: plain word moves plus one
/// `Vec::push` into the frame's preallocated buffer (allocation-free,
/// measured by `tests/hot_paths_alloc_free.rs`).
fn push_record(
    frame: &mut Frame,
    kind: RecordKind,
    target: &'static str,
    ticks: u64,
    fields: &[Field],
) {
    let mut rec = Record {
        scope: frame.key,
        seq: frame.seq,
        ticks,
        kind,
        target,
        fields: [NO_FIELD; MAX_FIELDS],
        n_fields: 0,
    };
    for (slot, field) in rec.fields.iter_mut().zip(fields.iter()) {
        *slot = *field;
        rec.n_fields += 1;
    }
    frame.seq = frame.seq.saturating_add(1);
    frame.buf.push(rec);
}

fn flush_frame(frame: Frame) {
    {
        let mut seqs = lock_poison_free(&SEQS);
        let next = seqs.entry(frame.key).or_insert(0);
        if frame.seq > *next {
            *next = frame.seq;
        }
    }
    crate::ring::ring_extend(&frame.buf);
    let mut sink = lock_poison_free(&SINK);
    for rec in frame.buf.iter() {
        sink.push(*rec);
    }
}

/// Sorts records into the canonical `(scope, seq)` merge order. The key
/// is unique per record, so the order — and therefore the journal bytes
/// — is total and thread-count-invariant. Hot: in-place and
/// allocation-free (measured by `tests/hot_paths_alloc_free.rs`).
pub fn merge_records(records: &mut [Record]) {
    records.sort_unstable_by_key(|r| (r.scope, r.seq));
}

/// The merged, immutable journal a [`crate::Session`] capture returns.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    records: Vec<Record>,
}

impl Journal {
    pub(crate) fn from_records(mut records: Vec<Record>) -> Journal {
        merge_records(&mut records);
        Journal { records }
    }

    /// All records in canonical merge order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Records with the given target, in canonical order.
    pub fn events_for<'a>(&'a self, target: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.target == target)
    }

    /// Canonical text rendering, one line per record. Byte-equality of
    /// two renders is the journal determinism assertion the gates make.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 48);
        for rec in self.records.iter() {
            render_record(&mut out, rec);
        }
        out
    }

    /// One-line per-phase digest aggregated over `SpanClose` records:
    /// `obs: <target> ticks=<sum> rows=<sum> | …` in target order.
    pub fn phase_summary(&self) -> String {
        let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for rec in self.records.iter() {
            if rec.kind == RecordKind::SpanClose {
                let cell = agg.entry(rec.target).or_insert((0, 0));
                cell.0 = cell.0.saturating_add(rec.field_val("ticks").unwrap_or(0));
                cell.1 = cell.1.saturating_add(rec.field_val("rows").unwrap_or(0));
            }
        }
        let mut out = String::from("obs:");
        if agg.is_empty() {
            out.push_str(" no spans recorded");
            return out;
        }
        let mut first = true;
        for (target, (ticks, rows)) in agg.iter() {
            if !first {
                out.push_str(" |");
            }
            first = false;
            out.push_str(&format!(" {target} ticks={ticks} rows={rows}"));
        }
        out
    }

    /// Owned, serde-serializable view.
    pub fn snapshot(&self) -> JournalSnapshot {
        snapshot_records(&self.records)
    }
}

fn render_record(out: &mut String, rec: &Record) {
    out.push_str(&scope_label(rec.scope));
    out.push_str(&format!(
        " #{} t={} {} {}",
        rec.seq,
        rec.ticks,
        kind_label(rec.kind),
        rec.target
    ));
    for field in rec.active_fields().iter() {
        out.push_str(&format!(" {}={}", field.key, field.val));
    }
    out.push('\n');
}

fn kind_label(kind: RecordKind) -> &'static str {
    match kind {
        RecordKind::SpanOpen => "open",
        RecordKind::SpanClose => "close",
        RecordKind::Event => "event",
    }
}

/// Owned view of one field, for JSON artifacts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FieldSnap {
    /// Field name.
    pub key: String,
    /// Field value.
    pub val: u64,
}

/// Owned view of one record, for JSON artifacts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecordSnap {
    /// Scope label (`orch`, `serve`, `dev<N>`).
    pub scope: String,
    /// Sequence within the scope.
    pub seq: u32,
    /// Virtual-tick timestamp.
    pub ticks: u64,
    /// `open`, `close`, or `event`.
    pub kind: String,
    /// Target label.
    pub target: String,
    /// Live fields.
    pub fields: Vec<FieldSnap>,
}

/// Owned, serde-serializable journal (or flight-recorder) view.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Records in the order given.
    pub records: Vec<RecordSnap>,
}

/// Converts raw records (journal or flight-recorder contents) into the
/// owned JSON-artifact form.
pub fn snapshot_records(records: &[Record]) -> JournalSnapshot {
    let mut out = Vec::with_capacity(records.len());
    for rec in records.iter() {
        let mut fields = Vec::with_capacity(rec.n_fields as usize);
        for field in rec.active_fields().iter() {
            fields.push(FieldSnap {
                key: field.key.to_string(),
                val: field.val,
            });
        }
        out.push(RecordSnap {
            scope: scope_label(rec.scope),
            seq: rec.seq,
            ticks: rec.ticks,
            kind: kind_label(rec.kind).to_string(),
            target: rec.target.to_string(),
            fields,
        });
    }
    JournalSnapshot { records: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kv, ObsConfig, Scope};

    #[test]
    fn records_outside_any_scope_or_session_are_dropped() {
        event("orphan.before", 0, &[]);
        let session = crate::start(ObsConfig::default());
        event("orphan.inside", 0, &[]); // no active scope frame
        let capture = session.finish();
        assert!(capture.journal.records().is_empty());
    }

    #[test]
    fn threads_outside_the_session_record_nothing() {
        let session = crate::start(ObsConfig::default());
        let mark = crate::thread_mark();
        std::thread::scope(|s| {
            s.spawn(|| with_scope(Scope::Device(0), || event("stranger", 0, &[])));
            s.spawn(|| {
                crate::with_thread_mark(mark, || {
                    with_scope(Scope::Device(1), || event("member", 0, &[]))
                })
            });
        });
        let capture = session.finish();
        let targets: Vec<&str> = capture.journal.records().iter().map(|r| r.target).collect();
        assert_eq!(targets, ["member"], "only marked threads record");
    }

    #[test]
    fn scopes_merge_in_scope_then_sequence_order() {
        let session = crate::start(ObsConfig::default());
        with_scope(Scope::Device(1), || {
            event("dev.work", 0, &[kv("attempt", 1)]);
        });
        with_scope(Scope::Orch, || {
            event("orch.a", 10, &[]);
            with_scope(Scope::Orch, || event("orch.nested", 11, &[]));
        });
        with_scope(Scope::Device(0), || event("dev.work", 0, &[]));
        let capture = session.finish();
        let targets: Vec<&str> = capture.journal.records().iter().map(|r| r.target).collect();
        assert_eq!(targets, ["orch.a", "orch.nested", "dev.work", "dev.work"]);
        let scopes: Vec<u64> = capture.journal.records().iter().map(|r| r.scope).collect();
        assert_eq!(scopes, [0, 0, 2, 3]);
    }

    #[test]
    fn sequences_continue_across_scope_activations() {
        let session = crate::start(ObsConfig::default());
        with_scope(Scope::Device(0), || event("phase.a", 0, &[]));
        with_scope(Scope::Device(0), || event("phase.b", 0, &[]));
        let capture = session.finish();
        let seqs: Vec<u32> = capture.journal.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1], "second activation continues the sequence");
    }

    #[test]
    fn field_overflow_truncates_at_max_fields() {
        let session = crate::start(ObsConfig::default());
        with_scope(Scope::Orch, || {
            event(
                "wide",
                0,
                &[kv("a", 1), kv("b", 2), kv("c", 3), kv("d", 4), kv("e", 5)],
            );
        });
        let capture = session.finish();
        let rec = capture.journal.records()[0];
        assert_eq!(rec.n_fields as usize, MAX_FIELDS);
        assert_eq!(rec.field_val("d"), Some(4));
        assert_eq!(rec.field_val("e"), None);
    }

    #[test]
    fn render_and_summary_are_stable() {
        let session = crate::start(ObsConfig::default());
        with_scope(Scope::Orch, || {
            span_open("fleet.acquire", 0, &[]);
            span_close("fleet.acquire", 40, &[kv("ticks", 40), kv("rows", 500)]);
            span_close("fleet.union", 55, &[kv("ticks", 15), kv("rows", 8)]);
        });
        let capture = session.finish();
        assert_eq!(
            capture.journal.render(),
            "orch #0 t=0 open fleet.acquire\n\
             orch #1 t=40 close fleet.acquire ticks=40 rows=500\n\
             orch #2 t=55 close fleet.union ticks=15 rows=8\n"
        );
        assert_eq!(
            capture.journal.phase_summary(),
            "obs: fleet.acquire ticks=40 rows=500 | fleet.union ticks=15 rows=8"
        );
    }

    #[test]
    fn snapshot_round_trips_through_vendored_serde() {
        let session = crate::start(ObsConfig::default());
        with_scope(Scope::Serve, || {
            event("serve.answer", 9, &[kv("rows", 128), kv("staleness", 1)]);
        });
        let capture = session.finish();
        let snap = capture.journal.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: JournalSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].scope, "serve");
        assert_eq!(back.records[0].fields[0].key, "rows");
        assert_eq!(back.records[0].fields[0].val, 128);
    }
}
