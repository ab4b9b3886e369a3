//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public functions,
//! kept in memory, and written out once at the end. A span's self time is
//! its duration minus the part of it that its children cover; children
//! may run on other worker threads and overlap one another, so the covered
//! part is the measure of the union of their intervals.

use crate::host::now;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The round (or service block) the span belongs to.
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// calls it makes (on this thread or a worker) can name it as parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        run: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        // A push either happened or did not, so a list poisoned by a
        // panicking worker is still whole.
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent,
                run,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn recorded(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Measure, in seconds, of the union of `intervals` clipped to `[lo, hi]`.
fn union_secs(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> f64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered as f64 * 1e-9
}

/// Self time of every span, in seconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            (s.id, s.secs() - union_secs(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Share of `root`'s wall time during which at least one layer call it
/// made was running (1 − its self time ÷ its duration).
pub fn coverage(spans: &[Span], root: &Span) -> f64 {
    let kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == root.id)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let wall = root.secs();
    if wall <= 0.0 {
        return 0.0;
    }
    union_secs(kids, root.start_ns, root.end_ns) / wall
}

/// Writes every span with its self time, one JSON object a line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"self_s\": {:.9}}}",
            s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}
