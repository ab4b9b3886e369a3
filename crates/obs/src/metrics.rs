//! The static metrics registry: monotonic counters, max-gauges, and
//! fixed-bucket histograms over relaxed atomics.
//!
//! Every instrument is a `static` registered in the fixed tables at the
//! bottom of this module; [`metrics_snapshot`] walks the tables in
//! declaration order, so the serialized snapshot bytes are stable.
//! Counter sums, maxima, and bucket tallies are order-independent, so
//! the snapshot is identical for any `KINET_THREADS` value. All update
//! paths are gated on [`crate::enabled`] — the session switch plus the
//! calling thread's session mark — and touch no heap, so the serving
//! loop can call them (measured by `tests/hot_paths_alloc_free.rs`).

use crate::enabled;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic counter.
pub struct Counter {
    name: &'static str,
    cell: AtomicU64,
}

impl Counter {
    /// Const constructor, for `static` registration.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// Adds `n` (no-op outside a session).
    #[inline]
    pub fn incr(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn current_value(&self) -> u64 {
        AtomicU64::load(&self.cell, Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// A gauge that keeps the maximum observed value (cross-thread safe:
/// `fetch_max` commutes, so the result is schedule-independent).
pub struct MaxGauge {
    name: &'static str,
    cell: AtomicU64,
}

impl MaxGauge {
    /// Const constructor, for `static` registration.
    pub const fn new(name: &'static str) -> MaxGauge {
        MaxGauge {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// Raises the gauge to `v` if larger (no-op outside a session).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if enabled() {
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current maximum.
    pub fn current_value(&self) -> u64 {
        AtomicU64::load(&self.cell, Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Fixed bucket-slot count; a histogram's bound slice may be shorter.
pub const HIST_BUCKETS: usize = 12;

/// A fixed-bucket histogram with static bounds. Bucket `i` counts
/// observations `v <= bounds[i]` (first match); larger values land in
/// the overflow bucket, whose quantile reports the maximum seen.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    buckets: [AtomicU64; HIST_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max_seen: AtomicU64,
}

impl Histogram {
    /// Const constructor, for `static` registration. At most
    /// [`HIST_BUCKETS`] bounds are used.
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Histogram {
        Histogram {
            name,
            bounds,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max_seen: AtomicU64::new(0),
        }
    }

    /// Records one observation in virtual ticks (no-op outside a
    /// session). Allocation- and panic-free: bucket selection walks
    /// the zipped bound/bucket pair, never indexes.
    #[inline]
    pub fn observe_ticks(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max_seen.fetch_max(v, Ordering::Relaxed);
        for (bound, cell) in self.bounds.iter().zip(self.buckets.iter()) {
            if v <= *bound {
                cell.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn observed_count(&self) -> u64 {
        AtomicU64::load(&self.count, Ordering::Relaxed)
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`0.0 < q <= 1.0`); the overflow bucket reports the maximum
    /// observed value. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = AtomicU64::load(&self.count, Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (bound, cell) in self.bounds.iter().zip(self.buckets.iter()) {
            cum = cum.saturating_add(AtomicU64::load(cell, Ordering::Relaxed));
            if cum >= rank {
                return *bound;
            }
        }
        AtomicU64::load(&self.max_seen, Ordering::Relaxed)
    }

    fn reset(&self) {
        for cell in self.buckets.iter() {
            cell.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max_seen.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The registry. Declaration order here is serialization order.
// ---------------------------------------------------------------------

/// Rows answered through `ServingModel::score_rows`.
pub static SERVING_ROWS_SCORED: Counter = Counter::new("serving.rows_scored");
/// Flow batches answered by the resident serving handle.
pub static SERVING_BATCHES: Counter = Counter::new("serving.batches");
/// Device attempts retried under the recovery loop.
pub static FLEET_RETRIES: Counter = Counter::new("fleet.retries");
/// Device shares quarantined at aggregation.
pub static FLEET_QUARANTINES: Counter = Counter::new("fleet.quarantines");
/// Virtual ticks spent in the acquire phase, summed over rounds.
pub static FLEET_ACQUIRE_TICKS: Counter = Counter::new("fleet.acquire_ticks");
/// Virtual ticks spent in the union phase, summed over rounds.
pub static FLEET_UNION_TICKS: Counter = Counter::new("fleet.union_ticks");
/// Virtual ticks spent in the prepare phase, summed over rounds.
pub static FLEET_PREPARE_TICKS: Counter = Counter::new("fleet.prepare_ticks");
/// Rounds that committed a new generation.
pub static SERVICE_ROUNDS_COMMITTED: Counter = Counter::new("service.rounds_committed");
/// Rounds aborted by the watchdog.
pub static SERVICE_ROUNDS_ABORTED: Counter = Counter::new("service.rounds_aborted");
/// Rounds that failed and were served through degraded mode.
pub static SERVICE_ROUNDS_FAILED: Counter = Counter::new("service.rounds_failed");
/// Snapshot payload bytes durably written.
pub static SNAPSHOT_BYTES_WRITTEN: Counter = Counter::new("storage.snapshot_bytes_written");
/// Snapshot records rejected during recovery scans.
pub static SNAPSHOT_RECORDS_REJECTED: Counter = Counter::new("storage.snapshot_records_rejected");
/// Stream chunks decoded.
pub static DATA_CHUNKS_DECODED: Counter = Counter::new("data.chunks_decoded");

/// Peak decoded rows resident at once in the streaming layer.
pub static DATA_PEAK_DECODED_ROWS: MaxGauge = MaxGauge::new("data.peak_decoded_rows");

static SERVING_TICK_BOUNDS: [u64; HIST_BUCKETS] =
    [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];
/// `score_rows` batch latency in virtual ticks (synthetic cost model,
/// see [`crate::serving_cost_ticks`]).
pub static SERVING_BATCH_TICKS: Histogram =
    Histogram::new("serving.batch_ticks", &SERVING_TICK_BOUNDS);

static COUNTERS: [&Counter; 13] = [
    &SERVING_ROWS_SCORED,
    &SERVING_BATCHES,
    &FLEET_RETRIES,
    &FLEET_QUARANTINES,
    &FLEET_ACQUIRE_TICKS,
    &FLEET_UNION_TICKS,
    &FLEET_PREPARE_TICKS,
    &SERVICE_ROUNDS_COMMITTED,
    &SERVICE_ROUNDS_ABORTED,
    &SERVICE_ROUNDS_FAILED,
    &SNAPSHOT_BYTES_WRITTEN,
    &SNAPSHOT_RECORDS_REJECTED,
    &DATA_CHUNKS_DECODED,
];
static GAUGES: [&MaxGauge; 1] = [&DATA_PEAK_DECODED_ROWS];
static HISTOGRAMS: [&Histogram; 1] = [&SERVING_BATCH_TICKS];

/// One scalar instrument in a snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalarSnap {
    /// Registered metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram in a snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistogramSnap {
    /// Registered metric name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Maximum observation.
    pub max: u64,
    /// Median bucket bound.
    pub p50: u64,
    /// 95th-percentile bucket bound.
    pub p95: u64,
    /// 99th-percentile bucket bound.
    pub p99: u64,
}

/// The full registry, serialized in declaration order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters.
    pub counters: Vec<ScalarSnap>,
    /// Max-gauges.
    pub gauges: Vec<ScalarSnap>,
    /// Histograms with derived quantiles.
    pub histograms: Vec<HistogramSnap>,
}

/// Reads every registered instrument, in registry order.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut counters = Vec::with_capacity(COUNTERS.len());
    for c in COUNTERS.iter() {
        counters.push(ScalarSnap {
            name: c.name.to_string(),
            value: c.current_value(),
        });
    }
    let mut gauges = Vec::with_capacity(GAUGES.len());
    for g in GAUGES.iter() {
        gauges.push(ScalarSnap {
            name: g.name.to_string(),
            value: g.current_value(),
        });
    }
    let mut histograms = Vec::with_capacity(HISTOGRAMS.len());
    for h in HISTOGRAMS.iter() {
        histograms.push(HistogramSnap {
            name: h.name.to_string(),
            count: AtomicU64::load(&h.count, Ordering::Relaxed),
            sum: AtomicU64::load(&h.sum, Ordering::Relaxed),
            max: AtomicU64::load(&h.max_seen, Ordering::Relaxed),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        });
    }
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered instrument (session start/finish).
pub(crate) fn reset_metrics() {
    for c in COUNTERS.iter() {
        c.reset();
    }
    for g in GAUGES.iter() {
        g.reset();
    }
    for h in HISTOGRAMS.iter() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsConfig;

    fn touch_every_kind() {
        SERVING_ROWS_SCORED.incr(10);
        DATA_PEAK_DECODED_ROWS.record_max(99);
        SERVING_BATCH_TICKS.observe_ticks(100);
    }

    #[test]
    fn instruments_are_inert_outside_a_session() {
        // No session: dropped at the global flag.
        touch_every_kind();
        // A session is open, but on another thread: this one is not a
        // member, so its updates are dropped at the thread mark.
        let session = crate::start(ObsConfig::default());
        std::thread::spawn(touch_every_kind).join().unwrap();
        assert_eq!(SERVING_ROWS_SCORED.current_value(), 0);
        assert_eq!(DATA_PEAK_DECODED_ROWS.current_value(), 0);
        assert_eq!(SERVING_BATCH_TICKS.observed_count(), 0);
        // The session's own thread records.
        touch_every_kind();
        assert_eq!(SERVING_ROWS_SCORED.current_value(), 10);
        drop(session.finish());
    }

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let session = crate::start(ObsConfig::default());
        // 90 fast observations in the <=8 bucket, 10 at <=1024.
        for _ in 0..90 {
            SERVING_BATCH_TICKS.observe_ticks(3);
        }
        for _ in 0..10 {
            SERVING_BATCH_TICKS.observe_ticks(700);
        }
        assert_eq!(SERVING_BATCH_TICKS.quantile(0.50), 8);
        assert_eq!(SERVING_BATCH_TICKS.quantile(0.95), 1024);
        assert_eq!(SERVING_BATCH_TICKS.quantile(0.99), 1024);
        let snap = metrics_snapshot();
        let hist = &snap.histograms[0];
        assert_eq!(hist.count, 100);
        assert_eq!(hist.max, 700);
        drop(session.finish());
        assert_eq!(SERVING_BATCH_TICKS.observed_count(), 0, "finish resets");
    }

    #[test]
    fn overflow_quantile_reports_the_observed_max() {
        let session = crate::start(ObsConfig::default());
        SERVING_BATCH_TICKS.observe_ticks(1_000_000);
        assert_eq!(SERVING_BATCH_TICKS.quantile(0.99), 1_000_000);
        drop(session.finish());
    }

    #[test]
    fn snapshot_round_trips_and_orders_by_registry() {
        let session = crate::start(ObsConfig::default());
        FLEET_RETRIES.incr(3);
        let snap = session.finish().metrics;
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters.len(), COUNTERS.len());
        assert_eq!(back.counters[0].name, "serving.rows_scored");
        let retries = back
            .counters
            .iter()
            .find(|c| c.name == "fleet.retries")
            .unwrap();
        assert_eq!(retries.value, 3);
    }
}
