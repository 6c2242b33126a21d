//! Deterministic, zero-dependency observability primitives.
//!
//! Everything the workspace measures falls on one side of a hard line:
//!
//! * **Tick-domain metrics** — [`Counter`], [`Gauge`] and
//!   [`TickHistogram`] record *simulation* quantities (tick timestamps,
//!   queue depths, retry counts). They are exact integer arithmetic on
//!   preallocated storage: recording never allocates, never touches an
//!   RNG, and two runs over the same `(config, seed)` produce
//!   **identical** contents whatever queue backend or worker-thread
//!   count executed them. These are safe to leave on unconditionally.
//! * **Wall-clock profiling** — [`PhaseTimer`] spans folded into a
//!   [`PhaseProfile`] attribute *host* time to the simulator's phases
//!   ([`Phase::Scheduler`], [`Phase::SnapshotBuild`], …). Durations are
//!   informational-only: they vary run to run and machine to machine,
//!   and they must never feed back into anything deterministic.
//!
//! The same split governs the engine runtime's
//! [`Snapshot`](crate::engine::Snapshot)/[`TracePoint`](crate::engine::TracePoint):
//! `elapsed` is wall-clock and informational, everything else is exact.
//!
//! [`MetricsRegistry`] holds named instances of all three instruments
//! behind `BTreeMap`s (deterministic iteration order), [`MetricsSink`]
//! adapts the registry to the engine runtime's
//! [`Observer`](crate::engine::Observer) pipeline, and [`JsonlWriter`]
//! emits structured JSON-lines traces (one flat object per line, no
//! serde — the workspace's dependency policy admits none).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::engine::{Metaheuristic, Observer, Snapshot};

// --- counters and gauges ---------------------------------------------------

/// A monotonic event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Adds `n` (saturating, so a pathological run cannot wrap).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A sampled instantaneous value with a high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
    high: i64,
    samples: u64,
}

impl Gauge {
    /// A gauge with no samples.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample.
    #[inline]
    pub fn set(&mut self, value: i64) {
        self.value = value;
        self.high = if self.samples == 0 {
            value
        } else {
            self.high.max(value)
        };
        self.samples += 1;
    }

    /// Most recent sample (zero before the first).
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value
    }

    /// Largest sample seen (zero before the first).
    #[must_use]
    pub fn high_water(&self) -> i64 {
        if self.samples == 0 {
            0
        } else {
            self.high
        }
    }

    /// How many samples were recorded.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

// --- the tick-domain histogram ---------------------------------------------

/// Sub-bucket resolution: each power-of-two range splits into
/// `2^SUB_BITS` linear sub-buckets, bounding relative quantile error at
/// `2^-SUB_BITS` = 12.5%.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;

/// Fixed bucket count of [`TickHistogram`]: values `0..8` get exact
/// unit buckets; every power-of-two range `[2^k, 2^{k+1})` for
/// `k = 3..=63` (61 ranges) gets [`SUBS`] linear sub-buckets.
pub const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A fixed-bucket log2-linear histogram over `u64` values (ticks,
/// counts — any non-negative integer domain).
///
/// Recording is two array updates and a handful of integer ops: no
/// allocation, no floating point, no RNG. Contents are therefore exactly
/// reproducible — bit-identical across runs, queue backends and worker
/// thread counts — which is what lets the simulator keep these on
/// unconditionally without violating its determinism pins.
///
/// Quantiles resolve to a bucket upper edge (clamped into the observed
/// `[min, max]`), so a reported percentile overshoots the true
/// order statistic by at most `2^-3` = 12.5% relative; `count`, `sum`,
/// `min`, `max` (and hence [`TickHistogram::mean`]) are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for TickHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of `value`. Exact for `value < 8`; otherwise the
/// power-of-two range selects a group and the next [`SUB_BITS`] bits
/// select the linear sub-bucket.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUBS - 1);
        SUBS + (msb - SUB_BITS) as usize * SUBS + sub
    }
}

/// Inclusive `(low, high)` value bounds of bucket `index`.
#[must_use]
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUBS {
        (index as u64, index as u64)
    } else {
        let group = ((index - SUBS) / SUBS) as u32; // msb - SUB_BITS
        let sub = ((index - SUBS) % SUBS) as u64;
        let width = 1u64 << group;
        let low = (SUBS as u64 + sub) << group;
        // The very last bucket tops out at u64::MAX; subtract before
        // adding so the edge cannot overflow.
        (low, low + (width - 1))
    }
}

impl TickHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. Allocation-free.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest recorded value.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded value.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q ∈ [0, 1]` of the recorded distribution, resolved
    /// at bucket granularity: the upper edge of the bucket holding the
    /// `⌈q·count⌉`-th smallest value, clamped into the exact observed
    /// `[min, max]`. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, high) = bucket_bounds(index);
                return Some(high.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median ([`Self::quantile`] at 0.50).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The raw bucket array — the determinism tests' comparison unit.
    #[must_use]
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Non-empty buckets as `(index, count, low, high)` rows.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| {
                let (low, high) = bucket_bounds(index);
                (index, n, low, high)
            })
    }

    /// Folds another histogram into this one (exact: bucket-wise sums).
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// --- the phase profiler ----------------------------------------------------

/// The simulator's wall-clock phase taxonomy. One activation splits into
/// snapshot build → scheduler → dispatch; everything else the event loop
/// does is queue traffic or fault handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inside `BatchScheduler::schedule` (the planning call itself).
    Scheduler,
    /// Building the activation's ETC/ready-time snapshot.
    SnapshotBuild,
    /// Bucketing the plan, enqueueing per machine, kicking idle machines.
    Dispatch,
    /// Event-queue traffic: pops plus the non-fault event handlers
    /// (arrivals, finishes, churn).
    Queue,
    /// Fault-layer handlers: transient failures, retries, crash/repair.
    FaultHandling,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 5] = [
        Phase::Scheduler,
        Phase::SnapshotBuild,
        Phase::Dispatch,
        Phase::Queue,
        Phase::FaultHandling,
    ];

    /// Stable snake_case name (the JSONL/report key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Scheduler => "scheduler",
            Phase::SnapshotBuild => "snapshot_build",
            Phase::Dispatch => "dispatch",
            Phase::Queue => "queue",
            Phase::FaultHandling => "fault_handling",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::Scheduler => 0,
            Phase::SnapshotBuild => 1,
            Phase::Dispatch => 2,
            Phase::Queue => 3,
            Phase::FaultHandling => 4,
        }
    }
}

/// Accumulated wall-clock seconds and span counts per [`Phase`].
///
/// Wall-clock durations are **informational-only**: they vary with the
/// host, the load and the run, and nothing deterministic may depend on
/// them. Span *counts* are tick-domain facts and replay exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseProfile {
    wall_s: [f64; 5],
    calls: [u64; 5],
}

impl PhaseProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one span of `seconds` into `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, seconds: f64) {
        self.wall_s[phase.index()] += seconds;
        self.calls[phase.index()] += 1;
    }

    /// Accumulated wall-clock seconds of a phase.
    #[must_use]
    pub fn wall_s(&self, phase: Phase) -> f64 {
        self.wall_s[phase.index()]
    }

    /// Spans recorded for a phase.
    #[must_use]
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// Total attributed wall-clock seconds.
    #[must_use]
    pub fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// A phase's fraction of the attributed total, in `[0, 1]`
    /// (0 when nothing was recorded).
    #[must_use]
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_wall_s();
        if total == 0.0 {
            0.0
        } else {
            self.wall_s(phase) / total
        }
    }

    /// Whether any span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0)
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &Self) {
        for phase in Phase::ALL {
            self.wall_s[phase.index()] += other.wall_s[phase.index()];
            self.calls[phase.index()] += other.calls[phase.index()];
        }
    }
}

/// A scoped wall-clock span: start at construction, [`stop`]
/// (consuming) to fold the elapsed duration into a [`PhaseProfile`].
///
/// Explicitly consumed rather than `Drop`-based so the profile borrow is
/// taken only at the fold, which keeps the simulator's `&mut self`
/// handlers borrow-clean.
///
/// [`stop`]: PhaseTimer::stop
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    start: Instant,
}

impl PhaseTimer {
    /// Starts timing `phase` now.
    #[must_use]
    pub fn start(phase: Phase) -> Self {
        Self {
            phase,
            start: Instant::now(),
        }
    }

    /// Ends the span, folding its wall-clock duration into `profile`,
    /// and returns the elapsed seconds.
    pub fn stop(self, profile: &mut PhaseProfile) -> f64 {
        let seconds = self.start.elapsed().as_secs_f64();
        profile.record(self.phase, seconds);
        seconds
    }
}

// --- the registry ----------------------------------------------------------

/// Named metrics behind deterministic (`BTreeMap`) iteration order:
/// counters, gauges and tick histograms. The engine/portfolio layer
/// tags entries by dotted path (`portfolio.cMA.children`); rendering
/// code iterates in key order so reports are stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, TickHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter, created zeroed on first touch.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_owned(), Counter::new());
        }
        self.counters.get_mut(name).expect("inserted above")
    }

    /// The named gauge, created empty on first touch.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        if !self.gauges.contains_key(name) {
            self.gauges.insert(name.to_owned(), Gauge::new());
        }
        self.gauges.get_mut(name).expect("inserted above")
    }

    /// The named histogram, created empty on first touch.
    pub fn histogram(&mut self, name: &str) -> &mut TickHistogram {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_owned(), TickHistogram::new());
        }
        self.histograms.get_mut(name).expect("inserted above")
    }

    /// A counter's value (0 when absent).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// A histogram, when present.
    #[must_use]
    pub fn get_histogram(&self, name: &str) -> Option<&TickHistogram> {
        self.histograms.get(name)
    }

    /// All counters, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &Counter)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All gauges, in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &Gauge)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All histograms, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &TickHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into this registry, prefixing every incoming key
    /// with `prefix` (counters add, gauges re-sample the latest value,
    /// histograms merge).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Self) {
        for (name, counter) in other.counters() {
            self.counter(&format!("{prefix}{name}")).add(counter.get());
        }
        for (name, gauge) in other.gauges() {
            if gauge.samples() > 0 {
                self.gauge(&format!("{prefix}{name}")).set(gauge.get());
            }
        }
        for (name, histogram) in other.histograms() {
            self.histogram(&format!("{prefix}{name}")).merge(histogram);
        }
    }
}

// --- the engine-runtime sink -----------------------------------------------

/// An [`Observer`] that folds a run's deterministic counters into a
/// [`MetricsRegistry`] under a key prefix (`""` for a bare run,
/// `"portfolio.cMA."` for a tagged contender): runs started/finished,
/// improvements, final iterations/children, and a histogram of the
/// children count at each improvement (the search-effort profile).
/// Wall-clock (`Snapshot::elapsed`) is deliberately **not** recorded —
/// everything this sink writes replays bit-identically.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    prefix: String,
    registry: MetricsRegistry,
}

impl MetricsSink {
    /// A sink tagging every key with `prefix`.
    #[must_use]
    pub fn new(prefix: impl Into<String>) -> Self {
        Self {
            prefix: prefix.into(),
            registry: MetricsRegistry::new(),
        }
    }

    fn key(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// The accumulated registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the sink, yielding its registry.
    #[must_use]
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl Observer for MetricsSink {
    fn on_start(&mut self, _snapshot: &Snapshot) {
        let key = self.key("runs");
        self.registry.counter(&key).inc();
    }

    fn on_improvement(&mut self, snapshot: &Snapshot) {
        let key = self.key("improvements");
        self.registry.counter(&key).inc();
        let key = self.key("improvement_children");
        self.registry.histogram(&key).record(snapshot.children);
    }

    fn on_iteration(&mut self, snapshot: &Snapshot, _engine: &dyn Metaheuristic) {
        let key = self.key("iterations");
        self.registry.gauge(&key).set(snapshot.iterations as i64);
    }

    fn on_finish(&mut self, snapshot: &Snapshot) {
        let key = self.key("finishes");
        self.registry.counter(&key).inc();
        let key = self.key("children");
        self.registry.counter(&key).add(snapshot.children);
    }
}

// --- the JSONL trace writer ------------------------------------------------

/// A structured JSON-lines writer: every record is one flat JSON object
/// on its own line, starting with a `"type"` discriminator. Hand-rolled
/// (no serde) per the workspace's zero-dependency policy; the schema the
/// simulator emits is documented in the README's Observability section.
///
/// # Panics
///
/// Write failures panic with context — traces feed offline analysis,
/// and a silently truncated trace is worse than a dead run.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
    buf: String,
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps a byte sink.
    #[must_use]
    pub fn new(out: W) -> Self {
        Self {
            out,
            buf: String::new(),
        }
    }

    /// Opens a record of the given `"type"`. Finish it with
    /// [`JsonlRecord::end`].
    pub fn record(&mut self, kind: &str) -> JsonlRecord<'_, W> {
        self.buf.clear();
        self.buf.push_str("{\"type\":");
        push_json_string(&mut self.buf, kind);
        JsonlRecord { writer: self }
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) {
        self.out.flush().expect("telemetry trace flush failed");
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(mut self) -> W {
        self.flush();
        self.out
    }
}

/// One in-flight JSONL record; append fields, then [`end`](Self::end).
#[derive(Debug)]
pub struct JsonlRecord<'a, W: Write> {
    writer: &'a mut JsonlWriter<W>,
}

impl<W: Write> JsonlRecord<'_, W> {
    fn sep(&mut self) {
        self.writer.buf.push(',');
    }

    fn push_key(&mut self, key: &str) {
        self.sep();
        push_json_string(&mut self.writer.buf, key);
        self.writer.buf.push(':');
    }

    /// Appends an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        let mut scratch = itoa_u64(value);
        self.writer.buf.push_str(scratch.as_str());
        scratch.clear();
        self
    }

    /// Appends a signed integer field.
    #[must_use]
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        self.push_key(key);
        if value < 0 {
            self.writer.buf.push('-');
        }
        self.writer
            .buf
            .push_str(itoa_u64(value.unsigned_abs()).as_str());
        self
    }

    /// Appends a float field (`null` for non-finite values, which JSON
    /// cannot represent).
    #[must_use]
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.push_key(key);
        if value.is_finite() {
            // Rust's shortest-roundtrip Display for finite f64 is valid
            // JSON.
            let mut buf = [0u8; 32];
            let mut cursor = std::io::Cursor::new(&mut buf[..]);
            let _ = write!(cursor, "{value}");
            let len = cursor.position() as usize;
            let text = std::str::from_utf8(&buf[..len]).expect("ASCII float");
            self.writer.buf.push_str(text);
        } else {
            self.writer.buf.push_str("null");
        }
        self
    }

    /// Appends a string field (escaped).
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.push_key(key);
        push_json_string(&mut self.writer.buf, value);
        self
    }

    /// Appends a hex-encoded 64-bit digest as a string field (JSON
    /// numbers above 2⁵³ are hazardous to downstream tooling).
    #[must_use]
    pub fn hex(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        self.writer.buf.push('"');
        for shift in (0..16).rev() {
            let nibble = ((value >> (shift * 4)) & 0xF) as usize;
            self.writer
                .buf
                .push(char::from(b"0123456789abcdef"[nibble]));
        }
        self.writer.buf.push('"');
        self
    }

    /// Closes the record and writes the line.
    pub fn end(self) {
        self.writer.buf.push_str("}\n");
        self.writer
            .out
            .write_all(self.writer.buf.as_bytes())
            .expect("telemetry trace write failed");
    }
}

/// Decimal formatting without `format!` churn on the record hot path.
fn itoa_u64(value: u64) -> String {
    // Records are only built when tracing is enabled, so a small String
    // here is fine; the disabled path never reaches this.
    value.to_string()
}

/// Pushes `text` as a JSON string literal (quotes, escapes).
fn push_json_string(buf: &mut String, text: &str) {
    buf.push('"');
    for ch in text.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objectives;
    use std::time::Duration;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        assert_eq!(g.high_water(), 0);
        g.set(-3);
        assert_eq!(g.high_water(), -3, "first sample sets the mark");
        g.set(7);
        g.set(2);
        assert_eq!((g.get(), g.high_water(), g.samples()), (2, 7, 3));
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_is_exact_below_the_linear_cutoff() {
        let mut h = TickHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        for v in 0..8u64 {
            assert_eq!(h.buckets()[v as usize], 1, "value {v} gets a unit bucket");
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 28);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.mean(), 3.5);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        // Every bucket's bounds round-trip through the index function,
        // buckets tile contiguously, and extremes land in range.
        let mut expected_low = 0u64;
        for index in 0..NUM_BUCKETS {
            let (low, high) = bucket_bounds(index);
            assert_eq!(low, expected_low, "bucket {index} must tile contiguously");
            assert!(low <= high);
            assert_eq!(bucket_index(low), index, "low bound of {index}");
            assert_eq!(bucket_index(high), index, "high bound of {index}");
            expected_low = high.wrapping_add(1);
        }
        assert_eq!(expected_low, 0, "the last bucket must end at u64::MAX");
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_resolve_within_bucket_error() {
        let mut h = TickHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let got = h.quantile(q).expect("non-empty") as f64;
            let exact = exact as f64;
            assert!(
                got >= exact && got <= exact * 1.125 + 1.0,
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.quantile(0.0), Some(1), "q=0 clamps to the minimum");
        assert_eq!(h.quantile(1.0), Some(1000), "q=1 clamps to the maximum");
    }

    #[test]
    fn quantile_of_a_constant_distribution_is_exact() {
        let mut h = TickHistogram::new();
        for _ in 0..100 {
            h.record(123_456);
        }
        // The clamp into [min, max] makes degenerate distributions exact
        // even though the bucket is 2^14 wide out here.
        assert_eq!(h.p50(), Some(123_456));
        assert_eq!(h.p99(), Some(123_456));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = TickHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_bucketwise_exact() {
        let mut a = TickHistogram::new();
        let mut b = TickHistogram::new();
        let mut whole = TickHistogram::new();
        for v in [3u64, 17, 900, 1 << 40] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 5, 123_456] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must equal recording the union");
    }

    #[test]
    fn identical_streams_yield_identical_histograms() {
        let record_all = |values: &[u64]| {
            let mut h = TickHistogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let values: Vec<u64> = (0..5000).map(|i| (i * 2654435761) % (1 << 45)).collect();
        assert_eq!(record_all(&values), record_all(&values));
    }

    #[test]
    fn phase_profile_attributes_and_shares() {
        let mut p = PhaseProfile::new();
        assert!(p.is_empty());
        p.record(Phase::Scheduler, 3.0);
        p.record(Phase::SnapshotBuild, 1.0);
        p.record(Phase::Scheduler, 1.0);
        assert_eq!(p.calls(Phase::Scheduler), 2);
        assert_eq!(p.wall_s(Phase::Scheduler), 4.0);
        assert_eq!(p.total_wall_s(), 5.0);
        assert_eq!(p.share(Phase::Scheduler), 0.8);
        assert_eq!(p.share(Phase::Queue), 0.0);
        let mut q = PhaseProfile::new();
        q.record(Phase::Queue, 5.0);
        p.merge(&q);
        assert_eq!(p.share(Phase::Queue), 0.5);
    }

    #[test]
    fn phase_timer_folds_into_the_profile() {
        let mut p = PhaseProfile::new();
        let timer = PhaseTimer::start(Phase::Dispatch);
        let elapsed = timer.stop(&mut p);
        assert!(elapsed >= 0.0);
        assert_eq!(p.calls(Phase::Dispatch), 1);
        assert!(p.wall_s(Phase::Dispatch) >= 0.0);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "scheduler",
                "snapshot_build",
                "dispatch",
                "queue",
                "fault_handling"
            ]
        );
    }

    #[test]
    fn registry_creates_on_first_touch_and_iterates_in_key_order() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.counter("b.count").add(2);
        r.counter("a.count").inc();
        r.gauge("depth").set(9);
        r.histogram("wait").record(100);
        let keys: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.count", "b.count"], "BTreeMap order");
        assert_eq!(r.counter_value("b.count"), 2);
        assert_eq!(r.counter_value("missing"), 0);
        assert_eq!(r.get_histogram("wait").map(TickHistogram::count), Some(1));
    }

    #[test]
    fn registry_merge_prefixes_every_key() {
        let mut inner = MetricsRegistry::new();
        inner.counter("children").add(10);
        inner.gauge("iterations").set(3);
        inner.histogram("improvement_children").record(7);
        let mut outer = MetricsRegistry::new();
        outer.merge_prefixed("portfolio.cMA.", &inner);
        outer.merge_prefixed("portfolio.cMA.", &inner);
        assert_eq!(outer.counter_value("portfolio.cMA.children"), 20);
        assert_eq!(
            outer
                .get_histogram("portfolio.cMA.improvement_children")
                .map(TickHistogram::count),
            Some(2)
        );
    }

    fn snapshot(iterations: u64, children: u64) -> Snapshot {
        Snapshot {
            elapsed: Duration::from_millis(1),
            iterations,
            children,
            fitness: 10.0,
            objectives: Objectives {
                makespan: 1.0,
                flowtime: 2.0,
            },
        }
    }

    #[test]
    fn metrics_sink_records_deterministic_run_facts() {
        let mut sink = MetricsSink::new("portfolio.cMA.");
        sink.on_start(&snapshot(0, 0));
        sink.on_improvement(&snapshot(1, 40));
        sink.on_improvement(&snapshot(2, 90));
        sink.on_finish(&snapshot(5, 200));
        let r = sink.registry();
        assert_eq!(r.counter_value("portfolio.cMA.runs"), 1);
        assert_eq!(r.counter_value("portfolio.cMA.improvements"), 2);
        assert_eq!(r.counter_value("portfolio.cMA.children"), 200);
        let h = r
            .get_histogram("portfolio.cMA.improvement_children")
            .expect("recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(40));
    }

    #[test]
    fn jsonl_writer_emits_one_flat_object_per_line() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record("arrival")
            .u64("t", 42)
            .u64("job", 7)
            .f64("baseline", 1.5)
            .end();
        w.record("run_end")
            .str("scheduler", "cMA[λ=0.5]")
            .i64("delta", -3)
            .f64("nan", f64::NAN)
            .hex("digest", 0x00ab_cdef_0123_4567)
            .end();
        let out = String::from_utf8(w.into_inner()).expect("UTF-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"arrival\",\"t\":42,\"job\":7,\"baseline\":1.5}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"run_end\",\"scheduler\":\"cMA[λ=0.5]\",\"delta\":-3,\
             \"nan\":null,\"digest\":\"00abcdef01234567\"}"
        );
    }

    #[test]
    fn jsonl_strings_escape_controls_and_quotes() {
        let mut buf = String::new();
        push_json_string(&mut buf, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(buf, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    }
}
