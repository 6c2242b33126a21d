//! Event queue of the discrete-event simulation.
//!
//! Simulation time is measured in **ticks** — the workspace's exact
//! fixed-point representation ([`cmags_core::ticks`], 1 tick = 2⁻³²
//! time units) — so event ordering is a plain integer comparison with
//! no `total_cmp`/epsilon subtleties, and two queue implementations can
//! be required to agree *bit for bit*.
//!
//! Two backends share one deterministic contract (earliest tick first,
//! ties broken by insertion sequence):
//!
//! * [`QueueKind::Calendar`] — the default: a calendar queue (dynamic
//!   timing wheel, Brown 1988) whose bucket array and bucket width
//!   resize with the population, giving O(1) amortized push/pop
//!   however many events are pending. This is what lets the simulator
//!   drain 10⁶+ jobs at flat per-event cost. The bucket width is
//!   derived from the **head** of the queue (the smallest pending
//!   times), not the global time span: a hold-model steady state
//!   concentrates every pending event within one maximum inter-event
//!   gap of the current minimum no matter how far simulated time has
//!   advanced, and a span-derived width parks that whole window in a
//!   couple of buckets — O(window) memmove per push, which is exactly
//!   how an earlier revision lost to the heap below 10⁵ pending.
//!   Overcrowded buckets trigger a cheap cursor-local width
//!   re-derivation (narrowing, hysteresis ≥ 2 bits, full rebuilds
//!   amortised over `stored` pushes), and repeated sparse-fallback
//!   pops trigger the symmetric widening from the global span.
//! * [`QueueKind::Heap`] — the seed's `BinaryHeap` kept as the hidden
//!   *reference* implementation (the same oracle pattern as the
//!   `peek_*_merge` evaluator reference): property tests pin the
//!   calendar queue against it on random streams, and the `sim_scale`
//!   experiment of `cmags-bench` times both in its hold model.
//!
//! Both backends support **lazy cancellation** (the dslab
//! `SimulationState` idiom): [`EventQueue::cancel`] marks a scheduled
//! event's token and [`EventQueue::pop`] silently discards it, so a
//! machine departure can retract its in-flight `JobFinish` instead of
//! every handler re-validating machine state.

use std::collections::BinaryHeap;

/// Simulation event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new job enters the system.
    JobArrival {
        /// Job identifier.
        job: u64,
    },
    /// The batch scheduler wakes up and plans all pending jobs.
    SchedulerActivation,
    /// A machine finishes its running job.
    JobFinish {
        /// Machine identifier.
        machine: u64,
        /// Job identifier.
        job: u64,
    },
    /// A new machine joins the grid. The id is allocated (reserved in
    /// the pool) when the event is *scheduled*, so the event stream
    /// carries the machine's real identity, not a placeholder.
    MachineJoin {
        /// Machine identifier, reserved at schedule time.
        machine: u64,
    },
    /// A machine leaves the grid (killing its running job). The victim
    /// is drawn uniformly from the alive pool when the event fires, so
    /// the variant carries no id.
    MachineLeave,
    /// A correlated mass-departure shock removes a fraction of the
    /// alive pool at one instant ([`crate::scenario::ChurnModel`]).
    MassDeparture,
    /// The running job on a machine fails transiently
    /// ([`crate::FailureModel`]): the attempt is lost but the machine
    /// stays up, and the job retries under the
    /// [`crate::RecoveryPolicy`].
    JobFail {
        /// Machine identifier.
        machine: u64,
        /// Job identifier.
        job: u64,
    },
    /// A failed job's retry delay elapses and it re-enters the pending
    /// queue for the next scheduler activation.
    JobRetry {
        /// Job identifier.
        job: u64,
    },
    /// A machine crashes: the running job is killed and the machine is
    /// quarantined (removed from the schedulable pool but *not*
    /// departed) until the matching [`Event::MachineRecover`] fires.
    MachineCrash {
        /// Machine identifier.
        machine: u64,
    },
    /// A crashed machine finishes repair and rejoins the schedulable
    /// pool under the same identity.
    MachineRecover {
        /// Machine identifier.
        machine: u64,
    },
}

/// Token identifying one scheduled event, for [`EventQueue::cancel`].
pub type EventToken = u64;

/// An event scheduled at a simulation time (ticks).
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: i64,
    seq: u64,
    event: Event,
}

impl Entry {
    /// The global ordering key: earliest tick first, ties broken by
    /// insertion sequence.
    #[inline]
    fn key(&self) -> (i64, u64) {
        (self.time, self.seq)
    }
}

/// Which backend an [`EventQueue`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Calendar queue / timing wheel: O(1) amortized push/pop.
    #[default]
    Calendar,
    /// The seed's `BinaryHeap`: O(log n) push/pop, kept as the
    /// reference implementation and bench baseline.
    Heap,
}

// --- heap backend (reference) ------------------------------------------

#[derive(Debug, Clone, Copy)]
struct HeapEntry(Entry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other.0.key().cmp(&self.0.key())
    }
}

// --- calendar backend ---------------------------------------------------

/// Calendar queue: `nbuckets` (a power of two) buckets, each covering a
/// "day" of `2^bucket_bits` ticks; day `d` maps to bucket `d % nbuckets`,
/// so the array wraps around like a wall calendar and one "year" spans
/// `nbuckets` days. Buckets keep their entries sorted by key
/// *descending*, so the due-soonest entry of a bucket is at the back
/// and pops are `Vec::pop`. Both the bucket count and the bucket width
/// adapt on resize, keeping the population spread at O(1) entries per
/// bucket whatever the event-time density.
#[derive(Debug, Default)]
struct Calendar {
    buckets: Vec<Vec<Entry>>,
    /// log₂ of the bucket width in ticks.
    bucket_bits: u32,
    /// Day (`time >> bucket_bits`) of the pop cursor: no stored entry
    /// lies on an earlier day.
    day: i64,
    /// Stored entries, including not-yet-collected cancelled ones.
    stored: usize,
    /// Pushes since the last width-derivation attempt: rate-limits the
    /// cursor-local sampling of the overcrowding trigger.
    pushes_since_attempt: usize,
    /// Pushes since the last actual rebuild: amortises the O(stored)
    /// bucket redistribution of a narrowing resize to O(1) per push.
    pushes_since_rebuild: usize,
    /// Consecutive pops that fell through a whole empty year to the
    /// sparse full-bucket scan: the symmetric *widening* signal.
    sparse_pops: usize,
}

/// Initial bucket count (power of two).
const INIT_BUCKETS: usize = 16;
/// Smallest bucket count a shrink may reach.
const MIN_BUCKETS: usize = 16;
/// Initial bucket width: 2⁴² ticks = 1024 time units. Resizes adapt it
/// to the observed event-time span almost immediately.
const INIT_BUCKET_BITS: u32 = 42;
/// Largest bucket count a grow may reach. Beyond ~10⁵ stored entries,
/// more buckets stop paying: the header array outgrows cache and every
/// push becomes a miss, while a moderately-loaded bucket costs one
/// cached binary search. Days wrap around the year more often at the
/// cap, which the per-pop day check already handles.
const MAX_BUCKETS: usize = 1 << 16;
/// A bucket absorbing this many entries on push signals that the bucket
/// width no longer matches the local event-time density (see
/// [`Calendar::push`]).
const OVERCROWD: usize = 32;
/// How many of the smallest stored event times feed the bucket-width
/// derivation on resize.
const HEAD_SAMPLE: usize = 64;
/// Pushes between width-derivation attempts on the overcrowding path.
const ATTEMPT_EVERY: usize = 64;
/// Consecutive sparse-fallback pops before the queue widens its days.
const SPARSE_POPS: usize = 16;

impl Calendar {
    fn new() -> Self {
        Self {
            buckets: (0..INIT_BUCKETS).map(|_| Vec::new()).collect(),
            bucket_bits: INIT_BUCKET_BITS,
            day: 0,
            stored: 0,
            pushes_since_attempt: 0,
            pushes_since_rebuild: 0,
            sparse_pops: 0,
        }
    }

    #[inline]
    fn day_of(&self, time: i64) -> i64 {
        time >> self.bucket_bits
    }

    #[inline]
    fn bucket_of(&self, day: i64) -> usize {
        // lint:allow(no-lossy-casts-in-ticks): the truncation IS the calendar wrap — the day is reduced mod the power-of-two bucket count immediately after, so any high bits the cast drops are masked off anyway (and days are non-negative: times are ticks >= 0).
        (day as u64 as usize) & (self.buckets.len() - 1)
    }

    fn push(&mut self, entry: Entry) {
        let day = self.day_of(entry.time);
        if self.stored == 0 || day < self.day {
            // The cursor must never sit past a stored entry.
            self.day = day;
        }
        let bucket = self.bucket_of(day);
        let slot = &mut self.buckets[bucket];
        // Descending by (time, seq): binary-search the insertion point.
        let key = entry.key();
        let pos = slot.partition_point(|e| e.key() > key);
        slot.insert(pos, entry);
        let crowded = slot.len();
        self.stored += 1;
        self.pushes_since_attempt += 1;
        self.pushes_since_rebuild += 1;
        if self.stored > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        } else if crowded >= OVERCROWD && self.pushes_since_attempt >= ATTEMPT_EVERY {
            // One bucket is absorbing the population: the width was
            // derived for an older, sparser distribution and pushes
            // now pay an O(bucket) insertion shift. Re-derive the
            // width from the head of the queue — but only narrow
            // (overcrowding never calls for *wider* days; widening is
            // the sparse-pop trigger below), with a ≥ 2-bit hysteresis
            // so borderline estimates cannot flap. The cursor-local
            // sample is cheap (O(HEAD_SAMPLE + days walked)), so it
            // may run every ATTEMPT_EVERY pushes; the O(stored)
            // redistribution of an actual rebuild is the expensive
            // part and additionally requires `stored` pushes since the
            // last rebuild, keeping resize work amortised O(1) per
            // push. A same-tick burst (span 0 over the head sample)
            // keeps the current width: no bucket width can split
            // simultaneous events.
            self.pushes_since_attempt = 0;
            if self.pushes_since_rebuild >= self.stored {
                let bits = self.derived_bits();
                if bits + 1 < self.bucket_bits {
                    self.resize_to(bits);
                }
            }
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.stored == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        for _ in 0..nbuckets {
            let bucket = self.bucket_of(self.day);
            if let Some(last) = self.buckets[bucket].last() {
                if self.day_of(last.time) == self.day {
                    let entry = self.buckets[bucket].pop().expect("non-empty bucket");
                    self.stored -= 1;
                    self.sparse_pops = 0;
                    if self.buckets.len() > MIN_BUCKETS && self.stored < self.buckets.len() / 4 {
                        self.resize();
                    }
                    return Some(entry);
                }
            }
            self.day += 1;
        }
        // A whole year of empty days: the population is sparse relative
        // to the bucket width. Jump the cursor straight to the global
        // minimum (each bucket's candidate is its back entry), tracking
        // the global max on the way — the scan visits every entry's
        // bucket head anyway, so the span estimate is free.
        let (mut best_bucket, mut best_key) = (usize::MAX, (i64::MAX, u64::MAX));
        let mut hi = i64::MIN;
        for (idx, slot) in self.buckets.iter().enumerate() {
            if let Some(last) = slot.last() {
                if last.key() < best_key {
                    best_key = last.key();
                    best_bucket = idx;
                }
                // Buckets are sorted descending, so the front is the
                // bucket's latest entry.
                hi = hi.max(slot[0].time);
            }
        }
        debug_assert_ne!(best_bucket, usize::MAX, "stored > 0 but no entry found");
        let entry = self.buckets[best_bucket].pop().expect("non-empty bucket");
        self.day = self.day_of(entry.time);
        self.stored -= 1;
        // Repeated sparse fallbacks mean the days are far too narrow
        // for the current population (e.g. after a dense burst drained
        // and only long-horizon events remain): every pop is paying an
        // O(buckets) scan. Widen to spread the remaining span at ~1
        // entry per day, with the same ≥ 2-bit hysteresis as the
        // narrowing path. The cursor-local head sample cannot see this
        // case (the next entry is beyond the sampled year), so the
        // widening estimate uses the global span just measured.
        self.sparse_pops += 1;
        if self.sparse_pops >= SPARSE_POPS && self.stored >= 2 && hi > entry.time {
            self.sparse_pops = 0;
            let mean_gap = ((hi - entry.time) as u128 / self.stored as u128).max(1);
            let bits = (128 - mean_gap.leading_zeros()).min(62);
            if bits > self.bucket_bits + 1 {
                self.resize_to(bits);
            }
        }
        Some(entry)
    }

    #[inline]
    fn peek(&self) -> Option<&Entry> {
        if self.stored == 0 {
            return None;
        }
        // Scan one year from the cursor, then fall back to a full scan.
        // lint:allow(no-lossy-casts-in-ticks): bucket counts are clamped to at most 2^26 on resize, far inside i64 range, so the cast is lossless by construction.
        for offset in 0..self.buckets.len() as i64 {
            let day = self.day + offset;
            if let Some(last) = self.buckets[self.bucket_of(day)].last() {
                if self.day_of(last.time) == day {
                    return Some(last);
                }
            }
        }
        self.buckets
            .iter()
            .filter_map(|slot| slot.last())
            .min_by_key(|e| e.key())
    }

    /// Derives the bucket width (log₂) from the **head** of the queue:
    /// the mean gap between the `HEAD_SAMPLE` smallest distinct stored
    /// event times, aiming at ~4 entries per day (Brown's original
    /// width sampling, made deterministic and allocation-free). The
    /// head is what pops and near-cursor pushes traverse, so it — not
    /// the global span — is the density that sets per-op cost: a
    /// steady-state population concentrates within one max-gap of the
    /// current minimum however wide the times ranged historically, and
    /// a global-span estimate then leaves the whole population in a
    /// handful of days. Returns the current width when the sample is
    /// degenerate (fewer than two distinct times).
    ///
    /// The sample walks days forward from the pop cursor, so its cost
    /// is O(`HEAD_SAMPLE` + days walked) — independent of the stored
    /// count, which is what lets the overcrowding trigger attempt a
    /// re-derivation every few dozen pushes.
    fn derived_bits(&self) -> u32 {
        // Walking days in cursor order and each day's bucket back-run
        // in reverse yields stored times in ascending order (buckets
        // are sorted descending, and no stored entry lies on a day
        // before the cursor), so the first HEAD_SAMPLE collected are
        // exactly the smallest within the walked year.
        let mut heads = [0i64; HEAD_SAMPLE];
        let mut len = 0usize;
        // lint:allow(no-lossy-casts-in-ticks): bucket counts are clamped to at most 2^16 on resize, far inside i64 range, so the cast is lossless by construction.
        'walk: for offset in 0..self.buckets.len() as i64 {
            let day = self.day + offset;
            let slot = &self.buckets[self.bucket_of(day)];
            for entry in slot.iter().rev() {
                if self.day_of(entry.time) != day {
                    break;
                }
                heads[len] = entry.time;
                len += 1;
                if len == HEAD_SAMPLE {
                    break 'walk;
                }
            }
        }
        if len < 2 {
            return self.bucket_bits;
        }
        let span = heads[len - 1] - heads[0];
        let distinct = 1 + heads[..len]
            .windows(2)
            .filter(|pair| pair[0] != pair[1])
            .count();
        if span <= 0 || distinct < 2 {
            return self.bucket_bits;
        }
        let mean_gap = (span as u128 / (distinct as u128 - 1)).max(1);
        // log₂(4 · mean_gap), i.e. the width that puts ~4 entries in
        // each day at the head density.
        (128 - (mean_gap << 2).leading_zeros()).min(62)
    }

    /// Rebuilds the bucket array for the current population: the bucket
    /// count tracks the number of stored entries (so load stays O(1)
    /// per bucket) and the bucket width tracks the head density (see
    /// [`Self::derived_bits`]). Both inputs are functions of the stored
    /// entries alone, so resizes are deterministic.
    fn resize(&mut self) {
        self.resize_to(self.derived_bits());
    }

    /// Rebuilds the bucket array at the given bucket width.
    fn resize_to(&mut self, new_bits: u32) {
        let target = self
            .stored
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut old = std::mem::take(&mut self.buckets);
        self.buckets = (0..target).map(|_| Vec::new()).collect();
        self.bucket_bits = new_bits;
        let stored = self.stored;
        self.stored = 0;
        self.pushes_since_attempt = 0;
        self.pushes_since_rebuild = 0;
        self.sparse_pops = 0;
        let mut min_day = i64::MAX;
        for slot in &mut old {
            for entry in slot.drain(..) {
                min_day = min_day.min(self.day_of(entry.time));
                let bucket = self.bucket_of(self.day_of(entry.time));
                let dest = &mut self.buckets[bucket];
                let key = entry.key();
                let pos = dest.partition_point(|e| e.key() > key);
                dest.insert(pos, entry);
            }
        }
        self.stored = stored;
        self.day = if self.stored == 0 { 0 } else { min_day };
    }
}

// --- the public queue ----------------------------------------------------

#[derive(Debug)]
enum Backend {
    Calendar(Calendar),
    Heap(BinaryHeap<HeapEntry>),
}

impl Backend {
    fn push(&mut self, entry: Entry) {
        match self {
            Self::Calendar(q) => q.push(entry),
            Self::Heap(q) => q.push(HeapEntry(entry)),
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        match self {
            Self::Calendar(q) => q.pop(),
            Self::Heap(q) => q.pop().map(|e| e.0),
        }
    }

    fn peek_seq(&self) -> Option<u64> {
        match self {
            Self::Calendar(q) => q.peek().map(|e| e.seq),
            Self::Heap(q) => q.peek().map(|e| e.0.seq),
        }
    }

    fn peek_time(&self) -> Option<i64> {
        match self {
            Self::Calendar(q) => q.peek().map(|e| e.time),
            Self::Heap(q) => q.peek().map(|e| e.0.time),
        }
    }
}

/// Deterministic earliest-first event queue over tick timestamps, with
/// lazy cancellation. See the module docs for the backend contract.
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    /// Cancelled-but-not-yet-popped tokens, kept sorted ascending for
    /// binary-search membership. Tokens are dense sequential ids and
    /// the set stays small (entries are purged as their events pop), so
    /// a flat sorted vec beats a tree here — and unlike a hash set it
    /// is deterministic by construction and allocation-free in steady
    /// state (capacity is retained across cancel/purge cycles, which
    /// the counting-allocator test pins).
    cancelled: Vec<EventToken>,
    /// Insertion sequence, doubling as the cancellation token.
    seq: u64,
    /// Live (scheduled and not cancelled) events.
    live: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty calendar queue (the default backend).
    #[must_use]
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// Creates an empty queue on the given backend.
    #[must_use]
    pub fn with_kind(kind: QueueKind) -> Self {
        Self {
            backend: match kind {
                QueueKind::Calendar => Backend::Calendar(Calendar::new()),
                QueueKind::Heap => Backend::Heap(BinaryHeap::new()),
            },
            cancelled: Vec::new(),
            seq: 0,
            live: 0,
        }
    }

    /// Schedules `event` at absolute simulation time `time` (ticks) and
    /// returns a token that can later [`cancel`](Self::cancel) it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative.
    pub fn push(&mut self, time: i64, event: Event) -> EventToken {
        assert!(time >= 0, "event time must be non-negative");
        let token = self.seq;
        self.backend.push(Entry {
            time,
            seq: token,
            event,
        });
        self.seq += 1;
        self.live += 1;
        token
    }

    /// Lazily cancels a scheduled event: the entry stays in its bucket
    /// and [`pop`](Self::pop) discards it when reached. The caller must
    /// only cancel tokens of still-pending events, and each at most
    /// once (the simulator cancels a machine's `JobFinish` exactly when
    /// the machine is removed).
    pub fn cancel(&mut self, token: EventToken) {
        debug_assert!(token < self.seq, "cancel of a never-issued token");
        match self.cancelled.binary_search(&token) {
            Ok(_) => debug_assert!(false, "token {token} cancelled twice"),
            Err(pos) => {
                self.cancelled.insert(pos, token);
                self.live -= 1;
            }
        }
    }

    /// Removes `token` from the cancel set if present.
    #[inline]
    fn take_cancelled(&mut self, token: EventToken) -> bool {
        match self.cancelled.binary_search(&token) {
            Ok(pos) => {
                self.cancelled.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Pops the earliest live event, if any, as `(ticks, event)`.
    pub fn pop(&mut self) -> Option<(i64, Event)> {
        while let Some(entry) = self.backend.pop() {
            if self.take_cancelled(entry.seq) {
                continue;
            }
            self.live -= 1;
            return Some((entry.time, entry.event));
        }
        debug_assert_eq!(self.live, 0);
        None
    }

    /// Tick time of the earliest live pending event.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<i64> {
        // Purge cancelled entries off the head so the peek is live.
        while let Some(seq) = self.backend.peek_seq() {
            if self.cancelled.binary_search(&seq).is_err() {
                break;
            }
            let entry = self.backend.pop().expect("peeked entry");
            self.take_cancelled(entry.seq);
        }
        self.backend.peek_time()
    }

    /// Number of live pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue) -> Vec<(i64, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_on_both_backends() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            q.push(5_000, Event::SchedulerActivation);
            q.push(1_000, Event::JobArrival { job: 1 });
            q.push(3_000, Event::JobArrival { job: 2 });
            let times: Vec<i64> = drain(&mut q).iter().map(|&(t, _)| t).collect();
            assert_eq!(times, vec![1_000, 3_000, 5_000], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_by_insertion_order_on_both_backends() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            q.push(2, Event::JobArrival { job: 10 });
            q.push(2, Event::JobArrival { job: 20 });
            q.push(2, Event::SchedulerActivation);
            assert_eq!(q.pop().unwrap().1, Event::JobArrival { job: 10 });
            assert_eq!(q.pop().unwrap().1, Event::JobArrival { job: 20 });
            assert_eq!(q.pop().unwrap().1, Event::SchedulerActivation);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(4, Event::MachineJoin { machine: 7 });
        assert_eq!(q.peek_time(), Some(4));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancelled_events_never_pop() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            let _a = q.push(1, Event::JobArrival { job: 1 });
            let b = q.push(2, Event::JobFinish { machine: 0, job: 1 });
            let _c = q.push(3, Event::SchedulerActivation);
            q.cancel(b);
            assert_eq!(q.len(), 2, "{kind:?}");
            let events: Vec<Event> = drain(&mut q).iter().map(|&(_, e)| e).collect();
            assert_eq!(
                events,
                vec![Event::JobArrival { job: 1 }, Event::SchedulerActivation],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn cancelling_the_head_keeps_peek_live() {
        let mut q = EventQueue::new();
        let head = q.push(1, Event::JobFinish { machine: 0, job: 0 });
        q.push(9, Event::SchedulerActivation);
        q.cancel(head);
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.pop(), Some((9, Event::SchedulerActivation)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_survives_growth_and_sparse_jumps() {
        // Push enough to force several resizes, with times spread far
        // beyond a year of the initial width, then drain in order.
        let mut q = EventQueue::new();
        let mut expect: Vec<i64> = Vec::new();
        let mut t: i64 = 0;
        for i in 0..4_000u32 {
            // Deterministic scatter: clusters, ties, and huge gaps.
            t += match i % 7 {
                0 => 0, // tie with the previous push
                1..=4 => i64::from(i % 5) + 1,
                5 => 1 << 45, // beyond one initial-width year
                _ => 1 << 20,
            };
            q.push(t, Event::JobArrival { job: u64::from(i) });
            expect.push(t);
        }
        expect.sort_unstable();
        let got: Vec<i64> = drain(&mut q).iter().map(|&(time, _)| time).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn calendar_matches_heap_on_interleaved_ops() {
        // Deterministic interleaving of pushes, pops and cancels; the
        // randomised version lives in tests/prop_queue.rs.
        use std::collections::BTreeSet;
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        // Model of the pending set, keyed exactly like the queues, so
        // cancels only ever target still-pending tokens (the contract).
        let mut pending: BTreeSet<(i64, EventToken)> = BTreeSet::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for step in 0..2_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match state % 5 {
                0..=2 => {
                    let time = i64::try_from(state >> 16).unwrap() % 1_000_000;
                    let token = cal.push(time, Event::JobArrival { job: step });
                    let h = heap.push(time, Event::JobArrival { job: step });
                    assert_eq!(token, h);
                    pending.insert((time, token));
                }
                3 => {
                    let expect = pending.pop_first();
                    let got = cal.pop();
                    assert_eq!(got, heap.pop());
                    assert_eq!(got.map(|(t, _)| t), expect.map(|(t, _)| t));
                }
                _ => {
                    if let Some(&victim) = pending
                        .iter()
                        .nth(usize::try_from(state >> 32).unwrap() % 7)
                    {
                        pending.remove(&victim);
                        cal.cancel(victim.1);
                        heap.cancel(victim.1);
                    }
                }
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.len(), pending.len());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_time() {
        let mut q = EventQueue::new();
        q.push(-1, Event::SchedulerActivation);
    }

    /// Replay pin for the cancel set: a cancellation-heavy interleaving
    /// must drain to the same FNV-folded stream on both backends, and
    /// to the exact digest recorded when the cancel set was a
    /// `HashSet` — proving the sorted-vec conversion changed no
    /// observable behavior (the set is membership-only; no iteration
    /// order ever leaked, and now none can).
    #[test]
    fn cancel_heavy_drain_digest_is_pinned() {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let fold = |digest: &mut u64, word: [u8; 8]| {
            for byte in word {
                *digest ^= u64::from(byte);
                *digest = digest.wrapping_mul(FNV_PRIME);
            }
        };
        let mut digests = Vec::new();
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            let mut live: Vec<(i64, EventToken)> = Vec::new();
            let mut digest = FNV_OFFSET;
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            for step in 0..3_000u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match state % 4 {
                    0 | 1 => {
                        let time = i64::try_from(state >> 20).unwrap() % 500_000;
                        let token = q.push(time, Event::JobArrival { job: step });
                        live.push((time, token));
                    }
                    2 => {
                        // Cancel an arbitrary still-pending event — the
                        // departure-retracts-its-finish pattern, at a
                        // far higher rate than any scenario family.
                        if !live.is_empty() {
                            let victim = usize::try_from(state >> 33).unwrap() % live.len();
                            let (_, token) = live.swap_remove(victim);
                            q.cancel(token);
                        }
                    }
                    _ => {
                        if let Some((time, event)) = q.pop() {
                            fold(&mut digest, time.to_le_bytes());
                            if let Event::JobArrival { job } = event {
                                fold(&mut digest, job.to_le_bytes());
                            }
                            let pos = live
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, &(t, s))| (t, s))
                                .map(|(i, _)| i)
                                .expect("queue and model agree");
                            live.swap_remove(pos);
                        }
                    }
                }
            }
            while let Some((time, event)) = q.pop() {
                fold(&mut digest, time.to_le_bytes());
                if let Event::JobArrival { job } = event {
                    fold(&mut digest, job.to_le_bytes());
                }
            }
            digests.push(digest);
        }
        assert_eq!(digests[0], digests[1], "backends must replay identically");
        assert_eq!(
            digests[0], 0xf250_8f5f_6e04_1210,
            "cancel-set drain digest drifted (got 0x{:016x})",
            digests[0]
        );
    }
}
