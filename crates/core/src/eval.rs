//! Incremental (delta) evaluation of schedules.
//!
//! Local search over this problem probes thousands of single-job moves and
//! job swaps per solution; re-evaluating the full schedule for each probe
//! would cost `O(jobs · log jobs)`. [`EvalState`] keeps, per machine, the
//! SPT-sorted list of assigned ETC values **plus a prefix-sum completion
//! cache**, so that
//!
//! * **peeking** a move/swap (computing the objectives it *would* produce)
//!   costs `O(log jobs-per-machine)` — one `partition_point` per affected
//!   machine plus closed-form completion/flowtime deltas, with **O(1)**
//!   global totals from a running flowtime scalar and a top-3 completion
//!   cache (no merge pass, no machine fold);
//! * **applying** a move/swap costs the `memmove` of the slot/prefix
//!   vectors plus O(1) delta updates of the global totals (the top-3
//!   cache rescans machines only when a cached maximum shrinks);
//! * **batched move scoring** ([`EvalState::score_moves`]) evaluates a
//!   whole candidate set into a reusable structure-of-arrays
//!   [`ScoreBuf`], amortising schedule and ETC-row access across
//!   candidates — the API the move-based strategies, tabu search and SA
//!   drive;
//! * **the swap scan** ([`EvalState::best_swap`]) ranks every swap
//!   partner of one anchor job and keeps only the winner. It walks each
//!   partner machine's SPT slot list in order, so a partner's position
//!   is the loop index, and resolves the anchor's insertion point, the
//!   rest-of-schedule makespan and flowtime once per machine.
//!
//! All arithmetic happens in exact fixed-point ticks (see
//! [`crate::ticks`]): integer addition is order-independent, so the
//! closed-form deltas are **bit-for-bit identical** to a from-scratch
//! [`crate::evaluate`] — by construction, and verified exhaustively by
//! the property tests. The seed's O(jobs-per-machine) merge-pass peek is
//! kept as a hidden reference implementation
//! ([`EvalState::peek_move_merge`]) serving as correctness oracle and
//! benchmark baseline.

use crate::ticks;
use crate::{evaluate, FitnessWeights, JobId, MachineId, Objective, Objectives, Problem, Schedule};

/// One job occupying a position in a machine's SPT order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// ETC of the job on this machine, in ticks.
    etc: i64,
    job: JobId,
}

impl Slot {
    /// Total order: by ETC, ties by job id — deterministic and consistent
    /// with the job-order-insensitive flowtime value.
    #[inline]
    fn key_cmp(&self, other: &Slot) -> std::cmp::Ordering {
        self.etc.cmp(&other.etc).then(self.job.cmp(&other.job))
    }
}

/// Cached evaluation of one machine.
#[derive(Debug, Clone, PartialEq)]
struct MachineState {
    /// Ready time in ticks (widened once).
    ready: i128,
    /// Jobs on the machine, sorted ascending by `(etc, job)`.
    slots: Vec<Slot>,
    /// `prefix[i] = ready + Σ_{k ≤ i} slots[k].etc` — the finishing time
    /// of the job in slot `i` under SPT order. Empty iff `slots` is.
    prefix: Vec<i128>,
    /// Sum of finishing times under SPT order (`Σ prefix[i]`).
    flowtime: i128,
}

impl MachineState {
    fn new(ready: i64) -> Self {
        Self {
            ready: i128::from(ready),
            slots: Vec::new(),
            prefix: Vec::new(),
            flowtime: 0,
        }
    }

    /// Completion time (Eq. 1): the last finishing time, or `ready` when
    /// idle.
    #[inline]
    fn completion(&self) -> i128 {
        self.prefix.last().copied().unwrap_or(self.ready)
    }

    /// Recomputes `prefix` and `flowtime` from the slot list.
    fn rebuild(&mut self) {
        let mut clock = self.ready;
        let mut flowtime = 0i128;
        self.prefix.clear();
        self.prefix.reserve(self.slots.len());
        for slot in &self.slots {
            clock += i128::from(slot.etc);
            flowtime += clock;
            self.prefix.push(clock);
        }
        self.flowtime = flowtime;
    }

    /// Position of `job` (with ETC `etc`) in the slot list.
    fn position_of(&self, job: JobId, etc: i64) -> usize {
        let probe = Slot { etc, job };
        let idx = self
            .slots
            .partition_point(|s| s.key_cmp(&probe) == std::cmp::Ordering::Less);
        debug_assert!(
            idx < self.slots.len() && self.slots[idx].job == job,
            "job {job} not found on its machine"
        );
        idx
    }

    /// Where `slot` would be inserted to keep the list sorted.
    #[inline]
    fn insertion_point(&self, slot: Slot) -> usize {
        self.slots
            .partition_point(|s| s.key_cmp(&slot) == std::cmp::Ordering::Less)
    }

    /// Finishing time of the slot *before* position `idx` (`ready` for
    /// the head).
    #[inline]
    fn prefix_before(&self, idx: usize) -> i128 {
        if idx == 0 {
            self.ready
        } else {
            self.prefix[idx - 1]
        }
    }

    fn insert(&mut self, job: JobId, etc: i64) {
        let slot = Slot { etc, job };
        let idx = self.insertion_point(slot);
        let finish = self.prefix_before(idx) + i128::from(etc);
        // Closed-form flowtime delta: the new job finishes at `finish`
        // and shifts every later finishing time by `etc`.
        self.flowtime += finish + (self.slots.len() - idx) as i128 * i128::from(etc);
        self.slots.insert(idx, slot);
        self.prefix.insert(idx, finish);
        for p in &mut self.prefix[idx + 1..] {
            *p += i128::from(etc);
        }
    }

    fn remove(&mut self, job: JobId, etc: i64) {
        let idx = self.position_of(job, etc);
        self.flowtime -= self.prefix[idx] + (self.slots.len() - 1 - idx) as i128 * i128::from(etc);
        self.slots.remove(idx);
        self.prefix.remove(idx);
        for p in &mut self.prefix[idx..] {
            *p -= i128::from(etc);
        }
    }

    /// Completion and flowtime this machine would have without the job in
    /// slot `skip`. O(1).
    fn peek_removed(&self, skip: usize) -> (i128, i128) {
        let etc = i128::from(self.slots[skip].etc);
        (
            self.completion() - etc,
            self.flowtime - self.prefix[skip] - (self.slots.len() - 1 - skip) as i128 * etc,
        )
    }

    /// Completion and flowtime this machine would have with `add`
    /// inserted. `O(log n)` for the insertion point.
    fn peek_inserted(&self, add: Slot) -> (i128, i128) {
        let idx = self.insertion_point(add);
        let etc = i128::from(add.etc);
        let finish = self.prefix_before(idx) + etc;
        (
            self.completion() + etc,
            self.flowtime + finish + (self.slots.len() - idx) as i128 * etc,
        )
    }

    /// Completion and flowtime this machine would have with the job in
    /// slot `skip` replaced by `add` (the swap case). `O(log n)`.
    fn peek_replaced(&self, skip: usize, add: Slot) -> (i128, i128) {
        self.peek_replaced_at(skip, add, self.insertion_point(add))
    }

    /// [`MachineState::peek_replaced`] with the insertion `point` of
    /// `add` (over the **full** slot list) already known — the swap scan
    /// computes it once per partner machine. O(1).
    fn peek_replaced_at(&self, skip: usize, add: Slot, point: usize) -> (i128, i128) {
        let n = self.slots.len();
        let etc_out = i128::from(self.slots[skip].etc);
        // Flowtime after the removal.
        let removed = self.flowtime - self.prefix[skip] - (n - 1 - skip) as i128 * etc_out;
        // Insertion point within the reduced list: positions after `skip`
        // shift left by one.
        let idx = if point > skip { point - 1 } else { point };
        // Finishing time before `idx` in the reduced list.
        let before = if idx == 0 {
            self.ready
        } else if idx - 1 < skip {
            self.prefix[idx - 1]
        } else {
            self.prefix[idx] - etc_out
        };
        let etc_in = i128::from(add.etc);
        (
            self.completion() - etc_out + etc_in,
            removed + before + etc_in + (n - 1 - idx) as i128 * etc_in,
        )
    }

    /// The seed's merge-pass hypothetical: completion and flowtime with
    /// `skip_job` removed and/or `add` inserted, in one O(n) pass. Kept
    /// as the reference the closed-form deltas are validated (and
    /// benchmarked) against.
    fn simulate_merge(&self, skip_job: Option<JobId>, add: Option<Slot>) -> (i128, i128) {
        let mut clock = self.ready;
        let mut flowtime = 0i128;
        let mut pending = add;
        for slot in &self.slots {
            if Some(slot.job) == skip_job {
                continue;
            }
            if let Some(p) = pending {
                if p.key_cmp(slot) == std::cmp::Ordering::Less {
                    clock += i128::from(p.etc);
                    flowtime += clock;
                    pending = None;
                }
            }
            clock += i128::from(slot.etc);
            flowtime += clock;
        }
        if let Some(p) = pending {
            clock += i128::from(p.etc);
            flowtime += clock;
        }
        (clock, flowtime)
    }
}

/// The k of the top-k completion cache. Peeks replace at most two
/// machines, so three entries always retain the maximum of the rest.
const TOP_K: usize = 3;

/// Top-[`TOP_K`] machine completions, sorted descending by
/// `(completion, machine)`. Backs O(1) makespan reads and O(1)
/// hypothetical-makespan queries for two replaced machines.
#[derive(Debug, Clone, PartialEq)]
struct TopCompletions {
    entries: [(i128, MachineId); TOP_K],
    len: usize,
}

impl TopCompletions {
    fn rescan(machines: &[MachineState]) -> Self {
        let mut top = Self {
            entries: [(i128::MIN, MachineId::MAX); TOP_K],
            len: machines.len().min(TOP_K),
        };
        for (m, machine) in machines.iter().enumerate() {
            top.offer(machine.completion(), m as MachineId);
        }
        top
    }

    /// Inserts `(completion, machine)` if it beats the current tail.
    fn offer(&mut self, completion: i128, machine: MachineId) {
        let mut candidate = (completion, machine);
        for entry in &mut self.entries {
            if candidate.0 > entry.0 || (candidate.0 == entry.0 && candidate.1 < entry.1) {
                std::mem::swap(entry, &mut candidate);
            }
        }
    }

    /// The global maximum completion (the makespan).
    #[inline]
    fn max(&self) -> i128 {
        self.entries[0].0
    }

    /// Maximum completion over all machines except `a` and `b`, or
    /// `None` when no other machine exists. O(1): at most two of the
    /// top-3 entries can be excluded.
    #[inline]
    fn max_excluding(&self, a: MachineId, b: MachineId) -> Option<i128> {
        self.entries[..self.len]
            .iter()
            .find(|e| e.1 != a && e.1 != b)
            .map(|e| e.0)
    }

    /// Refreshes the entry of `machine` after its completion changed to
    /// `completion`. O(1) unless a cached maximum shrank (then one O(m)
    /// rescan re-establishes the invariant).
    fn update(&mut self, machine: MachineId, completion: i128, machines: &[MachineState]) {
        if let Some(i) = self.entries[..self.len].iter().position(|e| e.1 == machine) {
            if completion < self.entries[i].0 && self.len < machines.len() {
                // A cached maximum shrank below an unknown rank: rescan.
                *self = Self::rescan(machines);
            } else {
                self.entries[i].0 = completion;
                self.entries[..self.len].sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
            }
        } else {
            self.offer(completion, machine);
        }
    }
}

/// Reusable structure-of-arrays result buffer of the batched move
/// scoring API ([`EvalState::score_moves`]).
///
/// Objectives are stored column-wise (`makespan[i]`, `flowtime[i]`),
/// which keeps candidate scoring allocation-free across calls and leaves
/// the layout open for SIMD reduction later.
#[derive(Debug, Clone, Default)]
pub struct ScoreBuf {
    makespan: Vec<f64>,
    flowtime: Vec<f64>,
}

impl ScoreBuf {
    /// An empty buffer; reuse it across calls to amortise allocation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scored candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.makespan.len()
    }

    /// Whether the buffer holds no scores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.makespan.is_empty()
    }

    /// The scored makespans, aligned with the candidate slice.
    #[must_use]
    pub fn makespans(&self) -> &[f64] {
        &self.makespan
    }

    /// The scored flowtimes, aligned with the candidate slice.
    #[must_use]
    pub fn flowtimes(&self) -> &[f64] {
        &self.flowtime
    }

    /// Objectives of candidate `i`.
    #[must_use]
    pub fn objectives(&self, i: usize) -> Objectives {
        Objectives {
            makespan: self.makespan[i],
            flowtime: self.flowtime[i],
        }
    }

    /// Index and score of the first candidate minimising `score`
    /// (strictly — ties keep the earliest candidate, matching the
    /// `<`-guarded scan loops the strategies previously used).
    ///
    /// Generic fallback: the closure re-assembles an [`Objectives`] per
    /// candidate, which defeats vectorisation. The hot scalarisations
    /// have chunked column-wise specialisations —
    /// [`ScoreBuf::best_fitness`] and [`ScoreBuf::best_for`].
    #[must_use]
    pub fn best_by<F: FnMut(Objectives) -> f64>(&self, mut score: F) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.len() {
            let s = score(self.objectives(i));
            if best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
        best
    }

    /// Index and fitness of the first candidate minimising the
    /// scalarised fitness `λ·makespan + (1-λ)·flowtime/nb_machines` —
    /// the chunked SoA specialisation of
    /// `best_by(|o| weights.fitness(o, nb_machines))`, bit-identical to
    /// it (same expression, same tie rule) but reduced column-wise in
    /// SIMD-friendly blocks.
    #[must_use]
    pub fn best_fitness(
        &self,
        weights: FitnessWeights,
        nb_machines: usize,
    ) -> Option<(usize, f64)> {
        let lambda = weights.lambda();
        best_weighted(
            &self.makespan,
            &self.flowtime,
            lambda,
            1.0 - lambda,
            nb_machines as f64,
        )
    }

    /// Index and fitness of the first candidate minimising the
    /// **objective-blended** fitness
    /// `(1-λ)·(a·makespan + b·flowtime/m) + λ·(flowtime/m)` — the
    /// chunked reduction matching [`Objective::fitness`] per candidate
    /// bit for bit. With a classic objective (λ = 0) this is exactly
    /// [`ScoreBuf::best_fitness`], same expression, same bits.
    #[must_use]
    pub fn best_objective_fitness(
        &self,
        objective: Objective,
        weights: FitnessWeights,
        nb_machines: usize,
    ) -> Option<(usize, f64)> {
        if objective.is_classic() {
            return self.best_fitness(weights, nb_machines);
        }
        // The scalar path itself is the per-lane score, so the reduction
        // cannot desynchronise from `Objective::fitness` — it *is* it.
        best_scored(&self.makespan, &self.flowtime, |makespan, flowtime| {
            objective.fitness(weights, Objectives { makespan, flowtime }, nb_machines)
        })
    }

    /// [`ScoreBuf::best_objective_fitness`] under a problem's active
    /// weights and objective — the ranking every λ-aware local-search
    /// strategy drives, bit-identical to scanning
    /// `problem.fitness(objectives(i))`.
    #[must_use]
    pub fn best_for(&self, problem: &Problem) -> Option<(usize, f64)> {
        self.best_objective_fitness(
            problem.objective(),
            problem.weights(),
            problem.nb_machines(),
        )
    }

    fn clear_and_reserve(&mut self, n: usize) {
        self.makespan.clear();
        self.flowtime.clear();
        self.makespan.reserve(n);
        self.flowtime.reserve(n);
    }

    #[inline]
    fn push(&mut self, objectives: Objectives) {
        self.makespan.push(objectives.makespan);
        self.flowtime.push(objectives.flowtime);
    }
}

/// Chunk width of the column-wise score reductions. Eight f64 lanes
/// cover an AVX-512 register and two AVX2 registers; the per-chunk score
/// loop below is branch-free over fixed-size arrays, which lets the
/// compiler vectorise it without any arch-specific intrinsics.
const SCORE_LANES: usize = 8;

/// First-minimum argmin of `a·makespan[i] + (b·flowtime[i])/d` over the
/// SoA columns (the exact expression [`FitnessWeights::fitness`]
/// evaluates, so results are bit-identical to the scalar closure path).
fn best_weighted(mk: &[f64], ft: &[f64], a: f64, b: f64, d: f64) -> Option<(usize, f64)> {
    best_scored(mk, ft, |m, f| a * m + b * f / d)
}

/// First-minimum argmin of `score(makespan[i], flowtime[i])` over the
/// SoA columns, for any branch-free two-column scalarisation.
///
/// The reduction runs in [`SCORE_LANES`]-wide chunks: each chunk's
/// scores are computed into a fixed-size array (the monomorphised
/// closure inlines, keeping the lane loop vectorisable), its minimum
/// folded branch-free, and only chunks that beat the incumbent are
/// rescanned in order for the earliest winning index — preserving the
/// strict `<` first-minimum tie rule of [`ScoreBuf::best_by`].
fn best_scored<F: Fn(f64, f64) -> f64>(mk: &[f64], ft: &[f64], score: F) -> Option<(usize, f64)> {
    debug_assert_eq!(mk.len(), ft.len());
    if mk.is_empty() {
        return None;
    }
    let mut best = f64::INFINITY;
    let mut best_idx = 0usize;
    let mut found = false;
    let mut scores = [0.0f64; SCORE_LANES];
    let mut base = 0usize;
    for (mkc, ftc) in mk
        .chunks_exact(SCORE_LANES)
        .zip(ft.chunks_exact(SCORE_LANES))
    {
        for lane in 0..SCORE_LANES {
            scores[lane] = score(mkc[lane], ftc[lane]);
        }
        let mut chunk_min = scores[0];
        for &s in &scores[1..] {
            chunk_min = chunk_min.min(s);
        }
        if !found || chunk_min < best {
            for (lane, &s) in scores.iter().enumerate() {
                if !found || s < best {
                    best = s;
                    best_idx = base + lane;
                    found = true;
                }
            }
        }
        base += SCORE_LANES;
    }
    for i in base..mk.len() {
        let s = score(mk[i], ft[i]);
        if !found || s < best {
            best = s;
            best_idx = i;
            found = true;
        }
    }
    Some((best_idx, best))
}

/// Incrementally maintained evaluation of a schedule.
///
/// Construct once per schedule with [`EvalState::new`], then keep it in
/// lockstep with the schedule through [`EvalState::apply_move`] /
/// [`EvalState::apply_swap`]. Probing neighbours without committing uses
/// [`EvalState::peek_move`] / [`EvalState::peek_swap`] for single
/// candidates, [`EvalState::score_moves`] for move sets and
/// [`EvalState::best_swap`] for an anchor's whole swap neighbourhood.
///
/// The state is value-like (`Clone`) so population-based algorithms clone
/// it together with the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalState {
    machines: Vec<MachineState>,
    /// Running global flowtime (exact tick sum) — O(1) reads and O(1)
    /// delta updates on apply.
    flowtime_total: i128,
    /// Top-3 machine completions — O(1) makespan reads and O(1)
    /// two-machine-replaced makespan queries for peeks.
    top: TopCompletions,
}

impl EvalState {
    /// Builds the cache for `schedule` in `O(jobs · log jobs)`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule length mismatches the problem (debug) or any
    /// machine index is out of range.
    #[must_use]
    pub fn new(problem: &Problem, schedule: &Schedule) -> Self {
        debug_assert_eq!(schedule.nb_jobs(), problem.nb_jobs());
        let mut machines: Vec<MachineState> = (0..problem.nb_machines())
            .map(|m| MachineState::new(problem.ready(m as u32)))
            .collect();
        for (job, machine) in schedule.iter() {
            machines[machine as usize].slots.push(Slot {
                etc: problem.etc(job, machine),
                job,
            });
        }
        let mut flowtime_total = 0i128;
        for machine in &mut machines {
            machine.slots.sort_by(Slot::key_cmp);
            machine.rebuild();
            flowtime_total += machine.flowtime;
        }
        let top = TopCompletions::rescan(&machines);
        Self {
            machines,
            flowtime_total,
            top,
        }
    }

    /// Current makespan.
    #[inline]
    #[must_use]
    pub fn makespan(&self) -> f64 {
        ticks::time(self.top.max())
    }

    /// Current flowtime.
    #[inline]
    #[must_use]
    pub fn flowtime(&self) -> f64 {
        ticks::time(self.flowtime_total)
    }

    /// Current objective pair.
    #[inline]
    #[must_use]
    pub fn objectives(&self) -> Objectives {
        Objectives {
            makespan: self.makespan(),
            flowtime: self.flowtime(),
        }
    }

    /// Scalarised fitness under the problem's weights.
    #[inline]
    #[must_use]
    pub fn fitness(&self, problem: &Problem) -> f64 {
        problem.fitness(self.objectives())
    }

    /// Completion time of one machine (Eq. 1).
    #[inline]
    #[must_use]
    pub fn completion(&self, machine: MachineId) -> f64 {
        ticks::time(self.completion_ticks(machine))
    }

    /// Completion time of one machine (Eq. 1) as the exact tick sum, for
    /// planners that compare completions against [`Problem::etc`].
    #[inline]
    #[must_use]
    pub fn completion_ticks(&self, machine: MachineId) -> i128 {
        self.machines[machine as usize].completion()
    }

    /// Number of jobs currently on `machine`.
    #[inline]
    #[must_use]
    pub fn machine_len(&self, machine: MachineId) -> usize {
        self.machines[machine as usize].slots.len()
    }

    /// Load factor of a machine: `completion[m] / makespan` ∈ (0, 1]
    /// (paper §3.2, mutation operator).
    #[must_use]
    pub fn load_factor(&self, machine: MachineId) -> f64 {
        let makespan = self.makespan();
        if makespan == 0.0 {
            1.0
        } else {
            self.completion(machine) / makespan
        }
    }

    /// Machines sorted ascending by completion time (ties by index) —
    /// "less overloaded first", the order the rebalance mutation ranks
    /// its targets in. Allocates and sorts every machine; the mutation
    /// itself selects by rank without this full order.
    #[must_use]
    pub fn machines_by_completion(&self) -> Vec<MachineId> {
        let mut order: Vec<MachineId> = (0..self.machines.len() as MachineId).collect();
        order.sort_unstable_by_key(|&m| (self.machines[m as usize].completion(), m));
        order
    }

    /// Objectives the schedule would have after moving `job` to `to`.
    ///
    /// `O(log jobs-per-machine)`: one `partition_point` on the receiving
    /// machine plus closed-form deltas and O(1) totals; no state is
    /// modified.
    #[must_use]
    pub fn peek_move(
        &self,
        problem: &Problem,
        schedule: &Schedule,
        job: JobId,
        to: MachineId,
    ) -> Objectives {
        let from = schedule.machine_of(job);
        if from == to {
            return self.objectives();
        }
        self.move_objectives(problem, job, from, to)
    }

    /// Objectives the schedule would have after swapping the machines of
    /// `job_a` and `job_b`.
    ///
    /// Returns the current objectives unchanged if both jobs share a
    /// machine (an SPT-order swap on one machine is a no-op).
    #[must_use]
    pub fn peek_swap(
        &self,
        problem: &Problem,
        schedule: &Schedule,
        job_a: JobId,
        job_b: JobId,
    ) -> Objectives {
        let ma = schedule.machine_of(job_a);
        let mb = schedule.machine_of(job_b);
        if ma == mb {
            return self.objectives();
        }
        self.swap_objectives(problem, job_a, ma, job_b, mb)
    }

    /// Scores every candidate `(job, target)` move into `out`, aligned
    /// with `candidates`. Bit-identical to calling
    /// [`EvalState::peek_move`] per candidate, but amortises donor-side
    /// lookups across consecutive candidates sharing a job (the steepest
    /// local-move pattern) and keeps results in a flat reusable buffer.
    pub fn score_moves(
        &self,
        problem: &Problem,
        schedule: &Schedule,
        candidates: &[(JobId, MachineId)],
        out: &mut ScoreBuf,
    ) {
        out.clear_and_reserve(candidates.len());
        // Donor-side cache: removal stats depend only on the job, which
        // consecutive candidates frequently share.
        let mut cached: Option<(JobId, MachineId, i128, i128)> = None;
        for &(job, to) in candidates {
            let from = schedule.machine_of(job);
            if from == to {
                out.push(self.objectives());
                continue;
            }
            let (donor_completion, donor_flowtime) = match cached {
                Some((j, f, c, fl)) if j == job && f == from => (c, fl),
                _ => {
                    let donor = &self.machines[from as usize];
                    let stats = donor.peek_removed(donor.position_of(job, problem.etc(job, from)));
                    cached = Some((job, from, stats.0, stats.1));
                    stats
                }
            };
            let (rcpt_completion, rcpt_flowtime) = self.machines[to as usize].peek_inserted(Slot {
                etc: problem.etc(job, to),
                job,
            });
            out.push(self.totals_with_two(
                from,
                donor_completion,
                donor_flowtime,
                to,
                rcpt_completion,
                rcpt_flowtime,
            ));
        }
    }

    /// The best swap partner of `anchor` under `rank`, with the
    /// objectives that swap would produce; `None` when every job shares
    /// the anchor's machine.
    ///
    /// The winner is the lexicographic minimum of `(rank, partner)`:
    /// exactly the first minimum of a strict-`<` scan of
    /// [`EvalState::peek_swap`] over the partners in ascending job order,
    /// with the same objective bits.
    ///
    /// Each machine holding a partner is walked once, reached from the
    /// assignment through the job in its SPT head slot, so the scan
    /// needs no scratch and no per-machine pass. Along a machine's slot
    /// list the partner's position is the loop index; the anchor's
    /// insertion point there, the makespan of the other machines and
    /// their flowtime are resolved once per machine.
    pub fn best_swap<R: Fn(Objectives) -> f64>(
        &self,
        problem: &Problem,
        schedule: &Schedule,
        anchor: JobId,
        rank: R,
    ) -> Option<(JobId, Objectives)> {
        let ma = schedule.machine_of(anchor);
        let anchor_machine = &self.machines[ma as usize];
        let anchor_pos = anchor_machine.position_of(anchor, problem.etc(anchor, ma));
        let anchor_row = problem.etc_row(anchor);
        let flowtime_others = self.flowtime_total - anchor_machine.flowtime;
        let mut best: Option<(f64, JobId, Objectives)> = None;
        for (job, mb) in schedule.iter() {
            let partner_machine = &self.machines[mb as usize];
            if mb == ma || partner_machine.slots[0].job != job {
                continue;
            }
            let anchor_in = Slot {
                etc: anchor_row[mb as usize],
                job: anchor,
            };
            let point = partner_machine.insertion_point(anchor_in);
            let flowtime_rest = flowtime_others - partner_machine.flowtime;
            let makespan_rest = self.top.max_excluding(ma, mb);
            for (partner_pos, slot) in partner_machine.slots.iter().enumerate() {
                let partner = slot.job;
                let (ca, fa) = anchor_machine.peek_replaced(
                    anchor_pos,
                    Slot {
                        etc: problem.etc(partner, ma),
                        job: partner,
                    },
                );
                let (cb, fb) = partner_machine.peek_replaced_at(partner_pos, anchor_in, point);
                let mut makespan = ca.max(cb);
                if let Some(rest) = makespan_rest {
                    makespan = makespan.max(rest);
                }
                let objectives = Objectives {
                    makespan: ticks::time(makespan),
                    flowtime: ticks::time(flowtime_rest + fa + fb),
                };
                let score = rank(objectives);
                if best.is_none_or(|(s, j, _)| score < s || (score == s && partner < j)) {
                    best = Some((score, partner, objectives));
                }
            }
        }
        best.map(|(_, partner, objectives)| (partner, objectives))
    }

    /// Moves `job` to machine `to`, updating schedule and caches. Totals
    /// update by delta (no machine fold).
    pub fn apply_move(
        &mut self,
        problem: &Problem,
        schedule: &mut Schedule,
        job: JobId,
        to: MachineId,
    ) {
        let from = schedule.machine_of(job);
        if from == to {
            return;
        }
        let donor_before = self.machines[from as usize].flowtime;
        let rcpt_before = self.machines[to as usize].flowtime;
        self.machines[from as usize].remove(job, problem.etc(job, from));
        self.machines[to as usize].insert(job, problem.etc(job, to));
        schedule.assign(job, to);
        self.flowtime_total += (self.machines[from as usize].flowtime - donor_before)
            + (self.machines[to as usize].flowtime - rcpt_before);
        self.refresh_top(from);
        self.refresh_top(to);
    }

    /// Exchanges the machines of `job_a` and `job_b`. Totals update by
    /// delta (no machine fold).
    pub fn apply_swap(
        &mut self,
        problem: &Problem,
        schedule: &mut Schedule,
        job_a: JobId,
        job_b: JobId,
    ) {
        let ma = schedule.machine_of(job_a);
        let mb = schedule.machine_of(job_b);
        if ma == mb {
            return;
        }
        let a_before = self.machines[ma as usize].flowtime;
        let b_before = self.machines[mb as usize].flowtime;
        self.machines[ma as usize].remove(job_a, problem.etc(job_a, ma));
        self.machines[mb as usize].remove(job_b, problem.etc(job_b, mb));
        self.machines[ma as usize].insert(job_b, problem.etc(job_b, ma));
        self.machines[mb as usize].insert(job_a, problem.etc(job_a, mb));
        schedule.assign(job_a, mb);
        schedule.assign(job_b, ma);
        self.flowtime_total += (self.machines[ma as usize].flowtime - a_before)
            + (self.machines[mb as usize].flowtime - b_before);
        self.refresh_top(ma);
        self.refresh_top(mb);
    }

    /// Reference peek for a move using the seed's merge-pass algorithm
    /// (O(jobs-per-machine) merge + O(machines) totals fold). Exists as
    /// the oracle the closed-form fast path is property-tested against.
    #[doc(hidden)]
    #[must_use]
    pub fn peek_move_merge(
        &self,
        problem: &Problem,
        schedule: &Schedule,
        job: JobId,
        to: MachineId,
    ) -> Objectives {
        let from = schedule.machine_of(job);
        if from == to {
            return self.objectives();
        }
        let (donor_completion, donor_flowtime) =
            self.machines[from as usize].simulate_merge(Some(job), None);
        let (rcpt_completion, rcpt_flowtime) = self.machines[to as usize].simulate_merge(
            None,
            Some(Slot {
                etc: problem.etc(job, to),
                job,
            }),
        );
        self.totals_with_two_fold(
            from,
            donor_completion,
            donor_flowtime,
            to,
            rcpt_completion,
            rcpt_flowtime,
        )
    }

    /// Reference peek for a swap using the seed's merge-pass algorithm;
    /// see [`EvalState::peek_move_merge`].
    #[doc(hidden)]
    #[must_use]
    pub fn peek_swap_merge(
        &self,
        problem: &Problem,
        schedule: &Schedule,
        job_a: JobId,
        job_b: JobId,
    ) -> Objectives {
        let ma = schedule.machine_of(job_a);
        let mb = schedule.machine_of(job_b);
        if ma == mb {
            return self.objectives();
        }
        let (ca, fa) = self.machines[ma as usize].simulate_merge(
            Some(job_a),
            Some(Slot {
                etc: problem.etc(job_b, ma),
                job: job_b,
            }),
        );
        let (cb, fb) = self.machines[mb as usize].simulate_merge(
            Some(job_b),
            Some(Slot {
                etc: problem.etc(job_a, mb),
                job: job_a,
            }),
        );
        self.totals_with_two_fold(ma, ca, fa, mb, cb, fb)
    }

    /// Asserts (in tests and debug builds) that the cache agrees with a
    /// from-scratch evaluation of `schedule`, and that every internal
    /// invariant (slot order, prefix sums, per-machine flowtimes, global
    /// totals, top-3 cache) holds.
    pub fn debug_validate(&self, problem: &Problem, schedule: &Schedule) {
        let fresh = evaluate(problem, schedule);
        assert_eq!(
            self.objectives(),
            fresh,
            "incremental evaluation diverged from full evaluation"
        );
        let mut flowtime_total = 0i128;
        for (m, machine) in self.machines.iter().enumerate() {
            assert!(
                machine
                    .slots
                    .windows(2)
                    .all(|w| w[0].key_cmp(&w[1]) != std::cmp::Ordering::Greater),
                "machine {m} slot order violated"
            );
            let mut rebuilt = machine.clone();
            rebuilt.rebuild();
            assert_eq!(
                machine.prefix, rebuilt.prefix,
                "machine {m} prefix cache diverged"
            );
            assert_eq!(
                machine.flowtime, rebuilt.flowtime,
                "machine {m} flowtime diverged"
            );
            flowtime_total += machine.flowtime;
        }
        assert_eq!(
            self.flowtime_total, flowtime_total,
            "global flowtime scalar diverged"
        );
        assert_eq!(
            self.top,
            TopCompletions::rescan(&self.machines),
            "top-completions cache diverged"
        );
    }

    /// Closed-form objectives of moving `job` from `from` to `to`
    /// (`from != to`).
    fn move_objectives(
        &self,
        problem: &Problem,
        job: JobId,
        from: MachineId,
        to: MachineId,
    ) -> Objectives {
        let donor = &self.machines[from as usize];
        let (donor_completion, donor_flowtime) =
            donor.peek_removed(donor.position_of(job, problem.etc(job, from)));
        let (rcpt_completion, rcpt_flowtime) = self.machines[to as usize].peek_inserted(Slot {
            etc: problem.etc(job, to),
            job,
        });
        self.totals_with_two(
            from,
            donor_completion,
            donor_flowtime,
            to,
            rcpt_completion,
            rcpt_flowtime,
        )
    }

    /// Closed-form objectives of swapping `job_a` (on `ma`) with `job_b`
    /// (on `mb`), `ma != mb`.
    fn swap_objectives(
        &self,
        problem: &Problem,
        job_a: JobId,
        ma: MachineId,
        job_b: JobId,
        mb: MachineId,
    ) -> Objectives {
        let machine_a = &self.machines[ma as usize];
        let (ca, fa) = machine_a.peek_replaced(
            machine_a.position_of(job_a, problem.etc(job_a, ma)),
            Slot {
                etc: problem.etc(job_b, ma),
                job: job_b,
            },
        );
        let machine_b = &self.machines[mb as usize];
        let (cb, fb) = machine_b.peek_replaced(
            machine_b.position_of(job_b, problem.etc(job_b, mb)),
            Slot {
                etc: problem.etc(job_a, mb),
                job: job_a,
            },
        );
        self.totals_with_two(ma, ca, fa, mb, cb, fb)
    }

    /// O(1) totals with machines `a` and `b` hypothetically replaced:
    /// flowtime by delta from the running scalar, makespan from the
    /// top-3 completion cache.
    #[inline]
    fn totals_with_two(
        &self,
        a: MachineId,
        a_completion: i128,
        a_flowtime: i128,
        b: MachineId,
        b_completion: i128,
        b_flowtime: i128,
    ) -> Objectives {
        let flowtime = self.flowtime_total
            - self.machines[a as usize].flowtime
            - self.machines[b as usize].flowtime
            + a_flowtime
            + b_flowtime;
        let mut makespan = a_completion.max(b_completion);
        if let Some(rest) = self.top.max_excluding(a, b) {
            makespan = makespan.max(rest);
        }
        Objectives {
            makespan: ticks::time(makespan),
            flowtime: ticks::time(flowtime),
        }
    }

    /// The seed's O(machines) totals fold, kept for the merge-pass
    /// reference peeks.
    fn totals_with_two_fold(
        &self,
        a: MachineId,
        a_completion: i128,
        a_flowtime: i128,
        b: MachineId,
        b_completion: i128,
        b_flowtime: i128,
    ) -> Objectives {
        let mut makespan = a_completion.max(b_completion);
        let mut flowtime = 0i128;
        for (m, machine) in self.machines.iter().enumerate() {
            let m = m as MachineId;
            if m == a {
                flowtime += a_flowtime;
            } else if m == b {
                flowtime += b_flowtime;
            } else {
                makespan = makespan.max(machine.completion());
                flowtime += machine.flowtime;
            }
        }
        Objectives {
            makespan: ticks::time(makespan),
            flowtime: ticks::time(flowtime),
        }
    }

    /// Re-establishes the top-completions invariant for `machine` after
    /// its completion changed.
    fn refresh_top(&mut self, machine: MachineId) {
        self.top.update(
            machine,
            self.machines[machine as usize].completion(),
            &self.machines,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::{EtcMatrix, GridInstance};

    fn problem() -> Problem {
        let etc = EtcMatrix::from_rows(
            5,
            3,
            vec![
                2.0, 4.0, 9.0, //
                1.0, 8.0, 3.0, //
                3.0, 2.0, 7.0, //
                5.0, 6.0, 1.0, //
                4.0, 4.0, 4.0,
            ],
        );
        Problem::from_instance(&GridInstance::with_ready_times(
            "t",
            etc,
            vec![1.0, 0.0, 2.0],
        ))
    }

    #[test]
    fn matches_full_evaluation_on_construction() {
        let p = problem();
        let s = Schedule::from_assignment(vec![0, 1, 2, 0, 1]);
        let eval = EvalState::new(&p, &s);
        assert_eq!(eval.objectives(), evaluate(&p, &s));
        eval.debug_validate(&p, &s);
    }

    #[test]
    fn apply_move_tracks_full_evaluation() {
        let p = problem();
        let mut s = Schedule::from_assignment(vec![0, 0, 0, 0, 0]);
        let mut eval = EvalState::new(&p, &s);
        for (job, to) in [(0u32, 1u32), (3, 2), (1, 2), (0, 0), (4, 1), (2, 1)] {
            eval.apply_move(&p, &mut s, job, to);
            eval.debug_validate(&p, &s);
            assert_eq!(s.machine_of(job), to);
        }
    }

    #[test]
    fn peek_move_equals_apply_move() {
        let p = problem();
        let mut s = Schedule::from_assignment(vec![0, 1, 2, 0, 1]);
        let eval = EvalState::new(&p, &s);
        let peeked = eval.peek_move(&p, &s, 3, 2);
        assert_eq!(peeked, eval.peek_move_merge(&p, &s, 3, 2));
        let mut applied = eval.clone();
        applied.apply_move(&p, &mut s, 3, 2);
        assert_eq!(peeked, applied.objectives());
    }

    #[test]
    fn peek_swap_equals_apply_swap() {
        let p = problem();
        let mut s = Schedule::from_assignment(vec![0, 1, 2, 0, 1]);
        let eval = EvalState::new(&p, &s);
        let peeked = eval.peek_swap(&p, &s, 0, 2);
        assert_eq!(peeked, eval.peek_swap_merge(&p, &s, 0, 2));
        let mut applied = eval.clone();
        applied.apply_swap(&p, &mut s, 0, 2);
        assert_eq!(peeked, applied.objectives());
        applied.debug_validate(&p, &s);
    }

    #[test]
    fn same_machine_operations_are_noops() {
        let p = problem();
        let mut s = Schedule::from_assignment(vec![0, 0, 1, 1, 2]);
        let mut eval = EvalState::new(&p, &s);
        let before = eval.objectives();
        assert_eq!(eval.peek_move(&p, &s, 0, 0), before);
        assert_eq!(eval.peek_swap(&p, &s, 0, 1), before);
        eval.apply_move(&p, &mut s, 0, 0);
        eval.apply_swap(&p, &mut s, 0, 1);
        assert_eq!(eval.objectives(), before);
    }

    #[test]
    fn completion_and_load_factor() {
        let p = problem();
        let s = Schedule::from_assignment(vec![0, 0, 1, 1, 2]);
        let eval = EvalState::new(&p, &s);
        // m0: ready 1 + (2 + 1) = 4; m1: 0 + (2 + 6) = 8; m2: 2 + 4 = 6.
        assert_eq!(eval.completion(0), 4.0);
        assert_eq!(eval.completion(1), 8.0);
        assert_eq!(eval.completion(2), 6.0);
        assert_eq!(eval.makespan(), 8.0);
        assert!((eval.load_factor(1) - 1.0).abs() < 1e-12);
        assert!((eval.load_factor(0) - 0.5).abs() < 1e-12);
        assert_eq!(eval.machines_by_completion(), vec![0, 2, 1]);
    }

    #[test]
    fn machine_len_tracks_assignments() {
        let p = problem();
        let mut s = Schedule::uniform(5, 0);
        let mut eval = EvalState::new(&p, &s);
        assert_eq!(eval.machine_len(0), 5);
        eval.apply_move(&p, &mut s, 2, 1);
        assert_eq!(eval.machine_len(0), 4);
        assert_eq!(eval.machine_len(1), 1);
    }

    #[test]
    fn ties_in_etc_are_handled() {
        // Jobs with identical ETC on the same machine exercise the
        // (etc, job) tie-break in every code path.
        let etc = EtcMatrix::from_rows(4, 2, vec![5.0; 8]);
        let p = Problem::from_instance(&GridInstance::new("ties", etc));
        let mut s = Schedule::from_assignment(vec![0, 0, 0, 1]);
        let mut eval = EvalState::new(&p, &s);
        eval.debug_validate(&p, &s);
        eval.apply_swap(&p, &mut s, 1, 3);
        eval.debug_validate(&p, &s);
        eval.apply_move(&p, &mut s, 0, 1);
        eval.debug_validate(&p, &s);
        let peek = eval.peek_swap(&p, &s, 2, 3);
        assert_eq!(peek, eval.peek_swap_merge(&p, &s, 2, 3));
        let mut applied = eval.clone();
        applied.apply_swap(&p, &mut s, 2, 3);
        assert_eq!(peek, applied.objectives());
    }

    #[test]
    fn score_moves_matches_peek_move() {
        let p = problem();
        let s = Schedule::from_assignment(vec![0, 1, 2, 0, 1]);
        let eval = EvalState::new(&p, &s);
        let mut candidates = Vec::new();
        for job in 0..5u32 {
            for to in 0..3u32 {
                candidates.push((job, to));
            }
        }
        let mut buf = ScoreBuf::new();
        eval.score_moves(&p, &s, &candidates, &mut buf);
        assert_eq!(buf.len(), candidates.len());
        for (i, &(job, to)) in candidates.iter().enumerate() {
            assert_eq!(
                buf.objectives(i),
                eval.peek_move(&p, &s, job, to),
                "candidate ({job}, {to})"
            );
        }
    }

    #[test]
    fn best_swap_matches_a_peek_swap_scan() {
        let p = problem();
        let s = Schedule::from_assignment(vec![0, 1, 2, 0, 1]);
        let eval = EvalState::new(&p, &s);
        for anchor in 0..5u32 {
            let mut expected: Option<(u32, Objectives)> = None;
            for partner in (0..5u32).filter(|&j| s.machine_of(j) != s.machine_of(anchor)) {
                let o = eval.peek_swap(&p, &s, anchor, partner);
                if expected.is_none_or(|(_, b)| p.fitness(o) < p.fitness(b)) {
                    expected = Some((partner, o));
                }
            }
            assert_eq!(
                eval.best_swap(&p, &s, anchor, |o| p.fitness(o)),
                expected,
                "anchor {anchor}"
            );
        }
        let together = Schedule::uniform(5, 1);
        let eval = EvalState::new(&p, &together);
        assert_eq!(eval.best_swap(&p, &together, 0, |o| o.flowtime), None);
    }

    #[test]
    fn score_buf_best_by_keeps_first_minimum() {
        let p = problem();
        let s = Schedule::uniform(5, 0);
        let eval = EvalState::new(&p, &s);
        let candidates = vec![(0u32, 1u32), (0, 1), (0, 2)];
        let mut buf = ScoreBuf::new();
        eval.score_moves(&p, &s, &candidates, &mut buf);
        let (idx, best) = buf.best_by(|o| p.fitness(o)).unwrap();
        // Candidates 0 and 1 are identical, so a tie must keep the
        // earliest: index 1 is unreachable.
        assert_ne!(idx, 1, "ties must keep the earliest candidate");
        assert!(best <= p.fitness(eval.peek_move(&p, &s, 0, 1)));
        assert!(buf.flowtimes().len() == 3 && !buf.is_empty());
    }

    #[test]
    fn chunked_reductions_match_best_by_bitwise() {
        // Synthetic columns exercising every chunk shape: empty, shorter
        // than one chunk, exact multiples, ragged remainders, ties.
        let weights = FitnessWeights::default();
        for len in [0usize, 1, 5, 8, 9, 16, 23, 64, 67] {
            let mut buf = ScoreBuf::new();
            for i in 0..len {
                // Deterministic pseudo-values with deliberate repeats so
                // ties land both within and across chunks.
                let v = ((i * 7919) % 23) as f64 + 1.0;
                let w = ((i * 104729) % 17) as f64 + 1.0;
                buf.push(Objectives {
                    makespan: v,
                    flowtime: v + w,
                });
            }
            let by_closure = buf.best_by(|o| weights.fitness(o, 16));
            let chunked = buf.best_fitness(weights, 16);
            assert_eq!(by_closure, chunked, "fitness argmin at len {len}");
            if let (Some((i, a)), Some((j, b))) = (by_closure, chunked) {
                assert_eq!(i, j);
                assert_eq!(a.to_bits(), b.to_bits(), "score must be bit-identical");
            }
        }
    }

    #[test]
    fn objective_reduction_matches_the_scalar_blend_bitwise() {
        // Random-ish columns at every chunk shape; each λ of the grid
        // must reduce to exactly what the scalar Objective path scores.
        let weights = FitnessWeights::default();
        for lambda in [0.0, 0.25, 0.5, 0.75, 1.0, 0.3] {
            let objective = Objective::weighted(lambda);
            for len in [0usize, 1, 7, 8, 9, 16, 23, 64, 67] {
                let mut buf = ScoreBuf::new();
                for i in 0..len {
                    let v = ((i * 7919) % 23) as f64 + 1.0;
                    let w = ((i * 104_729) % 17) as f64 + 1.0;
                    buf.push(Objectives {
                        makespan: v,
                        flowtime: v + w,
                    });
                }
                let by_closure = buf.best_by(|o| objective.fitness(weights, o, 16));
                let chunked = buf.best_objective_fitness(objective, weights, 16);
                assert_eq!(by_closure, chunked, "λ={lambda}, len {len}");
                if let (Some((i, a)), Some((j, b))) = (by_closure, chunked) {
                    assert_eq!(i, j);
                    assert_eq!(a.to_bits(), b.to_bits(), "λ={lambda}: bits must match");
                }
            }
        }
    }

    #[test]
    fn best_for_matches_problem_fitness_scan() {
        let p = problem().retargeted(Objective::weighted(0.5));
        let s = Schedule::uniform(5, 0);
        let eval = EvalState::new(&p, &s);
        let candidates: Vec<(u32, u32)> = (0..5u32).flat_map(|j| [(j, 1u32), (j, 2)]).collect();
        let mut buf = ScoreBuf::new();
        eval.score_moves(&p, &s, &candidates, &mut buf);
        let scan = buf.best_by(|o| p.fitness(o));
        let chunked = buf.best_for(&p);
        assert_eq!(scan, chunked);
        let (idx, fitness) = chunked.expect("candidates are non-empty");
        assert_eq!(
            fitness.to_bits(),
            p.fitness(buf.objectives(idx)).to_bits(),
            "reduced score must be the exact blended fitness"
        );
    }

    #[test]
    fn chunked_reduction_matches_on_scored_candidates() {
        let p = problem();
        let s = Schedule::uniform(5, 0);
        let eval = EvalState::new(&p, &s);
        let candidates: Vec<(u32, u32)> = (0..5u32).flat_map(|j| [(j, 1u32), (j, 2)]).collect();
        let mut buf = ScoreBuf::new();
        eval.score_moves(&p, &s, &candidates, &mut buf);
        assert_eq!(
            buf.best_by(|o| p.fitness(o)),
            buf.best_fitness(p.weights(), p.nb_machines()),
        );
    }

    #[test]
    fn top_cache_survives_makespan_shrink_and_growth() {
        // Drive the top-3 cache through shrink (rescan) and growth
        // (bubble) paths on a 5-machine problem.
        let etc = EtcMatrix::from_rows(6, 5, vec![10.0; 30]);
        let p = Problem::from_instance(&GridInstance::new("top", etc));
        let mut s = Schedule::from_assignment(vec![0, 0, 0, 1, 2, 3]);
        let mut eval = EvalState::new(&p, &s);
        eval.debug_validate(&p, &s);
        // Shrink the maximum machine (0) twice, then grow machine 4.
        eval.apply_move(&p, &mut s, 0, 4);
        eval.debug_validate(&p, &s);
        eval.apply_move(&p, &mut s, 1, 4);
        eval.debug_validate(&p, &s);
        eval.apply_move(&p, &mut s, 2, 4);
        eval.debug_validate(&p, &s);
        assert_eq!(eval.makespan(), 30.0);
    }
}
