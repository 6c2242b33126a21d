//! Flat job-state arena of the simulation.
//!
//! Job ids are issued densely from zero and never recycled, so the job
//! table is a slab indexed *directly* by id: `O(1)` state access on the
//! event hot path with no hashing or tree walks (the seed kept a
//! `BTreeMap<u64, JobState>`, an `O(log n)` pointer chase per lookup —
//! measurable at 10⁶ jobs). Generational staleness tracking collapses
//! to a terminal-phase flag because ids are never reused: a slot's only
//! possible stale access is touching a job after it reached a terminal
//! phase ([`JobPhase::Completed`] or [`JobPhase::Dropped`]), which the
//! accessors reject in debug builds.

use crate::workload::JobSpec;

/// Lifecycle phase of a job. `Active` covers everything in flight
/// (pending, queued, running, awaiting retry); the two terminal phases
/// are completion and the fault layer's give-up drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobPhase {
    /// In flight: pending, queued, running, or awaiting retry.
    Active,
    /// Finished successfully.
    Completed,
    /// Dropped after exhausting its retry budget
    /// ([`crate::RetryPolicy`]'s `give_up_after`).
    Dropped,
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobState {
    /// Static characteristics.
    pub spec: JobSpec,
    /// Arrival instant, ticks.
    pub arrival_ticks: i64,
    /// Start of the *current* attempt (ticks), if running.
    pub started: Option<i64>,
    /// How many times the job was resubmitted after machine departures
    /// or crashes (saturating).
    pub resubmissions: u32,
    /// How many execution attempts were lost to transient failures or
    /// crashes (saturating).
    pub failures: u32,
    /// How many execution attempts have begun (saturating); indexes the
    /// job's dedicated failure stream so each attempt draws fresh.
    pub starts: u32,
    /// Fraction of the job's work already banked in checkpoints, in
    /// `[0, 1)`. Zero without checkpointing; a retry executes only the
    /// remaining `1 − done_fraction` of its ETC.
    pub done_fraction: f64,
    /// Lifecycle phase (stale-access guard).
    pub phase: JobPhase,
}

/// Id-indexed slab of every job the run has admitted.
#[derive(Debug, Default)]
pub(crate) struct JobArena {
    slots: Vec<JobState>,
}

impl JobArena {
    /// Admits the next job; its id must equal the number of jobs
    /// admitted so far (ids are dense and monotone by construction).
    pub fn insert(&mut self, spec: JobSpec, arrival_ticks: i64) {
        debug_assert_eq!(spec.id as usize, self.slots.len(), "job ids must be dense");
        self.slots.push(JobState {
            spec,
            arrival_ticks,
            started: None,
            resubmissions: 0,
            failures: 0,
            starts: 0,
            done_fraction: 0.0,
            phase: JobPhase::Active,
        });
    }

    /// State of a live (non-terminal) job.
    #[inline]
    pub fn get(&self, id: u64) -> &JobState {
        let state = &self.slots[id as usize];
        debug_assert!(
            state.phase == JobPhase::Active,
            "stale access to completed job {id}"
        );
        state
    }

    /// Mutable state of a live job.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> &mut JobState {
        let state = &mut self.slots[id as usize];
        debug_assert!(
            state.phase == JobPhase::Active,
            "stale access to completed job {id}"
        );
        state
    }

    /// Marks a job completed, returning its final state.
    #[inline]
    pub fn complete(&mut self, id: u64) -> JobState {
        let state = &mut self.slots[id as usize];
        debug_assert!(state.phase == JobPhase::Active, "job {id} completed twice");
        state.phase = JobPhase::Completed;
        *state
    }

    /// Drops a job terminally (retry budget exhausted), returning its
    /// final state.
    #[inline]
    pub fn drop_job(&mut self, id: u64) -> JobState {
        let state = &mut self.slots[id as usize];
        debug_assert!(state.phase == JobPhase::Active, "job {id} dropped twice");
        state.phase = JobPhase::Dropped;
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64) -> JobSpec {
        JobSpec { id, baseline: 1.0 }
    }

    #[test]
    fn insert_and_access_by_id() {
        let mut arena = JobArena::default();
        arena.insert(spec(0), 0);
        arena.insert(spec(1), 7);
        assert_eq!(arena.get(1).arrival_ticks, 7);
        arena.get_mut(0).resubmissions += 1;
        assert_eq!(arena.get(0).resubmissions, 1);
    }

    #[test]
    fn complete_returns_final_state() {
        let mut arena = JobArena::default();
        arena.insert(spec(0), 0);
        arena.get_mut(0).started = Some(42);
        let state = arena.complete(0);
        assert_eq!(state.started, Some(42));
        assert_eq!(state.phase, JobPhase::Completed);
    }

    #[test]
    fn drop_is_terminal_and_distinct_from_completion() {
        let mut arena = JobArena::default();
        arena.insert(spec(0), 0);
        arena.get_mut(0).failures = 8;
        let state = arena.drop_job(0);
        assert_eq!(state.phase, JobPhase::Dropped);
        assert_eq!(state.failures, 8);
    }

    #[test]
    fn attempt_counters_saturate_instead_of_wrapping() {
        // The overflow contract of the retry counters: a pathological
        // run can fail one job more than u32::MAX times without the
        // counter wrapping back to a small value.
        let mut arena = JobArena::default();
        arena.insert(spec(0), 0);
        let job = arena.get_mut(0);
        job.failures = u32::MAX;
        job.failures = job.failures.saturating_add(1);
        job.resubmissions = u32::MAX;
        job.resubmissions = job.resubmissions.saturating_add(1);
        job.starts = u32::MAX;
        job.starts = job.starts.saturating_add(1);
        assert_eq!(arena.get(0).failures, u32::MAX);
        assert_eq!(arena.get(0).resubmissions, u32::MAX);
        assert_eq!(arena.get(0).starts, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "dense")]
    #[cfg(debug_assertions)]
    fn rejects_sparse_ids() {
        let mut arena = JobArena::default();
        arena.insert(spec(3), 0);
    }

    #[test]
    #[should_panic(expected = "stale access")]
    #[cfg(debug_assertions)]
    fn rejects_stale_access() {
        let mut arena = JobArena::default();
        arena.insert(spec(0), 0);
        arena.complete(0);
        let _ = arena.get(0);
    }

    #[test]
    #[should_panic(expected = "stale access")]
    #[cfg(debug_assertions)]
    fn rejects_access_to_dropped_jobs() {
        let mut arena = JobArena::default();
        arena.insert(spec(0), 0);
        arena.drop_job(0);
        let _ = arena.get(0);
    }
}
