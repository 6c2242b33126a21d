//! Aggregate metrics of one simulation run.
//!
//! Two kinds of quantities live here, and they must not be conflated
//! (the split is defined in [`cmags_core::telemetry`]):
//!
//! * **Tick-domain, exact, deterministic** — job counts, digests, the
//!   [`TelemetryReport`] histograms/gauges, and the simulated-time
//!   aggregates. Those are exact integer tick totals during the run
//!   (flowtime, makespan, busy and available machine time; the wait
//!   and response sums are the histograms' own exact sums), converted
//!   to the float-second fields of [`SimReport`] once, when the run
//!   ends. They replay bit-identically across runs, queue backends and
//!   worker-thread counts, and the determinism tests pin them.
//! * **Wall-clock, informational-only** — `scheduler_wall_s`,
//!   `sim_wall_s`, and the [`TelemetryReport::phases`] durations. They
//!   vary run to run; nothing deterministic may depend on them.

use cmags_core::telemetry::{Gauge, PhaseProfile, TickHistogram};
use cmags_core::ticks;

/// Deterministic telemetry of one simulation run: tick-domain
/// histograms and gauges (exact, pinned by the determinism tests) plus
/// the wall-clock phase profile (informational-only, empty unless
/// profiling was enabled via `Simulation::with_profiling`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Job waiting times (final-attempt start − arrival), exact ticks.
    pub wait: TickHistogram,
    /// Job response times (completion − arrival), exact ticks.
    pub response: TickHistogram,
    /// Pending (unscheduled) jobs, sampled at every scheduler
    /// activation.
    pub pending_jobs: Gauge,
    /// Live event-queue depth, sampled at every scheduler activation.
    /// Backend-invariant: cancelled-but-unpopped entries are excluded.
    pub queue_depth: Gauge,
    /// Job dispatches handed to machines (one per job per activation it
    /// was planned in).
    pub dispatches: u64,
    /// Delayed retries armed by the fault layer.
    pub retries_scheduled: u64,
    /// Wall-clock phase attribution (scheduler / snapshot_build /
    /// dispatch / queue / fault_handling). **Informational-only** —
    /// durations vary run to run; span *counts* are deterministic.
    pub phases: PhaseProfile,
}

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Scheduler under test.
    pub scheduler: String,
    /// Jobs that entered the system.
    pub jobs_submitted: u64,
    /// Jobs completed by the end of the run.
    pub jobs_completed: u64,
    /// Jobs killed by machine departures and resubmitted.
    pub resubmissions: u64,
    /// Jobs dropped terminally after exhausting their retry budget
    /// ([`crate::RetryPolicy`]'s `give_up_after`).
    pub jobs_dropped: u64,
    /// Execution attempts lost to transient failures or crash kills.
    pub job_failures: u64,
    /// Machine crash events (quarantine until repair; permanent
    /// departures are counted by the churn layer, not here).
    pub machine_crashes: u64,
    /// Machine repair completions.
    pub machine_recoveries: u64,
    /// Execution ticks lost to failed attempts, net of checkpoint
    /// salvage: the work a retry has to redo. Checkpointing exists to
    /// shrink this.
    pub wasted_ticks: u64,
    /// Largest per-job resubmission count observed (saturating).
    pub max_resubmits: u32,
    /// Largest per-job failed-attempt count observed (saturating).
    pub max_failures: u32,
    /// Completion time of the last job (paper's makespan analogue).
    pub realized_makespan: f64,
    /// Sum of completion times (the paper's flowtime definition).
    pub flowtime: f64,
    /// Sum of response times (completion − arrival): the response
    /// histogram's exact sum, in seconds.
    pub total_response: f64,
    /// Sum of waiting times (final attempt's start − arrival): the wait
    /// histogram's exact sum, in seconds.
    pub total_wait: f64,
    /// Scheduler activations that had work to plan.
    pub activations: u64,
    /// Total wall-clock seconds spent inside the batch scheduler.
    pub scheduler_wall_s: f64,
    /// Machine-seconds of busy time (across all machines that ever lived).
    pub busy_machine_seconds: f64,
    /// Machine-seconds of availability.
    pub available_machine_seconds: f64,
    /// Order-sensitive FNV-1a fold of the *exogenous* event stream —
    /// every job arrival (id, time, baseline) and churn event (join,
    /// leave, shock) in processing order. The scheduler under test never
    /// contributes to it, so two runs over the same `(config, seed)`
    /// must produce **identical** digests whatever scheduler (or
    /// scheduler objective λ) is plugged in, as long as execution noise
    /// is off; a mismatch means the scheduler perturbed the simulation's
    /// RNG stream. (With execution noise on, start-order-dependent noise
    /// draws interleave with the arrival process, so the stream is
    /// genuinely schedule-dependent and digests may differ.)
    pub event_digest: u64,
    /// Order-sensitive FNV-1a fold of the **fault** stream: transient
    /// failures, retry scheduling, crash kills and terminal drops in
    /// processing order. Kept separate from
    /// [`SimReport::event_digest`] because fault instants depend on
    /// *where* jobs run — the fault stream is schedule-dependent by
    /// nature, while the exogenous digest must stay
    /// scheduler-invariant. The chaos harness pins this digest
    /// bit-identical across queue backends and worker-thread counts.
    pub fault_digest: u64,
    /// Events drained from the queue over the whole run.
    pub events_processed: u64,
    /// Wall-clock seconds of the whole run, *including* scheduler time
    /// ([`SimReport::scheduler_wall_s`] is the scheduler-only share).
    pub sim_wall_s: f64,
    /// Deterministic telemetry: tail-latency histograms, load gauges,
    /// and (when profiling is on) the wall-clock phase profile.
    pub telemetry: TelemetryReport,
    /// Latest completion instant, ticks.
    makespan_ticks: i64,
    /// Sum of completion instants, ticks.
    flowtime_ticks: i128,
    /// Machine busy time, ticks: each attempt adds its span to the
    /// scheduled finish or failure, and a crash or departure refunds
    /// the unexecuted tail.
    pub(crate) busy_ticks: i128,
    /// Machine availability, ticks: alive machines × elapsed time.
    pub(crate) available_ticks: i128,
}

impl SimReport {
    /// Mean response time per completed job.
    #[must_use]
    pub fn mean_response(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.total_response / self.jobs_completed as f64
        }
    }

    /// Mean waiting time (final attempt's start − arrival) per
    /// completed job.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.total_wait / self.jobs_completed as f64
        }
    }

    /// A waiting-time percentile in seconds, resolved from the exact
    /// tick-domain histogram (`q ∈ [0, 1]`; `None` before the first
    /// completion). Bucket-granular: overshoots the true order
    /// statistic by at most 12.5% relative.
    #[must_use]
    pub fn wait_percentile(&self, q: f64) -> Option<f64> {
        self.telemetry
            .wait
            .quantile(q)
            .map(|t| ticks::time(i128::from(t)))
    }

    /// A response-time percentile in seconds (see
    /// [`SimReport::wait_percentile`] for resolution semantics).
    #[must_use]
    pub fn response_percentile(&self, q: f64) -> Option<f64> {
        self.telemetry
            .response
            .quantile(q)
            .map(|t| ticks::time(i128::from(t)))
    }

    /// Fraction of available machine time spent busy, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.available_machine_seconds == 0.0 {
            0.0
        } else {
            (self.busy_machine_seconds / self.available_machine_seconds).min(1.0)
        }
    }

    /// Folds one exogenous event into [`SimReport::event_digest`]
    /// (FNV-1a over the little-endian bytes of each word).
    pub(crate) fn fold_event(&mut self, parts: &[u64]) {
        fnv_fold(&mut self.event_digest, parts);
    }

    /// Folds one fault-layer event into [`SimReport::fault_digest`].
    pub(crate) fn fold_fault(&mut self, parts: &[u64]) {
        fnv_fold(&mut self.fault_digest, parts);
    }

    /// Updates the per-job attempt maxima (on completion *and* drop).
    pub(crate) fn note_attempts(&mut self, resubmissions: u32, failures: u32) {
        self.max_resubmits = self.max_resubmits.max(resubmissions);
        self.max_failures = self.max_failures.max(failures);
    }

    /// Folds one completed job into the aggregates and the tail
    /// histograms, from its arrival, final-attempt start and completion
    /// instants (ticks).
    pub(crate) fn record_completion(
        &mut self,
        arrival: i64,
        started: i64,
        finished: i64,
        resubmissions: u32,
        failures: u32,
    ) {
        debug_assert!(arrival <= started && started <= finished);
        self.jobs_completed += 1;
        self.makespan_ticks = self.makespan_ticks.max(finished);
        self.flowtime_ticks += i128::from(finished);
        self.telemetry.wait.record((started - arrival) as u64);
        self.telemetry.response.record((finished - arrival) as u64);
        self.resubmissions += u64::from(resubmissions);
        self.note_attempts(resubmissions, failures);
    }

    /// Fills the float-second aggregates from the exact tick totals:
    /// the simulator calls this once, when the run ends.
    pub(crate) fn settle(&mut self) {
        self.realized_makespan = ticks::time(i128::from(self.makespan_ticks));
        self.flowtime = ticks::time(self.flowtime_ticks);
        self.total_response = ticks::time(self.telemetry.response.sum() as i128);
        self.total_wait = ticks::time(self.telemetry.wait.sum() as i128);
        self.busy_machine_seconds = ticks::time(self.busy_ticks);
        self.available_machine_seconds = ticks::time(self.available_ticks);
    }
}

/// Order-sensitive FNV-1a over the little-endian bytes of each word.
fn fnv_fold(digest: &mut u64, parts: &[u64]) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &part in parts {
        for byte in part.to_le_bytes() {
            *digest ^= u64::from(byte);
            *digest = digest.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report of completions `(arrival, started, finished)` in
    /// seconds, quantised to ticks and settled.
    fn settled(jobs: &[(f64, f64, f64)]) -> SimReport {
        let mut report = SimReport::default();
        for &(arrival, started, finished) in jobs {
            report.record_completion(
                ticks::ticks(arrival),
                ticks::ticks(started),
                ticks::ticks(finished),
                0,
                0,
            );
        }
        report.settle();
        report
    }

    #[test]
    fn aggregates_accumulate() {
        let report = settled(&[(0.0, 1.0, 5.0), (2.0, 2.0, 10.0)]);
        assert_eq!(report.jobs_completed, 2);
        assert_eq!(report.realized_makespan, 10.0);
        assert_eq!(report.flowtime, 15.0);
        assert_eq!(report.total_response, 5.0 + 8.0);
        assert_eq!(report.total_wait, 1.0);
        assert_eq!(report.mean_response(), 6.5);
        assert_eq!(report.mean_wait(), 0.5);
    }

    #[test]
    fn aggregates_are_exact_tick_sums() {
        // Completions at multiples of the 0.1 s tick: a float fold of
        // their seconds drifts from the exact sum, which converts once.
        let mut report = SimReport::default();
        let tenth = ticks::ticks(0.1);
        for i in 1..=10_000i64 {
            report.record_completion(0, 0, i * tenth, 0, 0);
        }
        report.busy_ticks = i128::from(3 * tenth);
        report.available_ticks = i128::from(4 * tenth);
        report.settle();
        let sum: i128 = (1..=10_000i128).map(|i| i * i128::from(tenth)).sum();
        let float_fold: f64 = (1..=10_000i128)
            .map(|i| ticks::time(i * i128::from(tenth)))
            .sum();
        assert_ne!(float_fold, ticks::time(sum), "the fold must drift here");
        assert_eq!(report.flowtime, ticks::time(sum));
        assert_eq!(report.total_response, ticks::time(sum));
        assert_eq!(report.total_wait, 0.0);
        assert_eq!(
            report.realized_makespan,
            ticks::time(i128::from(10_000 * tenth))
        );
        assert_eq!(
            report.busy_machine_seconds,
            ticks::time(i128::from(3 * tenth))
        );
        assert_eq!(report.utilization(), 0.75);
    }

    #[test]
    fn event_digest_is_order_sensitive() {
        let mut a = SimReport::default();
        a.fold_event(&[1, 2]);
        let mut b = SimReport::default();
        b.fold_event(&[2, 1]);
        assert_ne!(a.event_digest, b.event_digest);
        let mut c = SimReport::default();
        c.fold_event(&[1]);
        c.fold_event(&[2]);
        assert_eq!(a.event_digest, c.event_digest, "folds concatenate");
    }

    #[test]
    fn fault_digest_is_independent_of_the_event_digest() {
        let mut report = SimReport::default();
        report.fold_event(&[1, 2, 3]);
        assert_eq!(report.fault_digest, 0, "event folds leave faults alone");
        let exogenous = report.event_digest;
        report.fold_fault(&[4, 5]);
        assert_eq!(
            report.event_digest, exogenous,
            "fault folds leave events alone"
        );
        assert_ne!(report.fault_digest, 0);
    }

    #[test]
    fn attempt_maxima_track_completions_and_drops() {
        let mut report = SimReport::default();
        report.record_completion(0, 1, 2, 3, 1);
        report.note_attempts(1, 7); // e.g. a dropped job's final counts
        assert_eq!(report.resubmissions, 3);
        assert_eq!(report.max_resubmits, 3);
        assert_eq!(report.max_failures, 7);
    }

    #[test]
    fn empty_report_means_are_zero() {
        let mut report = SimReport::default();
        report.settle();
        assert_eq!(report.realized_makespan, 0.0);
        assert_eq!(report.mean_response(), 0.0);
        assert_eq!(report.mean_wait(), 0.0);
        assert_eq!(report.utilization(), 0.0);
        assert_eq!(report.wait_percentile(0.95), None);
        assert_eq!(report.response_percentile(0.99), None);
    }

    #[test]
    fn percentiles_track_the_tick_histograms() {
        let jobs: Vec<_> = (1..=100u32)
            .map(|i| (0.0, f64::from(i), f64::from(i) * 2.0))
            .collect();
        let report = settled(&jobs);
        let p50_wait = report.wait_percentile(0.5).expect("non-empty");
        let p99_resp = report.response_percentile(0.99).expect("non-empty");
        // Bucket-granular: at most 12.5% relative overshoot plus the
        // tick→seconds rounding.
        assert!((50.0..=57.0).contains(&p50_wait), "p50 wait = {p50_wait}");
        assert!((198.0..=223.0).contains(&p99_resp), "p99 resp = {p99_resp}");
        assert_eq!(report.telemetry.wait.count(), 100);
        assert_eq!(report.telemetry.response.count(), 100);
        // The float aggregate is the histogram's exact sum.
        let mean_from_hist = ticks::time(report.telemetry.wait.sum() as i128) / 100.0;
        assert_eq!(mean_from_hist, report.mean_wait());
    }

    #[test]
    fn utilization_is_bounded() {
        let report = SimReport {
            busy_machine_seconds: 120.0,
            available_machine_seconds: 100.0,
            ..SimReport::default()
        };
        assert_eq!(report.utilization(), 1.0);
    }
}
