//! # cmags-gridsim — discrete-event dynamic grid simulator
//!
//! The reproduced paper's closing claim (§1, §6) is that the cMA, run "in
//! batch mode for a very short time to schedule jobs arriving to the
//! system since the last activation", yields an efficient *dynamic*
//! scheduler. The authors defer evaluating that claim to future work with
//! "grid simulator packages"; this crate is that simulator, so the claim
//! becomes testable (`DESIGN.md` experiment DYN).
//!
//! ## Model
//!
//! * **Jobs** arrive through a configurable [`workload::ArrivalProcess`]
//!   — stationary Poisson, bursty on/off MMPP, diurnal sinusoidal-rate,
//!   or flash-crowd spikes; each carries a baseline workload drawn from
//!   the ETC class ranges ([`workload`]).
//! * **Machines** have speed characteristics consistent with the chosen
//!   [`cmags_etc::Consistency`] class; a [`scenario::ChurnModel`]
//!   governs how they join and leave the grid (independent churn,
//!   correlated mass-departure shocks, or a degrading pool), mirroring
//!   "resources could dynamically be added/dropped". A leaving machine
//!   kills its running job; killed and queued jobs are resubmitted.
//! * **Faults** are modelled separately from churn by a
//!   [`fault::FailureModel`]: jobs can fail transiently mid-execution,
//!   and machines can *crash* — a crash quarantines the machine until
//!   its exponential repair completes and kills the running job, where
//!   a churn *departure* removes the machine permanently and
//!   resubmits its whole queue. A [`fault::RecoveryPolicy`] governs
//!   what happens next: retry with backoff ([`fault::RetryPolicy`]),
//!   optional checkpoint/restart that banks completed progress, ETC
//!   inflation so the scheduler prices failure risk, and blacklisting
//!   of repeat-offender machines. All fault randomness flows through
//!   dedicated counter-based streams, so enabling faults never shifts
//!   the exogenous arrival/churn stream.
//! * The named regimes combining these axes live in the
//!   [`scenario::ScenarioFamily`] catalog (`calm`, `churny`, `bursty`,
//!   `diurnal`, `flash_crowd`, `degrading`, `volatile`, `flaky`,
//!   `crashy`); every family is deterministic per seed.
//! * Every `activation_interval` simulated seconds, the **batch
//!   scheduler** ([`scheduler::BatchScheduler`]) receives the pending jobs
//!   and the alive machines (with their *ready times* — the remaining
//!   committed work) as an ETC instance, exactly the static problem of
//!   `cmags-core`. Assignments are dispatched to per-machine queues
//!   executed in SPT order (the evaluation convention of the whole
//!   workspace).
//! * [`metrics::SimReport`] aggregates realized makespan, flowtime,
//!   waiting times, utilisation and scheduler statistics — kept as
//!   exact tick totals during the run and converted to float seconds
//!   once, at its end — plus a
//!   [`metrics::TelemetryReport`] of always-on tick-domain telemetry:
//!   exact wait/response histograms with p50/p95/p99, load gauges and
//!   fault counters. Wall-clock phase profiling
//!   ([`Simulation::with_profiling`]) and JSONL event tracing
//!   ([`Simulation::with_trace`]) are opt-in; the tick-domain-exact vs
//!   wall-clock-informational split is defined in
//!   [`cmags_core::telemetry`].
//! * The **event core** runs on exact fixed-point ticks
//!   (`cmags_core::ticks`): the [`event`] module's calendar queue
//!   drains events in O(1) amortised with lazy cancellation of stale
//!   finishes, job state lives in an id-indexed arena, and dispatch
//!   works out of reusable scratch — the hot loop is allocation-free
//!   in steady state. A `BinaryHeap` reference backend
//!   ([`QueueKind::Heap`]) is retained and pinned bit-identical for
//!   oracle tests and the `sim_scale` hold-model baseline.
//!
//! ## Example
//!
//! ```
//! use cmags_gridsim::scheduler::HeuristicScheduler;
//! use cmags_gridsim::{SimConfig, Simulation};
//! use cmags_heuristics::constructive::ConstructiveKind;
//!
//! let config = SimConfig::small();
//! let mut scheduler = HeuristicScheduler::new(ConstructiveKind::MinMin);
//! let report = Simulation::new(config, 7).run(&mut scheduler);
//! assert_eq!(report.jobs_completed, report.jobs_submitted);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod event;
pub mod fault;
mod jobs;
pub mod machine;
pub mod metrics;
pub mod scenario;
pub mod scheduler;
mod sim;
pub mod workload;

pub use config::ConfigError;
pub use event::QueueKind;
pub use fault::{FailureModel, RecoveryPolicy, RetryPolicy};
pub use metrics::{SimReport, TelemetryReport};
pub use scenario::{ChurnModel, ScenarioFamily};
pub use sim::{ticks_to_time, time_to_ticks, SimConfig, Simulation};
pub use workload::ArrivalProcess;
