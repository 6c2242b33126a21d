//! # cmags-core — scheduling problem core
//!
//! Shared substrate for every scheduler in the workspace: the problem view
//! of an ETC instance, the schedule representation, the bi-objective
//! evaluation (makespan + flowtime) of the reproduced paper, and an
//! **incremental evaluator** whose prefix-sum machine caches answer
//! move/swap probes in `O(log jobs-per-machine)` with O(1) global totals,
//! plus a **batched move-scoring API** ([`EvalState::score_moves`]) that
//! evaluates whole candidate sets into a reusable flat buffer and a
//! **swap scan** ([`EvalState::best_swap`]) that ranks an anchor job's
//! every swap partner machine by machine. All evaluation arithmetic runs
//! on exact fixed-point ticks, so every path — full, incremental,
//! batched — agrees bit-for-bit.
//!
//! ## Problem (paper §2)
//!
//! Independent jobs must each be assigned to exactly one machine. With
//! `completion[m] = ready[m] + Σ_{j ∈ S⁻¹(m)} ETC[j][m]`:
//!
//! * **makespan** `= max_m completion[m]` — system productivity,
//! * **flowtime** `= Σ_j F_j` (sum of job finishing times) — quality of
//!   service,
//! * **fitness** `= λ·makespan + (1-λ)·flowtime/nb_machines` (Eq. 3,
//!   λ = 0.75 after tuning).
//!
//! ## Intra-machine ordering
//!
//! The assignment vector fixes the makespan but not the flowtime: a job's
//! finishing time depends on the order its machine runs its jobs. Following
//! the convention of this literature, each machine executes its jobs in
//! **SPT order** (shortest ETC first), which minimises the machine's
//! flowtime for any fixed assignment and leaves its completion time
//! untouched. See `DESIGN.md` §2.
//!
//! ## Example
//!
//! ```
//! use cmags_core::{Problem, Schedule, EvalState};
//! use cmags_etc::{braun, InstanceClass};
//!
//! let inst = braun::generate("u_c_hihi.0".parse().unwrap(), 0);
//! let problem = Problem::from_instance(&inst);
//! // Everything on machine 0 — legal, terrible.
//! let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
//! let mut eval = EvalState::new(&problem, &schedule);
//! let before = eval.makespan();
//! // Move job 0 to machine 1; both objectives update incrementally.
//! eval.apply_move(&problem, &mut schedule, 0, 1);
//! assert!(eval.makespan() < before);
//! ```

#![warn(missing_docs)]

pub mod diversity;
pub mod engine;
mod eval;
mod fitness;
mod objective;
mod objectives;
mod problem;
mod schedule;
pub mod telemetry;
pub mod ticks;

pub use engine::{Metaheuristic, Observer, RunStats, Runner, StopCondition, TracePoint};
pub use eval::{EvalState, ScoreBuf};
pub use fitness::FitnessWeights;
pub use objective::Objective;
pub use objectives::{evaluate, Objectives};
pub use problem::Problem;
pub use schedule::{JobId, MachineId, Schedule, ScheduleError};
