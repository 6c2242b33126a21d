//! # cmags — Cellular Memetic Algorithms for batch job scheduling in grids
//!
//! A production-quality Rust reproduction of **"Efficient Batch Job
//! Scheduling in Grids using Cellular Memetic Algorithms"** (F. Xhafa,
//! E. Alba, B. Dorronsoro — IPPS/IPDPS 2007), including every substrate
//! the paper depends on:
//!
//! * [`etc`] — the ETC workload model and Braun et al. benchmark
//!   generator;
//! * [`core`] — the scheduling problem, objectives (makespan + flowtime),
//!   the incremental evaluator, and the **engine runtime**
//!   ([`core::engine`]): the [`prelude::Metaheuristic`] trait every
//!   search engine implements and the [`prelude::Runner`] that owns
//!   budgets, stop conditions and trace recording;
//! * [`heuristics`] — constructive heuristics (LJFR-SJFR, Min-Min, …),
//!   genetic operators, and the LM/SLM/LMCTS local search methods;
//! * [`cma`] — the cellular memetic algorithm itself (the paper's
//!   contribution);
//! * [`ga`] — the baseline GAs of the paper's comparison tables;
//! * [`mo`] — the paper's future-work extension: dominance-based
//!   multi-objective cellular search (MOCell-style) with an NSGA-II
//!   baseline and front-quality indicators;
//! * [`portfolio`] — the deterministic racing-portfolio runtime:
//!   several engines race under one shared budget with
//!   successive-halving elimination and warm-start elite sharing;
//! * [`gridsim`] — a discrete-event dynamic grid simulator exercising the
//!   paper's batch-mode dynamic-scheduler claim, with a
//!   [`gridsim::scheduler::PortfolioScheduler`] racing engines per
//!   batch activation and a [`gridsim::ScenarioFamily`] catalog of
//!   arrival/churn/fault regimes (calm, churny, bursty, diurnal,
//!   flash crowd, degrading, volatile, flaky, crashy), backed by a
//!   fault-tolerant execution layer ([`gridsim::FailureModel`],
//!   [`gridsim::RecoveryPolicy`]) with transient failures, machine
//!   crash/repair cycles, retry backoff and checkpoint/restart.
//!
//! Cross-cutting observability lives in [`core::telemetry`]: exact
//! tick-domain counters/gauges/histograms (always on, deterministic,
//! allocation-free), opt-in wall-clock phase profiling
//! ([`gridsim::Simulation::with_profiling`]) and structured JSONL
//! event tracing ([`gridsim::Simulation::with_trace`]); every
//! [`gridsim::SimReport`] embeds a [`gridsim::TelemetryReport`] with
//! p50/p95/p99 wait and response percentiles.
//!
//! This facade re-exports all of them plus a [`prelude`] with the types
//! an application typically needs.
//!
//! ## Quickstart
//!
//! ```
//! use cmags::prelude::*;
//!
//! // Regenerate a benchmark-class instance and schedule it.
//! let instance = braun::generate("u_c_hihi.0".parse().unwrap(), 0);
//! let problem = Problem::from_instance(&instance);
//! let config = CmaConfig::paper().with_stop(StopCondition::children(1_000));
//! let outcome = config.run(&problem, 42);
//!
//! // The cMA must beat its own seeding heuristic on the weighted fitness.
//! let seed = LjfrSjfr.build(&problem);
//! let seed_fitness = problem.fitness(evaluate(&problem, &seed));
//! assert!(outcome.fitness < seed_fitness);
//! ```

#![warn(missing_docs)]

pub use cmags_cma as cma;
pub use cmags_core as core;
pub use cmags_etc as etc;
pub use cmags_ga as ga;
pub use cmags_gridsim as gridsim;
pub use cmags_heuristics as heuristics;
pub use cmags_mo as mo;
pub use cmags_portfolio as portfolio;

/// The types most applications need, in one import.
pub mod prelude {
    pub use cmags_cma::{
        best_of, run_independent, CmaConfig, CmaOutcome, Neighborhood, Selection, StopCondition,
        SweepOrder, UpdatePolicy,
    };
    pub use cmags_core::engine::{
        Metaheuristic, Observer, RunStats, Runner, Snapshot, TracePoint, TraceSink,
    };
    pub use cmags_core::telemetry::{MetricsRegistry, MetricsSink, TickHistogram};
    pub use cmags_core::{
        evaluate, EvalState, FitnessWeights, JobId, MachineId, Objective, Objectives, Problem,
        Schedule,
    };
    pub use cmags_etc::{
        braun, Consistency, EtcMatrix, GridInstance, Heterogeneity, InstanceClass,
    };
    pub use cmags_ga::{
        BraunGa, GeneticSimulatedAnnealing, PanmicticMa, SimulatedAnnealing, SteadyStateGa,
        StruggleGa, TabuSearch,
    };
    pub use cmags_gridsim::{
        ArrivalProcess, ChurnModel, ConfigError, FailureModel, RecoveryPolicy, RetryPolicy,
        ScenarioFamily, SimConfig, SimReport, Simulation, TelemetryReport,
    };
    pub use cmags_heuristics::constructive::{
        Constructive, ConstructiveKind, Duplex, LjfrSjfr, MaxMin, Mct, Met, MinMin, Olb,
        RandomAssign, Sufferage,
    };
    pub use cmags_heuristics::local_search::{LocalSearch, LocalSearchKind};
    pub use cmags_heuristics::ops::{Crossover, Mutation};
    pub use cmags_mo::{MoCellConfig, MoSolution, Nsga2Config};
    pub use cmags_portfolio::{
        entry_seed, race, Contender, PortfolioConfig, PortfolioOutcome, RoundBudget, Sharing,
    };
}
