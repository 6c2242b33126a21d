//! # cmags-cma — Cellular Memetic Algorithm for grid batch scheduling
//!
//! The paper's contribution: a **cellular** memetic algorithm whose
//! population lives on a 2-D toroidal grid. Evolutionary operators only
//! act inside small overlapping neighbourhoods, which slows the spread of
//! good genes just enough to balance exploration against exploitation —
//! the property that lets the scheduler deliver high-quality plans within
//! very short wall-clock budgets.
//!
//! The implementation follows the paper's Algorithm 1 template:
//! recombination and mutation are **independent asynchronous passes** with
//! separate sweep orders; every offspring is improved by a bounded local
//! search and replaces its cell only if strictly better. All components
//! are pluggable and every Table 1 value is a [`CmaConfig`] field:
//!
//! | Component | Paper choice (Table 1) | Module |
//! |-----------|------------------------|--------|
//! | Population | 5 × 5 toroidal grid | [`topology`] |
//! | Neighbourhood | C9 (also L5, L9, C13, panmictic) | [`neighborhood`] |
//! | Recombination sweep | FLS (fixed line sweep) | [`sweep`] |
//! | Mutation sweep | NRS (new random sweep) | [`sweep`] |
//! | Selection | 3-tournament, 3 solutions | [`selection`] |
//! | Recombination | one-point | `cmags_heuristics::ops` |
//! | Mutation | rebalance | `cmags_heuristics::ops` |
//! | Local search | LMCTS, 5 iterations | `cmags_heuristics::local_search` |
//! | Seeding | LJFR-SJFR + large perturbations | engine |
//!
//! ## Example
//!
//! ```
//! use cmags_cma::{CmaConfig, StopCondition};
//! use cmags_core::Problem;
//! use cmags_etc::braun;
//!
//! let inst = braun::generate("u_c_hihi.0".parse().unwrap(), 0);
//! let problem = Problem::from_instance(&inst);
//! let config = CmaConfig::paper().with_stop(StopCondition::children(500));
//! let outcome = config.run(&problem, 42);
//! assert!(outcome.objectives.makespan > 0.0);
//! assert!(!outcome.trace.is_empty());
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
pub mod islands;
pub mod neighborhood;
pub mod parallel;
pub mod pareto;
pub mod selection;
pub mod sweep;
pub mod topology;

/// Stopping conditions — moved down into the shared engine runtime
/// ([`cmags_core::engine::stop`]); re-exported here for compatibility.
pub mod stop {
    pub use cmags_core::engine::stop::*;
}

/// Convergence traces — moved down into the shared engine runtime
/// ([`cmags_core::engine::trace`]); re-exported here for compatibility.
pub mod trace {
    pub use cmags_core::engine::trace::*;
}

pub use cmags_core::diversity::DiversityPoint;
pub use cmags_core::engine::{StopCondition, TracePoint};
pub use config::{CmaConfig, UpdatePolicy};
pub use engine::{inject_elite, population_diversity_of, CmaEngine, CmaOutcome, Individual};
pub use islands::{run_islands, IslandConfig, IslandOutcome};
pub use neighborhood::Neighborhood;
pub use parallel::{best_of, run_independent};
pub use pareto::{ParetoArchive, ParetoPoint};
pub use selection::Selection;
pub use sweep::{SweepOrder, SweepState};
pub use topology::Torus;
