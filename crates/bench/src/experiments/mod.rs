//! Experiment implementations, one module per paper artefact family.
//!
//! Binaries under `src/bin/` are thin wrappers over these functions so
//! that every experiment is also callable (and testable) as a library.

pub mod ablation;
pub mod baselines;
pub mod cvb_exp;
pub mod dynamic;
pub mod figs;
pub mod mo_front;
pub mod pareto_exp;
pub mod portfolio;
pub mod robustness;
pub mod scaling;
pub mod significance;
pub mod sim_scale;
pub mod tables;

use cmags_core::Problem;
use cmags_etc::{braun, InstanceClass};

use crate::args::Ctx;

/// RNG stream used when regenerating the benchmark suite — one fixed
/// stream so every binary sees the same twelve instances.
pub const SUITE_STREAM: u64 = 0;

/// RNG stream for the tuning instance of Figs. 2–5 (the paper tunes on
/// "randomly generated instances according to the ETC matrix model",
/// distinct from the evaluation suite).
pub const TUNING_STREAM: u64 = 777;

/// The twelve benchmark problems at the context's dimensions.
#[must_use]
pub fn suite_problems(ctx: &Ctx) -> Vec<Problem> {
    InstanceClass::braun_suite(0)
        .into_iter()
        .map(|class| {
            let class = class.with_dims(ctx.nb_jobs, ctx.nb_machines);
            Problem::from_instance(&braun::generate(class, SUITE_STREAM))
        })
        .collect()
}

/// The consistent high/high tuning problem of the figure experiments.
#[must_use]
pub fn tuning_problem(ctx: &Ctx) -> Problem {
    let class: InstanceClass = "u_c_hihi.0".parse().expect("static label");
    let class = class.with_dims(ctx.nb_jobs, ctx.nb_machines);
    Problem::from_instance(&braun::generate(class, TUNING_STREAM))
}

/// The generated large-grid scenario shared by the scaling sweep and
/// the `--large` baselines and portfolio runs: the consistent
/// high/high class at 4096 jobs × 64 machines, suite stream.
#[must_use]
pub fn large_scenario() -> Problem {
    let class: InstanceClass = "u_c_hihi.0".parse().expect("static label");
    Problem::from_instance(&braun::generate(class.with_dims(4096, 64), SUITE_STREAM))
}

#[cfg(test)]
pub(crate) fn test_ctx(jobs: u32, machines: u32, runs: usize, children: u64) -> Ctx {
    use cmags_cma::StopCondition;
    Ctx {
        seed: 1,
        runs,
        stop: StopCondition::children(children),
        threads: 2,
        nb_jobs: jobs,
        nb_machines: machines,
        out_dir: std::env::temp_dir().join("cmags-bench-tests"),
        quiet: true,
        families: cmags_gridsim::ScenarioFamily::ALL.to_vec(),
        lambdas: vec![cmags_core::Objective::classic()],
        trace_out: None,
        metrics: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_problems_at_requested_dims() {
        let ctx = test_ctx(32, 4, 1, 10);
        let problems = suite_problems(&ctx);
        assert_eq!(problems.len(), 12);
        for p in &problems {
            assert_eq!(p.nb_jobs(), 32);
            assert_eq!(p.nb_machines(), 4);
        }
        assert_eq!(problems[0].name(), "u_c_hihi.0");
    }

    #[test]
    fn tuning_problem_differs_from_suite_instance() {
        let ctx = test_ctx(32, 4, 1, 10);
        let tuning = tuning_problem(&ctx);
        let suite = suite_problems(&ctx);
        assert_eq!(tuning.name(), suite[0].name(), "same class label");
        assert_ne!(
            tuning.etc_row(0),
            suite[0].etc_row(0),
            "different stream must decorrelate the draws"
        );
    }
}
