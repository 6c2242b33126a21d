//! SCALE: the paper's future-work item "evaluating our cMA with larger
//! size grid instances … generated according to the ETC model" (§6).
//!
//! Sweeps the problem size from the classic 512×16 upward and measures,
//! under a fixed per-run budget, the cMA's improvement over the
//! strongest cheap heuristic (Min-Min) and its children throughput.

use cmags_core::{evaluate, Problem};
use cmags_etc::{braun, InstanceClass};
use cmags_heuristics::constructive::ConstructiveKind;

use crate::args::Ctx;
use crate::report::{fmt_percent, fmt_value, Table};
use crate::runner::{parallel_map, Summary};

/// The swept dimensions: (jobs, machines). 4096×64 is the generated
/// large-grid scenario ([`super::large_scenario`]) that the `--large`
/// baselines and portfolio runs also use.
pub const SIZES: [(u32, u32); 5] = [(512, 16), (1024, 32), (2048, 64), (4096, 64), (4096, 128)];

/// Runs the scaling sweep on the consistent hihi class.
#[must_use]
pub fn scaling(ctx: &Ctx) -> Table {
    let class: InstanceClass = "u_c_hihi.0".parse().expect("static label");
    let seeds = ctx.seeds();

    let mut table = Table::new(
        "Scaling to larger grid instances",
        &[
            "size",
            "Min-Min makespan",
            "cMA makespan",
            "Δ vs Min-Min",
            "children/s",
        ],
    );
    for &(jobs, machines) in &SIZES {
        let problem = Problem::from_instance(&braun::generate(
            class.with_dims(jobs, machines),
            super::TUNING_STREAM,
        ));
        let minmin = evaluate(&problem, &ConstructiveKind::MinMin.build(&problem)).makespan;

        let results: Vec<(f64, f64)> = parallel_map(seeds.clone(), ctx.threads, |seed| {
            let outcome = ctx.cma_config().with_stop(ctx.stop).run(&problem, seed);
            let throughput = outcome.children as f64 / outcome.elapsed.as_secs_f64().max(1e-9);
            (outcome.objectives.makespan, throughput)
        });
        let makespans: Vec<f64> = results.iter().map(|(m, _)| *m).collect();
        let throughput: f64 = results.iter().map(|(_, t)| *t).sum::<f64>() / results.len() as f64;
        let best = Summary::of(&makespans).best;

        table.push_row(vec![
            format!("{jobs}x{machines}"),
            fmt_value(minmin),
            fmt_value(best),
            fmt_percent((minmin - best) / minmin * 100.0),
            format!("{throughput:.0}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-size version of the sweep logic (the full SIZES sweep is
    /// binary-only): throughput decreases with instance size while the
    /// cMA still at least matches Min-Min under the per-child budget.
    #[test]
    fn throughput_decreases_with_size() {
        use cmags_cma::{CmaConfig, StopCondition};
        let class: InstanceClass = "u_c_hihi.0".parse().unwrap();
        let mut throughputs = Vec::new();
        for (jobs, machines) in [(64u32, 8u32), (256, 16)] {
            let problem =
                Problem::from_instance(&braun::generate(class.with_dims(jobs, machines), 0));
            let outcome = CmaConfig::paper()
                .with_stop(StopCondition::children(150))
                .run(&problem, 1);
            throughputs.push(outcome.children as f64 / outcome.elapsed.as_secs_f64().max(1e-9));
        }
        assert!(
            throughputs[1] < throughputs[0],
            "children/s must drop with size: {throughputs:?}"
        );
    }
}
