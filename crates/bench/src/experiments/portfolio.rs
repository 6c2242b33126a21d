//! PORT: the racing portfolio against the best single engine at
//! **equal total children**, across the four consistency classes.
//!
//! Each row races the eight scalarised engines under successive halving
//! ([`PortfolioConfig::successive_halving`]), then gives every engine of
//! the line-up, alone, the children the race actually spent. The
//! portfolio "matches" when its fitness is within 0.5 % of the best
//! single engine's (the tables' tolerance for equal-quality results).
//! Budgets are children only, so every row is deterministic per seed.

use cmags_cma::{CmaConfig, StopCondition};
use cmags_core::{FitnessWeights, Objectives, Problem};
use cmags_etc::{braun, InstanceClass};
use cmags_ga::{
    BraunGa, GeneticSimulatedAnnealing, PanmicticMa, SimulatedAnnealing, SteadyStateGa, StruggleGa,
    TabuSearch,
};
use cmags_portfolio::{race, PortfolioConfig};

use crate::args::Ctx;
use crate::report::{fmt_percent, fmt_value, Table};
use crate::runner::{roster, Algo};

/// The consistency classes compared, at the context's dimensions.
const CLASSES: [&str; 4] = ["u_c_hihi.0", "u_i_hihi.0", "u_s_hihi.0", "u_c_lolo.0"];

/// The iterative line-up racing in the portfolio: all eight scalarised
/// engines, every configurable one under the problem's λ-weights so the
/// uniform ranking is also each engine's own objective.
fn lineup() -> Vec<Algo> {
    vec![
        Algo::Cma(CmaConfig::paper()),
        Algo::BraunGa(BraunGa::default().with_weights(FitnessWeights::default())),
        Algo::SteadyState(SteadyStateGa::default()),
        Algo::Struggle(StruggleGa::default()),
        Algo::Panmictic(PanmicticMa::default()),
        Algo::Sa(SimulatedAnnealing::default()),
        Algo::Tabu(TabuSearch::default()),
        Algo::Gsa(GeneticSimulatedAnnealing::default().with_weights(FitnessWeights::default())),
    ]
}

/// The line-up, each engine alone under the children a race spent.
fn equal_budget_field(spent: u64) -> Vec<Algo> {
    lineup()
        .into_iter()
        .map(|algo| algo.with_stop(StopCondition::children(spent)))
        .collect()
}

/// Races the line-up on `p` under `budget` children, runs the
/// equal-budget single-engine field, and renders the comparison row.
fn comparison_row(label: &str, p: &Problem, budget: u64, seed: u64) -> Vec<String> {
    let algos = lineup();
    let config = PortfolioConfig::successive_halving(algos.len(), budget);
    let outcome = race(&config, roster(p, &algos, seed), |o| p.fitness(o));
    let spent = outcome.total_children;

    let (best_single, best_name) = equal_budget_field(spent)
        .iter()
        .map(|algo| {
            let result = algo.run(p, seed);
            let fitness = p.fitness(Objectives {
                makespan: result.makespan,
                flowtime: result.flowtime,
            });
            (fitness, algo.name())
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("the line-up is non-empty");
    let delta = (outcome.best_score - best_single) / best_single * 100.0;
    vec![
        label.to_owned(),
        spent.to_string(),
        fmt_value(outcome.best_score),
        outcome.winner_name,
        fmt_value(best_single),
        best_name,
        fmt_percent(delta),
        if outcome.best_score <= best_single * 1.005 {
            "yes"
        } else {
            "no"
        }
        .to_owned(),
    ]
}

/// One row per consistency class at `--jobs`×`--machines`, each race
/// given `--budget-children` children (default 6 000); `large` adds the
/// generated 4096×64 scenario, where children cost ~20× more, so its
/// default budget is 800.
#[must_use]
pub fn portfolio(ctx: &Ctx, large: bool) -> Table {
    let mut table = Table::new(
        "Racing portfolio vs best single engine at equal children",
        &[
            "instance",
            "children",
            "portfolio fitness",
            "race winner",
            "best single fitness",
            "best single",
            "Δ",
            "matched",
        ],
    );
    let budget = ctx.stop.max_children.unwrap_or(6_000);
    for class in CLASSES {
        let class: InstanceClass = class.parse().expect("static label");
        let class = class.with_dims(ctx.nb_jobs, ctx.nb_machines);
        let p = Problem::from_instance(&braun::generate(class, super::SUITE_STREAM));
        let label = format!("{} {}x{}", p.name(), ctx.nb_jobs, ctx.nb_machines);
        table.push_row(comparison_row(&label, &p, budget, ctx.seed));
    }
    if large {
        let budget = ctx.stop.max_children.unwrap_or(800);
        let p = super::large_scenario();
        let label = format!("{} 4096x64", p.name());
        table.push_row(comparison_row(&label, &p, budget, ctx.seed));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::super::test_ctx;
    use super::*;

    #[test]
    fn one_row_per_class_with_finite_fitness() {
        let ctx = test_ctx(24, 3, 1, 80);
        let table = portfolio(&ctx, false);
        assert_eq!(table.rows.len(), CLASSES.len());
        for (row, class) in table.rows.iter().zip(CLASSES) {
            assert!(row[0].starts_with(class), "{} vs {class}", row[0]);
            let spent: u64 = row[1].parse().unwrap();
            assert!(spent > 0, "{class}: the race spent no children");
            for column in [2, 4] {
                let fitness: f64 = row[column].parse().unwrap();
                assert!(fitness.is_finite() && fitness > 0.0, "{class}: {row:?}");
            }
            assert!(row[7] == "yes" || row[7] == "no");
        }
    }

    #[test]
    fn every_single_engine_gets_the_children_the_race_spent() {
        let field = equal_budget_field(123);
        assert_eq!(field.len(), lineup().len());
        for algo in &field {
            assert_eq!(
                algo.stop_condition(),
                Some(StopCondition::children(123)),
                "{}",
                algo.name()
            );
        }
    }
}
