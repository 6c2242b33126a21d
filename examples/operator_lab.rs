//! Operator lab: the cMA as a component kit. Plugs a **custom local
//! search** (a user-defined makespan-greedy drain) into the machinery
//! next to the paper's operators, and compares neighbourhood/crossover
//! choices — the kind of experimentation the crate's public API is
//! designed for.
//!
//! ```text
//! cargo run --release --example operator_lab
//! ```

use cmags::prelude::*;
use rand::RngCore;

/// A user-defined local search: take the most loaded machine and move its
/// largest job to wherever the fitness improves most.
struct CriticalDrain;

impl LocalSearch for CriticalDrain {
    fn name(&self) -> &'static str {
        "CriticalDrain"
    }

    fn step(
        &self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        _rng: &mut dyn RngCore,
    ) -> bool {
        // The machine defining the makespan...
        let critical = *eval
            .machines_by_completion()
            .last()
            .expect("at least one machine");
        // ...its largest job...
        let Some(job) = schedule
            .iter()
            .filter(|&(_, m)| m == critical)
            .map(|(j, _)| j)
            .max_by_key(|&j| problem.etc(j, critical))
        else {
            return false;
        };
        // ...moved to the best target, if that strictly improves.
        let mut best: Option<(MachineId, f64)> = None;
        for target in 0..problem.nb_machines() as MachineId {
            if target == critical {
                continue;
            }
            let fitness = problem.fitness(eval.peek_move(problem, schedule, job, target));
            if best.is_none_or(|(_, f)| fitness < f) {
                best = Some((target, fitness));
            }
        }
        match best {
            Some((target, fitness)) if fitness < eval.fitness(problem) => {
                eval.apply_move(problem, schedule, job, target);
                true
            }
            _ => false,
        }
    }
}

fn main() {
    let class: InstanceClass = "u_s_hihi.0".parse().expect("valid label");
    let instance = braun::generate(class.with_dims(192, 16), 0);
    let problem = Problem::from_instance(&instance);
    let budget = StopCondition::children(2_000);

    // --- 1. Custom local search head-to-head with the paper's LMCTS. ---
    println!("custom local search on a random schedule (400 steps each):");
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
    let start = RandomAssign.build_seeded(&problem, &mut rng);
    for (name, ls) in [
        ("LMCTS", None),
        ("CriticalDrain", Some(&CriticalDrain as &dyn LocalSearch)),
    ] {
        let mut schedule = start.clone();
        let mut eval = EvalState::new(&problem, &schedule);
        match ls {
            Some(custom) => {
                custom.run(&problem, &mut schedule, &mut eval, &mut rng, 400);
            }
            None => {
                LocalSearchKind::Lmcts.run(&problem, &mut schedule, &mut eval, &mut rng, 400);
            }
        }
        println!("  {:<14} makespan {:>12.1}", name, eval.makespan());
    }

    // --- 2. Component sweeps through the cMA config. ---
    println!("\ncMA component sweep ({} children budget):", 2_000);
    for (label, config) in [
        ("paper (C9 + one-point)".to_owned(), CmaConfig::paper()),
        (
            "L5 neighbourhood".to_owned(),
            CmaConfig::paper().with_neighborhood(Neighborhood::L5),
        ),
        (
            "uniform crossover".to_owned(),
            CmaConfig::paper().with_crossover(Crossover::Uniform),
        ),
        (
            "swap mutation".to_owned(),
            CmaConfig::paper().with_mutation(Mutation::Swap),
        ),
        (
            "synchronous updates".to_owned(),
            CmaConfig::paper().with_update_policy(UpdatePolicy::Synchronous),
        ),
    ] {
        let outcome = config.with_stop(budget).run(&problem, 11);
        println!(
            "  {:<24} fitness {:>12.1}  makespan {:>12.1}",
            label, outcome.fitness, outcome.objectives.makespan
        );
    }
}
