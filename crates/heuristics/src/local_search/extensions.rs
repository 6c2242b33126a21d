//! Additional local search methods (extensions; paper §6 plans
//! "considering other operators and methods").
//!
//! Both come from the wider family in Xhafa's local-search studies for
//! this problem:
//!
//! * [`LocalMctMove`] — move a random job to its *minimum completion
//!   time* machine: a single well-aimed probe, between LM and SLM in
//!   cost.
//! * [`LocalFlowtimeSwap`] — LMCTS's structure with candidates ranked by
//!   **flowtime** instead of scalarised fitness, useful when the QoS
//!   objective is the bottleneck.
//!
//! Both only commit strictly fitness-improving steps, preserving the
//! hill-climbing contract of the [`super::LocalSearch`] trait.

use cmags_core::{EvalState, JobId, MachineId, Problem, Schedule};
use rand::{Rng, RngCore};

use super::LocalSearch;

/// Move a random job to the machine that would finish it earliest
/// (the MCT criterion), committing only on strict fitness improvement.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalMctMove;

impl LocalSearch for LocalMctMove {
    fn name(&self) -> &'static str {
        "LMCTM"
    }

    fn step(
        &self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        rng: &mut dyn RngCore,
    ) -> bool {
        let nb_machines = problem.nb_machines() as MachineId;
        if nb_machines < 2 {
            return false;
        }
        let job = rng.gen_range(0..schedule.nb_jobs() as JobId);
        let current = schedule.machine_of(job);
        // MCT target: argmin over machines of completion + etc, in the
        // evaluator's exact ticks.
        let row = problem.etc_row(job);
        let mut target = current;
        let mut best_ct = i128::MAX;
        for (m, &etc) in row.iter().enumerate() {
            let m = m as MachineId;
            if m == current {
                continue;
            }
            let ct = eval.completion_ticks(m) + i128::from(etc);
            if ct < best_ct {
                best_ct = ct;
                target = m;
            }
        }
        if target == current {
            return false;
        }
        let candidate = problem.fitness(eval.peek_move(problem, schedule, job, target));
        if candidate < eval.fitness(problem) {
            eval.apply_move(problem, schedule, job, target);
            true
        } else {
            false
        }
    }
}

/// LMCTS's anchored-swap scan ranked by **flowtime**; commits the best
/// candidate only when the scalarised fitness strictly improves. The
/// scan is one [`EvalState::best_swap`] call with a flowtime ranking.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalFlowtimeSwap;

impl LocalSearch for LocalFlowtimeSwap {
    fn name(&self) -> &'static str {
        "LFTS"
    }

    fn step(
        &self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        rng: &mut dyn RngCore,
    ) -> bool {
        let nb_jobs = schedule.nb_jobs() as JobId;
        if nb_jobs < 2 || problem.nb_machines() < 2 {
            return false;
        }
        let anchor = rng.gen_range(0..nb_jobs);
        let Some((partner, objectives)) = eval.best_swap(problem, schedule, anchor, |o| o.flowtime)
        else {
            return false;
        };
        // Rank by flowtime, commit on fitness: the step must stay a
        // strict improvement under the algorithm's objective.
        if objectives.flowtime < eval.flowtime()
            && problem.fitness(objectives) < eval.fitness(problem)
        {
            eval.apply_swap(problem, schedule, anchor, partner);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{problem, random_start};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mct_move_improves_unbalanced_schedules() {
        let p = problem();
        let mut s = Schedule::uniform(p.nb_jobs(), 0);
        let mut eval = EvalState::new(&p, &s);
        let before = eval.fitness(&p);
        let mut rng = SmallRng::seed_from_u64(1);
        let improved = LocalMctMove.run(&p, &mut s, &mut eval, &mut rng, 60);
        assert!(improved > 0);
        assert!(eval.fitness(&p) < before);
        eval.debug_validate(&p, &s);
    }

    #[test]
    fn flowtime_swap_reduces_flowtime() {
        let p = problem();
        let (mut s, mut eval) = random_start(&p, 2);
        let before = eval.flowtime();
        let mut rng = SmallRng::seed_from_u64(3);
        let improved = LocalFlowtimeSwap.run(&p, &mut s, &mut eval, &mut rng, 60);
        assert!(improved > 0);
        assert!(eval.flowtime() < before);
        eval.debug_validate(&p, &s);
    }

    #[test]
    fn both_respect_strict_improvement_contract() {
        let p = problem();
        let (mut s, mut eval) = random_start(&p, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let before = eval.fitness(&p);
            let changed_a = LocalMctMove.step(&p, &mut s, &mut eval, &mut rng);
            if changed_a {
                assert!(eval.fitness(&p) < before);
            }
            let before = eval.fitness(&p);
            let changed_b = LocalFlowtimeSwap.step(&p, &mut s, &mut eval, &mut rng);
            if changed_b {
                assert!(eval.fitness(&p) < before);
            }
        }
    }

    #[test]
    fn single_machine_noop() {
        let etc = cmags_etc::EtcMatrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let p = Problem::from_instance(&cmags_etc::GridInstance::new("one", etc));
        let mut s = Schedule::uniform(3, 0);
        let mut eval = EvalState::new(&p, &s);
        let mut rng = SmallRng::seed_from_u64(6);
        assert!(!LocalMctMove.step(&p, &mut s, &mut eval, &mut rng));
        assert!(!LocalFlowtimeSwap.step(&p, &mut s, &mut eval, &mut rng));
    }
}
