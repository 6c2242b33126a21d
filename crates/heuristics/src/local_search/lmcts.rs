//! LMCTS — Local Minimum Completion Time Swap (the paper's tuned choice).

use cmags_core::{EvalState, JobId, Problem, Schedule};
use rand::{Rng, RngCore};

use super::LocalSearch;

/// Local Minimum Completion Time Swap: anchor one random job, rank its
/// swap with **every** job on a different machine by fitness, and commit
/// the best pair when it strictly improves.
///
/// One step scores `O(nb_jobs)` candidates through
/// [`EvalState::best_swap`], which walks the partners machine by machine
/// and answers each candidate with one binary search on the anchor's
/// machine plus closed-form deltas; ties keep the lowest job id. Swaps
/// preserve per-machine job counts, which makes LMCTS an effective
/// *refiner* of already balanced schedules — the regime where pure moves
/// (LM/SLM) stall — and is why it wins the paper's Fig. 2 and was fixed
/// in Table 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalMctSwap;

impl LocalSearch for LocalMctSwap {
    fn name(&self) -> &'static str {
        "LMCTS"
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
        match eval.best_swap(problem, schedule, anchor, |o| problem.fitness(o)) {
            Some((partner, objectives)) if problem.fitness(objectives) < eval.fitness(problem) => {
                eval.apply_swap(problem, schedule, anchor, partner);
                true
            }
            _ => false,
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
    fn finds_the_obvious_swap() {
        // Job 0 is terrible on m0 and great on m1, job 1 vice versa.
        let etc = cmags_etc::EtcMatrix::from_rows(2, 2, vec![10.0, 1.0, 1.0, 10.0]);
        let p = Problem::from_instance(&cmags_etc::GridInstance::new("sw", etc));
        let mut s = Schedule::from_assignment(vec![0, 1]);
        let mut eval = EvalState::new(&p, &s);
        assert_eq!(eval.makespan(), 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(LocalMctSwap.step(&p, &mut s, &mut eval, &mut rng));
        assert_eq!(s.assignment(), &[1, 0]);
        assert_eq!(eval.makespan(), 1.0);
    }

    #[test]
    fn preserves_machine_job_counts() {
        let p = problem();
        let (mut s, mut eval) = random_start(&p, 33);
        let histogram_before = s.load_histogram(p.nb_machines());
        let mut rng = SmallRng::seed_from_u64(34);
        LocalMctSwap.run(&p, &mut s, &mut eval, &mut rng, 50);
        assert_eq!(s.load_histogram(p.nb_machines()), histogram_before);
    }

    #[test]
    fn refines_what_moves_cannot() {
        use super::super::{LocalSearch as _, SteepestLocalMove};
        // Run SLM to a move-local-optimum, then verify LMCTS still finds
        // improvements (with better-than-even odds on a random anchor).
        let p = problem();
        let (mut s, mut eval) = random_start(&p, 55);
        let mut rng = SmallRng::seed_from_u64(56);
        // Drive moves until 200 consecutive rejections.
        let mut stall = 0;
        while stall < 200 {
            if SteepestLocalMove.step(&p, &mut s, &mut eval, &mut rng) {
                stall = 0;
            } else {
                stall += 1;
            }
        }
        let before = eval.fitness(&p);
        let improved = LocalMctSwap.run(&p, &mut s, &mut eval, &mut rng, 60);
        assert!(
            improved > 0,
            "swap neighbourhood should escape the move optimum"
        );
        assert!(eval.fitness(&p) < before);
    }

    #[test]
    fn all_jobs_one_machine_is_noop() {
        let p = problem();
        let mut s = Schedule::uniform(p.nb_jobs(), 2);
        let mut eval = EvalState::new(&p, &s);
        let mut rng = SmallRng::seed_from_u64(6);
        assert!(!LocalMctSwap.step(&p, &mut s, &mut eval, &mut rng));
    }
}
