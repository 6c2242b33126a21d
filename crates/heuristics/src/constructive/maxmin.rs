//! Max-Min (Braun et al. 2001).

use cmags_core::{JobId, Problem, Schedule};
use rand::RngCore;

use super::{best_completion_for, Constructive};

/// Max-Min: repeatedly assign the job whose *minimum completion time* is
/// largest.
///
/// The mirror image of Min-Min: big jobs are committed first (to their
/// best machines), and the small jobs then fill the gaps. Tends to win
/// when a few long jobs dominate the workload. `O(jobs² · machines)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMin;

impl Constructive for MaxMin {
    fn name(&self) -> &'static str {
        "Max-Min"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        let mut completions = problem.ready_times().to_vec();
        let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
        let mut unassigned: Vec<JobId> = (0..problem.nb_jobs() as JobId).collect();

        while !unassigned.is_empty() {
            let mut best_pos = 0;
            let mut best = best_completion_for(problem, &completions, unassigned[0]);
            for (pos, &job) in unassigned.iter().enumerate().skip(1) {
                let cand = best_completion_for(problem, &completions, job);
                if cand.1 > best.1 {
                    best = cand;
                    best_pos = pos;
                }
            }
            let job = unassigned.swap_remove(best_pos);
            schedule.assign(job, best.0);
            completions[best.0 as usize] = best.1;
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{medium, tiny};
    use super::*;
    use cmags_core::evaluate;

    #[test]
    fn commits_longest_job_first() {
        let p = tiny();
        let s = MaxMin.build(&p);
        // Round 1: job 3 has the largest best-case completion (8 on m0).
        assert_eq!(s.machine_of(3), 0);
    }

    #[test]
    fn feasible_and_deterministic() {
        let p = medium();
        let a = MaxMin.build(&p);
        let b = MaxMin.build(&p);
        assert_eq!(a, b);
        let obj = evaluate(&p, &a);
        assert!(obj.makespan > 0.0);
    }

    #[test]
    fn differs_from_minmin_in_general() {
        use super::super::MinMin;
        let p = medium();
        assert_ne!(MaxMin.build(&p), MinMin.build(&p));
    }
}
