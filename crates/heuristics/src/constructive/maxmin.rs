//! Max-Min (Braun et al. 2001).

use cmags_core::{Problem, Schedule};
use rand::RngCore;

use super::{build_by_best_completion, Constructive};

/// Max-Min: repeatedly assign the job whose *minimum completion time* is
/// largest.
///
/// The mirror image of Min-Min: big jobs are committed first (to their
/// best machines), and the small jobs then fill the gaps. Tends to win
/// when a few long jobs dominate the workload. `O(jobs² · machines)` in the worst
/// case; a round rescans only the jobs whose cached best machine was the
/// one just committed.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMin;

impl Constructive for MaxMin {
    fn name(&self) -> &'static str {
        "Max-Min"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        build_by_best_completion(problem, |candidate, best| candidate > best)
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
