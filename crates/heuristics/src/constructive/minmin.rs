//! Min-Min (Braun et al. 2001) — the strongest simple heuristic of the
//! original benchmark study.

use cmags_core::{Problem, Schedule};
use rand::RngCore;

use super::{build_by_best_completion, Constructive};

/// Min-Min: repeatedly assign the job with the globally smallest
/// *minimum completion time*.
///
/// Each round computes, for every unassigned job, the machine that would
/// complete it earliest; the job with the smallest such completion time is
/// committed. Small jobs therefore go first, keeping machine completions
/// low and packed. `O(jobs² · machines)` in the worst
/// case; a round rescans only the jobs whose cached best machine was the
/// one just committed.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMin;

impl Constructive for MinMin {
    fn name(&self) -> &'static str {
        "Min-Min"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        build_by_best_completion(problem, |candidate, best| candidate < best)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{medium, tiny};
    use super::*;
    use cmags_core::evaluate;

    #[test]
    fn tiny_case_is_optimal_shape() {
        let p = tiny();
        let s = MinMin.build(&p);
        let obj = evaluate(&p, &s);
        // Jobs (2,4,6,8 on m0; double on m1). Min-Min commits 2->m0,
        // then 4 (m0, ct 6) vs 8 (m1): picks 4->m0 (6); then 6: m0 ct 12
        // vs m1 ct 12 -> tie, m0; then 8: m0 ct 20 vs m1 16 -> m1.
        assert_eq!(s.assignment(), &[0, 0, 0, 1]);
        assert_eq!(obj.makespan, 16.0);
    }

    #[test]
    fn respects_ready_times() {
        // Machine 0 is fast but busy until t=100; Min-Min must avoid it.
        let etc = cmags_etc::EtcMatrix::from_rows(2, 2, vec![1.0, 10.0, 1.0, 10.0]);
        let inst = cmags_etc::GridInstance::with_ready_times("busy", etc, vec![100.0, 0.0]);
        let p = cmags_core::Problem::from_instance(&inst);
        let s = MinMin.build(&p);
        assert_eq!(s.assignment(), &[1, 1]);
    }

    #[test]
    fn deterministic() {
        let p = medium();
        assert_eq!(MinMin.build(&p), MinMin.build(&p));
    }

    #[test]
    fn uses_every_useful_machine_on_benchmark() {
        let p = medium();
        let s = MinMin.build(&p);
        let histogram = s.load_histogram(p.nb_machines());
        // On a consistent 64x8 instance Min-Min should spread work over
        // more than one machine.
        assert!(histogram.iter().filter(|&&c| c > 0).count() > 1);
    }
}
