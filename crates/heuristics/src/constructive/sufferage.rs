//! Sufferage (Maheswaran et al.; evaluated in Braun et al. 2001).

use cmags_core::{ticks, JobId, MachineId, Problem, Schedule};
use rand::RngCore;

use super::Constructive;

/// Sufferage: prioritise the job that would *suffer* most from not
/// getting its best machine.
///
/// A job's sufferage is the difference between its second-best and best
/// completion times over the current machine loads. Each round commits
/// the job with the maximum sufferage to its best machine — intuitively,
/// jobs with a uniquely good machine get it before a competitor takes it.
/// This implementation uses the common one-job-per-round simplification
/// of the original contention-table formulation; on the ETC benchmark the
/// two behave almost identically. `O(jobs² · machines)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sufferage;

/// Best and second-best completion times of one job, in ticks.
fn best_two(problem: &Problem, completions: &[i64], job: JobId) -> (MachineId, i64, i64) {
    let row = problem.etc_row(job);
    debug_assert!(row.len() >= 2, "sufferage requires at least two machines");
    let mut best_machine = 0 as MachineId;
    let mut best = ticks::add(completions[0], row[0]);
    let mut second = i64::MAX;
    for (m, (&etc, &completion)) in (1..).zip(row[1..].iter().zip(&completions[1..])) {
        let ct = ticks::add(completion, etc);
        if ct < best {
            second = best;
            best = ct;
            best_machine = m;
        } else if ct < second {
            second = ct;
        }
    }
    (best_machine, best, second)
}

impl Constructive for Sufferage {
    fn name(&self) -> &'static str {
        "Sufferage"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        if problem.nb_machines() == 1 {
            // Degenerate case: a single machine hosts everything.
            return Schedule::uniform(problem.nb_jobs(), 0);
        }
        let mut completions = problem.ready_times().to_vec();
        let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
        let mut unassigned: Vec<JobId> = (0..problem.nb_jobs() as JobId).collect();

        while !unassigned.is_empty() {
            let mut best_pos = 0;
            let (mut machine, mut ct, second) = best_two(problem, &completions, unassigned[0]);
            let mut best_sufferage = second - ct;
            for (pos, &job) in unassigned.iter().enumerate().skip(1) {
                let (m, b, s) = best_two(problem, &completions, job);
                let sufferage = s - b;
                if sufferage > best_sufferage {
                    best_sufferage = sufferage;
                    best_pos = pos;
                    machine = m;
                    ct = b;
                }
            }
            let job = unassigned.swap_remove(best_pos);
            schedule.assign(job, machine);
            completions[machine as usize] = ct;
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::medium;
    use super::*;
    use cmags_core::evaluate;
    use cmags_etc::{EtcMatrix, GridInstance};

    #[test]
    fn best_two_identifies_both() {
        let etc = EtcMatrix::from_rows(1, 3, vec![5.0, 1.0, 3.0]);
        let p = cmags_core::Problem::from_instance(&GridInstance::new("t", etc));
        let (m, best, second) = best_two(&p, &[0, 0, 0], 0);
        assert_eq!(m, 1);
        assert_eq!(best, ticks::ticks(1.0));
        assert_eq!(second, ticks::ticks(3.0));
    }

    #[test]
    fn prioritises_high_sufferage_job() {
        // Job 0: great on m0 (1) vs terrible elsewhere (100) -> sufferage 99.
        // Job 1: indifferent (10 vs 11) -> sufferage 1.
        let etc = EtcMatrix::from_rows(2, 2, vec![1.0, 100.0, 10.0, 11.0]);
        let p = cmags_core::Problem::from_instance(&GridInstance::new("s", etc));
        let s = Sufferage.build(&p);
        assert_eq!(s.machine_of(0), 0, "the suffering job gets its machine");
    }

    #[test]
    fn single_machine_degenerate_case() {
        let etc = EtcMatrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let p = cmags_core::Problem::from_instance(&GridInstance::new("one", etc));
        let s = Sufferage.build(&p);
        assert_eq!(s.assignment(), &[0, 0, 0]);
    }

    #[test]
    fn feasible_and_deterministic_on_benchmark() {
        let p = medium();
        let a = Sufferage.build(&p);
        assert_eq!(a, Sufferage.build(&p));
        assert!(evaluate(&p, &a).makespan > 0.0);
    }
}
