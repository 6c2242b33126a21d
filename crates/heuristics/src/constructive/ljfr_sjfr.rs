//! LJFR-SJFR — Longest Job to Fastest Resource alternated with Shortest
//! Job to Fastest Resource (Abraham, Buyya & Nath, ADCOM 2000).
//!
//! The paper uses this heuristic to seed the cMA population because it
//! "tries to simultaneously minimize both makespan and flowtime": the LJFR
//! phase packs the big jobs onto the fast machines (good for makespan)
//! while SJFR steps release many small jobs early (good for flowtime).

use std::collections::VecDeque;

use cmags_core::{ticks, MachineId, Problem, Schedule};
use rand::RngCore;

use super::Constructive;

/// The LJFR-SJFR constructive heuristic (paper §3.2).
///
/// Because the ETC model carries no explicit workloads or MIPS ratings,
/// the conventional proxies are used (see `Problem`): a job's *length* is
/// its mean ETC across machines and a machine's *speed* ranking is its
/// mean ETC across jobs. Both orderings are deterministic (ties break by
/// index).
///
/// Algorithm:
///
/// 1. Sort jobs ascending by length. Assign the `nb_machines` longest
///    jobs to the idle machines: longest job → fastest machine, and so on.
/// 2. While jobs remain, pick the machine with the minimum completion
///    time ("the fastest machine that has finished its jobs") and assign
///    it alternately the shortest remaining job (SJFR) or the longest
///    remaining job (LJFR), starting with SJFR.
#[derive(Debug, Clone, Copy, Default)]
pub struct LjfrSjfr;

impl Constructive for LjfrSjfr {
    fn name(&self) -> &'static str {
        "LJFR-SJFR"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        let mut completions = problem.ready_times().to_vec();
        let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);

        // Jobs ascending by workload proxy; queue front = shortest.
        let mut queue: VecDeque<u32> = problem.jobs_by_workload().into();
        let machines_fastest_first = problem.machines_by_speed();

        // Phase 1 (LJFR): the nb_machines longest jobs, longest -> fastest.
        for &machine in &machines_fastest_first {
            let Some(job) = queue.pop_back() else { break };
            schedule.assign(job, machine);
            completions[machine as usize] =
                ticks::add(completions[machine as usize], problem.etc(job, machine));
        }

        // Phase 2: alternate SJFR / LJFR on the earliest-finishing machine.
        let mut take_shortest = true;
        while let Some(job) = if take_shortest {
            queue.pop_front()
        } else {
            queue.pop_back()
        } {
            let machine = argmin(&completions) as MachineId;
            schedule.assign(job, machine);
            completions[machine as usize] =
                ticks::add(completions[machine as usize], problem.etc(job, machine));
            take_shortest = !take_shortest;
        }
        schedule
    }
}

/// Index of the minimum value; ties resolve to the lowest index.
fn argmin(values: &[i64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{medium, tiny};
    use super::super::{Constructive, RandomAssign};
    use super::*;
    use cmags_core::evaluate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn phase_one_sends_longest_to_fastest() {
        let p = tiny();
        // Lengths ascending: job0 < job1 < job2 < job3; machine 0 fastest.
        // Phase 1 assigns job3 -> m0, job2 -> m1.
        let s = LjfrSjfr.build(&p);
        assert_eq!(s.machine_of(3), 0);
        assert_eq!(s.machine_of(2), 1);
    }

    #[test]
    fn alternation_continues_on_min_completion_machine() {
        let p = tiny();
        let s = LjfrSjfr.build(&p);
        // After phase 1: completions m0 = 8 (job3), m1 = 12 (job2).
        // SJFR step: shortest remaining job0 -> m0 (completion 10).
        assert_eq!(s.machine_of(0), 0);
        // LJFR step: longest remaining job1 -> m0 (10 < 12), completion 14.
        assert_eq!(s.machine_of(1), 0);
    }

    #[test]
    fn deterministic() {
        let p = medium();
        assert_eq!(LjfrSjfr.build(&p), LjfrSjfr.build(&p));
    }

    #[test]
    fn covers_all_jobs_even_with_fewer_jobs_than_machines() {
        // 2 jobs x 4 machines: phase 1 exhausts the queue.
        let etc = cmags_etc::EtcMatrix::from_rows(
            2,
            4,
            vec![
                4.0, 2.0, 8.0, 6.0, //
                1.0, 3.0, 5.0, 7.0,
            ],
        );
        let inst = cmags_etc::GridInstance::new("wide", etc);
        let p = cmags_core::Problem::from_instance(&inst);
        let s = LjfrSjfr.build(&p);
        assert_eq!(s.nb_jobs(), 2);
        // Both jobs placed on valid machines.
        assert!(s.iter().all(|(_, m)| (m as usize) < 4));
    }

    #[test]
    fn beats_random_on_flowtime() {
        // Its design goal: both objectives should beat a random schedule.
        let p = medium();
        let mut rng = SmallRng::seed_from_u64(5);
        let random = evaluate(&p, &RandomAssign.build_seeded(&p, &mut rng));
        let seeded = evaluate(&p, &LjfrSjfr.build(&p));
        assert!(seeded.flowtime < random.flowtime);
        assert!(seeded.makespan < random.makespan);
    }
}
