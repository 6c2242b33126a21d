//! Immediate-mode heuristics (Braun et al. 2001): one pass over the jobs
//! in arrival order, each assigned without revisiting earlier decisions.
//!
//! These are the natural schedulers for *online* settings and serve as
//! cheap baselines in the dynamic simulator.

use cmags_core::{ticks, MachineId, Problem, Schedule};
use rand::RngCore;

use super::{best_completion_for, Constructive};

/// MCT — Minimum Completion Time.
///
/// Each job (in index order) goes to the machine that would finish it
/// earliest given current loads. Balances load and execution time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mct;

impl Constructive for Mct {
    fn name(&self) -> &'static str {
        "MCT"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        let mut completions = problem.ready_times().to_vec();
        let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
        for job in 0..problem.nb_jobs() as u32 {
            let (machine, ct) = best_completion_for(problem, &completions, job);
            schedule.assign(job, machine);
            completions[machine as usize] = ct;
        }
        schedule
    }
}

/// MET — Minimum Execution Time.
///
/// Each job goes to its fastest machine, ignoring load entirely. On
/// consistent matrices this piles everything onto the single fastest
/// machine — exactly the pathology Braun et al. documented.
#[derive(Debug, Clone, Copy, Default)]
pub struct Met;

impl Constructive for Met {
    fn name(&self) -> &'static str {
        "MET"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
        for job in 0..problem.nb_jobs() as u32 {
            let row = problem.etc_row(job);
            let mut best = 0 as MachineId;
            for (m, &etc) in row.iter().enumerate().skip(1) {
                if etc < row[best as usize] {
                    best = m as MachineId;
                }
            }
            schedule.assign(job, best);
        }
        schedule
    }
}

/// OLB — Opportunistic Load Balancing.
///
/// Each job goes to the machine that becomes *ready* earliest, ignoring
/// how long the job runs there. Keeps machines busy but wastes cycles on
/// slow machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Olb;

impl Constructive for Olb {
    fn name(&self) -> &'static str {
        "OLB"
    }

    fn build_seeded(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Schedule {
        let mut completions = problem.ready_times().to_vec();
        let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
        for job in 0..problem.nb_jobs() as u32 {
            let mut machine = 0 as MachineId;
            for m in 1..completions.len() {
                if completions[m] < completions[machine as usize] {
                    machine = m as MachineId;
                }
            }
            schedule.assign(job, machine);
            completions[machine as usize] =
                ticks::add(completions[machine as usize], problem.etc(job, machine));
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{medium, tiny};
    use super::*;
    use cmags_core::evaluate;
    use cmags_etc::{EtcMatrix, GridInstance};

    #[test]
    fn met_piles_on_fastest_machine_when_consistent() {
        let p = tiny();
        let s = Met.build(&p);
        // Machine 0 is uniformly faster -> every job lands there.
        assert!(s.iter().all(|(_, m)| m == 0));
    }

    #[test]
    fn mct_balances_by_completion() {
        let p = tiny();
        let s = Mct.build(&p);
        let histogram = s.load_histogram(2);
        assert!(
            histogram[0] > 0 && histogram[1] > 0,
            "MCT must use both machines: {histogram:?}"
        );
    }

    #[test]
    fn olb_round_robins_on_uniform_etc() {
        let etc = EtcMatrix::from_rows(4, 2, vec![1.0; 8]);
        let p = cmags_core::Problem::from_instance(&GridInstance::new("flat", etc));
        let s = Olb.build(&p);
        assert_eq!(s.load_histogram(2), vec![2, 2]);
    }

    #[test]
    fn mct_beats_olb_and_met_on_consistent_benchmark() {
        let p = medium();
        let mct = evaluate(&p, &Mct.build(&p)).makespan;
        let olb = evaluate(&p, &Olb.build(&p)).makespan;
        let met = evaluate(&p, &Met.build(&p)).makespan;
        assert!(mct < olb, "MCT {mct} vs OLB {olb}");
        assert!(mct < met, "MCT {mct} vs MET {met}");
    }

    #[test]
    #[should_panic(expected = "more than 2^31 time units of work on one machine")]
    fn mct_panics_when_a_completion_leaves_the_tick_range() {
        // Every ETC fits the tick range on its own, but the third job's
        // candidate completion on either busy machine is 3·10⁹ > 2³¹.
        let etc = EtcMatrix::from_rows(3, 2, vec![1.5e9, 1.6e9, 1.6e9, 1.5e9, 1.5e9, 1.5e9]);
        let p = cmags_core::Problem::from_instance(&GridInstance::new("huge", etc));
        let _ = Mct.build(&p);
    }

    #[test]
    fn all_deterministic() {
        let p = medium();
        assert_eq!(Mct.build(&p), Mct.build(&p));
        assert_eq!(Met.build(&p), Met.build(&p));
        assert_eq!(Olb.build(&p), Olb.build(&p));
    }
}
