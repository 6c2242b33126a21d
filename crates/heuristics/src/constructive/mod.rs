//! One-pass constructive heuristics.
//!
//! These build a complete schedule from nothing. In the reproduced paper
//! they play two roles: **LJFR-SJFR** seeds the cMA population (§3.2,
//! "Population initialization") and serves as the flowtime baseline of
//! Table 4, while the Braun et al. family (Min-Min, Max-Min, Sufferage,
//! MCT, MET, OLB) is the classical reference substrate for the benchmark
//! and provides fast schedulers for the dynamic simulator.

mod duplex;
mod immediate;
mod ljfr_sjfr;
mod maxmin;
mod minmin;
mod sufferage;

pub use duplex::Duplex;
pub use immediate::{Mct, Met, Olb};
pub use ljfr_sjfr::LjfrSjfr;
pub use maxmin::MaxMin;
pub use minmin::MinMin;
pub use sufferage::Sufferage;

use cmags_core::{ticks, JobId, MachineId, Problem, Schedule};
use rand::{Rng, RngCore, SeedableRng};

/// A heuristic that builds a complete schedule in one pass.
pub trait Constructive {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Builds a schedule, drawing any randomness from `rng`.
    ///
    /// All heuristics in this module except [`RandomAssign`] are
    /// deterministic and ignore the RNG.
    fn build_seeded(&self, problem: &Problem, rng: &mut dyn RngCore) -> Schedule;

    /// Builds a schedule with a fixed RNG seed (deterministic entry point).
    fn build(&self, problem: &Problem) -> Schedule {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        self.build_seeded(problem, &mut rng)
    }
}

/// Enumerable handle over the built-in constructive heuristics, for
/// configuration files and sweep harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructiveKind {
    /// Longest/Shortest Job to Fastest Resource (the paper's seed).
    LjfrSjfr,
    /// Min-Min.
    MinMin,
    /// Max-Min.
    MaxMin,
    /// Duplex (better of Min-Min and Max-Min by makespan).
    Duplex,
    /// Sufferage.
    Sufferage,
    /// Minimum Completion Time.
    Mct,
    /// Minimum Execution Time.
    Met,
    /// Opportunistic Load Balancing.
    Olb,
    /// Uniform random assignment.
    Random,
}

impl ConstructiveKind {
    /// All kinds, for sweeps.
    pub const ALL: [ConstructiveKind; 9] = [
        ConstructiveKind::LjfrSjfr,
        ConstructiveKind::MinMin,
        ConstructiveKind::MaxMin,
        ConstructiveKind::Duplex,
        ConstructiveKind::Sufferage,
        ConstructiveKind::Mct,
        ConstructiveKind::Met,
        ConstructiveKind::Olb,
        ConstructiveKind::Random,
    ];

    /// Builds a schedule with the selected heuristic.
    pub fn build_seeded(self, problem: &Problem, rng: &mut dyn RngCore) -> Schedule {
        match self {
            ConstructiveKind::LjfrSjfr => LjfrSjfr.build_seeded(problem, rng),
            ConstructiveKind::MinMin => MinMin.build_seeded(problem, rng),
            ConstructiveKind::MaxMin => MaxMin.build_seeded(problem, rng),
            ConstructiveKind::Duplex => Duplex.build_seeded(problem, rng),
            ConstructiveKind::Sufferage => Sufferage.build_seeded(problem, rng),
            ConstructiveKind::Mct => Mct.build_seeded(problem, rng),
            ConstructiveKind::Met => Met.build_seeded(problem, rng),
            ConstructiveKind::Olb => Olb.build_seeded(problem, rng),
            ConstructiveKind::Random => RandomAssign.build_seeded(problem, rng),
        }
    }

    /// Builds a schedule with a fixed RNG seed (deterministic entry
    /// point, mirroring [`Constructive::build`]).
    #[must_use]
    pub fn build(self, problem: &Problem) -> Schedule {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        self.build_seeded(problem, &mut rng)
    }

    /// Report name of the selected heuristic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ConstructiveKind::LjfrSjfr => LjfrSjfr.name(),
            ConstructiveKind::MinMin => MinMin.name(),
            ConstructiveKind::MaxMin => MaxMin.name(),
            ConstructiveKind::Duplex => Duplex.name(),
            ConstructiveKind::Sufferage => Sufferage.name(),
            ConstructiveKind::Mct => Mct.name(),
            ConstructiveKind::Met => Met.name(),
            ConstructiveKind::Olb => Olb.name(),
            ConstructiveKind::Random => RandomAssign.name(),
        }
    }
}

/// Uniform random assignment — the weakest baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomAssign;

impl Constructive for RandomAssign {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn build_seeded(&self, problem: &Problem, rng: &mut dyn RngCore) -> Schedule {
        let nb_machines = problem.nb_machines() as MachineId;
        let assignment = (0..problem.nb_jobs())
            .map(|_| rng.gen_range(0..nb_machines))
            .collect();
        Schedule::from_assignment(assignment)
    }
}

/// Machine minimising `completion[m] + ETC[job][m]`, with the resulting
/// completion time, all in exact ticks. Ties resolve to the lowest
/// machine index.
///
/// Shared inner loop of Min-Min, Max-Min and MCT.
#[inline]
pub(crate) fn best_completion_for(
    problem: &Problem,
    completions: &[i64],
    job: JobId,
) -> (MachineId, i64) {
    let row = problem.etc_row(job);
    let mut best_machine = 0 as MachineId;
    let mut best_ct = ticks::add(completions[0], row[0]);
    for (m, (&etc, &completion)) in (1..).zip(row[1..].iter().zip(&completions[1..])) {
        let ct = ticks::add(completion, etc);
        if ct < best_ct {
            best_ct = ct;
            best_machine = m;
        }
    }
    (best_machine, best_ct)
}

/// Shared driver of Min-Min and Max-Min: each round commits the
/// unassigned job whose best completion time `wins` against every other
/// job's (the first such job in `unassigned` order on ties), to that best
/// machine.
///
/// Each job's best `(machine, completion)` is cached in step with
/// `unassigned` (both `swap_remove`d at the same position). A commit
/// raises only the committed machine's completion, so a job whose best
/// was another machine keeps that best and its tie-break: only the jobs
/// cached on the committed machine are rescanned. The schedule is the
/// one a full rescan per round would build.
pub(crate) fn build_by_best_completion(
    problem: &Problem,
    wins: impl Fn(i64, i64) -> bool,
) -> Schedule {
    let mut completions = problem.ready_times().to_vec();
    let mut schedule = Schedule::uniform(problem.nb_jobs(), 0);
    let mut unassigned: Vec<JobId> = (0..problem.nb_jobs() as JobId).collect();
    let mut best: Vec<(MachineId, i64)> = unassigned
        .iter()
        .map(|&job| best_completion_for(problem, &completions, job))
        .collect();

    while !unassigned.is_empty() {
        let mut pick = 0;
        for (pos, &(_, completion)) in best.iter().enumerate().skip(1) {
            if wins(completion, best[pick].1) {
                pick = pos;
            }
        }
        let job = unassigned.swap_remove(pick);
        let (machine, completion) = best.swap_remove(pick);
        schedule.assign(job, machine);
        completions[machine as usize] = completion;
        for (&job, cached) in unassigned.iter().zip(&mut best) {
            if cached.0 == machine {
                *cached = best_completion_for(problem, &completions, job);
            }
        }
    }
    schedule
}

#[cfg(test)]
pub(crate) mod test_support {
    use cmags_core::Problem;
    use cmags_etc::{braun, EtcMatrix, GridInstance};

    /// A small hand-checkable problem: 4 jobs × 2 machines, machine 0
    /// twice as fast, no ready times.
    pub fn tiny() -> Problem {
        let etc = EtcMatrix::from_rows(
            4,
            2,
            vec![
                2.0, 4.0, //
                4.0, 8.0, //
                6.0, 12.0, //
                8.0, 16.0,
            ],
        );
        Problem::from_instance(&GridInstance::new("tiny", etc))
    }

    /// A medium seeded benchmark instance.
    pub fn medium() -> Problem {
        let class: cmags_etc::InstanceClass = "u_c_hihi.0".parse().unwrap();
        Problem::from_instance(&braun::generate(class.with_dims(64, 8), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{medium, tiny};
    use super::*;
    use cmags_core::{evaluate, EvalState};
    use rand::rngs::SmallRng;

    #[test]
    fn random_assign_is_feasible_and_seed_stable() {
        let p = medium();
        let mut rng = SmallRng::seed_from_u64(42);
        let s1 = RandomAssign.build_seeded(&p, &mut rng);
        assert_eq!(s1.nb_jobs(), p.nb_jobs());
        assert!(s1.iter().all(|(_, m)| (m as usize) < p.nb_machines()));
        let mut rng = SmallRng::seed_from_u64(42);
        let s2 = RandomAssign.build_seeded(&p, &mut rng);
        assert_eq!(s1, s2);
    }

    #[test]
    fn every_kind_builds_feasible_schedules() {
        let p = medium();
        let mut rng = SmallRng::seed_from_u64(7);
        for kind in ConstructiveKind::ALL {
            let s = kind.build_seeded(&p, &mut rng);
            assert_eq!(s.nb_jobs(), p.nb_jobs(), "{}", kind.name());
            let obj = evaluate(&p, &s);
            assert!(
                obj.makespan > 0.0 && obj.flowtime >= obj.makespan,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn informed_heuristics_beat_random() {
        let p = medium();
        let mut rng = SmallRng::seed_from_u64(1);
        let random = evaluate(&p, &RandomAssign.build_seeded(&p, &mut rng)).makespan;
        for kind in [
            ConstructiveKind::MinMin,
            ConstructiveKind::Sufferage,
            ConstructiveKind::Mct,
            ConstructiveKind::LjfrSjfr,
        ] {
            let s = kind.build_seeded(&p, &mut rng);
            let makespan = evaluate(&p, &s).makespan;
            assert!(
                makespan < random,
                "{} ({makespan}) should beat random ({random})",
                kind.name()
            );
        }
    }

    #[test]
    fn best_completion_prefers_low_index_on_tie() {
        let p = tiny();
        // completions chosen so both machines yield ct = 10 for job 0.
        let completions = [ticks::ticks(8.0), ticks::ticks(6.0)];
        let (m, ct) = best_completion_for(&p, &completions, 0);
        assert_eq!((m, ct), (0, ticks::ticks(10.0)));
    }

    #[test]
    fn build_default_matches_seed_zero() {
        let p = medium();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(MinMin.build(&p), MinMin.build_seeded(&p, &mut rng));
    }

    #[test]
    fn eval_state_accepts_all_heuristic_outputs() {
        let p = medium();
        let mut rng = SmallRng::seed_from_u64(3);
        for kind in ConstructiveKind::ALL {
            let s = kind.build_seeded(&p, &mut rng);
            let eval = EvalState::new(&p, &s);
            eval.debug_validate(&p, &s);
        }
    }
}
