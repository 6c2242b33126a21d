//! Property-based tests of the genetic operators, the constructive
//! heuristics and the local-search contract over randomly drawn
//! instances and schedules.

use cmags_core::{ticks, EvalState, Problem, Schedule};
use cmags_etc::{EtcMatrix, GridInstance};
use cmags_heuristics::constructive::{Constructive, ConstructiveKind, LjfrSjfr};
use cmags_heuristics::local_search::LocalSearchKind;
use cmags_heuristics::ops::{Crossover, Mutation};
use cmags_heuristics::perturb;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A random feasible problem: dims in small ranges, positive finite ETC.
fn problem_strategy() -> impl Strategy<Value = Problem> {
    (2usize..24, 2usize..6).prop_flat_map(|(jobs, machines)| {
        proptest::collection::vec(1u32..10_000, jobs * machines).prop_map(move |cells| {
            let data: Vec<f64> = cells.into_iter().map(|c| f64::from(c) / 10.0).collect();
            let etc = EtcMatrix::from_rows(jobs, machines, data);
            Problem::from_instance(&GridInstance::new("prop", etc))
        })
    })
}

/// A random feasible schedule for `problem`.
fn schedule_for(problem: &Problem, gene_seed: u64) -> Schedule {
    let mut rng = SmallRng::seed_from_u64(gene_seed);
    ConstructiveKind::Random.build_seeded(problem, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crossovers_take_every_gene_from_a_parent(
        p in problem_strategy(),
        seed in 0u64..1_000,
    ) {
        let a = schedule_for(&p, seed);
        let b = schedule_for(&p, seed.wrapping_add(1));
        let mut rng = SmallRng::seed_from_u64(seed);
        for xo in [Crossover::OnePoint, Crossover::TwoPoint, Crossover::Uniform] {
            let child = xo.apply(&a, &b, &mut rng);
            prop_assert_eq!(child.nb_jobs(), p.nb_jobs());
            for (job, &gene) in child.assignment().iter().enumerate() {
                let job = job as u32;
                prop_assert!(
                    gene == a.machine_of(job) || gene == b.machine_of(job),
                    "{}: gene {} of job {} from neither parent",
                    xo.name(), gene, job
                );
            }
        }
    }

    #[test]
    fn mutations_preserve_feasibility_and_eval_lockstep(
        p in problem_strategy(),
        seed in 0u64..1_000,
    ) {
        let mut schedule = schedule_for(&p, seed);
        let mut eval = EvalState::new(&p, &schedule);
        let mut rng = SmallRng::seed_from_u64(seed);
        for op in [Mutation::Rebalance, Mutation::Move, Mutation::Swap] {
            for _ in 0..4 {
                op.apply(&p, &mut schedule, &mut eval, &mut rng);
                prop_assert!(schedule
                    .assignment()
                    .iter()
                    .all(|&m| (m as usize) < p.nb_machines()));
                // Incremental totals must equal a fresh evaluation.
                let fresh = cmags_core::evaluate(&p, &schedule);
                prop_assert_eq!(eval.objectives(), fresh);
            }
        }
    }

    #[test]
    fn rebalance_never_increases_makespan(
        p in problem_strategy(),
        seed in 0u64..1_000,
    ) {
        // Rebalance moves a job off a *critical* machine onto one of the
        // least-loaded quartile; the donor's completion strictly drops and
        // no receiver can exceed the old makespan unless the moved job
        // overshoots — which the operator allows, so assert the weaker,
        // always-true invariant: the donor machine leaves criticality or
        // the makespan does not grow beyond old makespan + moved ETC.
        let mut schedule = schedule_for(&p, seed);
        let mut eval = EvalState::new(&p, &schedule);
        let mut rng = SmallRng::seed_from_u64(seed);
        // The bound is an exact tick sum; `ticks::time` is monotone, so
        // comparing the converted values needs no slack.
        let max_etc = (0..p.nb_jobs() as u32)
            .flat_map(|j| p.etc_row(j).iter().copied())
            .max()
            .unwrap();
        for _ in 0..8 {
            let before = (0..p.nb_machines() as u32)
                .map(|m| eval.completion_ticks(m))
                .max()
                .unwrap();
            Mutation::Rebalance.apply(&p, &mut schedule, &mut eval, &mut rng);
            prop_assert!(eval.makespan() <= ticks::time(before + i128::from(max_etc)));
        }
    }

    #[test]
    fn perturb_changes_at_most_strength_fraction(
        p in problem_strategy(),
        seed in 0u64..1_000,
        strength in 0.0f64..=1.0,
    ) {
        let base = schedule_for(&p, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let shaken = perturb(&p, &base, strength, &mut rng);
        let budget = (p.nb_jobs() as f64 * strength).ceil() as usize;
        prop_assert!(
            base.hamming_distance(&shaken) <= budget,
            "distance {} exceeds budget {budget}",
            base.hamming_distance(&shaken)
        );
    }

    #[test]
    fn local_search_is_monotone_on_random_instances(
        p in problem_strategy(),
        seed in 0u64..1_000,
    ) {
        let mut schedule = schedule_for(&p, seed);
        let mut eval = EvalState::new(&p, &schedule);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fitness = eval.fitness(&p);
        for kind in [LocalSearchKind::Lm, LocalSearchKind::Slm, LocalSearchKind::Lmcts] {
            for _ in 0..6 {
                kind.run(&p, &mut schedule, &mut eval, &mut rng, 1);
                let now = eval.fitness(&p);
                prop_assert!(now <= fitness + 1e-9, "{} worsened fitness", kind.name());
                fitness = now;
            }
        }
    }

    #[test]
    fn constructive_heuristics_build_feasible_complete_schedules(
        p in problem_strategy(),
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for kind in ConstructiveKind::ALL {
            let schedule = kind.build_seeded(&p, &mut rng);
            prop_assert_eq!(schedule.nb_jobs(), p.nb_jobs(), "{}", kind.name());
            prop_assert!(
                schedule.assignment().iter().all(|&m| (m as usize) < p.nb_machines()),
                "{}: out-of-range machine", kind.name()
            );
        }
    }

    #[test]
    fn ljfr_sjfr_places_longest_job_on_fastest_machine_first(
        p in problem_strategy(),
    ) {
        // The seeding heuristic's defining property: the job with the
        // largest mean ETC goes to the machine with the smallest mean ETC.
        let schedule = LjfrSjfr.build(&p);
        let longest = *p.jobs_by_workload().last().unwrap();
        let fastest = p.machines_by_speed()[0];
        prop_assert_eq!(schedule.machine_of(longest), fastest);
    }
}
