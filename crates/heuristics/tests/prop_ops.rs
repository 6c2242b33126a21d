//! Property-based tests of the genetic operators, the constructive
//! heuristics and the local-search contract over randomly drawn
//! instances and schedules.

use cmags_core::{ticks, EvalState, JobId, MachineId, Problem, Schedule};
use cmags_etc::{EtcMatrix, GridInstance};
use cmags_heuristics::constructive::{Constructive, ConstructiveKind, LjfrSjfr};
use cmags_heuristics::local_search::LocalSearchKind;
use cmags_heuristics::ops::{self, Crossover, Mutation, REBALANCE_UNDERLOADED_FRACTION};
use cmags_heuristics::perturb;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The rebalance mutation's selection over the full completion order,
/// as it ran before it selected by rank: every list is collected from
/// [`EvalState::machines_by_completion`] and indexed by the same draws.
/// The oracle of [`ops::rebalance`]; it also returns the donor it drew,
/// if any.
fn rebalance_by_sorting(
    problem: &Problem,
    schedule: &mut Schedule,
    eval: &mut EvalState,
    rng: &mut dyn RngCore,
) -> (Option<MachineId>, Option<(JobId, MachineId)>) {
    let nb_machines = problem.nb_machines();
    if nb_machines < 2 {
        return (None, None);
    }
    let order = eval.machines_by_completion();
    let makespan = eval.makespan();
    let overloaded: Vec<MachineId> = order
        .iter()
        .copied()
        .filter(|&m| eval.completion(m) >= makespan && eval.machine_len(m) > 0)
        .collect();
    let pick = rng.gen_range(0..overloaded.len().max(1));
    let Some(&donor) = overloaded.get(pick) else {
        return (None, None);
    };
    let cutoff = ((nb_machines as f64 * REBALANCE_UNDERLOADED_FRACTION).ceil() as usize).max(1);
    let targets: Vec<MachineId> = order
        .iter()
        .take(cutoff)
        .copied()
        .filter(|&m| m != donor)
        .collect();
    let pick = rng.gen_range(0..targets.len().max(1));
    let Some(&target) = targets.get(pick) else {
        return (Some(donor), None);
    };
    let pick = rng.gen_range(0..eval.machine_len(donor));
    let job = schedule
        .iter()
        .filter(|&(_, m)| m == donor)
        .map(|(j, _)| j)
        .nth(pick)
        .expect("donor machine holds at least one job");
    eval.apply_move(problem, schedule, job, target);
    (Some(donor), Some((job, target)))
}

/// ETC of every cell in the `huge` rebalance case: 5·10⁶ time units, so
/// machine completions exceed 2⁵³ ticks and completions a few ticks
/// apart round to one f64.
const HUGE_ETC: f64 = 5.0e6;

/// Instances for the rebalance oracle on 2–5 machines, where the
/// 25 % cutoff is one or two machines, with two to four jobs per machine.
/// `shape` 0 draws ETCs at random; 1 makes every cell equal, so a
/// round-robin assignment gives equal completions and the donor often
/// ranks inside the cutoff prefix; 2 makes every cell [`HUGE_ETC`] and
/// offsets the ready times by 0–3 ticks, so completions differ in ticks
/// but are equal as f64 at the makespan.
fn rebalance_case() -> impl Strategy<Value = (Problem, Schedule)> {
    (2usize..6, 2usize..5, 0u8..3, any::<bool>()).prop_flat_map(
        |(machines, per_machine, shape, round_robin)| {
            let jobs = machines * per_machine;
            let cells = proptest::collection::vec(1u32..10_000, jobs * machines);
            let offsets = proptest::collection::vec(0u32..4, machines);
            let assignment = proptest::collection::vec(0u32..machines as u32, jobs);
            (cells, offsets, assignment).prop_map(move |(cells, offsets, assignment)| {
                let data: Vec<f64> = match shape {
                    0 => cells.into_iter().map(|c| f64::from(c) / 10.0).collect(),
                    1 => vec![4.0; jobs * machines],
                    _ => vec![HUGE_ETC; jobs * machines],
                };
                let ready = offsets
                    .into_iter()
                    .map(|k| {
                        if shape == 2 {
                            ticks::time(i128::from(k))
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let etc = EtcMatrix::from_rows(jobs, machines, data);
                let problem = Problem::from_instance(&GridInstance::with_ready_times(
                    "rebalance",
                    etc,
                    ready,
                ));
                let assignment = if round_robin {
                    (0..jobs).map(|j| (j % machines) as u32).collect()
                } else {
                    assignment
                };
                (problem, Schedule::from_assignment(assignment))
            })
        },
    )
}

/// Runs [`ops::rebalance`] and [`rebalance_by_sorting`] side by side for
/// a few steps from the same state and RNG, asserting equal results,
/// schedules and next draws; returns whether the donor ranked inside
/// the 25 % prefix at any step.
fn assert_rebalance_matches_the_sorting_oracle(
    problem: &Problem,
    schedule: &Schedule,
    seed: u64,
) -> bool {
    let cutoff =
        ((problem.nb_machines() as f64 * REBALANCE_UNDERLOADED_FRACTION).ceil() as usize).max(1);
    let (mut fast_schedule, mut slow_schedule) = (schedule.clone(), schedule.clone());
    let mut fast_eval = EvalState::new(problem, schedule);
    let mut slow_eval = fast_eval.clone();
    let mut fast_rng = SmallRng::seed_from_u64(seed);
    let mut slow_rng = SmallRng::seed_from_u64(seed);
    let mut donor_in_prefix = false;
    for step in 0..4 {
        let order = slow_eval.machines_by_completion();
        let fast = ops::rebalance(problem, &mut fast_schedule, &mut fast_eval, &mut fast_rng);
        let (donor, slow) =
            rebalance_by_sorting(problem, &mut slow_schedule, &mut slow_eval, &mut slow_rng);
        prop_assert_eq!(fast, slow, "step {}", step);
        prop_assert_eq!(&fast_schedule, &slow_schedule, "step {}", step);
        prop_assert_eq!(fast_eval.objectives(), slow_eval.objectives());
        prop_assert_eq!(
            fast_rng.next_u64(),
            slow_rng.next_u64(),
            "RNG drift at step {}",
            step
        );
        if let Some(donor) = donor {
            donor_in_prefix |= order[..cutoff].contains(&donor);
        }
    }
    fast_eval.debug_validate(problem, &fast_schedule);
    donor_in_prefix
}

#[test]
fn rebalance_oracle_reaches_the_donor_in_prefix_case() {
    // Equal completions on 2–5 machines: every machine is overloaded, so
    // the donor is drawn from the whole order and must land inside the
    // cutoff prefix for some seed on every machine count.
    for machines in 2..=5usize {
        let jobs = 2 * machines;
        let etc = EtcMatrix::from_rows(jobs, machines, vec![4.0; jobs * machines]);
        let problem = Problem::from_instance(&GridInstance::new("equal", etc));
        let schedule =
            Schedule::from_assignment((0..jobs).map(|j| (j % machines) as u32).collect());
        let mut hit = false;
        for seed in 0..32 {
            hit |= assert_rebalance_matches_the_sorting_oracle(&problem, &schedule, seed);
        }
        assert!(
            hit,
            "{machines} machines: the donor never ranked in the prefix"
        );
    }
}

#[test]
fn rebalance_orders_collapsed_completions_by_ticks() {
    // Machine 0 finishes one tick after machine 1; at 5·10⁶ time units
    // both round to the makespan's f64, so both are overloaded, and the
    // tick order (1 before 0), not the machine index, ranks them.
    let etc = EtcMatrix::from_rows(2, 2, vec![HUGE_ETC; 4]);
    let ready = vec![ticks::time(1), 0.0];
    let problem = Problem::from_instance(&GridInstance::with_ready_times("near", etc, ready));
    let schedule = Schedule::from_assignment(vec![0, 1]);
    let eval = EvalState::new(&problem, &schedule);
    assert_eq!(eval.completion_ticks(0), eval.completion_ticks(1) + 1);
    assert_eq!(eval.completion(0), eval.completion(1));
    assert_eq!(eval.machines_by_completion(), vec![1, 0]);
    for seed in 0..16 {
        assert_rebalance_matches_the_sorting_oracle(&problem, &schedule, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rank-selecting rebalance returns the same `(job, target)`,
    /// leaves the same schedule and draws the RNG exactly as the
    /// full-sort oracle does, including at the cutoff edges of 2–5
    /// machines, with equal completions and with tick completions that
    /// collapse to one f64.
    #[test]
    fn rebalance_matches_the_sorting_oracle(
        (problem, schedule) in rebalance_case(),
        seed in 0u64..1_000,
    ) {
        assert_rebalance_matches_the_sorting_oracle(&problem, &schedule, seed);
    }

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
