//! Property-based tests: the incremental evaluator — closed-form peeks,
//! batched scoring and delta-updated totals — must agree **bit-for-bit**
//! with the reference full evaluation (and with the merge-pass reference
//! peeks) on arbitrary problems and operation sequences, including CVB
//! consistency classes, machines with ready times and heavy ETC ties.

use cmags_core::{evaluate, ticks, EvalState, Objective, Objectives, Problem, Schedule, ScoreBuf};
use cmags_etc::cvb::{self, CvbParams};
use cmags_etc::{EtcMatrix, GridInstance, InstanceClass};
use proptest::prelude::*;

/// Strategy producing a random response objective: the exact λ ∈ {0, 1}
/// boundaries plus arbitrary Q32 fixed-point weights.
fn arb_objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::classic()),
        Just(Objective::mean_flowtime()),
        any::<u32>()
            .prop_map(|k| Objective::weighted(f64::from(k) / f64::from(u32::MAX)))
            .boxed(),
    ]
}

/// Strategy producing a random problem (2–24 jobs, 2–6 machines, ETC in
/// (0, 1000], ready times in [0, 50]) together with a feasible schedule.
fn problem_and_schedule() -> impl Strategy<Value = (Problem, Schedule)> {
    (2usize..24, 2usize..6).prop_flat_map(|(jobs, machines)| {
        let etc = proptest::collection::vec(0.001f64..1000.0, jobs * machines);
        let ready = proptest::collection::vec(0.0f64..50.0, machines);
        let assignment = proptest::collection::vec(0u32..machines as u32, jobs);
        (etc, ready, assignment).prop_map(move |(etc, ready, assignment)| {
            let matrix = EtcMatrix::from_rows(jobs, machines, etc);
            let inst = GridInstance::with_ready_times("prop", matrix, ready);
            (
                Problem::from_instance(&inst),
                Schedule::from_assignment(assignment),
            )
        })
    })
}

/// Strategy forcing **heavy ETC ties**: entries come from a three-value
/// pool, so SPT slots collide constantly and every tie-break path runs.
fn tied_problem_and_schedule() -> impl Strategy<Value = (Problem, Schedule)> {
    (2usize..16, 2usize..5).prop_flat_map(|(jobs, machines)| {
        let etc = proptest::collection::vec(0usize..3, jobs * machines);
        let ready = proptest::collection::vec(0usize..2, machines);
        let assignment = proptest::collection::vec(0u32..machines as u32, jobs);
        (etc, ready, assignment).prop_map(move |(etc, ready, assignment)| {
            const POOL: [f64; 3] = [1.5, 4.0, 4.0];
            let matrix =
                EtcMatrix::from_rows(jobs, machines, etc.into_iter().map(|i| POOL[i]).collect());
            let ready = ready.into_iter().map(|i| [0.0, 7.5][i]).collect();
            let inst = GridInstance::with_ready_times("ties", matrix, ready);
            (
                Problem::from_instance(&inst),
                Schedule::from_assignment(assignment),
            )
        })
    })
}

/// Strategy drawing CVB instances over all three consistency classes and
/// both heterogeneity levels, with optional machine ready times.
fn cvb_problem_and_schedule() -> impl Strategy<Value = (Problem, Schedule)> {
    let labels = prop_oneof![
        Just("u_c_hihi.0"),
        Just("u_s_hilo.0"),
        Just("u_i_lohi.0"),
        Just("u_c_lolo.0"),
        Just("u_i_hihi.0"),
    ];
    (labels, 4u32..20, 2u32..6, 0u64..8).prop_flat_map(|(label, jobs, machines, stream)| {
        let class: InstanceClass = label.parse().expect("valid class label");
        let class = class.with_dims(jobs, machines);
        let ready = proptest::collection::vec(0.0f64..500.0, machines as usize);
        let assignment = proptest::collection::vec(0u32..machines, jobs as usize);
        (ready, assignment).prop_map(move |(ready, assignment)| {
            let matrix = cvb::generate_matrix(class, CvbParams::for_class(class), stream);
            let inst = GridInstance::with_ready_times("cvb_prop", matrix, ready);
            (
                Problem::from_instance(&inst),
                Schedule::from_assignment(assignment),
            )
        })
    })
}

/// Strategy for the swap-scan oracle: 1–12 jobs on 1–12 machines, so
/// both m > n (many empty and single-slot machines, anchors alone on
/// theirs) and n > m occur. When `tied`, every ETC cell comes from a
/// three-value pool with a duplicate, so equal scores are common; in a
/// quarter of the cases every job sits on one machine.
fn scan_problem_and_schedule() -> impl Strategy<Value = (Problem, Schedule)> {
    (1usize..13, 1usize..13, any::<bool>(), 0u8..4).prop_flat_map(
        |(jobs, machines, tied, stacked)| {
            let etc = proptest::collection::vec(0.001f64..1000.0, jobs * machines);
            let pool = proptest::collection::vec(0usize..3, jobs * machines);
            let ready = proptest::collection::vec(0usize..3, machines);
            let assignment = proptest::collection::vec(0u32..machines as u32, jobs);
            (etc, pool, ready, assignment).prop_map(move |(etc, pool, ready, mut assignment)| {
                let cells = if tied {
                    pool.into_iter().map(|i| [1.5, 4.0, 4.0][i]).collect()
                } else {
                    etc
                };
                if stacked == 0 {
                    let machine = assignment[0];
                    assignment.fill(machine);
                }
                let matrix = EtcMatrix::from_rows(jobs, machines, cells);
                let ready = ready.into_iter().map(|i| [0.0, 0.0, 7.5][i]).collect();
                let inst = GridInstance::with_ready_times("scan", matrix, ready);
                (
                    Problem::from_instance(&inst),
                    Schedule::from_assignment(assignment),
                )
            })
        },
    )
}

/// A random sequence of moves/swaps encoded dimension-agnostically:
/// `(is_swap, a, b)` with `a`, `b` reduced modulo the problem dimensions.
fn operations() -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    proptest::collection::vec((any::<bool>(), 0u32..1024, 0u32..1024), 0..64)
}

proptest! {
    /// Construction matches the reference evaluation.
    #[test]
    fn eval_state_matches_full((problem, schedule) in problem_and_schedule()) {
        let eval = EvalState::new(&problem, &schedule);
        prop_assert_eq!(eval.objectives(), evaluate(&problem, &schedule));
    }

    /// Any sequence of applied moves/swaps keeps the cache in lockstep
    /// with the reference evaluation, bit-for-bit.
    #[test]
    fn eval_state_tracks_operation_sequences(
        (problem, mut schedule) in problem_and_schedule(),
        ops in operations(),
    ) {
        let mut eval = EvalState::new(&problem, &schedule);
        for (is_swap, a, b) in ops {
            if is_swap {
                let ja = a % problem.nb_jobs() as u32;
                let jb = b % problem.nb_jobs() as u32;
                eval.apply_swap(&problem, &mut schedule, ja, jb);
            } else {
                let job = a % problem.nb_jobs() as u32;
                let to = b % problem.nb_machines() as u32;
                eval.apply_move(&problem, &mut schedule, job, to);
            }
            prop_assert_eq!(eval.objectives(), evaluate(&problem, &schedule));
        }
    }

    /// Peeking never mutates, and agrees with applying.
    #[test]
    fn peek_agrees_with_apply(
        (problem, mut schedule) in problem_and_schedule(),
        job_a in 0u32..1024,
        job_b in 0u32..1024,
        to in 0u32..1024,
    ) {
        let job_a = job_a % problem.nb_jobs() as u32;
        let job_b = job_b % problem.nb_jobs() as u32;
        let to = to % problem.nb_machines() as u32;

        let eval = EvalState::new(&problem, &schedule);
        let before = eval.objectives();

        let peek_mv = eval.peek_move(&problem, &schedule, job_a, to);
        let peek_sw = eval.peek_swap(&problem, &schedule, job_a, job_b);
        prop_assert_eq!(eval.objectives(), before, "peek must not mutate");

        let mut apply_mv = eval.clone();
        let mut s_mv = schedule.clone();
        apply_mv.apply_move(&problem, &mut s_mv, job_a, to);
        prop_assert_eq!(peek_mv, apply_mv.objectives());

        let mut apply_sw = eval.clone();
        apply_sw.apply_swap(&problem, &mut schedule, job_a, job_b);
        prop_assert_eq!(peek_sw, apply_sw.objectives());
    }

    /// Structural invariants of the objectives themselves. Every bound
    /// is an exact `i128` tick sum converted with the monotone
    /// `ticks::time`, so the comparisons need no slack.
    #[test]
    fn objective_invariants((problem, schedule) in problem_and_schedule()) {
        let obj = evaluate(&problem, &schedule);
        // Makespan bounds: at least the largest single assigned ETC (plus
        // that machine's ready) and at most ready_max + sum of all ETCs.
        let mut max_single = 0i128;
        let mut total = 0i128;
        for (job, machine) in schedule.iter() {
            let e = i128::from(problem.etc(job, machine));
            max_single = max_single.max(i128::from(problem.ready(machine)) + e);
            total += e;
        }
        let ready_max = i128::from(*problem.ready_times().iter().max().unwrap());
        prop_assert!(obj.makespan >= ticks::time(max_single));
        prop_assert!(obj.makespan <= ticks::time(ready_max + total));
        // Every job finishes no later than the makespan, so flowtime is at
        // most jobs * makespan; it is at least the sum of the assigned ETCs.
        let eval = EvalState::new(&problem, &schedule);
        let makespan = (0..problem.nb_machines() as u32)
            .map(|m| eval.completion_ticks(m))
            .max()
            .unwrap();
        prop_assert_eq!(obj.makespan, ticks::time(makespan));
        prop_assert!(obj.flowtime <= ticks::time(schedule.nb_jobs() as i128 * makespan));
        prop_assert!(obj.flowtime >= ticks::time(total));
    }

    /// Batched move scoring is bit-identical to per-candidate peeks, for
    /// arbitrary candidate lists (including same-machine no-ops and
    /// repeated jobs, which exercise the donor cache).
    #[test]
    fn score_moves_is_bit_identical_to_peek_move(
        (problem, schedule) in problem_and_schedule(),
        raw in proptest::collection::vec((0u32..1024, 0u32..1024), 1..48),
    ) {
        let eval = EvalState::new(&problem, &schedule);
        let candidates: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(j, m)| (
                j % problem.nb_jobs() as u32,
                m % problem.nb_machines() as u32,
            ))
            .collect();
        let mut scores = ScoreBuf::new();
        eval.score_moves(&problem, &schedule, &candidates, &mut scores);
        prop_assert_eq!(scores.len(), candidates.len());
        for (i, &(job, to)) in candidates.iter().enumerate() {
            let peek = eval.peek_move(&problem, &schedule, job, to);
            prop_assert_eq!(scores.objectives(i), peek, "candidate {}", i);
            // The closed-form peek must also match the merge-pass
            // reference (the seed's algorithm).
            prop_assert_eq!(peek, eval.peek_move_merge(&problem, &schedule, job, to));
        }
    }

    /// The swap scan returns exactly what a strict-`<` scan of
    /// `peek_swap` (and of the merge-pass `peek_swap_merge`) over the
    /// partners in ascending job order keeps: the same partner and the
    /// same objective bits, under the fitness and the flowtime ranking,
    /// for every anchor; `None` when no job sits on another machine.
    #[test]
    fn best_swap_matches_a_strict_peek_swap_scan(
        (problem, schedule) in scan_problem_and_schedule(),
        objective in arb_objective(),
    ) {
        let problem = problem.retargeted(objective);
        let eval = EvalState::new(&problem, &schedule);
        let by_fitness = |o: Objectives| problem.fitness(o);
        let by_flowtime = |o: Objectives| o.flowtime;
        let rankings: [(&str, &dyn Fn(Objectives) -> f64); 2] =
            [("fitness", &by_fitness), ("flowtime", &by_flowtime)];
        let bits = |found: Option<(u32, Objectives)>| {
            found.map(|(j, o)| (j, o.makespan.to_bits(), o.flowtime.to_bits()))
        };
        let nb_jobs = problem.nb_jobs() as u32;
        for anchor in 0..nb_jobs {
            let home = schedule.machine_of(anchor);
            for (name, rank) in rankings {
                let mut closed: Option<(u32, Objectives)> = None;
                let mut merged: Option<(u32, Objectives)> = None;
                for partner in (0..nb_jobs).filter(|&j| schedule.machine_of(j) != home) {
                    let o = eval.peek_swap(&problem, &schedule, anchor, partner);
                    if closed.is_none_or(|(_, b)| rank(o) < rank(b)) {
                        closed = Some((partner, o));
                    }
                    let o = eval.peek_swap_merge(&problem, &schedule, anchor, partner);
                    if merged.is_none_or(|(_, b)| rank(o) < rank(b)) {
                        merged = Some((partner, o));
                    }
                }
                let found = eval.best_swap(&problem, &schedule, anchor, rank);
                prop_assert_eq!(bits(found), bits(closed), "anchor {} by {}", anchor, name);
                prop_assert_eq!(bits(found), bits(merged), "anchor {} by {}", anchor, name);
                if schedule.iter().all(|(_, m)| m == home) {
                    prop_assert!(found.is_none());
                }
            }
        }
    }

    /// Randomised peek / batched-score / apply sequences keep every path
    /// bit-identical to from-scratch evaluation on instances with heavy
    /// ETC ties and ready times.
    #[test]
    fn tied_instances_stay_bit_identical(
        (problem, mut schedule) in tied_problem_and_schedule(),
        ops in operations(),
    ) {
        let mut eval = EvalState::new(&problem, &schedule);
        let mut scores = ScoreBuf::new();
        for (is_swap, a, b) in ops {
            let ja = a % problem.nb_jobs() as u32;
            let jb = b % problem.nb_jobs() as u32;
            let to = b % problem.nb_machines() as u32;
            if is_swap {
                prop_assert_eq!(
                    eval.peek_swap(&problem, &schedule, ja, jb),
                    eval.peek_swap_merge(&problem, &schedule, ja, jb)
                );
                eval.apply_swap(&problem, &mut schedule, ja, jb);
            } else {
                eval.score_moves(&problem, &schedule, &[(ja, to)], &mut scores);
                prop_assert_eq!(
                    scores.objectives(0),
                    eval.peek_move_merge(&problem, &schedule, ja, to)
                );
                eval.apply_move(&problem, &mut schedule, ja, to);
            }
            prop_assert_eq!(eval.objectives(), evaluate(&problem, &schedule));
        }
        eval.debug_validate(&problem, &schedule);
    }

    /// The same lockstep guarantee over CVB instances spanning all three
    /// consistency classes, with machine ready times.
    #[test]
    fn cvb_instances_stay_bit_identical(
        (problem, mut schedule) in cvb_problem_and_schedule(),
        ops in operations(),
    ) {
        let mut eval = EvalState::new(&problem, &schedule);
        prop_assert_eq!(eval.objectives(), evaluate(&problem, &schedule));
        for (is_swap, a, b) in ops {
            if is_swap {
                let ja = a % problem.nb_jobs() as u32;
                let jb = b % problem.nb_jobs() as u32;
                let peek = eval.peek_swap(&problem, &schedule, ja, jb);
                prop_assert_eq!(peek, eval.peek_swap_merge(&problem, &schedule, ja, jb));
                eval.apply_swap(&problem, &mut schedule, ja, jb);
                prop_assert_eq!(eval.objectives(), peek, "peek must predict apply");
            } else {
                let job = a % problem.nb_jobs() as u32;
                let to = b % problem.nb_machines() as u32;
                let peek = eval.peek_move(&problem, &schedule, job, to);
                prop_assert_eq!(peek, eval.peek_move_merge(&problem, &schedule, job, to));
                eval.apply_move(&problem, &mut schedule, job, to);
                prop_assert_eq!(eval.objectives(), peek, "peek must predict apply");
            }
            prop_assert_eq!(eval.objectives(), evaluate(&problem, &schedule));
        }
        eval.debug_validate(&problem, &schedule);
    }

    /// Weighted-objective consistency: for random problems and random λ,
    /// the scalarised fitness of a candidate is **bit-for-bit** the same
    /// whether its objectives come from the batched `score_moves` buffer,
    /// a single `peek_*`, the merge-pass reference or a from-scratch
    /// `evaluate` of the applied schedule — and the chunked `ScoreBuf`
    /// reduction agrees with the scalar scan.
    #[test]
    fn weighted_fitness_is_path_independent(
        (problem, mut schedule) in problem_and_schedule(),
        objective in arb_objective(),
        raw in proptest::collection::vec((any::<bool>(), 0u32..1024, 0u32..1024), 1..24),
    ) {
        let problem = problem.retargeted(objective);
        let mut eval = EvalState::new(&problem, &schedule);
        let mut scores = ScoreBuf::new();
        for (is_swap, a, b) in raw {
            let ja = a % problem.nb_jobs() as u32;
            let jb = b % problem.nb_jobs() as u32;
            let to = b % problem.nb_machines() as u32;
            let (reference, peeked) = if is_swap {
                (
                    eval.peek_swap_merge(&problem, &schedule, ja, jb),
                    eval.peek_swap(&problem, &schedule, ja, jb),
                )
            } else {
                eval.score_moves(&problem, &schedule, &[(ja, to)], &mut scores);
                // Chunked reduction == scalar scan, bits included.
                let chunked = scores.best_for(&problem).expect("one candidate");
                let scanned = scores.best_by(|o| problem.fitness(o)).expect("one candidate");
                prop_assert_eq!(chunked.0, scanned.0);
                prop_assert_eq!(chunked.1.to_bits(), scanned.1.to_bits());
                (scores.objectives(0), eval.peek_move(&problem, &schedule, ja, to))
            };
            // Batched or merge-pass == single peek == from-scratch,
            // through the blend.
            prop_assert_eq!(
                problem.fitness(reference).to_bits(),
                problem.fitness(peeked).to_bits()
            );
            if is_swap {
                eval.apply_swap(&problem, &mut schedule, ja, jb);
            } else {
                eval.apply_move(&problem, &mut schedule, ja, to);
            }
            let fresh = evaluate(&problem, &schedule);
            prop_assert_eq!(
                problem.fitness(peeked).to_bits(),
                problem.fitness(fresh).to_bits(),
                "λ={}: peek fitness must predict the applied schedule's",
                objective.lambda()
            );
            prop_assert_eq!(eval.fitness(&problem).to_bits(), problem.fitness(fresh).to_bits());
        }
    }

    /// λ = 0 reproduces the classic weighted fitness bit-for-bit on every
    /// CVB consistency class (consistent, semi-consistent, inconsistent —
    /// the strategy spans all three), and the blend is exact at both
    /// extremes: λ = 1 is exactly the mean flowtime.
    #[test]
    fn lambda_extremes_are_exact_on_every_consistency_class(
        (problem, schedule) in cvb_problem_and_schedule(),
    ) {
        let objectives = evaluate(&problem, &schedule);
        let classic = problem.weights().fitness(objectives, problem.nb_machines());
        prop_assert_eq!(
            problem.fitness(objectives).to_bits(),
            classic.to_bits(),
            "a default problem must scalarise classically"
        );
        prop_assert_eq!(
            problem.retargeted(Objective::weighted(0.0)).fitness(objectives).to_bits(),
            classic.to_bits(),
            "explicit λ=0 must be the bitwise identity"
        );
        let response = problem.retargeted(Objective::mean_flowtime()).fitness(objectives);
        prop_assert_eq!(
            response.to_bits(),
            (objectives.flowtime / problem.nb_machines() as f64).to_bits(),
            "λ=1 must be exactly the mean flowtime"
        );
    }

    /// SPT order is flowtime-optimal for a fixed assignment: the evaluator
    /// must never report a flowtime above the value of any *other*
    /// sequencing. We check against the pessimal (LPT) sequencing.
    #[test]
    fn spt_flowtime_is_minimal((problem, schedule) in problem_and_schedule()) {
        let obj = evaluate(&problem, &schedule);
        // Compute flowtime with longest-first sequencing by hand, as an
        // exact tick sum: `ticks::time` is monotone, so no slack.
        let mut lpt_flowtime = 0i128;
        for m in 0..problem.nb_machines() as u32 {
            let mut etcs: Vec<i64> = schedule
                .iter()
                .filter(|&(_, machine)| machine == m)
                .map(|(job, _)| problem.etc(job, m))
                .collect();
            etcs.sort_unstable_by(|a, b| b.cmp(a));
            let mut clock = i128::from(problem.ready(m));
            for e in etcs {
                clock += i128::from(e);
                lpt_flowtime += clock;
            }
        }
        prop_assert!(obj.flowtime <= ticks::time(lpt_flowtime));
    }
}
