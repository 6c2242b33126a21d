//! Encoding-level genetic operators on assignment vectors.
//!
//! Both the cellular MA (`cmags-cma`) and the baseline GAs (`cmags-ga`)
//! are assembled from these primitives. Every operator preserves
//! feasibility by construction — any vector of valid machine indices is a
//! feasible schedule — so no repair step exists anywhere in the workspace.

use std::cell::RefCell;

use cmags_core::{ticks, EvalState, JobId, MachineId, Problem, Schedule};
use rand::{Rng, RngCore};

/// One-point crossover (the paper's recombination operator).
///
/// Splits both parents at the same random point and joins the head of `a`
/// with the tail of `b`. The cut point is drawn from `1..nb_jobs` so both
/// parents always contribute at least one gene.
#[must_use]
pub fn one_point(a: &Schedule, b: &Schedule, rng: &mut dyn RngCore) -> Schedule {
    debug_assert_eq!(a.nb_jobs(), b.nb_jobs());
    let n = a.nb_jobs();
    if n < 2 {
        return a.clone();
    }
    let point = rng.gen_range(1..n);
    let mut child = Vec::with_capacity(n);
    child.extend_from_slice(&a.assignment()[..point]);
    child.extend_from_slice(&b.assignment()[point..]);
    Schedule::from_assignment(child)
}

/// Two-point crossover: the segment between two random points comes from
/// `b`, the rest from `a`.
#[must_use]
pub fn two_point(a: &Schedule, b: &Schedule, rng: &mut dyn RngCore) -> Schedule {
    debug_assert_eq!(a.nb_jobs(), b.nb_jobs());
    let n = a.nb_jobs();
    if n < 3 {
        return one_point(a, b, rng);
    }
    let p1 = rng.gen_range(1..n - 1);
    let p2 = rng.gen_range(p1 + 1..n);
    let mut child = Vec::with_capacity(n);
    child.extend_from_slice(&a.assignment()[..p1]);
    child.extend_from_slice(&b.assignment()[p1..p2]);
    child.extend_from_slice(&a.assignment()[p2..]);
    Schedule::from_assignment(child)
}

/// Uniform crossover: each gene comes from `a` or `b` with probability ½.
#[must_use]
pub fn uniform(a: &Schedule, b: &Schedule, rng: &mut dyn RngCore) -> Schedule {
    debug_assert_eq!(a.nb_jobs(), b.nb_jobs());
    let child = a
        .assignment()
        .iter()
        .zip(b.assignment())
        .map(|(&ga, &gb)| if rng.gen::<bool>() { ga } else { gb })
        .collect();
    Schedule::from_assignment(child)
}

/// Crossover operator selector, for configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossover {
    /// One-point (paper default).
    OnePoint,
    /// Two-point.
    TwoPoint,
    /// Uniform.
    Uniform,
}

impl Crossover {
    /// Applies the selected crossover.
    #[must_use]
    pub fn apply(self, a: &Schedule, b: &Schedule, rng: &mut dyn RngCore) -> Schedule {
        match self {
            Crossover::OnePoint => one_point(a, b, rng),
            Crossover::TwoPoint => two_point(a, b, rng),
            Crossover::Uniform => uniform(a, b, rng),
        }
    }

    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Crossover::OnePoint => "One-Point",
            Crossover::TwoPoint => "Two-Point",
            Crossover::Uniform => "Uniform",
        }
    }
}

/// Moves one random job to a random *different* machine. Returns the
/// `(job, machine)` applied, or `None` when only one machine exists.
pub fn mutate_move(
    problem: &Problem,
    schedule: &mut Schedule,
    rng: &mut dyn RngCore,
) -> Option<(JobId, MachineId)> {
    let nb_machines = problem.nb_machines() as MachineId;
    if nb_machines < 2 {
        return None;
    }
    let job = rng.gen_range(0..schedule.nb_jobs() as JobId);
    let current = schedule.machine_of(job);
    // Draw from nb_machines - 1 candidates and skip over the current one.
    let mut target = rng.gen_range(0..nb_machines - 1);
    if target >= current {
        target += 1;
    }
    schedule.assign(job, target);
    Some((job, target))
}

/// Swaps the machines of two random jobs on different machines. The
/// first job is uniform over all jobs; the partner is uniform over the
/// jobs on other machines (reservoir-sampled in one scan). Returns the
/// pair, or `None` when every job shares one machine.
pub fn mutate_swap(schedule: &mut Schedule, rng: &mut dyn RngCore) -> Option<(JobId, JobId)> {
    let n = schedule.nb_jobs() as JobId;
    if n < 2 {
        return None;
    }
    let a = rng.gen_range(0..n);
    let machine_a = schedule.machine_of(a);
    let mut partner: Option<JobId> = None;
    let mut seen = 0u32;
    for b in 0..n {
        if schedule.machine_of(b) != machine_a {
            seen += 1;
            if rng.gen_range(0..seen) == 0 {
                partner = Some(b);
            }
        }
    }
    let b = partner?;
    schedule.swap_jobs(a, b);
    Some((a, b))
}

/// Fraction of machines considered "less overloaded" by the rebalance
/// mutation (paper §3.2: "25% first machines").
pub const REBALANCE_UNDERLOADED_FRACTION: f64 = 0.25;

thread_local! {
    /// Per-thread `(completion ticks, machine)` key buffer of the
    /// rebalance mutation — the mutation sits on the cellular sweep's hot
    /// path, so it must not allocate per call.
    static REBALANCE_KEYS: RefCell<Vec<(i128, MachineId)>> = const { RefCell::new(Vec::new()) };
}

/// The paper's **rebalance** mutation: transfer one job from an
/// overloaded machine to one of the less-loaded machines.
///
/// A machine is *overloaded* when its completion time equals the current
/// makespan (`load_factor = 1`); the *less overloaded* machines are the
/// first 25 % in ascending `(completion, machine)` order (the order of
/// [`EvalState::machines_by_completion`]), excluding the donor. The
/// donor, the target and the job are drawn uniformly. Returns the
/// `(job, target)` applied, or `None` when the schedule cannot be
/// rebalanced (single machine, or no overloaded machine holds a job).
///
/// The caller's [`EvalState`] is updated in lockstep. Nothing sorts the
/// whole machine list: only the (usually tiny) overloaded set is sorted,
/// and the target is found by its rank with one linear-time selection.
/// The keys fill a per-thread buffer, so the call does not allocate.
pub fn rebalance(
    problem: &Problem,
    schedule: &mut Schedule,
    eval: &mut EvalState,
    rng: &mut dyn RngCore,
) -> Option<(JobId, MachineId)> {
    let nb_machines = problem.nb_machines();
    if nb_machines < 2 {
        return None;
    }
    REBALANCE_KEYS.with(|cell| {
        let keys = &mut *cell.borrow_mut();
        keys.clear();
        keys.extend((0..nb_machines as MachineId).map(|m| (eval.completion_ticks(m), m)));

        // All machines at the makespan (compared as f64, the value
        // `completion` reports) that hold a job are overloaded. Gather
        // them at the tail in ascending key order and draw one.
        let makespan = eval.makespan();
        let mut rest = 0;
        for i in 0..keys.len() {
            let (completion, m) = keys[i];
            if !(ticks::time(completion) >= makespan && eval.machine_len(m) > 0) {
                keys.swap(rest, i);
                rest += 1;
            }
        }
        let overloaded = &mut keys[rest..];
        overloaded.sort_unstable();
        let pick = rng.gen_range(0..overloaded.len().max(1));
        let donor_key = *overloaded.get(pick)?;
        let donor = donor_key.1;

        // Less overloaded: the first 25% machines by completion (at least
        // 1), excluding the donor. Skipping the donor shifts the ranks at
        // and after its own by one.
        let cutoff = ((nb_machines as f64 * REBALANCE_UNDERLOADED_FRACTION).ceil() as usize).max(1);
        let donor_rank = keys.iter().filter(|&&key| key < donor_key).count();
        let donor_in_prefix = donor_rank < cutoff;
        let count = cutoff - usize::from(donor_in_prefix);
        // Draw before the empty check: the RNG stream the rest of the
        // run sees depends on it.
        let pick = rng.gen_range(0..count.max(1));
        if count == 0 {
            return None;
        }
        let rank = if donor_in_prefix && donor_rank <= pick {
            pick + 1
        } else {
            pick
        };
        let (_, &mut (_, target), _) = keys.select_nth_unstable(rank);

        // Uniform job on the donor machine.
        let pick = rng.gen_range(0..eval.machine_len(donor));
        let job = schedule
            .iter()
            .filter(|&(_, m)| m == donor)
            .map(|(j, _)| j)
            .nth(pick)
            .expect("donor machine holds at least one job");
        eval.apply_move(problem, schedule, job, target);
        Some((job, target))
    })
}

/// Mutation operator selector, for configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Load-rebalancing transfer (paper default).
    Rebalance,
    /// Random single-job move.
    Move,
    /// Random cross-machine swap.
    Swap,
}

impl Mutation {
    /// Applies the selected mutation, keeping `eval` in lockstep.
    /// Returns `true` if the schedule changed.
    pub fn apply(
        self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        rng: &mut dyn RngCore,
    ) -> bool {
        match self {
            Mutation::Rebalance => rebalance(problem, schedule, eval, rng).is_some(),
            Mutation::Move => {
                let nb_machines = problem.nb_machines() as MachineId;
                if nb_machines < 2 {
                    return false;
                }
                let job = rng.gen_range(0..schedule.nb_jobs() as JobId);
                let current = schedule.machine_of(job);
                let mut target = rng.gen_range(0..nb_machines - 1);
                if target >= current {
                    target += 1;
                }
                eval.apply_move(problem, schedule, job, target);
                true
            }
            Mutation::Swap => {
                // Draw the pair with the schedule untouched, then roll the
                // swap through the evaluator.
                let mut scratch = schedule.clone();
                match mutate_swap(&mut scratch, rng) {
                    Some((a, b)) => {
                        eval.apply_swap(problem, schedule, a, b);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::Rebalance => "Rebalance",
            Mutation::Move => "Move",
            Mutation::Swap => "Swap",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::{braun, EtcMatrix, GridInstance};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn problem() -> Problem {
        let class: cmags_etc::InstanceClass = "u_i_hihi.0".parse().unwrap();
        Problem::from_instance(&braun::generate(class.with_dims(32, 4), 0))
    }

    fn two_parents(p: &Problem) -> (Schedule, Schedule) {
        (
            Schedule::uniform(p.nb_jobs(), 0),
            Schedule::uniform(p.nb_jobs(), 3),
        )
    }

    #[test]
    fn one_point_is_prefix_suffix() {
        let p = problem();
        let (a, b) = two_parents(&p);
        let mut rng = SmallRng::seed_from_u64(1);
        let child = one_point(&a, &b, &mut rng);
        // The child must be 0s then 3s with exactly one switch point.
        let genes = child.assignment();
        let switch = genes.iter().position(|&g| g == 3).unwrap();
        assert!(switch >= 1);
        assert!(genes[..switch].iter().all(|&g| g == 0));
        assert!(genes[switch..].iter().all(|&g| g == 3));
    }

    #[test]
    fn two_point_keeps_outer_genes_from_a() {
        let p = problem();
        let (a, b) = two_parents(&p);
        let mut rng = SmallRng::seed_from_u64(2);
        let child = two_point(&a, &b, &mut rng);
        let genes = child.assignment();
        assert_eq!(genes[0], 0, "first gene comes from a");
        assert_eq!(genes[genes.len() - 1], 0, "last gene comes from a");
        assert!(genes.contains(&3), "middle segment comes from b");
    }

    #[test]
    fn uniform_mixes_both_parents() {
        let p = problem();
        let (a, b) = two_parents(&p);
        let mut rng = SmallRng::seed_from_u64(3);
        let child = uniform(&a, &b, &mut rng);
        assert!(child.assignment().contains(&0));
        assert!(child.assignment().contains(&3));
    }

    #[test]
    fn crossovers_preserve_feasibility() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(4);
        let a = Schedule::from_assignment(
            (0..p.nb_jobs())
                .map(|_| rng.gen_range(0..p.nb_machines() as u32))
                .collect(),
        );
        let b = Schedule::from_assignment(
            (0..p.nb_jobs())
                .map(|_| rng.gen_range(0..p.nb_machines() as u32))
                .collect(),
        );
        for xo in [Crossover::OnePoint, Crossover::TwoPoint, Crossover::Uniform] {
            let child = xo.apply(&a, &b, &mut rng);
            assert!(
                Schedule::try_new(child.assignment().to_vec(), p.nb_jobs(), p.nb_machines())
                    .is_ok(),
                "{} produced an infeasible child",
                xo.name()
            );
        }
    }

    #[test]
    fn mutate_move_changes_exactly_one_job() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s = Schedule::uniform(p.nb_jobs(), 1);
        let before = s.clone();
        let (job, target) = mutate_move(&p, &mut s, &mut rng).unwrap();
        assert_ne!(target, 1);
        assert_eq!(before.hamming_distance(&s), 1);
        assert_eq!(s.machine_of(job), target);
    }

    #[test]
    fn mutate_swap_requires_distinct_machines() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut s = Schedule::uniform(p.nb_jobs(), 0);
        // All jobs on machine 0 -> no cross-machine swap possible.
        assert!(mutate_swap(&mut s, &mut rng).is_none());
        s.assign(0, 1);
        let (a, b) = mutate_swap(&mut s, &mut rng).unwrap();
        assert_ne!(s.machine_of(a), s.machine_of(b));
    }

    #[test]
    fn rebalance_moves_off_the_critical_machine() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = Schedule::uniform(p.nb_jobs(), 2);
        let mut eval = EvalState::new(&p, &s);
        let makespan_before = eval.makespan();
        let (job, target) = rebalance(&p, &mut s, &mut eval, &mut rng).unwrap();
        assert_ne!(target, 2, "target must be a less-loaded machine");
        assert_eq!(s.machine_of(job), target);
        assert!(
            eval.makespan() < makespan_before,
            "unloading the only loaded machine helps"
        );
        eval.debug_validate(&p, &s);
    }

    #[test]
    fn rebalance_none_on_single_machine() {
        let etc = EtcMatrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let p = Problem::from_instance(&GridInstance::new("one", etc));
        let mut s = Schedule::uniform(3, 0);
        let mut eval = EvalState::new(&p, &s);
        let mut rng = SmallRng::seed_from_u64(8);
        assert!(rebalance(&p, &mut s, &mut eval, &mut rng).is_none());
    }

    #[test]
    fn mutation_enum_keeps_eval_consistent() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(9);
        for op in [Mutation::Rebalance, Mutation::Move, Mutation::Swap] {
            let mut s = Schedule::from_assignment(
                (0..p.nb_jobs())
                    .map(|j| (j % p.nb_machines()) as u32)
                    .collect(),
            );
            let mut eval = EvalState::new(&p, &s);
            for _ in 0..16 {
                op.apply(&p, &mut s, &mut eval, &mut rng);
                eval.debug_validate(&p, &s);
            }
        }
    }
}
