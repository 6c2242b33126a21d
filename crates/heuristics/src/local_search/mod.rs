//! Local search methods — the memetic component (paper §3.2).
//!
//! Three methods are compared in the paper's Fig. 2 and implemented here:
//!
//! * **LM** — *Local Move*: a random job is transferred to a random
//!   machine (accepted only when it improves).
//! * **SLM** — *Steepest Local Move*: a random job is transferred to the
//!   machine yielding the best improvement.
//! * **LMCTS** — *Local Minimum Completion Time Swap*: a random job is
//!   swapped with the job (on another machine) yielding the best
//!   reduction in completion time; the paper's tuned choice (Table 1).
//!
//! The paper's prose leaves the candidate set of LMCTS open ("two jobs
//! assigned to different machines are swapped; the pair … that yields the
//! best reduction"); scanning *all* pairs per step would cost
//! `O(jobs²·jobs/machine)` per step — far beyond the 2007 hardware budget.
//! Following the companion descriptions in Xhafa's local-search studies we
//! anchor one job at random and scan its `O(jobs)` swap partners, which
//! matches both the name ("swap" of a chosen job) and the observed cost.
//! All steps are guided by the scalarised fitness (λ-weighted makespan +
//! mean flowtime), the quantity the memetic algorithm optimises.
//!
//! Every method implements [`LocalSearch`]: a `step` probes one candidate
//! set and commits only strict improvements (hill-climbing), and `run`
//! chains `iterations` steps — `nb local search iterations = 5` in the
//! paper's Table 1.
//!
//! No step allocates or runs a per-candidate merge pass. SLM's move scan
//! goes through the batched [`cmags_core::EvalState::score_moves`] with
//! per-thread reusable buffers (`with_scratch`). The swap scans (LMCTS
//! and LFTS) call [`cmags_core::EvalState::best_swap`], which keeps only
//! the winner and needs no buffer. LM's and LMCTM's single probes use
//! `peek_move` directly.

mod extensions;
mod lm;
mod lmcts;
mod slm;
mod vnd;

pub use extensions::{LocalFlowtimeSwap, LocalMctMove};
pub use lm::LocalMove;
pub use lmcts::LocalMctSwap;
pub use slm::SteepestLocalMove;
pub use vnd::Vnd;

use std::cell::RefCell;

use cmags_core::{EvalState, JobId, MachineId, Problem, Schedule, ScoreBuf};
use rand::RngCore;

/// Reusable per-thread buffers of the batched-scoring hot path: candidate
/// lists plus the structure-of-arrays score buffer. One instance per
/// worker thread keeps every local-search step allocation-free, including
/// under the cellular sweep's scoped worker threads.
pub(crate) struct Scratch {
    /// `(job, target)` move candidates.
    pub moves: Vec<(JobId, MachineId)>,
    /// Scored objectives, aligned with the candidate list.
    pub scores: ScoreBuf,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        moves: Vec::new(),
        scores: ScoreBuf::new(),
    });
}

/// Runs `f` with this thread's scratch buffers. Not reentrant — steps
/// use it around one candidate scan at a time.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// A hill-climbing local search on a schedule + evaluator pair.
///
/// Implementations must keep `eval` in lockstep with `schedule` and only
/// ever commit strict fitness improvements.
pub trait LocalSearch {
    /// Short identifier used in reports (e.g. `"LMCTS"`).
    fn name(&self) -> &'static str;

    /// Performs one improvement attempt. Returns `true` iff the schedule
    /// changed (which implies the fitness strictly improved).
    fn step(
        &self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        rng: &mut dyn RngCore,
    ) -> bool;

    /// Chains `iterations` steps; returns how many improved.
    fn run(
        &self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        rng: &mut dyn RngCore,
        iterations: usize,
    ) -> usize {
        let mut improved = 0;
        for _ in 0..iterations {
            if self.step(problem, schedule, eval, rng) {
                improved += 1;
            }
        }
        improved
    }
}

/// Enumerable local-search selector for configuration and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalSearchKind {
    /// No local search (turns the cMA into a plain cellular GA).
    None,
    /// Local Move.
    Lm,
    /// Steepest Local Move.
    Slm,
    /// Local Minimum Completion Time Swap (paper default).
    Lmcts,
    /// Variable Neighbourhood Descent over the three methods (extension).
    Vnd,
    /// Local MCT Move (extension: single MCT-aimed probe).
    MctMove,
    /// Local Flowtime Swap (extension: LMCTS ranked by flowtime).
    FlowtimeSwap,
}

impl LocalSearchKind {
    /// The paper's Fig. 2 contenders.
    pub const PAPER_METHODS: [LocalSearchKind; 3] = [
        LocalSearchKind::Lm,
        LocalSearchKind::Slm,
        LocalSearchKind::Lmcts,
    ];

    /// Runs the selected method for `iterations` steps.
    pub fn run(
        self,
        problem: &Problem,
        schedule: &mut Schedule,
        eval: &mut EvalState,
        rng: &mut dyn RngCore,
        iterations: usize,
    ) -> usize {
        match self {
            LocalSearchKind::None => 0,
            LocalSearchKind::Lm => LocalMove.run(problem, schedule, eval, rng, iterations),
            LocalSearchKind::Slm => SteepestLocalMove.run(problem, schedule, eval, rng, iterations),
            LocalSearchKind::Lmcts => LocalMctSwap.run(problem, schedule, eval, rng, iterations),
            LocalSearchKind::Vnd => Vnd.run(problem, schedule, eval, rng, iterations),
            LocalSearchKind::MctMove => LocalMctMove.run(problem, schedule, eval, rng, iterations),
            LocalSearchKind::FlowtimeSwap => {
                LocalFlowtimeSwap.run(problem, schedule, eval, rng, iterations)
            }
        }
    }

    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LocalSearchKind::None => "None",
            LocalSearchKind::Lm => LocalMove.name(),
            LocalSearchKind::Slm => SteepestLocalMove.name(),
            LocalSearchKind::Lmcts => LocalMctSwap.name(),
            LocalSearchKind::Vnd => Vnd.name(),
            LocalSearchKind::MctMove => LocalMctMove.name(),
            LocalSearchKind::FlowtimeSwap => LocalFlowtimeSwap.name(),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use cmags_core::{EvalState, Problem, Schedule};
    use cmags_etc::braun;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    pub fn problem() -> Problem {
        let class: cmags_etc::InstanceClass = "u_c_hihi.0".parse().unwrap();
        Problem::from_instance(&braun::generate(class.with_dims(96, 8), 0))
    }

    pub fn random_start(problem: &Problem, seed: u64) -> (Schedule, EvalState) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schedule = Schedule::from_assignment(
            (0..problem.nb_jobs())
                .map(|_| rng.gen_range(0..problem.nb_machines() as u32))
                .collect(),
        );
        let eval = EvalState::new(problem, &schedule);
        (schedule, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{problem, random_start};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Shared contract of every method: fitness never worsens, the
    /// evaluator stays consistent, and `step == true` implies strict
    /// improvement.
    #[test]
    fn all_methods_monotonically_improve() {
        let p = problem();
        for kind in [
            LocalSearchKind::Lm,
            LocalSearchKind::Slm,
            LocalSearchKind::Lmcts,
            LocalSearchKind::Vnd,
            LocalSearchKind::MctMove,
            LocalSearchKind::FlowtimeSwap,
        ] {
            let (mut s, mut eval) = random_start(&p, 42);
            let mut rng = SmallRng::seed_from_u64(17);
            let mut last = eval.fitness(&p);
            for _ in 0..40 {
                let before = last;
                let changed = kind.run(&p, &mut s, &mut eval, &mut rng, 1) > 0;
                last = eval.fitness(&p);
                assert!(last <= before + 1e-9, "{}: fitness worsened", kind.name());
                if changed {
                    assert!(last < before, "{}: change without improvement", kind.name());
                }
                eval.debug_validate(&p, &s);
            }
            assert!(last < eval.fitness(&p) + 1e9, "sanity");
        }
    }

    #[test]
    fn run_counts_improvements() {
        let p = problem();
        let (mut s, mut eval) = random_start(&p, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let improved = LocalSearchKind::Lmcts.run(&p, &mut s, &mut eval, &mut rng, 25);
        assert!(
            improved > 0,
            "LMCTS should find improvements from a random start"
        );
        assert!(improved <= 25);
    }

    #[test]
    fn none_kind_is_inert() {
        let p = problem();
        let (mut s, mut eval) = random_start(&p, 3);
        let before = s.clone();
        let mut rng = SmallRng::seed_from_u64(4);
        let improved = LocalSearchKind::None.run(&p, &mut s, &mut eval, &mut rng, 10);
        assert_eq!(improved, 0);
        assert_eq!(s, before);
    }

    /// The paper's headline tuning result (Fig. 2): LMCTS beats LM at
    /// equal step budgets *in the setting the cMA uses local search in* —
    /// improving perturbed heuristic-seeded schedules (§3.2), not
    /// uniformly random ones (where single-job moves fix gross imbalance
    /// faster than swaps can).
    #[test]
    fn lmcts_beats_lm_at_equal_budget() {
        use crate::constructive::{Constructive, LjfrSjfr};
        use crate::perturb;
        let p = problem();
        let base = LjfrSjfr.build(&p);
        let mut lm_total = 0.0;
        let mut lmcts_total = 0.0;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let start = perturb(&p, &base, 0.5, &mut rng);

            let mut s1 = start.clone();
            let mut e1 = EvalState::new(&p, &s1);
            let mut rng = SmallRng::seed_from_u64(seed + 100);
            LocalMove.run(&p, &mut s1, &mut e1, &mut rng, 300);
            lm_total += e1.makespan();

            let mut s2 = start;
            let mut e2 = EvalState::new(&p, &s2);
            let mut rng = SmallRng::seed_from_u64(seed + 100);
            LocalMctSwap.run(&p, &mut s2, &mut e2, &mut rng, 300);
            lmcts_total += e2.makespan();
        }
        assert!(
            lmcts_total < lm_total,
            "LMCTS ({lmcts_total}) should beat LM ({lm_total}) at equal step budget"
        );
    }
}
