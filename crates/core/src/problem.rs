//! The scheduler-facing view of an ETC instance.

use cmags_etc::GridInstance;

use crate::{ticks, FitnessWeights, JobId, MachineId, Objective, Objectives};

/// An immutable, evaluation-optimised view of a scheduling instance.
///
/// Owns a row-major **tick** copy of the ETC matrix and the machine ready
/// times (see [`crate::ticks`]), quantised once from the f64
/// [`GridInstance`], plus the fitness weights (Eq. 3). Ticks are the only
/// time representation below the I/O boundary: the evaluator and the
/// constructive planners read the same exact integers, and only the
/// reported objectives convert back to f64. `Problem` is cheap to share
/// by reference across threads (`Send + Sync`, no interior mutability);
/// all algorithms in the workspace take `&Problem`.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    name: String,
    nb_jobs: usize,
    nb_machines: usize,
    /// Row-major ETC in ticks: `etc[job * nb_machines + machine]`.
    etc: Box<[i64]>,
    /// Machine ready times in ticks.
    ready: Box<[i64]>,
    weights: FitnessWeights,
    /// Response-blend objective layered over `weights`
    /// ([`Objective::classic`] = the historical behaviour, bit for bit).
    objective: Objective,
}

impl Problem {
    /// Builds a problem from an instance with the paper's λ = 0.75.
    #[must_use]
    pub fn from_instance(instance: &GridInstance) -> Self {
        Self::with_weights(instance, FitnessWeights::default())
    }

    /// Builds a problem with explicit fitness weights, quantising the
    /// instance's ETC and ready times to ticks in one pass.
    #[must_use]
    pub fn with_weights(instance: &GridInstance, weights: FitnessWeights) -> Self {
        Self {
            name: instance.name().to_owned(),
            nb_jobs: instance.nb_jobs(),
            nb_machines: instance.nb_machines(),
            etc: ticks::quantise(instance.etc().as_slice()),
            ready: ticks::quantise(instance.ready_times()),
            weights,
            objective: Objective::classic(),
        }
    }

    /// Instance name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of jobs.
    #[inline]
    #[must_use]
    pub fn nb_jobs(&self) -> usize {
        self.nb_jobs
    }

    /// Number of machines.
    #[inline]
    #[must_use]
    pub fn nb_machines(&self) -> usize {
        self.nb_machines
    }

    /// Expected time to compute `job` on `machine`, in ticks.
    #[inline]
    #[must_use]
    pub fn etc(&self, job: JobId, machine: MachineId) -> i64 {
        debug_assert!((job as usize) < self.nb_jobs && (machine as usize) < self.nb_machines);
        self.etc[job as usize * self.nb_machines + machine as usize]
    }

    /// The ETC row of one job in ticks — contiguous, for scanning
    /// candidate machines.
    #[inline]
    #[must_use]
    pub fn etc_row(&self, job: JobId) -> &[i64] {
        let start = job as usize * self.nb_machines;
        &self.etc[start..start + self.nb_machines]
    }

    /// Ready time of `machine`, in ticks.
    #[inline]
    #[must_use]
    pub fn ready(&self, machine: MachineId) -> i64 {
        self.ready[machine as usize]
    }

    /// All ready times, in ticks.
    #[must_use]
    pub fn ready_times(&self) -> &[i64] {
        &self.ready
    }

    /// The fitness weights in effect.
    #[must_use]
    pub fn weights(&self) -> FitnessWeights {
        self.weights
    }

    /// The response-blend objective in effect
    /// ([`Objective::classic`] unless retargeted).
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// A copy of this problem targeting a different response-blend
    /// objective (λ).
    ///
    /// Like [`Problem::reweighted`], only the scalarisation changes: the
    /// raw objectives, schedules and every [`crate::EvalState`] cache
    /// computed against `self` stay valid. `Objective::classic()`
    /// reproduces the historical fitness bit for bit.
    #[must_use]
    pub fn retargeted(&self, objective: Objective) -> Self {
        self.clone().targeting(objective)
    }

    /// The consuming variant of [`Problem::retargeted`] — no copy of the
    /// ETC/tick data, for freshly built per-activation problems.
    #[must_use]
    pub fn targeting(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// A copy of this problem with different fitness weights.
    ///
    /// Objectives are weight-independent, so any algorithm state computed
    /// against `self` (schedules, [`crate::EvalState`] caches) remains
    /// valid for the reweighted problem; only scalarised fitness values
    /// change. Multi-objective engines use this to scalarise local-search
    /// probes under varying λ without re-reading the instance.
    #[must_use]
    pub fn reweighted(&self, weights: FitnessWeights) -> Self {
        Self {
            weights,
            ..self.clone()
        }
    }

    /// Scalarised fitness of a pair of objective values: the classic
    /// Eq.-3 weighting blended by the active response objective λ
    /// (identical to the pure Eq.-3 value when the objective is
    /// classic).
    #[inline]
    #[must_use]
    pub fn fitness(&self, objectives: Objectives) -> f64 {
        self.objective
            .fitness(self.weights, objectives, self.nb_machines)
    }

    /// Jobs sorted ascending by workload (shortest first): the exact
    /// tick sum of each ETC row, which orders jobs as their mean ETC
    /// does. Deterministic: ties break by job id.
    #[must_use]
    pub fn jobs_by_workload(&self) -> Vec<JobId> {
        let sums: Vec<i128> = self
            .etc
            .chunks_exact(self.nb_machines)
            .map(|row| row.iter().map(|&e| i128::from(e)).sum())
            .collect();
        let mut order: Vec<JobId> = (0..self.nb_jobs as JobId).collect();
        order.sort_by_key(|&job| (sums[job as usize], job));
        order
    }

    /// Machines sorted ascending by the exact tick sum of their ETC
    /// column (fastest first). Deterministic: ties break by machine id.
    #[must_use]
    pub fn machines_by_speed(&self) -> Vec<MachineId> {
        let mut sums = vec![0i128; self.nb_machines];
        for row in self.etc.chunks_exact(self.nb_machines) {
            for (sum, &e) in sums.iter_mut().zip(row) {
                *sum += i128::from(e);
            }
        }
        let mut order: Vec<MachineId> = (0..self.nb_machines as MachineId).collect();
        order.sort_by_key(|&machine| (sums[machine as usize], machine));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::EtcMatrix;

    fn problem() -> Problem {
        // 3 jobs x 2 machines; machine 0 uniformly faster.
        let etc = EtcMatrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 6.0, 5.0, 10.0]);
        let inst = GridInstance::with_ready_times("p", etc, vec![0.5, 0.0]);
        Problem::from_instance(&inst)
    }

    #[test]
    fn accessors() {
        let p = problem();
        assert_eq!(p.name(), "p");
        assert_eq!(p.nb_jobs(), 3);
        assert_eq!(p.nb_machines(), 2);
        assert_eq!(p.etc(1, 1), ticks::ticks(6.0));
        assert_eq!(p.etc_row(2), &[ticks::ticks(5.0), ticks::ticks(10.0)]);
        assert_eq!(p.ready(0), ticks::ticks(0.5));
        assert_eq!(p.ready_times(), &[ticks::ticks(0.5), 0]);
    }

    #[test]
    fn workload_and_speed_orderings() {
        let p = problem();
        // Mean ETCs: job0=1.5, job1=4.5, job2=7.5 -> ascending already.
        assert_eq!(p.jobs_by_workload(), vec![0, 1, 2]);
        // Machine means: m0=3, m1=6 -> m0 fastest.
        assert_eq!(p.machines_by_speed(), vec![0, 1]);
    }

    #[test]
    fn fitness_uses_weights() {
        let p = problem();
        let obj = Objectives {
            makespan: 10.0,
            flowtime: 40.0,
        };
        // lambda 0.75: 0.75*10 + 0.25*(40/2) = 7.5 + 5 = 12.5
        assert!((p.fitness(obj) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn reweighted_changes_only_the_fitness() {
        let p = problem();
        let q = p.reweighted(FitnessWeights::new(0.25));
        assert_eq!(p.nb_jobs(), q.nb_jobs());
        assert_eq!(p.etc_row(1), q.etc_row(1));
        let obj = Objectives {
            makespan: 10.0,
            flowtime: 40.0,
        };
        // lambda 0.25: 0.25*10 + 0.75*(40/2) = 2.5 + 15 = 17.5
        assert!((q.fitness(obj) - 17.5).abs() < 1e-12);
        assert!((p.fitness(obj) - 12.5).abs() < 1e-12, "original untouched");
    }

    #[test]
    fn retargeted_blends_toward_mean_flowtime() {
        let p = problem();
        let obj = Objectives {
            makespan: 10.0,
            flowtime: 40.0,
        };
        // Classic default: bitwise the pure Eq.-3 value.
        assert_eq!(p.objective(), Objective::classic());
        assert_eq!(
            p.fitness(obj).to_bits(),
            p.weights().fitness(obj, p.nb_machines()).to_bits()
        );
        // λ = 1: pure mean flowtime (40 / 2 machines).
        let response = p.retargeted(Objective::mean_flowtime());
        assert_eq!(response.fitness(obj), 20.0);
        // λ = 0.5: halfway between Eq. 3 (12.5) and mean flowtime (20).
        let half = p.retargeted(Objective::weighted(0.5));
        assert!((half.fitness(obj) - 16.25).abs() < 1e-12);
        // Instance data untouched.
        assert_eq!(p.etc_row(1), response.etc_row(1));
        assert_eq!(p.fitness(obj), 12.5, "original untouched");
    }

    #[test]
    fn orderings_are_deterministic_under_ties() {
        let etc = EtcMatrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let p = Problem::from_instance(&GridInstance::new("tie", etc));
        assert_eq!(p.jobs_by_workload(), vec![0, 1]);
        assert_eq!(p.machines_by_speed(), vec![0, 1]);
    }
}
