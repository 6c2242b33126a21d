//! Configuration of the cellular memetic algorithm (paper Table 1).

use cmags_core::Problem;
use cmags_heuristics::constructive::ConstructiveKind;
use cmags_heuristics::local_search::LocalSearchKind;
use cmags_heuristics::ops::{Crossover, Mutation};

use crate::{CmaOutcome, Neighborhood, Selection, StopCondition, SweepOrder};

/// Cell replacement policy of the asynchronous/synchronous ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Replacements take effect immediately — later cells in the same
    /// sweep see them (the paper's choice: cheaper and faster in the
    /// short runs grids need).
    Asynchronous,
    /// Replacements are buffered and applied at the end of each operator
    /// pass (canonical synchronous cGA behaviour; ablation extension).
    Synchronous,
}

/// Full configuration of a cMA run.
///
/// [`CmaConfig::paper`] reproduces Table 1 exactly; builder methods
/// (`with_*`) derive variants for the tuning figures and ablations.
#[derive(Debug, Clone)]
pub struct CmaConfig {
    /// Population grid height (Table 1: 5).
    pub pop_height: usize,
    /// Population grid width (Table 1: 5).
    pub pop_width: usize,
    /// Solutions selected per recombination (Table 1: 3).
    pub nb_to_recombine: usize,
    /// Recombinations per outer iteration (Table 1: 25).
    pub nb_recombinations: usize,
    /// Mutations per outer iteration (Table 1: 12).
    pub nb_mutations: usize,
    /// Population seeding heuristic (Table 1: LJFR-SJFR).
    pub seeding: ConstructiveKind,
    /// Perturbation strength deriving the rest of the population from the
    /// seed ("large perturbations"; fraction of jobs reassigned).
    pub perturb_strength: f64,
    /// Neighbourhood pattern (Table 1: C9).
    pub neighborhood: Neighborhood,
    /// Recombination sweep order (Table 1: FLS).
    pub rec_order: SweepOrder,
    /// Mutation sweep order (Table 1: NRS).
    pub mut_order: SweepOrder,
    /// Recombination operator (Table 1: one-point).
    pub crossover: Crossover,
    /// Parent selection (Table 1: 3-tournament).
    pub selection: Selection,
    /// Mutation operator (Table 1: rebalance).
    pub mutation: Mutation,
    /// Local search method (Table 1: LMCTS).
    pub local_search: LocalSearchKind,
    /// Local search iterations per offspring (Table 1: 5).
    pub ls_iterations: usize,
    /// Replace a cell only when the offspring is strictly better
    /// (Table 1: true).
    pub add_only_if_better: bool,
    /// Asynchronous (paper) or synchronous (ablation) cell updating.
    pub update_policy: UpdatePolicy,
    /// Worker threads generating each synchronous pass (ignored by the
    /// asynchronous policy, which is inherently sequential). Synchronous
    /// results are identical for every thread count — per-slot RNG
    /// streams are split from the master seed — so this knob only trades
    /// wall-clock time.
    pub threads: usize,
    /// Stopping condition (the paper runs 90 s wall clock).
    pub stop: StopCondition,
}

impl CmaConfig {
    /// The tuned configuration of Table 1.
    ///
    /// The stopping condition defaults to the paper's 90 s wall-clock
    /// budget; callers virtually always override it via
    /// [`CmaConfig::with_stop`] (tests and benches use deterministic
    /// children/iteration budgets).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            pop_height: 5,
            pop_width: 5,
            nb_to_recombine: 3,
            nb_recombinations: 25,
            nb_mutations: 12,
            seeding: ConstructiveKind::LjfrSjfr,
            perturb_strength: 0.5,
            neighborhood: Neighborhood::C9,
            rec_order: SweepOrder::FixedLineSweep,
            mut_order: SweepOrder::NewRandomSweep,
            crossover: Crossover::OnePoint,
            selection: Selection::NTournament(3),
            mutation: Mutation::Rebalance,
            local_search: LocalSearchKind::Lmcts,
            ls_iterations: 5,
            add_only_if_better: true,
            update_policy: UpdatePolicy::Asynchronous,
            threads: 1,
            stop: StopCondition::paper_time(),
        }
    }

    /// Population size (`pop_height × pop_width`).
    #[must_use]
    pub fn population_size(&self) -> usize {
        self.pop_height * self.pop_width
    }

    /// Replaces the stopping condition.
    #[must_use]
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Replaces the neighbourhood pattern (Fig. 3 sweep).
    #[must_use]
    pub fn with_neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.neighborhood = neighborhood;
        self
    }

    /// Replaces the local search method (Fig. 2 sweep).
    #[must_use]
    pub fn with_local_search(mut self, kind: LocalSearchKind) -> Self {
        self.local_search = kind;
        self
    }

    /// Replaces the selection operator (Fig. 4 sweep).
    #[must_use]
    pub fn with_selection(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Replaces the recombination sweep order (Fig. 5 sweep).
    #[must_use]
    pub fn with_rec_order(mut self, order: SweepOrder) -> Self {
        self.rec_order = order;
        self
    }

    /// Replaces the population dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_population(mut self, height: usize, width: usize) -> Self {
        assert!(
            height > 0 && width > 0,
            "population dimensions must be positive"
        );
        self.pop_height = height;
        self.pop_width = width;
        self
    }

    /// Replaces the seeding heuristic (ablation: random vs LJFR-SJFR).
    #[must_use]
    pub fn with_seeding(mut self, seeding: ConstructiveKind) -> Self {
        self.seeding = seeding;
        self
    }

    /// Replaces the update policy (async/sync ablation).
    #[must_use]
    pub fn with_update_policy(mut self, policy: UpdatePolicy) -> Self {
        self.update_policy = policy;
        self
    }

    /// Replaces the synchronous-pass worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Replaces the crossover operator.
    #[must_use]
    pub fn with_crossover(mut self, crossover: Crossover) -> Self {
        self.crossover = crossover;
        self
    }

    /// Replaces the mutation operator.
    #[must_use]
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Runs the algorithm on `problem` with this configuration and the
    /// given RNG seed. Convenience facade over the engine module.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unbounded (no stopping condition)
    /// or structurally invalid (zero-sized population, zero recombinations
    /// and mutations).
    #[must_use]
    pub fn run(&self, problem: &Problem, seed: u64) -> CmaOutcome {
        crate::engine::run(self, problem, seed)
    }

    /// Validates structural invariants; called by the engine.
    pub(crate) fn validate(&self) {
        assert!(
            self.pop_height > 0 && self.pop_width > 0,
            "empty population grid"
        );
        assert!(
            self.nb_recombinations + self.nb_mutations > 0,
            "at least one operator application per iteration required"
        );
        assert!(
            self.nb_to_recombine >= 2,
            "recombination needs at least two parents"
        );
        assert!(
            self.stop.is_bounded(),
            "unbounded run: configure a stopping condition"
        );
        assert!(
            (0.0..=1.0).contains(&self.perturb_strength),
            "perturbation strength must be within [0, 1]"
        );
        assert!(self.threads > 0, "need at least one worker thread");
    }
}

impl Default for CmaConfig {
    /// Table 1 configuration.
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The full Table 1, asserted value by value.
    #[test]
    fn paper_config_matches_table1() {
        let c = CmaConfig::paper();
        assert_eq!(c.pop_height, 5);
        assert_eq!(c.pop_width, 5);
        assert_eq!(c.population_size(), 25);
        assert_eq!(c.nb_to_recombine, 3);
        assert_eq!(c.nb_recombinations, 25);
        assert_eq!(c.nb_mutations, 12);
        assert_eq!(c.seeding, ConstructiveKind::LjfrSjfr);
        assert_eq!(c.neighborhood, Neighborhood::C9);
        assert_eq!(c.rec_order, SweepOrder::FixedLineSweep);
        assert_eq!(c.mut_order, SweepOrder::NewRandomSweep);
        assert_eq!(c.crossover, Crossover::OnePoint);
        assert_eq!(c.selection, Selection::NTournament(3));
        assert_eq!(c.mutation, Mutation::Rebalance);
        assert_eq!(c.local_search, LocalSearchKind::Lmcts);
        assert_eq!(c.ls_iterations, 5);
        assert!(c.add_only_if_better);
        assert_eq!(c.update_policy, UpdatePolicy::Asynchronous);
        assert_eq!(c.threads, 1, "the paper's engine is single-threaded");
        assert_eq!(c.stop.time_limit, Some(Duration::from_secs(90)));
    }

    #[test]
    fn builders_replace_fields() {
        let c = CmaConfig::paper()
            .with_neighborhood(Neighborhood::L5)
            .with_local_search(LocalSearchKind::Lm)
            .with_selection(Selection::NTournament(7))
            .with_rec_order(SweepOrder::NewRandomSweep)
            .with_population(4, 8)
            .with_stop(StopCondition::iterations(3));
        assert_eq!(c.neighborhood, Neighborhood::L5);
        assert_eq!(c.local_search, LocalSearchKind::Lm);
        assert_eq!(c.selection, Selection::NTournament(7));
        assert_eq!(c.rec_order, SweepOrder::NewRandomSweep);
        assert_eq!(c.population_size(), 32);
        assert_eq!(c.stop.max_iterations, Some(3));
    }

    #[test]
    #[should_panic(expected = "unbounded run")]
    fn unbounded_config_rejected() {
        let c = CmaConfig::paper().with_stop(StopCondition::default());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least two parents")]
    fn single_parent_rejected() {
        let mut c = CmaConfig::paper();
        c.nb_to_recombine = 1;
        c.validate();
    }
}
