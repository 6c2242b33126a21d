//! A cellular multi-objective memetic algorithm (MOCell-style).
//!
//! The reproduced paper scalarises makespan and flowtime with a fixed
//! λ = 0.75 and names, as future work, "a multi-objective algorithm in
//! order to find a set of non-dominated solutions" (§6). This engine is
//! that extension, following the cellular multi-objective design of the
//! same research group (MOCell; Nebro, Durillo, Luna, Dorronsoro, Alba):
//!
//! * the population lives on the same toroidal grid as the cMA and
//!   breeds inside the same neighbourhood patterns;
//! * an external bounded [`CrowdingArchive`] collects every
//!   non-dominated child; with probability
//!   [`MoCellConfig::archive_feedback`] the second parent is drawn from
//!   the archive, feeding elite trade-offs back into the grid;
//! * replacement is dominance-first: a child replaces its cell when it
//!   dominates it, never when dominated; incomparable children win when
//!   they are less crowded *within the cell's neighbourhood* — the
//!   cellular analogue of NSGA-II's crowded-comparison operator;
//! * the **memetic** component is kept: each child is improved by the
//!   paper's local-search methods. Hill-climbers need a scalar guide, so
//!   every improvement draws one λ from a small ladder
//!   ([`MoCellConfig::lambda_grid`]) — different children descend toward
//!   different regions of the front, preserving diversity.
//!
//! Determinism matches the rest of the workspace: one seeded
//! [`SmallRng`] drives the whole run.

use std::time::{Duration, Instant};

use cmags_cma::{Neighborhood, StopCondition, SweepOrder, SweepState, Torus};
use cmags_core::engine::{Metaheuristic, RunStats, Runner};
use cmags_core::{evaluate, EvalState, FitnessWeights, Objectives, Problem, Schedule};
use cmags_heuristics::constructive::ConstructiveKind;
use cmags_heuristics::local_search::LocalSearchKind;
use cmags_heuristics::ops::{Crossover, Mutation};
use cmags_heuristics::perturb;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::archive::{CrowdingArchive, MoSolution};
use crate::crowding::crowding_distances;
use crate::dominance::{compare, ParetoOrdering};
use crate::indicators::{hypervolume, reference_point};

/// One grid cell: a schedule with its incremental evaluator.
#[derive(Debug, Clone)]
pub struct MoIndividual {
    /// The chromosome.
    pub schedule: Schedule,
    /// Incremental evaluator, in lockstep with `schedule`.
    pub eval: EvalState,
}

impl MoIndividual {
    /// Evaluates `schedule` from scratch.
    #[must_use]
    pub fn new(problem: &Problem, schedule: Schedule) -> Self {
        let eval = EvalState::new(problem, &schedule);
        Self { schedule, eval }
    }

    /// The objective pair of this individual.
    #[must_use]
    pub fn objectives(&self) -> Objectives {
        self.eval.objectives()
    }
}

/// Configuration of the cellular multi-objective engine.
#[derive(Debug, Clone)]
pub struct MoCellConfig {
    /// Population grid height.
    pub pop_height: usize,
    /// Population grid width.
    pub pop_width: usize,
    /// Neighbourhood pattern (default C9, the cMA's tuned choice).
    pub neighborhood: Neighborhood,
    /// Cell visit order per generation.
    pub sweep: SweepOrder,
    /// External archive capacity.
    pub archive_capacity: usize,
    /// Probability that the second parent comes from the archive.
    pub archive_feedback: f64,
    /// Recombination operator.
    pub crossover: Crossover,
    /// Mutation operator, applied to each child with
    /// [`MoCellConfig::mutation_rate`].
    pub mutation: Mutation,
    /// Per-child mutation probability.
    pub mutation_rate: f64,
    /// Local-search method improving each child (the memetic step).
    pub local_search: LocalSearchKind,
    /// Local-search iterations per child.
    pub ls_iterations: usize,
    /// Scalarisation ladder guiding local search: each improvement draws
    /// one λ uniformly from this grid.
    pub lambda_grid: Vec<f64>,
    /// Heuristic seeding the first individual.
    pub seeding: ConstructiveKind,
    /// Perturbation strength deriving the rest of the population.
    pub perturb_strength: f64,
    /// Stopping condition. The scalar the runner sees is the negated
    /// archive hypervolume, so a target fitness (if configured) acts on
    /// `-hypervolume`.
    pub stop: StopCondition,
}

impl MoCellConfig {
    /// Defaults mirroring the cMA's Table 1 where applicable: 5×5 grid,
    /// C9 neighbourhood, one-point crossover, rebalance mutation, LMCTS
    /// local search with 5 iterations, LJFR-SJFR seeding. The
    /// MO-specific knobs (archive 100, feedback 0.2, mutation rate
    /// 0.35, λ ladder {0, ¼, ½, ¾, 1}) follow common MOCell practice.
    #[must_use]
    pub fn suggested() -> Self {
        Self {
            pop_height: 5,
            pop_width: 5,
            neighborhood: Neighborhood::C9,
            sweep: SweepOrder::FixedLineSweep,
            archive_capacity: 100,
            archive_feedback: 0.2,
            crossover: Crossover::OnePoint,
            mutation: Mutation::Rebalance,
            mutation_rate: 0.35,
            local_search: LocalSearchKind::Lmcts,
            ls_iterations: 5,
            lambda_grid: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            seeding: ConstructiveKind::LjfrSjfr,
            perturb_strength: 0.5,
            stop: StopCondition::paper_time(),
        }
    }

    /// Replaces the stopping condition.
    #[must_use]
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Replaces the neighbourhood pattern.
    #[must_use]
    pub fn with_neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.neighborhood = neighborhood;
        self
    }

    /// Replaces the local-search method (e.g. `None` for a plain
    /// cellular MO GA ablation).
    #[must_use]
    pub fn with_local_search(mut self, kind: LocalSearchKind) -> Self {
        self.local_search = kind;
        self
    }

    /// Runs the engine on `problem` with RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid configurations.
    #[must_use]
    pub fn run(&self, problem: &Problem, seed: u64) -> MoCellOutcome {
        run(self, problem, seed)
    }

    fn validate(&self) {
        assert!(
            self.pop_height > 0 && self.pop_width > 0,
            "empty population grid"
        );
        assert!(
            self.archive_capacity > 0,
            "archive capacity must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.archive_feedback),
            "archive feedback must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_rate),
            "mutation rate must be a probability"
        );
        assert!(
            !self.lambda_grid.is_empty(),
            "lambda grid must not be empty"
        );
        assert!(
            self.lambda_grid.iter().all(|l| (0.0..=1.0).contains(l)),
            "every lambda must be within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.perturb_strength),
            "perturbation strength must be within [0, 1]"
        );
        assert!(
            self.stop.is_bounded(),
            "unbounded run: configure a stopping condition"
        );
    }
}

impl Default for MoCellConfig {
    fn default() -> Self {
        Self::suggested()
    }
}

/// One hypervolume sample of the archive (per generation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HvSample {
    /// Generation index (0 = after initialisation).
    pub generation: u64,
    /// Children generated so far.
    pub children: u64,
    /// Archive size at the sample.
    pub archive_len: usize,
    /// Archive hypervolume w.r.t. [`MoCellOutcome::reference`].
    pub hypervolume: f64,
}

/// Result of one MoCell run.
#[derive(Debug, Clone)]
pub struct MoCellOutcome {
    /// The final archive (the approximated Pareto front).
    pub archive: CrowdingArchive,
    /// Generations completed (full sweeps of the grid).
    pub generations: u64,
    /// Children generated.
    pub children: u64,
    /// Children that replaced their cell.
    pub replacements: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// RNG seed of the run.
    pub seed: u64,
    /// Hypervolume reference point (fixed after initialisation: the
    /// initial population's worst objectives + 10 %).
    pub reference: Objectives,
    /// Hypervolume of the archive per generation.
    pub hv_trace: Vec<HvSample>,
}

impl MoCellOutcome {
    /// The non-dominated solutions found, ascending by makespan.
    #[must_use]
    pub fn front(&self) -> &[MoSolution] {
        self.archive.solutions()
    }
}

/// [`MoCellConfig`] as a step-driven [`Metaheuristic`]: each step breeds
/// one child; a generation closes after one full sweep of the grid.
///
/// The best-so-far scalar reported to the shared runner is the
/// **negated archive hypervolume** — improvements mean "the dominated
/// region grew". Target-fitness stops therefore act on `-hypervolume`.
pub struct MoCellEngine<'a> {
    config: &'a MoCellConfig,
    problem: &'a Problem,
    rng: SmallRng,
    /// Scalarisation ladder for the memetic step. Objectives are
    /// weight-independent, so all ladder entries share the instance data.
    ladder: Vec<Problem>,
    torus: Torus,
    population: Vec<MoIndividual>,
    archive: CrowdingArchive,
    reference: Objectives,
    sweep: SweepState,
    neighbors: Vec<usize>,
    /// Children bred in the current sweep.
    sweep_pos: usize,
    generations: u64,
    children: u64,
    replacements: u64,
    hv_trace: Vec<HvSample>,
    /// Archive hypervolume, refreshed at generation boundaries only —
    /// recomputing per accepted child would cost O(archive log archive)
    /// on every runner poll and shrink the children/second throughput
    /// the equal-budget comparisons depend on.
    front_hv: f64,
}

impl<'a> MoCellEngine<'a> {
    /// Initialises the grid population, the archive and the hypervolume
    /// reference point.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid configurations.
    #[must_use]
    pub fn new(config: &'a MoCellConfig, problem: &'a Problem, seed: u64) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let torus = Torus::new(config.pop_height, config.pop_width);

        let ladder: Vec<Problem> = config
            .lambda_grid
            .iter()
            .map(|&lambda| problem.reweighted(FitnessWeights::new(lambda)))
            .collect();

        // Initial population: heuristic seed + large perturbations, each
        // improved under a randomly drawn λ.
        let seed_schedule = config.seeding.build_seeded(problem, &mut rng);
        let mut population = Vec::with_capacity(torus.len());
        population.push(MoIndividual::new(problem, seed_schedule.clone()));
        for _ in 1..torus.len() {
            let perturbed = perturb(problem, &seed_schedule, config.perturb_strength, &mut rng);
            population.push(MoIndividual::new(problem, perturbed));
        }
        for individual in &mut population {
            let guide = &ladder[rng.gen_range(0..ladder.len())];
            config.local_search.run(
                guide,
                &mut individual.schedule,
                &mut individual.eval,
                &mut rng,
                config.ls_iterations,
            );
        }

        let mut archive = CrowdingArchive::new(config.archive_capacity);
        for individual in &population {
            archive.offer(MoSolution {
                schedule: individual.schedule.clone(),
                objectives: individual.objectives(),
            });
        }
        let initial_objectives: Vec<Objectives> =
            population.iter().map(MoIndividual::objectives).collect();
        let reference = reference_point(&[&initial_objectives], 0.10);

        let sweep = SweepState::new(config.sweep, torus.len(), &mut rng);
        let initial_hv = hypervolume(&archive.objectives(), reference);
        let hv_trace = vec![HvSample {
            generation: 0,
            children: 0,
            archive_len: archive.len(),
            hypervolume: initial_hv,
        }];
        Self {
            config,
            problem,
            rng,
            ladder,
            torus,
            population,
            archive,
            reference,
            sweep,
            neighbors: Vec::new(),
            sweep_pos: 0,
            generations: 0,
            children: 0,
            replacements: 0,
            hv_trace,
            front_hv: initial_hv,
        }
    }

    /// Consumes the engine into the classic outcome report.
    #[must_use]
    pub fn into_outcome(self, stats: RunStats, seed: u64) -> MoCellOutcome {
        MoCellOutcome {
            archive: self.archive,
            generations: stats.iterations,
            children: stats.children,
            replacements: self.replacements,
            elapsed: stats.elapsed,
            seed,
            reference: self.reference,
            hv_trace: self.hv_trace,
        }
    }
}

impl Metaheuristic for MoCellEngine<'_> {
    fn name(&self) -> &'static str {
        "MoCell"
    }

    fn step(&mut self) {
        let cell = self.sweep.next_cell(&mut self.rng);
        self.config
            .neighborhood
            .collect(self.torus, cell, &mut self.neighbors);

        // Parent 1: dominance tournament inside the neighbourhood.
        let first = dominance_tournament(&self.population, &self.neighbors, &mut self.rng);
        // Parent 2: archive feedback, else a second tournament.
        let second_schedule = if !self.archive.is_empty()
            && self.rng.gen::<f64>() < self.config.archive_feedback
        {
            let pick = self.rng.gen_range(0..self.archive.len());
            self.archive.solutions()[pick].schedule.clone()
        } else {
            self.population[dominance_tournament(&self.population, &self.neighbors, &mut self.rng)]
                .schedule
                .clone()
        };

        let child_schedule = self.config.crossover.apply(
            &self.population[first].schedule,
            &second_schedule,
            &mut self.rng,
        );
        let mut child = MoIndividual::new(self.problem, child_schedule);
        if self.rng.gen::<f64>() < self.config.mutation_rate {
            self.config.mutation.apply(
                self.problem,
                &mut child.schedule,
                &mut child.eval,
                &mut self.rng,
            );
        }
        let guide = &self.ladder[self.rng.gen_range(0..self.ladder.len())];
        self.config.local_search.run(
            guide,
            &mut child.schedule,
            &mut child.eval,
            &mut self.rng,
            self.config.ls_iterations,
        );
        self.children += 1;

        // Dominance-first replacement; crowded-comparison tie-break.
        let child_objectives = child.objectives();
        let replace = match compare(child_objectives, self.population[cell].objectives()) {
            ParetoOrdering::Dominates => true,
            ParetoOrdering::DominatedBy | ParetoOrdering::Equal => false,
            ParetoOrdering::Incomparable => {
                less_crowded_than_cell(&self.population, &self.neighbors, cell, child_objectives)
            }
        };
        self.archive.offer(MoSolution {
            schedule: child.schedule.clone(),
            objectives: child_objectives,
        });
        if replace {
            self.population[cell] = child;
            self.replacements += 1;
        }

        self.sweep_pos += 1;
        if self.sweep_pos == self.torus.len() {
            self.sweep_pos = 0;
            self.generations += 1;
            self.front_hv = hypervolume(&self.archive.objectives(), self.reference);
            self.hv_trace.push(HvSample {
                generation: self.generations,
                children: self.children,
                archive_len: self.archive.len(),
                hypervolume: self.front_hv,
            });
        }
    }

    fn iterations(&self) -> u64 {
        self.generations
    }

    fn children(&self) -> u64 {
        self.children
    }

    fn best_fitness(&self) -> f64 {
        -self.front_hv
    }

    /// Objectives of the archive member optimal under the problem's
    /// **active objective** (λ-blended fitness) — a realizable point, so
    /// racing harnesses rank the engine by a schedule it can actually
    /// surrender, not by the unattainable ideal point.
    fn best_objectives(&self) -> Objectives {
        match archive_best(self.problem, &self.archive) {
            Some(best) => best.objectives,
            None => ideal_point(&self.archive.objectives()),
        }
    }

    /// The archive member optimal under the active λ (see
    /// [`archive_best`]) — the warm-start extraction that lets this
    /// dominance engine join the racing portfolio roster.
    fn best_schedule(&self) -> Option<&Schedule> {
        archive_best(self.problem, &self.archive).map(|best| &best.schedule)
    }

    /// Archive-aware warm start: the offer is evaluated and submitted to
    /// the external archive under its usual dominance rules — rejected
    /// when dominated by (or duplicating) a member, evicting members it
    /// dominates, and displacing the worst-crowding entry at capacity.
    /// Archive feedback then channels accepted elites into breeding
    /// without touching the RNG stream or the grid population, so
    /// injection never perturbs determinism. `inject(best_schedule())`
    /// is a no-op: the member's objectives are already archived, so the
    /// duplicate is rejected.
    fn inject(&mut self, schedule: &Schedule) -> bool {
        self.archive.offer(MoSolution {
            schedule: schedule.clone(),
            objectives: evaluate(self.problem, schedule),
        })
    }
}

/// The archived solution minimising the problem's active scalarised
/// fitness (λ-blended; ties keep the earliest entry, i.e. the lowest
/// makespan since archives sort by makespan).
pub(crate) fn archive_best<'a>(
    problem: &Problem,
    archive: &'a CrowdingArchive,
) -> Option<&'a MoSolution> {
    archive
        .solutions()
        .iter()
        .enumerate()
        .min_by(|a, b| {
            problem
                .fitness(a.1.objectives)
                .total_cmp(&problem.fitness(b.1.objectives))
                .then(a.0.cmp(&b.0))
        })
        .map(|(_, solution)| solution)
}

/// Componentwise minimum of a front — the ideal point.
pub(crate) fn ideal_point(front: &[Objectives]) -> Objectives {
    let mut ideal = Objectives {
        makespan: f64::INFINITY,
        flowtime: f64::INFINITY,
    };
    for o in front {
        ideal.makespan = ideal.makespan.min(o.makespan);
        ideal.flowtime = ideal.flowtime.min(o.flowtime);
    }
    ideal
}

/// Runs the configured engine through the shared runner (see
/// [`MoCellConfig::run`]).
#[must_use]
pub fn run(config: &MoCellConfig, problem: &Problem, seed: u64) -> MoCellOutcome {
    // lint:allow(no-wall-clock-in-sim): legit wall-clock budget anchor — same contract as the ga engines: opt-in time limit plus informational elapsed, never a tick-domain input.
    let start = Instant::now();
    let mut engine = MoCellEngine::new(config, problem, seed);
    let stats = Runner::new(config.stop).run_from(start, &mut engine, &mut []);
    engine.into_outcome(stats, seed)
}

/// Binary dominance tournament over `pool` (cell indices): the dominant
/// contender wins; incomparable or equal contenders tie-break by coin
/// flip.
fn dominance_tournament(
    population: &[MoIndividual],
    pool: &[usize],
    rng: &mut dyn RngCore,
) -> usize {
    debug_assert!(!pool.is_empty());
    let a = pool[rng.gen_range(0..pool.len())];
    let b = pool[rng.gen_range(0..pool.len())];
    match compare(population[a].objectives(), population[b].objectives()) {
        ParetoOrdering::Dominates => a,
        ParetoOrdering::DominatedBy => b,
        ParetoOrdering::Incomparable | ParetoOrdering::Equal => {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
    }
}

/// The crowded-comparison replacement test: within the objectives of
/// `cell`'s neighbourhood plus the child, does the child have at least
/// the cell's crowding distance (i.e. sit in a less crowded region)?
fn less_crowded_than_cell(
    population: &[MoIndividual],
    neighbors: &[usize],
    cell: usize,
    child: Objectives,
) -> bool {
    let mut objectives: Vec<Objectives> = neighbors
        .iter()
        .map(|&i| population[i].objectives())
        .collect();
    let cell_position = neighbors
        .iter()
        .position(|&i| i == cell)
        .expect("neighbourhoods always contain their centre");
    objectives.push(child);
    let crowding = crowding_distances(&objectives);
    crowding[objectives.len() - 1] >= crowding[cell_position]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::braun;

    fn problem() -> Problem {
        let class: cmags_etc::InstanceClass = "u_c_hihi.0".parse().unwrap();
        Problem::from_instance(&braun::generate(class.with_dims(96, 8), 0))
    }

    fn quick() -> MoCellConfig {
        MoCellConfig::suggested().with_stop(StopCondition::children(300))
    }

    #[test]
    fn runs_with_exact_children_budget() {
        let outcome = quick().run(&problem(), 7);
        assert_eq!(outcome.children, 300);
        assert!(outcome.generations >= 300 / 25 - 1);
        assert!(outcome.replacements <= outcome.children);
        assert!(!outcome.archive.is_empty());
    }

    #[test]
    fn archive_is_consistent_and_reevaluates() {
        let p = problem();
        let outcome = quick().run(&p, 11);
        assert!(outcome.archive.is_consistent());
        for solution in outcome.front() {
            let fresh = cmags_core::evaluate(&p, &solution.schedule);
            assert_eq!(fresh, solution.objectives);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let a = quick().run(&p, 3);
        let b = quick().run(&p, 3);
        assert_eq!(a.archive.objectives(), b.archive.objectives());
        assert_eq!(a.children, b.children);
        let c = quick().run(&p, 4);
        assert_ne!(
            a.archive.objectives(),
            c.archive.objectives(),
            "different seeds explore differently (overwhelmingly likely)"
        );
    }

    #[test]
    fn hypervolume_improves_over_initialisation() {
        let outcome = quick().run(&problem(), 5);
        let first = outcome.hv_trace.first().unwrap().hypervolume;
        let last = outcome.hv_trace.last().unwrap().hypervolume;
        assert!(
            last > first,
            "search must grow the dominated region: {first} -> {last}"
        );
    }

    #[test]
    fn front_spans_a_makespan_flowtime_trade_off() {
        // With λ ∈ {0,…,1} guiding local search, the archive should hold
        // more than one point on a non-trivial instance.
        let outcome = MoCellConfig::suggested()
            .with_stop(StopCondition::children(600))
            .run(&problem(), 13);
        assert!(
            outcome.front().len() >= 2,
            "expected a front, got {} point(s)",
            outcome.front().len()
        );
    }

    #[test]
    fn no_local_search_ablation_still_runs() {
        let outcome = quick()
            .with_local_search(LocalSearchKind::None)
            .run(&problem(), 17);
        assert_eq!(outcome.children, 300);
        assert!(outcome.archive.is_consistent());
    }

    #[test]
    fn best_schedule_is_the_lambda_optimal_archive_member() {
        use cmags_core::engine::Runner;
        use cmags_core::Objective;
        let p = problem();
        for objective in [
            Objective::classic(),
            Objective::weighted(0.5),
            Objective::mean_flowtime(),
        ] {
            let retargeted = p.retargeted(objective);
            let config = quick();
            let mut engine = MoCellEngine::new(&config, &retargeted, 7);
            let _ = Runner::new(StopCondition::children(150)).run_traced(&mut engine);
            let best = engine.best_schedule().expect("archive is never empty");
            let best_fitness = retargeted.fitness(cmags_core::evaluate(&retargeted, best));
            let archive_min = engine
                .archive
                .solutions()
                .iter()
                .map(|s| retargeted.fitness(s.objectives))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                best_fitness.to_bits(),
                archive_min.to_bits(),
                "λ={}: extraction must minimise the active fitness",
                objective.lambda()
            );
            assert_eq!(
                engine.best_objectives(),
                cmags_core::evaluate(&retargeted, best),
                "best_objectives must describe the extractable schedule"
            );
        }
    }

    #[test]
    fn inject_of_own_best_is_a_noop_on_the_archive() {
        use cmags_core::engine::Runner;
        let p = problem();
        let config = quick();
        let mut engine = MoCellEngine::new(&config, &p, 3);
        let _ = Runner::new(StopCondition::children(120)).run_traced(&mut engine);
        let before = engine.archive.objectives();
        let elite = engine.best_schedule().expect("archive non-empty").clone();
        assert!(
            !engine.inject(&elite),
            "re-offering an archived member must be rejected"
        );
        assert_eq!(engine.archive.objectives(), before, "archive unchanged");
    }

    #[test]
    fn inject_accepts_a_non_dominated_elite() {
        // A fresh engine's archive holds only the initial population; a
        // schedule refined by a dedicated scalarised search is not
        // dominated by it and must enter under the dominance rules.
        let p = problem();
        let config = quick();
        let mut engine = MoCellEngine::new(&config, &p, 5);
        let refined = cmags_cma::CmaConfig::paper()
            .with_stop(StopCondition::children(600))
            .run(&p, 11)
            .schedule;
        let before = engine.archive.objectives();
        assert!(engine.inject(&refined), "elite must enter the archive");
        assert_ne!(engine.archive.objectives(), before);
        assert!(engine.archive.is_consistent());
    }

    #[test]
    #[should_panic(expected = "unbounded run")]
    fn unbounded_config_rejected() {
        let config = MoCellConfig::suggested().with_stop(StopCondition::default());
        let _ = config.run(&problem(), 0);
    }

    #[test]
    #[should_panic(expected = "lambda grid")]
    fn empty_lambda_grid_rejected() {
        let mut config = quick();
        config.lambda_grid.clear();
        let _ = config.run(&problem(), 0);
    }
}
