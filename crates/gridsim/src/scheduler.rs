//! Batch schedulers pluggable into the simulator.
//!
//! At every activation the simulator snapshots pending jobs and alive
//! machines into a [`GridInstance`] — the exact static problem of
//! `cmags-core` with non-zero ready times — and asks a `BatchScheduler`
//! for a [`Schedule`]. This is the paper's dynamic-scheduler construction:
//! "running the cMA-based scheduler in batch mode … to schedule jobs
//! arriving to the system since the last activation".

use cmags_cma::{CmaConfig, CmaEngine, StopCondition};
use cmags_core::telemetry::MetricsRegistry;
use cmags_core::{Objective, Problem, Schedule};
use cmags_etc::GridInstance;
use cmags_heuristics::constructive::ConstructiveKind;
use cmags_mo::{MoCellConfig, MoCellEngine, Nsga2Config, Nsga2Engine};
use cmags_portfolio::{entry_seed, race, Contender, PortfolioConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Display name of an objective-aware scheduler: the base name, tagged
/// with the response weight when it deviates from the classic λ = 0
/// (via `Objective`'s readable display rounding, so a `--lambda 0.3`
/// scheduler is named `cMA[λ=0.3]`, not the raw Q32 quantisation).
fn objective_name(base: &str, objective: Objective) -> String {
    if objective.is_classic() {
        base.to_owned()
    } else {
        format!("{base}[λ={objective}]")
    }
}

/// A scheduler invoked in batch mode by the simulator.
pub trait BatchScheduler {
    /// Name used in reports.
    fn name(&self) -> String;

    /// Plans every job of `instance` onto its machines. `seed` is unique
    /// per activation, so stochastic schedulers stay reproducible.
    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule;

    /// Telemetry the scheduler accumulated across activations, if it
    /// keeps any (the racing portfolio tags counters per contender per
    /// round; the stateless schedulers return `None`).
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }
}

/// Wraps any constructive heuristic as a batch scheduler.
#[derive(Debug, Clone)]
pub struct HeuristicScheduler {
    kind: ConstructiveKind,
}

impl HeuristicScheduler {
    /// Creates a scheduler from a heuristic kind.
    #[must_use]
    pub fn new(kind: ConstructiveKind) -> Self {
        Self { kind }
    }
}

impl BatchScheduler for HeuristicScheduler {
    fn name(&self) -> String {
        self.kind.name().to_owned()
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let problem = Problem::from_instance(instance);
        let mut rng = SmallRng::seed_from_u64(seed);
        self.kind.build_seeded(&problem, &mut rng)
    }
}

/// The cMA as a batch scheduler — the paper's proposal.
///
/// Each activation runs the configured cMA on the snapshot under the
/// configured budget (default: 2000 children, roughly tens of
/// milliseconds on 512-job batches — "a very short time").
#[derive(Debug, Clone)]
pub struct CmaScheduler {
    config: CmaConfig,
    objective: Objective,
}

impl CmaScheduler {
    /// cMA scheduler with the paper's Table 1 configuration and the given
    /// per-activation budget.
    #[must_use]
    pub fn new(budget: StopCondition) -> Self {
        Self {
            config: CmaConfig::paper().with_stop(budget),
            objective: Objective::classic(),
        }
    }

    /// cMA scheduler with a custom configuration.
    #[must_use]
    pub fn with_config(config: CmaConfig) -> Self {
        Self {
            config,
            objective: Objective::classic(),
        }
    }

    /// Retargets every activation's batch problem at the given response
    /// objective (λ). The simulation's event RNG is untouched — only the
    /// scalarisation the engine optimises changes.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }
}

impl Default for CmaScheduler {
    fn default() -> Self {
        Self::new(StopCondition::children(2000))
    }
}

impl BatchScheduler for CmaScheduler {
    fn name(&self) -> String {
        objective_name("cMA", self.objective)
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let problem = Problem::from_instance(instance).targeting(self.objective);
        // Tiny batches: the grid population would dwarf the problem; fall
        // back to the seeding heuristic directly.
        if instance.nb_jobs() < 2 || instance.nb_machines() < 2 {
            let mut rng = SmallRng::seed_from_u64(seed);
            return self.config.seeding.build_seeded(&problem, &mut rng);
        }
        self.config.run(&problem, seed).schedule
    }
}

/// A racing portfolio as a batch scheduler: every activation races a
/// cMA, SA, Tabu and steady-state GA engine — plus the dominance-based
/// MoCell and NSGA-II, whose archive-aware warm-start hooks let them
/// exchange elites with the scalarised engines — over the snapshot
/// under one shared children budget, with successive-halving
/// elimination and broadcast elite sharing ([`cmags_portfolio`]). The
/// paper's cMA wins on some ETC consistency regimes and loses on
/// others; a dynamic grid drifts through regimes as machines come and
/// go, so racing per batch picks the right engine for the snapshot at
/// hand instead of betting the whole trace on one.
#[derive(Debug, Clone)]
pub struct PortfolioScheduler {
    /// Per-activation budget: `max_children` is the total children
    /// shared by the contenders (default 2000 when unset); any
    /// time/target bounds cap every contender exactly as they cap the
    /// single-engine schedulers.
    budget: StopCondition,
    /// Per-activation cMA configuration.
    cma: CmaConfig,
    /// Response objective every contender optimises (and the race ranks
    /// on).
    objective: Objective,
    /// Per-contender race telemetry, accumulated across activations:
    /// wins, children/iterations, per-round survival. Tick-domain only
    /// (counts, never wall-clock), so its contents are deterministic
    /// per `(config, seed)`.
    metrics: MetricsRegistry,
}

impl PortfolioScheduler {
    /// Portfolio scheduler racing under `budget` per activation: the
    /// children bound (default 2000) is the **shared** total split
    /// across contenders by successive halving (rounded up slightly
    /// when tiny — see
    /// [`PortfolioConfig::successive_halving`]), while a wall-clock or
    /// target-fitness bound applies to the whole race, so comparisons
    /// against single-engine schedulers under the same `budget` are
    /// equal-effort on every axis. A time bound costs determinism,
    /// exactly as it does for the single-engine schedulers.
    #[must_use]
    pub fn new(budget: StopCondition) -> Self {
        Self {
            budget,
            cma: CmaConfig::paper(),
            objective: Objective::classic(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Retargets every activation's race (engine scalarisations and the
    /// race ranking alike) at the given response objective (λ).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The accumulated per-contender race telemetry. Keys are dotted
    /// paths under `portfolio.`: per contender `<name>.wins`,
    /// `<name>.children`, `<name>.iterations`, a
    /// `<name>.children_per_activation` histogram, and per-round
    /// participation counters `<name>.round.<r>.raced` (a contender
    /// "races" every round up to the one it is frozen in).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Folds one race outcome into the registry, tagged per contender
    /// and per round.
    fn record_race(&mut self, outcome: &cmags_portfolio::PortfolioOutcome) {
        self.metrics.counter("portfolio.activations").inc();
        let total_rounds = outcome.rounds.len() as u64;
        self.metrics
            .histogram("portfolio.rounds")
            .record(total_rounds);
        self.metrics
            .counter(&format!("portfolio.{}.wins", outcome.winner_name))
            .inc();
        for entry in &outcome.entries {
            let name = entry.name.as_str();
            self.metrics
                .counter(&format!("portfolio.{name}.children"))
                .add(entry.children);
            self.metrics
                .counter(&format!("portfolio.{name}.iterations"))
                .add(entry.iterations);
            self.metrics
                .histogram(&format!("portfolio.{name}.children_per_activation"))
                .record(entry.children);
            let last_round = entry.eliminated_in.unwrap_or(total_rounds);
            for round in 1..=last_round {
                self.metrics
                    .counter(&format!("portfolio.{name}.round.{round}.raced"))
                    .inc();
            }
        }
    }
}

impl Default for PortfolioScheduler {
    /// The same 2000-children default budget as the single-engine
    /// schedulers — equal total effort, split by the race.
    fn default() -> Self {
        Self::new(StopCondition::children(2000))
    }
}

impl BatchScheduler for PortfolioScheduler {
    fn name(&self) -> String {
        objective_name("Portfolio", self.objective)
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(&self.metrics)
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let problem = Problem::from_instance(instance).targeting(self.objective);
        // Tiny batches: racing (or even evolving) is pointless; fall
        // back to the cMA scheduler's seeding heuristic directly.
        if instance.nb_jobs() < 2 || instance.nb_machines() < 2 {
            let mut rng = SmallRng::seed_from_u64(seed);
            return self.cma.seeding.build_seeded(&problem, &mut rng);
        }
        let sa = cmags_ga::SimulatedAnnealing::default();
        let tabu = cmags_ga::TabuSearch::default();
        let ssga = cmags_ga::SteadyStateGa::default();
        // The dominance engines hold whole fronts; their archive-aware
        // hooks surrender (and absorb) the member optimal under the
        // active λ, so they race the scalarised field on equal terms.
        let mocell = MoCellConfig::suggested();
        let nsga2 = Nsga2Config::suggested().with_population(30);
        let contenders: Vec<Contender<'_>> = vec![
            Contender::new(
                "cMA",
                Box::new(CmaEngine::new(&self.cma, &problem, entry_seed(seed, 0))),
            ),
            Contender::new("SA", Box::new(sa.engine(&problem, entry_seed(seed, 1)))),
            Contender::new("Tabu", Box::new(tabu.engine(&problem, entry_seed(seed, 2)))),
            Contender::new(
                "SS-GA",
                Box::new(ssga.engine(&problem, entry_seed(seed, 3))),
            ),
            Contender::new(
                "MoCell",
                Box::new(MoCellEngine::new(&mocell, &problem, entry_seed(seed, 4))),
            ),
            Contender::new(
                "NSGA-II",
                Box::new(Nsga2Engine::new(&nsga2, &problem, entry_seed(seed, 5))),
            ),
        ];
        let total_children = self.budget.max_children.unwrap_or(2000);
        let config = PortfolioConfig::successive_halving(contenders.len(), total_children)
            .with_stop(self.budget);
        let outcome = race(&config, contenders, |o| problem.fitness(o));
        self.record_race(&outcome);
        outcome
            .best_schedule
            .expect("every contender exposes a best schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::EtcMatrix;

    fn instance() -> GridInstance {
        let etc = EtcMatrix::from_fn(24, 4, |j, m| 1.0 + ((j * 7 + m * 3) % 10) as f64);
        GridInstance::with_ready_times("snap", etc, vec![5.0, 0.0, 2.0, 1.0])
    }

    #[test]
    fn heuristic_scheduler_is_deterministic_and_complete() {
        let mut s = HeuristicScheduler::new(ConstructiveKind::MinMin);
        let inst = instance();
        let a = s.schedule(&inst, 1);
        let b = s.schedule(&inst, 1);
        assert_eq!(a, b);
        assert_eq!(a.nb_jobs(), 24);
        assert_eq!(s.name(), "Min-Min");
    }

    #[test]
    fn cma_scheduler_produces_feasible_schedules() {
        let mut s = CmaScheduler::new(StopCondition::children(100));
        let inst = instance();
        let schedule = s.schedule(&inst, 3);
        assert!(Schedule::try_new(schedule.assignment().to_vec(), 24, 4).is_ok());
    }

    #[test]
    fn cma_beats_random_on_snapshot() {
        let inst = instance();
        let problem = Problem::from_instance(&inst);
        let mut cma = CmaScheduler::new(StopCondition::children(300));
        let mut random = HeuristicScheduler::new(ConstructiveKind::Random);
        let cma_fit = problem.fitness(cmags_core::evaluate(&problem, &cma.schedule(&inst, 5)));
        let rnd_fit = problem.fitness(cmags_core::evaluate(&problem, &random.schedule(&inst, 5)));
        assert!(cma_fit < rnd_fit);
    }

    #[test]
    fn cma_handles_degenerate_batches() {
        let etc = EtcMatrix::from_rows(1, 1, vec![3.0]);
        let inst = GridInstance::new("tiny", etc);
        let mut s = CmaScheduler::default();
        let schedule = s.schedule(&inst, 0);
        assert_eq!(schedule.assignment(), &[0]);
    }

    #[test]
    fn portfolio_scheduler_is_deterministic_feasible_and_competitive() {
        let inst = instance();
        let problem = Problem::from_instance(&inst);
        let mut a = PortfolioScheduler::new(StopCondition::children(400));
        let mut b = PortfolioScheduler::new(StopCondition::children(400));
        let plan = a.schedule(&inst, 7);
        assert_eq!(plan, b.schedule(&inst, 7), "deterministic per seed");
        assert!(Schedule::try_new(plan.assignment().to_vec(), 24, 4).is_ok());
        assert_eq!(a.name(), "Portfolio");
        let fitness_of =
            |schedule: &Schedule| problem.fitness(cmags_core::evaluate(&problem, schedule));
        let rnd = fitness_of(&HeuristicScheduler::new(ConstructiveKind::Random).schedule(&inst, 7));
        assert!(fitness_of(&plan) < rnd, "portfolio must beat random");
    }

    #[test]
    fn objective_retargeted_schedulers_are_named_and_feasible() {
        use cmags_core::Objective;
        let inst = instance();
        let response = Objective::mean_flowtime();
        let mut cma = CmaScheduler::new(StopCondition::children(150)).with_objective(response);
        assert_eq!(cma.name(), "cMA[λ=1]");
        assert_eq!(
            CmaScheduler::new(StopCondition::children(1))
                .with_objective(Objective::weighted(0.3))
                .name(),
            "cMA[λ=0.3]",
            "non-dyadic weights must display readably"
        );
        assert_eq!(
            CmaScheduler::new(StopCondition::children(1)).name(),
            "cMA",
            "classic objective keeps the bare name"
        );
        let plan = cma.schedule(&inst, 3);
        assert!(Schedule::try_new(plan.assignment().to_vec(), 24, 4).is_ok());
        let mut portfolio =
            PortfolioScheduler::new(StopCondition::children(300)).with_objective(response);
        assert_eq!(portfolio.name(), "Portfolio[λ=1]");
        let plan = portfolio.schedule(&inst, 3);
        assert!(Schedule::try_new(plan.assignment().to_vec(), 24, 4).is_ok());
    }

    #[test]
    fn lambda_one_cma_prefers_flowtime_on_the_snapshot() {
        // On the same snapshot and seed, the λ=1 scheduler's plan must
        // score at least as well on mean flowtime as the classic plan
        // scores (they optimise different scalarisations).
        use cmags_core::Objective;
        let inst = instance();
        let problem = Problem::from_instance(&inst);
        let budget = StopCondition::children(400);
        let classic = CmaScheduler::new(budget).schedule(&inst, 9);
        let response = CmaScheduler::new(budget)
            .with_objective(Objective::mean_flowtime())
            .schedule(&inst, 9);
        let flowtime = |s: &Schedule| cmags_core::evaluate(&problem, s).flowtime;
        assert!(
            flowtime(&response) <= flowtime(&classic),
            "λ=1 plan ({}) must not lose to classic ({}) on flowtime",
            flowtime(&response),
            flowtime(&classic)
        );
    }

    #[test]
    fn portfolio_metrics_tag_per_contender_per_round() {
        let inst = instance();
        let mut s = PortfolioScheduler::new(StopCondition::children(400));
        let _ = s.schedule(&inst, 7);
        let _ = s.schedule(&inst, 8);
        let m = s.metrics();
        assert_eq!(m.counter_value("portfolio.activations"), 2);
        // Exactly one winner per activation.
        let wins: u64 = m
            .counters()
            .filter(|(k, _)| k.ends_with(".wins"))
            .map(|(_, c)| c.get())
            .sum();
        assert_eq!(wins, 2, "one win per activation");
        // Every contender raced round 1 of both activations, and its
        // per-activation children histogram has one sample per race.
        for name in ["cMA", "SA", "Tabu", "SS-GA", "MoCell", "NSGA-II"] {
            assert_eq!(
                m.counter_value(&format!("portfolio.{name}.round.1.raced")),
                2,
                "{name} must race round 1 of every activation"
            );
            assert!(
                m.counter_value(&format!("portfolio.{name}.children")) > 0,
                "{name} must generate children"
            );
            let h = m
                .get_histogram(&format!("portfolio.{name}.children_per_activation"))
                .expect("histogram tagged per contender");
            assert_eq!(h.count(), 2, "{name}: one sample per activation");
        }
        // Successive halving freezes somebody before the last round, so
        // later rounds have fewer racers than round 1.
        let raced = |round: u64| -> u64 {
            m.counters()
                .filter(|(k, _)| k.ends_with(&format!(".round.{round}.raced")))
                .map(|(_, c)| c.get())
                .sum()
        };
        let rounds = m.get_histogram("portfolio.rounds").expect("recorded");
        assert_eq!(rounds.count(), 2);
        let last = rounds.max().expect("non-empty");
        if last > 1 {
            assert!(
                raced(last) < raced(1),
                "elimination must thin the field by round {last}"
            );
        }
    }

    #[test]
    fn portfolio_scheduler_handles_degenerate_batches() {
        let etc = EtcMatrix::from_rows(1, 1, vec![3.0]);
        let inst = GridInstance::new("tiny", etc);
        let mut s = PortfolioScheduler::default();
        assert_eq!(s.schedule(&inst, 0).assignment(), &[0]);
    }
}
