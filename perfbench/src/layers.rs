//! Calls into the scheduling layers, shared by every workload: the cMA
//! solve (`cma.engine`), the per-layer timing probes of the traced run
//! (`core.problem`, `heuristics.constructive`, `heuristics.local_search`,
//! `core.eval`) and the output check.

use std::hint::black_box;
use std::time::Instant;

use cmags_cma::{CmaConfig, CmaEngine, CmaOutcome, StopCondition};
use cmags_core::engine::{Metaheuristic, Observer, Snapshot};
use cmags_core::{evaluate, EvalState, Objectives, Problem, Runner, Schedule, ScoreBuf};
use cmags_etc::GridInstance;
use cmags_heuristics::constructive::ConstructiveKind;
use cmags_heuristics::local_search::LocalSearchKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;
use crate::stats::{fnv_fold, geomean, median, quantile, ratio};
use crate::Outcome;

/// The paper's Table 1 cMA, single-threaded, under a fixed iteration
/// budget (so its schedules are a deterministic function of the inputs).
pub fn paper_cma(iterations: u64) -> CmaConfig {
    CmaConfig::paper().with_stop(StopCondition::iterations(iterations))
}

/// The `index`-th seed derived from the workload seed (per-problem cMA
/// seeds, per-simulation seeds).
pub fn derive_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (index as u64 + 1)
}

/// Whether `schedule` re-evaluates from scratch to exactly `claimed`.
pub fn reevaluates_to(problem: &Problem, schedule: &Schedule, claimed: Objectives) -> bool {
    let fresh = evaluate(problem, schedule);
    fresh.makespan.to_bits() == claimed.makespan.to_bits()
        && fresh.flowtime.to_bits() == claimed.flowtime.to_bits()
}

/// Timestamps every completed engine iteration (the first mark is the
/// run's iteration-0 baseline).
#[derive(Default)]
struct IterationMarks {
    marks: Vec<Instant>,
}

impl Observer for IterationMarks {
    fn on_iteration(&mut self, _snapshot: &Snapshot, _engine: &dyn Metaheuristic) {
        self.marks.push(Instant::now());
    }
}

/// One cMA solve through `CmaEngine` + `Runner`.
pub struct Solve {
    pub outcome: CmaOutcome,
    /// Wall time of the whole solve (engine construction included).
    pub wall_s: f64,
}

/// Solves `problem` with no tracing: the only clock reads are the two
/// around the whole solve.
pub fn solve(config: &CmaConfig, problem: &Problem, seed: u64) -> Solve {
    let start = Instant::now();
    let mut engine = CmaEngine::new(config, problem, seed);
    let stats = Runner::new(config.stop).run(&mut engine, &mut []);
    let outcome = engine.into_outcome(stats, Vec::new(), Vec::new());
    Solve {
        outcome,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Engine-level figures gathered by [`solve_traced`].
#[derive(Debug, Default)]
pub struct EngineTrace {
    init_ms: Vec<f64>,
    iter_ms: Vec<f64>,
    children: u64,
    accepted: u64,
    ls_improvements: u64,
    /// Local-search calls: one per initial individual and one per child.
    ls_calls: u64,
    ls_iterations: u64,
}

/// Solves `problem` inside a `cma.engine.solve` span, with child spans
/// for engine construction and for every iteration.
pub fn solve_traced(
    config: &CmaConfig,
    problem: &Problem,
    seed: u64,
    spans: &mut Spans,
    trace: &mut EngineTrace,
) -> Solve {
    let start = Instant::now();
    let root = spans.enter("cma.engine.solve");
    let mut engine = CmaEngine::new(config, problem, seed);
    let built = Instant::now();
    spans.record("cma.engine.new", start, built);
    let mut marks = IterationMarks::default();
    let stats = Runner::new(config.stop).run(&mut engine, &mut [&mut marks]);
    let outcome = engine.into_outcome(stats, Vec::new(), Vec::new());
    let end = Instant::now();
    for pair in marks.marks.windows(2) {
        spans.record("cma.engine.iteration", pair[0], pair[1]);
        trace
            .iter_ms
            .push(pair[1].duration_since(pair[0]).as_secs_f64() * 1e3);
    }
    spans.exit_at(root, end);
    let wall_s = end.duration_since(start).as_secs_f64();
    trace
        .init_ms
        .push(built.duration_since(start).as_secs_f64() * 1e3);
    trace.children += outcome.children;
    trace.accepted += outcome.accepted;
    trace.ls_improvements += outcome.ls_improvements;
    trace.ls_calls += outcome.children + config.population_size() as u64;
    trace.ls_iterations = config.ls_iterations as u64;
    Solve { outcome, wall_s }
}

/// Solves `problem` and checks the returned schedule against a
/// from-scratch evaluation. With `trace`, the solve is traced.
pub fn solve_checked(
    config: &CmaConfig,
    problem: &Problem,
    seed: u64,
    out: &mut Outcome,
    trace: Option<(&mut Spans, &mut EngineTrace)>,
) -> Solve {
    let solve = match trace {
        Some((spans, engine)) => solve_traced(config, problem, seed, spans, engine),
        None => solve(config, problem, seed),
    };
    let outcome = &solve.outcome;
    out.check(
        reevaluates_to(problem, &outcome.schedule, outcome.objectives),
        "cMA schedule re-evaluates to its reported objectives",
    );
    solve
}

/// Digest of every returned schedule and its objectives, in order.
pub fn digest(solves: &[Solve]) -> u64 {
    let mut digest = 0;
    for solve in solves {
        let (objectives, schedule) = (solve.outcome.objectives, &solve.outcome.schedule);
        fnv_fold(
            &mut digest,
            [objectives.makespan.to_bits(), objectives.flowtime.to_bits()],
        );
        fnv_fold(
            &mut digest,
            schedule.assignment().iter().map(|&m| u64::from(m)),
        );
    }
    digest
}

/// One checked cMA solve of every problem of a set, in order.
pub struct Pass {
    pub solves: Vec<Solve>,
    pub wall_s: f64,
}

/// Solves every problem with the paper cMA under `iterations`, the
/// `i`-th with seed `derive_seed(seed, i)`.
pub fn solve_each(
    problems: &[Problem],
    iterations: u64,
    seed: u64,
    out: &mut Outcome,
    mut trace: Option<(&mut Spans, &mut EngineTrace)>,
) -> Pass {
    let config = paper_cma(iterations);
    let start = Instant::now();
    let solves = (problems.iter().enumerate())
        .map(|(index, problem)| {
            let trace = trace
                .as_mut()
                .map(|(spans, engine)| (&mut **spans, &mut **engine));
            solve_checked(&config, problem, derive_seed(seed, index), out, trace)
        })
        .collect();
    Pass {
        solves,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The Min-Min schedule's objectives: the quality reference.
pub fn minmin_reference(problem: &Problem) -> Objectives {
    evaluate(problem, &ConstructiveKind::MinMin.build(problem))
}

/// Plan quality of one solve per problem: geometric means over the
/// problems of the cMA / Min-Min makespan and flowtime ratios, and of
/// the mean completion time per job (every job of a batch is released
/// at 0, so this is the batch's mean response time).
pub fn quality(solves: &[Solve], minmin: &[Objectives]) -> (f64, f64, f64) {
    let cma = || solves.iter().map(|s| &s.outcome);
    let makespan: Vec<f64> = cma()
        .zip(minmin)
        .map(|(c, m)| c.objectives.makespan / m.makespan)
        .collect();
    let flowtime: Vec<f64> = cma()
        .zip(minmin)
        .map(|(c, m)| c.objectives.flowtime / m.flowtime)
        .collect();
    let response: Vec<f64> = cma()
        .map(|c| c.objectives.flowtime / c.schedule.nb_jobs() as f64)
        .collect();
    (geomean(&makespan), geomean(&flowtime), geomean(&response))
}

/// cMA iterations and jobs planned per second of solve wall time.
pub fn solve_rates<'a>(solves: impl Iterator<Item = &'a Solve> + Clone) -> (f64, f64) {
    let wall: f64 = solves.clone().map(|s| s.wall_s).sum();
    let iterations: u64 = solves.clone().map(|s| s.outcome.iterations).sum();
    let jobs: usize = solves.map(|s| s.outcome.schedule.nb_jobs()).sum();
    (iterations as f64 / wall, jobs as f64 / wall)
}

impl EngineTrace {
    /// The `cma.engine.*` per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("cma.engine.init_ms", median(&self.init_ms), "ms"),
            ("cma.engine.iter_ms_p50", median(&self.iter_ms), "ms"),
            (
                "cma.engine.iter_ms_p99",
                quantile(&self.iter_ms, 0.99),
                "ms",
            ),
            ("cma.engine.children", self.children as f64, "count"),
            (
                "cma.engine.accept_ratio",
                ratio(self.accepted as f64, self.children as f64),
                "ratio",
            ),
            (
                "cma.engine.ls_improve_ratio",
                ratio(
                    self.ls_improvements as f64,
                    (self.ls_calls * self.ls_iterations) as f64,
                ),
                "ratio",
            ),
        ]
    }
}

/// Per-call timings of the layers below the engine, measured on a set
/// of instances by the traced run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    build_ms: Vec<f64>,
    minmin_ms: Vec<f64>,
    mct_ms: Vec<f64>,
    lmcts_ms: Vec<f64>,
    peek_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    score_ns: Vec<f64>,
}

/// Moves per timed `peek_move` / `apply_move` loop.
const EVAL_MOVES: usize = 4096;
/// Jobs whose every target machine is scored per `score_moves` loop.
const SCORE_JOBS: usize = 32;
/// LMCTS passes timed per instance.
const LMCTS_PASSES: usize = 8;

/// Runs `f` in a span named `name` and returns its value and wall time
/// in milliseconds.
fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    spans.record(name, start, end);
    (out, end.duration_since(start).as_secs_f64() * 1e3)
}

/// Times the public layer calls on every instance: `Problem` build,
/// Min-Min, MCT, one paper-length LMCTS pass, and `EvalState`
/// peek/apply/score loops on the LJFR-SJFR seed schedule.
pub fn probe_layers(instances: &[GridInstance], seed: u64, spans: &mut Spans) -> LayerTimes {
    let mut times = LayerTimes::default();
    let ls_iterations = CmaConfig::paper().ls_iterations;
    for (index, instance) in instances.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, index));
        let (problem, ms) = timed(spans, "core.problem.build", || {
            Problem::from_instance(instance)
        });
        times.build_ms.push(ms);
        let (_, ms) = timed(spans, "heuristics.constructive.minmin", || {
            black_box(ConstructiveKind::MinMin.build(&problem))
        });
        times.minmin_ms.push(ms);
        let (_, ms) = timed(spans, "heuristics.constructive.mct", || {
            black_box(ConstructiveKind::Mct.build(&problem))
        });
        times.mct_ms.push(ms);

        let seed_schedule = ConstructiveKind::LjfrSjfr.build(&problem);
        let seed_eval = EvalState::new(&problem, &seed_schedule);
        for _ in 0..LMCTS_PASSES {
            let mut schedule = seed_schedule.clone();
            let mut eval = seed_eval.clone();
            let (_, ms) = timed(spans, "heuristics.local_search.lmcts", || {
                LocalSearchKind::Lmcts.run(
                    &problem,
                    &mut schedule,
                    &mut eval,
                    &mut rng,
                    ls_iterations,
                )
            });
            times.lmcts_ms.push(ms);
        }

        let (jobs, machines) = (problem.nb_jobs() as u32, problem.nb_machines() as u32);
        let moves: Vec<(u32, u32)> = (0..EVAL_MOVES)
            .map(|_| (rng.gen_range(0..jobs), rng.gen_range(0..machines)))
            .collect();
        let (_, ms) = timed(spans, "core.eval.peek_move", || {
            for &(job, to) in &moves {
                black_box(seed_eval.peek_move(&problem, &seed_schedule, job, to));
            }
        });
        times.peek_ns.push(ms * 1e6 / EVAL_MOVES as f64);
        let mut schedule = seed_schedule.clone();
        let mut eval = seed_eval.clone();
        let (_, ms) = timed(spans, "core.eval.apply_move", || {
            for &(job, to) in &moves {
                eval.apply_move(&problem, &mut schedule, job, to);
            }
        });
        black_box(eval.objectives());
        times.apply_ns.push(ms * 1e6 / EVAL_MOVES as f64);
        let candidates: Vec<(u32, u32)> = (0..SCORE_JOBS)
            .flat_map(|_| {
                let job = rng.gen_range(0..jobs);
                (0..machines).map(move |m| (job, m))
            })
            .collect();
        let mut out = ScoreBuf::new();
        let (_, ms) = timed(spans, "core.eval.score_moves", || {
            seed_eval.score_moves(&problem, &seed_schedule, &candidates, &mut out);
        });
        black_box(out.len());
        times.score_ns.push(ms * 1e6 / candidates.len() as f64);
    }
    times
}

impl LayerTimes {
    /// The per-layer metrics these timings feed.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "heuristics.constructive.minmin_ms",
                median(&self.minmin_ms),
                "ms",
            ),
            (
                "heuristics.local_search.lmcts_ms",
                median(&self.lmcts_ms),
                "ms",
            ),
            ("core.eval.peek_move_ns", median(&self.peek_ns), "ns"),
            ("core.eval.apply_move_ns", median(&self.apply_ns), "ns"),
            (
                "core.eval.score_moves_ns_per_move",
                median(&self.score_ns),
                "ns",
            ),
            ("core.problem.build_ms_p50", median(&self.build_ms), "ms"),
            (
                "heuristics.constructive.mct_ms_p50",
                median(&self.mct_ms),
                "ms",
            ),
        ]
    }
}
