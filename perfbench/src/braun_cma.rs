//! `braun_cma`: the paper's static benchmark. The Table 1 cMA under a
//! fixed iteration budget on all twelve 512×16 Braun classes, against
//! Min-Min on the same instances. A run covers three suites,
//! `braun::generate_suite(0, s)` for three streams `s` derived from the
//! seed, so that its figures average over 36 instances.

use std::path::Path;
use std::time::Instant;

use cmags_core::{Objectives, Problem};
use cmags_etc::{braun, GridInstance, InstanceClass};

use crate::json::Json;
use crate::layers::{self, EngineTrace};
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{Outcome, Timer};

/// cMA iterations per instance solve.
pub const ITERATIONS: u64 = 100;
/// Suites per run.
const SUITES: usize = 3;
/// Solves between two timed set-ups (the median set-up is reported).
const SETUP_EVERY: usize = 6;

/// The static inputs: the suites' instances, their problems and the
/// Min-Min reference of each.
struct Suite {
    instances: Vec<GridInstance>,
    problems: Vec<Problem>,
    minmin: Vec<Objectives>,
}

/// Builds the suites: instance generation, `Problem` build and the
/// Min-Min reference of every instance. With `spans`, each call is
/// recorded.
fn set_up(seed: u64, mut spans: Option<&mut Spans>) -> Suite {
    let mut span = |name: &'static str, start: Instant| {
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(name, start, Instant::now());
        }
    };
    let mut suite = Suite {
        instances: Vec::new(),
        problems: Vec::new(),
        minmin: Vec::new(),
    };
    let streams = (0..SUITES).map(|k| layers::derive_seed(seed, k));
    for (stream, class) in streams.flat_map(|s| {
        InstanceClass::braun_suite(0)
            .into_iter()
            .map(move |c| (s, c))
    }) {
        let start = Instant::now();
        let instance = braun::generate(class, stream);
        span("etc.braun.generate", start);
        let start = Instant::now();
        let problem = Problem::from_instance(&instance);
        span("core.problem.build", start);
        let start = Instant::now();
        let reference = layers::minmin_reference(&problem);
        span("heuristics.constructive.minmin", start);
        suite.instances.push(instance);
        suite.problems.push(problem);
        suite.minmin.push(reference);
    }
    suite
}

/// Times one set-up into `setup_s`.
fn timed_set_up(seed: u64, setup_s: &mut Vec<f64>) -> Suite {
    let start = Instant::now();
    let suite = set_up(seed, None);
    setup_s.push(start.elapsed().as_secs_f64());
    suite
}

pub fn run(seed: u64, seconds: f64, traced: bool, spans_out: Option<&Path>) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let suite = timed_set_up(seed, &mut setup_s);
    if traced {
        return run_traced(&suite, seed, out, spans_out);
    }

    // One solve of every instance, then more, cycling through the
    // instances, while the budget allows. Set-up is timed again every
    // few solves, so that its median spans the run.
    let timer = Timer::start(seconds);
    let config = layers::paper_cma(ITERATIONS);
    let n = suite.problems.len();
    let mut solves: Vec<layers::Solve> = Vec::new();
    while solves.len() < n
        || timer.has_room_for(solves.iter().map(|s| s.wall_s).sum::<f64>() / solves.len() as f64)
    {
        let index = solves.len() % n;
        let solve = layers::solve_checked(
            &config,
            &suite.problems[index],
            layers::derive_seed(seed, index),
            &mut out,
            None,
        );
        if solves.len() >= n {
            out.check(
                solve.outcome.schedule == solves[index].outcome.schedule,
                "repeated solves agree",
            );
        }
        solves.push(solve);
        if solves.len().is_multiple_of(SETUP_EVERY) {
            timed_set_up(seed, &mut setup_s);
        }
    }

    let (iters_per_s, jobs_per_s) = layers::solve_rates(solves.iter());
    let plan_ms: Vec<f64> = solves.iter().map(|s| s.wall_s * 1e3).collect();
    let (makespan_ratio, flowtime_ratio, mean_response) =
        layers::quality(&solves[..n], &suite.minmin);
    out.metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("cma_iters_per_s", iters_per_s, "1/s"),
        ("makespan_ratio", makespan_ratio, "ratio"),
        ("flowtime_ratio", flowtime_ratio, "ratio"),
        ("jobs_per_s", jobs_per_s, "1/s"),
        ("plan_p50_ms", median(&plan_ms), "ms"),
        ("mean_response_s", mean_response, "s"),
    ];
    out.detail = Json::obj()
        .with("solves", plan_ms.len())
        .with("plan_ms", plan_ms.clone())
        .with("iterations_per_solve", ITERATIONS)
        .with("setup_samples", setup_s.len())
        .with(
            "output_digest",
            format!("{:016x}", layers::digest(&solves[..n])),
        );
    out
}

/// One untraced and one traced pass over the first suite (their
/// outputs must agree), then the layer probes on it.
fn run_traced(suite: &Suite, seed: u64, mut out: Outcome, spans_out: Option<&Path>) -> Outcome {
    let first = &suite.problems[..InstanceClass::braun_suite(0).len()];
    let untraced = layers::solve_each(first, ITERATIONS, seed, &mut out, None);

    let mut spans = Spans::new();
    let root = spans.enter("bench.braun_cma");
    let setup = spans.enter("bench.setup");
    set_up(seed, Some(&mut spans));
    spans.exit(setup);
    let mut engine = EngineTrace::default();
    let traced = layers::solve_each(
        first,
        ITERATIONS,
        seed,
        &mut out,
        Some((&mut spans, &mut engine)),
    );
    let (digest, traced_digest) = (
        layers::digest(&untraced.solves),
        layers::digest(&traced.solves),
    );
    out.check(
        traced_digest == digest,
        "traced pass matches the untraced pass",
    );
    let probes = spans.enter("bench.layer_probes");
    let layer_times = layers::probe_layers(&suite.instances[..first.len()], seed, &mut spans);
    spans.exit(probes);
    spans.exit(root);

    let generate_ms: Vec<f64> = spans
        .spans_named("etc.braun.generate")
        .map(|ns| ns as f64 / 1e6)
        .collect();
    out.metrics = vec![("etc.braun.generate_ms", median(&generate_ms), "ms")];
    out.metrics.extend(layer_times.metrics());
    out.metrics.extend(engine.metrics());
    out.metrics.extend(crate::grid::no_sim_metrics());
    let plan_ms: Vec<f64> = untraced.solves.iter().map(|s| s.wall_s * 1e3).collect();
    out.metrics
        .push(("plan_p99_ms", quantile(&plan_ms, 0.99), "ms"));
    out.metrics.push((
        "bench.trace_overhead_pct",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0,
        "%",
    ));
    out.detail = Json::obj()
        .with("untraced_wall_s", untraced.wall_s)
        .with("traced_wall_s", traced.wall_s)
        .with("output_digest", format!("{digest:016x}"))
        .with("traced_output_digest", format!("{traced_digest:016x}"))
        .with("spans", spans.len())
        .with("self_time", spans.self_time_json());
    crate::write_spans(&spans, spans_out);
    out
}
