//! The grid workloads: a dynamic grid simulated end to end under the
//! MCT batch scheduler, with every `schedule` call timed by a
//! pass-through wrapper. A sample of the activation snapshots the
//! scheduler saw is kept, and after the simulation the paper cMA plans
//! those real batches against Min-Min.

use std::path::Path;
use std::time::Instant;

use cmags_cma::CmaConfig;
use cmags_core::telemetry::Phase;
use cmags_core::{Objectives, Problem, Schedule};
use cmags_etc::{braun, Consistency, EtcMatrix, GridInstance, Heterogeneity, InstanceClass};
use cmags_gridsim::scheduler::{BatchScheduler, HeuristicScheduler};
use cmags_gridsim::{
    ticks_to_time, ArrivalProcess, ChurnModel, FailureModel, RecoveryPolicy, RetryPolicy,
    SimConfig, SimReport, Simulation,
};
use cmags_heuristics::constructive::ConstructiveKind;

use crate::json::Json;
use crate::layers::{self, EngineTrace, Solve};
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::{Metric, Outcome, Timer};

/// One grid workload.
pub struct GridWorkload {
    config: SimConfig,
    /// Simulations, each on its own derived seed, that the quality
    /// metrics pool over (more run when the time budget allows).
    quality_sims: usize,
    /// Snapshot sample of the first simulation: after every
    /// `keep_every` activations, keep the next one with at least
    /// `batch_jobs` pending jobs, up to `keep_max` snapshots.
    keep_every: u64,
    keep_max: usize,
    /// The cMA plans the first `batch_jobs` jobs of each kept snapshot:
    /// a fixed batch shape keeps its iteration rate comparable across
    /// seeds.
    batch_jobs: usize,
    /// cMA iterations per kept batch.
    cma_iterations: u64,
}

/// `grid_wide`: 4000 consistent lolo machines under Poisson arrivals at
/// 8 jobs/s for 25 000 s, activated every 25 s (≈ 200 × 4000 batches).
pub fn grid_wide() -> GridWorkload {
    GridWorkload {
        config: SimConfig::heavy_traffic(4000, 8.0, 25_000.0, 25.0),
        quality_sims: 4,
        keep_every: 80,
        keep_max: 12,
        batch_jobs: 128,
        cma_iterations: 40,
    }
}

/// `grid_faulty`: 128 consistent lolo machines under flash-crowd
/// arrivals, mild churn, execution noise, transient failures and
/// crash/repair cycles, absorbed by backoff retries, checkpoints,
/// blacklisting and ETC inflation (≈ 12 × 115 batches).
pub fn grid_faulty() -> GridWorkload {
    let base = SimConfig::heavy_traffic(128, 0.3, 1.5e6, 25.0);
    GridWorkload {
        config: SimConfig {
            arrivals: ArrivalProcess::FlashCrowd {
                base_rate: 0.3,
                spike_rate: 1e-4,
                burst: 500,
            },
            churn: ChurnModel::Independent {
                join_rate: 2e-5,
                leave_rate: 2e-5,
            },
            execution_noise: 0.2,
            failures: FailureModel::Faulty {
                job_fail_rate: 5e-4,
                mtbf: 2e4,
                mttr: 1e3,
            },
            recovery: RecoveryPolicy {
                retry: RetryPolicy::ExponentialBackoff {
                    base: 50.0,
                    cap: 800.0,
                    jitter: 0.25,
                    give_up_after: 8,
                },
                checkpoint_every: Some(100.0),
                blacklist_after: Some(3),
                probation: 2e3,
                etc_inflation: true,
            },
            ..base
        },
        quality_sims: 24,
        keep_every: 800,
        keep_max: 64,
        batch_jobs: 16,
        cma_iterations: 400,
    }
}

/// The first `rows` jobs of a snapshot, on all its machines.
fn first_rows(instance: &GridInstance, rows: usize) -> GridInstance {
    let cells = rows * instance.nb_machines();
    let etc = EtcMatrix::from_rows(
        rows,
        instance.nb_machines(),
        instance.etc().as_slice()[..cells].to_vec(),
    );
    GridInstance::with_ready_times(instance.name(), etc, instance.ready_times().to_vec())
}

/// The snapshot sample (see [`GridWorkload`]).
struct Sampler {
    every: u64,
    max: usize,
    min_jobs: usize,
    /// Keep whole snapshots (the traced run's layer probes need them)
    /// rather than their first `min_jobs` rows.
    whole: bool,
    next_at: u64,
    kept: Vec<GridInstance>,
}

/// What the wrapper records per `schedule` call.
struct PlanLog {
    plan_ms: Vec<f64>,
    /// Σ jobs × machines over the activations.
    cells: u64,
    sampler: Option<Sampler>,
    spans: Option<Spans>,
}

impl PlanLog {
    fn new(sampler: Option<Sampler>, spans: Option<Spans>) -> Self {
        Self {
            plan_ms: Vec::new(),
            cells: 0,
            sampler,
            spans,
        }
    }

    fn note(&mut self, start: Instant, instance: &GridInstance) {
        let end = Instant::now();
        self.plan_ms
            .push(end.duration_since(start).as_secs_f64() * 1e3);
        self.cells += (instance.nb_jobs() * instance.nb_machines()) as u64;
        if let Some(spans) = self.spans.as_mut() {
            spans.record("gridsim.scheduler.schedule", start, end);
        }
        if let Some(s) = self.sampler.as_mut() {
            let index = self.plan_ms.len() as u64;
            if index >= s.next_at && instance.nb_jobs() >= s.min_jobs && s.kept.len() < s.max {
                s.kept.push(if s.whole {
                    instance.clone()
                } else {
                    first_rows(instance, s.min_jobs)
                });
                s.next_at = index + s.every;
            }
        }
    }

    fn kept(&self) -> &[GridInstance] {
        self.sampler.as_ref().map_or(&[], |s| &s.kept)
    }
}

/// Pass-through scheduler timing each `schedule` call. This is the only
/// code tied to the `BatchScheduler` signature; it stays one forwarding
/// call.
struct Timed<'a> {
    inner: HeuristicScheduler,
    log: &'a mut PlanLog,
}

impl BatchScheduler for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let start = Instant::now();
        let schedule = self.inner.schedule(instance, seed);
        self.log.note(start, instance);
        schedule
    }
}

/// One simulation: its report and the wall time of `Simulation::run`.
struct SimRun {
    report: SimReport,
    wall_s: f64,
}

impl GridWorkload {
    fn sampler(&self, whole: bool) -> Sampler {
        Sampler {
            every: self.keep_every,
            max: self.keep_max,
            min_jobs: self.batch_jobs,
            whole,
            next_at: 0,
            kept: Vec::new(),
        }
    }

    fn build(&self, seed: u64) -> Simulation {
        Simulation::new(self.config.clone(), seed)
    }

    fn simulate(&self, sim: Simulation, log: &mut PlanLog, out: &mut Outcome) -> SimRun {
        let mut scheduler = Timed {
            inner: HeuristicScheduler::new(ConstructiveKind::Mct),
            log,
        };
        let start = Instant::now();
        let report = sim.run(&mut scheduler);
        let wall_s = start.elapsed().as_secs_f64();
        out.check(
            report.jobs_completed + report.jobs_dropped == report.jobs_submitted,
            "completed + dropped == submitted",
        );
        SimRun { report, wall_s }
    }

    /// The sampled batches: the first `batch_jobs` jobs of each kept
    /// snapshot, with their Min-Min reference.
    fn prepare(&self, kept: &[GridInstance]) -> Batches {
        let instances: Vec<GridInstance> = kept
            .iter()
            .map(|s| first_rows(s, self.batch_jobs))
            .collect();
        let minmin = (instances.iter())
            .map(|instance| layers::minmin_reference(&Problem::from_instance(instance)))
            .collect();
        Batches { instances, minmin }
    }
}

/// Sampled batches, ready for the cMA. Each batch's `Problem` is built
/// when it is solved, so that the batches stay small while the
/// simulations run.
struct Batches {
    instances: Vec<GridInstance>,
    minmin: Vec<Objectives>,
}

impl Batches {
    /// Solves batch `index` with the paper cMA.
    fn solve(
        &self,
        config: &CmaConfig,
        index: usize,
        seed: u64,
        out: &mut Outcome,
        trace: Option<(&mut Spans, &mut EngineTrace)>,
    ) -> Solve {
        let problem = Problem::from_instance(&self.instances[index]);
        layers::solve_checked(
            config,
            &problem,
            layers::derive_seed(seed, index),
            out,
            trace,
        )
    }

    /// (makespan ratio, flowtime ratio, cMA iterations per second,
    /// output digest) of one solve per batch.
    fn score(&self, solves: &[Solve]) -> (f64, f64, f64, u64) {
        let (makespan_ratio, flowtime_ratio, _) = layers::quality(solves, &self.minmin);
        let (iters_per_s, _) = layers::solve_rates(solves.iter());
        (
            makespan_ratio,
            flowtime_ratio,
            iters_per_s,
            layers::digest(solves),
        )
    }
}

fn same_digests(a: &SimReport, b: &SimReport) -> bool {
    a.event_digest == b.event_digest && a.fault_digest == b.fault_digest
}

pub fn run(
    workload: &GridWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_out: Option<&Path>,
) -> Outcome {
    let mut out = Outcome::default();
    if traced {
        return run_traced(workload, seed, out, spans_out);
    }

    // Simulations on derived seeds 0, 1, … : at least `quality_sims`,
    // then more while the budget allows. The first keeps the batch
    // sample.
    let timer = Timer::start(seconds);
    let mut log = PlanLog::new(Some(workload.sampler(false)), None);
    let first = workload.simulate(
        workload.build(layers::derive_seed(seed, 0)),
        &mut log,
        &mut out,
    );
    let mut plan_ms = std::mem::take(&mut log.plan_ms);

    // Set-up: everything the run prepares but does not measure, i.e.
    // constructing a simulation and cutting the batches and planning
    // their Min-Min reference. It is timed again after every
    // simulation, so that its median spans the run.
    let mut setup_s = Vec::new();
    let set_up = |kept: &[GridInstance], setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let sim = workload.build(layers::derive_seed(seed, 0));
        let batches = workload.prepare(kept);
        setup_s.push(start.elapsed().as_secs_f64());
        drop(sim);
        batches
    };
    let batches = set_up(log.kept(), &mut setup_s);
    drop(log);
    out.check(
        !batches.instances.is_empty(),
        "the snapshot sample holds batches",
    );

    // The paper cMA plans the batches in chunks, one after each of the
    // first `quality_sims` simulations, so that its rate is measured
    // across the run rather than in one stretch.
    let config = layers::paper_cma(workload.cma_iterations);
    let chunk = batches.instances.len().div_ceil(workload.quality_sims);
    let mut solves = Vec::new();
    let mut runs = vec![first];
    loop {
        let end = (solves.len() + chunk).min(batches.instances.len());
        for index in solves.len()..end {
            solves.push(batches.solve(&config, index, seed, &mut out, None));
        }
        if runs.len() >= workload.quality_sims && !timer.has_room_for(runs[runs.len() - 1].wall_s) {
            break;
        }
        let sim = workload.build(layers::derive_seed(seed, runs.len()));
        let mut log = PlanLog::new(None, None);
        runs.push(workload.simulate(sim, &mut log, &mut out));
        plan_ms.extend(log.plan_ms);
        // Cutting an already cut batch copies it whole: the same work.
        set_up(&batches.instances, &mut setup_s);
    }
    let (makespan_ratio, flowtime_ratio, iters_per_s, cma_digest) = batches.score(&solves);

    let completed: u64 = runs.iter().map(|r| r.report.jobs_completed).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    let pooled = &runs[..workload.quality_sims];
    let response: f64 = pooled.iter().map(|r| r.report.total_response).sum();
    let responded: u64 = pooled.iter().map(|r| r.report.jobs_completed).sum();
    out.metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("cma_iters_per_s", iters_per_s, "1/s"),
        ("makespan_ratio", makespan_ratio, "ratio"),
        ("flowtime_ratio", flowtime_ratio, "ratio"),
        ("jobs_per_s", completed as f64 / wall, "1/s"),
        ("plan_p50_ms", median(&plan_ms), "ms"),
        ("mean_response_s", response / responded as f64, "s"),
    ];
    let report = &runs[0].report;
    out.detail = Json::obj()
        .with("simulations", runs.len())
        .with(
            "sim_wall_s",
            runs.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        )
        .with("plan_samples", plan_ms.len())
        .with("setup_samples", setup_s.len())
        .with("jobs_submitted", report.jobs_submitted)
        .with("events", report.events_processed)
        .with("activations", report.activations)
        .with("event_digest", format!("{:016x}", report.event_digest))
        .with("fault_digest", format!("{:016x}", report.fault_digest))
        .with("cma_output_digest", format!("{cma_digest:016x}"));
    out
}

/// One untraced and one traced simulation of the first derived seed
/// (their digests must agree), then the layer probes and a traced cMA
/// on the snapshots the traced simulation kept.
fn run_traced(
    workload: &GridWorkload,
    seed: u64,
    mut out: Outcome,
    spans_out: Option<&Path>,
) -> Outcome {
    let sim_seed = layers::derive_seed(seed, 0);
    let mut log = PlanLog::new(None, None);
    let untraced = workload.simulate(workload.build(sim_seed), &mut log, &mut out);
    let plan_p99_ms = quantile(&log.plan_ms, 0.99);

    let mut spans = Spans::new();
    let root = spans.enter("bench.grid");
    let run_span = spans.enter("gridsim.sim.run");
    let mut log = PlanLog::new(Some(workload.sampler(true)), Some(spans));
    let sim = workload.build(sim_seed).with_profiling();
    let traced = workload.simulate(sim, &mut log, &mut out);
    let mut spans = log.spans.take().expect("traced log keeps its spans");
    spans.exit(run_span);
    out.check(
        same_digests(&untraced.report, &traced.report),
        "traced simulation matches the untraced one",
    );

    let generate = spans.enter("bench.generate_probe");
    // The grid's world is the consistent lo/lo Braun class.
    let mut generate_ms = Vec::new();
    for index in 0..12 {
        let class = InstanceClass::new(
            Consistency::Consistent,
            Heterogeneity::Lo,
            Heterogeneity::Lo,
            index,
        );
        let start = Instant::now();
        std::hint::black_box(braun::generate(class, seed));
        let end = Instant::now();
        spans.record("etc.braun.generate", start, end);
        generate_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
    }
    spans.exit(generate);
    let probes = spans.enter("bench.layer_probes");
    let layer_times = layers::probe_layers(log.kept(), seed, &mut spans);
    spans.exit(probes);
    let mut engine = EngineTrace::default();
    let batches = workload.prepare(log.kept());
    let config = layers::paper_cma(workload.cma_iterations);
    let solves: Vec<Solve> = (0..batches.instances.len())
        .map(|index| {
            batches.solve(
                &config,
                index,
                seed,
                &mut out,
                Some((&mut spans, &mut engine)),
            )
        })
        .collect();
    let cma_digest = layers::digest(&solves);
    spans.exit(root);

    out.metrics = vec![("etc.braun.generate_ms", median(&generate_ms), "ms")];
    out.metrics.extend(layer_times.metrics());
    out.metrics.extend(engine.metrics());
    out.metrics.extend(sim_metrics(&traced.report, &log));
    out.metrics.push(("plan_p99_ms", plan_p99_ms, "ms"));
    out.metrics.push((
        "bench.trace_overhead_pct",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0,
        "%",
    ));
    out.detail = Json::obj()
        .with("untraced_wall_s", untraced.wall_s)
        .with("traced_wall_s", traced.wall_s)
        .with(
            "event_digest",
            format!("{:016x}", untraced.report.event_digest),
        )
        .with(
            "traced_event_digest",
            format!("{:016x}", traced.report.event_digest),
        )
        .with(
            "fault_digest",
            format!("{:016x}", untraced.report.fault_digest),
        )
        .with(
            "traced_fault_digest",
            format!("{:016x}", traced.report.fault_digest),
        )
        .with("kept_snapshots", log.kept().len())
        .with("cma_output_digest", format!("{cma_digest:016x}"))
        .with("spans", spans.len())
        .with("self_time", spans.self_time_json());
    crate::write_spans(&spans, spans_out);
    out
}

/// The `gridsim.*` per-layer metrics of a profiled simulation.
fn sim_metrics(report: &SimReport, log: &PlanLog) -> Vec<Metric> {
    let phases = &report.telemetry.phases;
    let snapshot_s = phases.wall_s(Phase::SnapshotBuild);
    let activations = report.activations as f64;
    vec![
        (
            "gridsim.site.snapshot_share",
            phases.share(Phase::SnapshotBuild),
            "ratio",
        ),
        (
            "gridsim.scheduler.plan_share",
            phases.share(Phase::Scheduler),
            "ratio",
        ),
        (
            "gridsim.sim.dispatch_share",
            phases.share(Phase::Dispatch),
            "ratio",
        ),
        (
            "gridsim.event.queue_share",
            phases.share(Phase::Queue),
            "ratio",
        ),
        (
            "gridsim.fault.fault_share",
            phases.share(Phase::FaultHandling),
            "ratio",
        ),
        (
            "gridsim.site.snapshot_us_per_activation",
            ratio(snapshot_s * 1e6, activations),
            "us",
        ),
        (
            "gridsim.site.snapshot_ns_per_cell",
            ratio(snapshot_s * 1e9, log.cells as f64),
            "ns",
        ),
        (
            "gridsim.event.queue_ns_per_event",
            ratio(
                phases.wall_s(Phase::Queue) * 1e9,
                report.events_processed as f64,
            ),
            "ns",
        ),
        ("gridsim.sim.activations", activations, "count"),
        (
            "gridsim.sim.events",
            report.events_processed as f64,
            "count",
        ),
        (
            "gridsim.scheduler.batch_cells_mean",
            ratio(log.cells as f64, activations),
            "count",
        ),
        (
            "gridsim.fault.job_failures",
            report.job_failures as f64,
            "count",
        ),
        (
            "gridsim.fault.machine_crashes",
            report.machine_crashes as f64,
            "count",
        ),
        (
            "gridsim.fault.retries_scheduled",
            report.telemetry.retries_scheduled as f64,
            "count",
        ),
        (
            "gridsim.sim.resubmissions",
            report.resubmissions as f64,
            "count",
        ),
        (
            "gridsim.sim.jobs_dropped",
            report.jobs_dropped as f64,
            "count",
        ),
        (
            "gridsim.fault.wasted_share",
            ratio(
                ticks_to_time(report.wasted_ticks as i64),
                report.busy_machine_seconds,
            ),
            "ratio",
        ),
        ("gridsim.sim.utilization", report.utilization(), "ratio"),
    ]
}

/// The `gridsim.*` metrics of a workload that runs no simulation: every
/// one is zero.
pub fn no_sim_metrics() -> Vec<Metric> {
    sim_metrics(&SimReport::default(), &PlanLog::new(None, None))
}
