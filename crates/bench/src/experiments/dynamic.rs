//! DYN: the dynamic-scheduler experiment (paper §1/§6 claim).
//!
//! Runs the discrete-event simulator with the cMA in periodic batch mode
//! against the racing portfolio and the fast constructive baselines,
//! sweeping the whole [`ScenarioFamily`] catalog (calm, churny, bursty,
//! diurnal, flash-crowd, degrading, volatile, flaky, crashy) — or the
//! `--families` subset — and, when `--lambda` names several response
//! weights, the tunable objective axis: each λ retargets the
//! metaheuristic batch schedulers at
//! `(1-λ)·classic_fitness + λ·mean_flowtime`, probing whether they can
//! close the mean-response gap to Min-Min.
//!
//! The historical record `BENCH_scenarios.json` holds this sweep at
//! `--lambda 0,0.5,1 --budget-children 2000`, averaged over seeds 1–3
//! (one `--seed` per run).

use std::io;
use std::path::Path;

use cmags_cma::StopCondition;
use cmags_core::telemetry::{MetricsRegistry, Phase};
use cmags_core::Objective;
use cmags_gridsim::scheduler::{
    BatchScheduler, CmaScheduler, HeuristicScheduler, PortfolioScheduler,
};
use cmags_gridsim::{ScenarioFamily, SimConfig, Simulation, TelemetryReport};
use cmags_heuristics::constructive::ConstructiveKind;

use crate::args::Ctx;
use crate::report::{fmt_value, Table};

/// The λ-targetable metaheuristic schedulers of the roster (the racing
/// portfolio gets the same per-activation budget as the cMA — children
/// split across its contenders, time/target bounds capping the whole
/// race — so the comparison is equal-effort on every axis).
fn metaheuristics(budget: StopCondition, objective: Objective) -> Vec<Box<dyn BatchScheduler>> {
    vec![
        Box::new(CmaScheduler::new(budget).with_objective(objective)),
        Box::new(PortfolioScheduler::new(budget).with_objective(objective)),
    ]
}

/// The λ-independent constructive baselines.
fn baselines() -> Vec<Box<dyn BatchScheduler>> {
    vec![
        Box::new(HeuristicScheduler::new(ConstructiveKind::MinMin)),
        Box::new(HeuristicScheduler::new(ConstructiveKind::Mct)),
        Box::new(HeuristicScheduler::new(ConstructiveKind::Olb)),
        Box::new(HeuristicScheduler::new(ConstructiveKind::Random)),
    ]
}

/// Column headers of the scenario tables. The response percentiles come
/// from the tick-domain histograms of [`TelemetryReport`] — exact counts,
/// ≤ 12.5 % bucket-edge quantile error.
const SCENARIO_COLUMNS: [&str; 12] = [
    "Scheduler",
    "jobs",
    "resub",
    "makespan",
    "mean response",
    "p50 resp",
    "p95 resp",
    "p99 resp",
    "mean wait",
    "util %",
    "activations",
    "sched wall s",
];

/// Opt-in observability attachments for the experiment's simulations
/// (derived from `--metrics` / `--trace-out`; default: both off).
#[derive(Debug, Clone, Copy, Default)]
struct RunOpts<'a> {
    /// Enable wall-clock phase profiling on every run.
    profile: bool,
    /// Append a JSONL event trace of every run to this one file.
    trace_out: Option<&'a Path>,
}

/// One scheduler's simulation of one scenario: the rendered table row,
/// the two objectives the winners table ranks on, and the telemetry
/// the `--metrics` summary tables are built from.
struct RunRecord {
    row: Vec<String>,
    scheduler: String,
    makespan: f64,
    mean_response: f64,
    telemetry: TelemetryReport,
    portfolio: Option<MetricsRegistry>,
}

/// Opens the shared trace file in append mode, so every run of the
/// sweep lands in one JSONL stream (runs are delimited by their
/// `run_start`/`run_end` records).
fn open_trace(path: &Path) -> Option<Box<dyn io::Write>> {
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(file) => Some(Box::new(io::BufWriter::new(file))),
        Err(e) => {
            eprintln!("warning: cannot open trace file {}: {e}", path.display());
            None
        }
    }
}

/// Runs `schedulers` over one scenario, one record per run.
/// `family_digest` carries the exogenous event digest of the scenario's
/// first run (`None` before it) across every call for the same
/// `(family, seed)`.
///
/// # Panics
///
/// Panics if a simulation loses a job (every submitted job must end
/// completed or, under a fault family's give-up bound, dropped), or if
/// its event digest differs from `family_digest`: schedulers decide
/// placements only, so a scheduler that perturbs the simulation RNG
/// fails the run.
fn scenario_runs(
    schedulers: Vec<Box<dyn BatchScheduler>>,
    config: &SimConfig,
    seed: u64,
    opts: RunOpts<'_>,
    family_digest: &mut Option<u64>,
) -> Vec<RunRecord> {
    schedulers
        .into_iter()
        .map(|mut scheduler| {
            let mut sim = Simulation::new(config.clone(), seed);
            if opts.profile {
                sim = sim.with_profiling();
            }
            if let Some(writer) = opts.trace_out.and_then(open_trace) {
                sim = sim.with_trace(writer);
            }
            let report = sim.run(scheduler.as_mut());
            assert_eq!(
                report.jobs_completed + report.jobs_dropped,
                report.jobs_submitted,
                "{}: simulation lost jobs",
                report.scheduler
            );
            let expected = *family_digest.get_or_insert(report.event_digest);
            assert_eq!(
                report.event_digest, expected,
                "{}: scheduler perturbed the exogenous event stream",
                report.scheduler
            );
            let pct = |q: f64| fmt_value(report.response_percentile(q).unwrap_or(f64::NAN));
            let row = vec![
                report.scheduler.clone(),
                report.jobs_completed.to_string(),
                report.resubmissions.to_string(),
                fmt_value(report.realized_makespan),
                fmt_value(report.mean_response()),
                pct(0.50),
                pct(0.95),
                pct(0.99),
                fmt_value(report.mean_wait()),
                format!("{:.1}", report.utilization() * 100.0),
                report.activations.to_string(),
                format!("{:.3}", report.scheduler_wall_s),
            ];
            RunRecord {
                row,
                makespan: report.realized_makespan,
                mean_response: report.mean_response(),
                scheduler: report.scheduler,
                portfolio: scheduler.metrics().cloned(),
                telemetry: report.telemetry,
            }
        })
        .collect()
}

/// Column headers of the `--metrics` phase-profile tables.
const PHASE_COLUMNS: [&str; 9] = [
    "Scheduler",
    "scheduler %",
    "snapshot %",
    "dispatch %",
    "queue %",
    "fault %",
    "profiled wall s",
    "dispatches",
    "retries",
];

/// Renders the per-scheduler phase attribution of one scenario (the
/// `--metrics` companion of a scenario table).
fn telemetry_table<'a>(title: &str, records: impl Iterator<Item = &'a RunRecord>) -> Table {
    let mut table = Table::new(title, &PHASE_COLUMNS);
    for record in records {
        let phases = &record.telemetry.phases;
        let share = |p: Phase| format!("{:.1}", phases.share(p) * 100.0);
        table.push_row(vec![
            record.scheduler.clone(),
            share(Phase::Scheduler),
            share(Phase::SnapshotBuild),
            share(Phase::Dispatch),
            share(Phase::Queue),
            share(Phase::FaultHandling),
            // Microsecond precision: a fast constructive scheduler on a
            // small test scenario attributes well under a millisecond,
            // and the plumbing test asserts this column is nonzero.
            format!("{:.6}", phases.total_wall_s()),
            record.telemetry.dispatches.to_string(),
            record.telemetry.retries_scheduled.to_string(),
        ]);
    }
    table
}

/// Flattens a scheduler's metrics registry (the portfolio's per-contender
/// per-round counters) into a two-column summary table.
fn registry_table(title: &str, registry: &MetricsRegistry) -> Table {
    let mut table = Table::new(title, &["metric", "value"]);
    for (name, counter) in registry.counters() {
        table.push_row(vec![name.to_owned(), counter.get().to_string()]);
    }
    for (name, gauge) in registry.gauges() {
        table.push_row(vec![
            name.to_owned(),
            format!("last={} high={}", gauge.get(), gauge.high_water()),
        ]);
    }
    for (name, hist) in registry.histograms() {
        let q = |q: f64| {
            hist.quantile(q)
                .map_or_else(|| "—".to_owned(), |v| v.to_string())
        };
        table.push_row(vec![
            name.to_owned(),
            format!(
                "count={} p50={} p95={} p99={}",
                hist.count(),
                q(0.50),
                q(0.95),
                q(0.99)
            ),
        ]);
    }
    table
}

/// Builds one family's row of the winners table. The makespan and
/// response winners are ranked over `classic`, the runs that optimised
/// the classic objective (the baselines, plus the metaheuristics when
/// λ = 0 is swept); `gaps` holds the best-metaheuristic cells per λ.
fn winners_row(family: ScenarioFamily, classic: &[&RunRecord], gaps: Vec<String>) -> Vec<String> {
    let mut by_makespan = classic.to_vec();
    by_makespan.sort_by(|a, b| a.makespan.total_cmp(&b.makespan));
    let (best, runner_up) = (by_makespan[0], by_makespan[1]);
    let response_winner = classic
        .iter()
        .min_by(|a, b| a.mean_response.total_cmp(&b.mean_response))
        .expect("the baselines always race");
    let mut row = vec![
        family.to_string(),
        best.scheduler.clone(),
        fmt_value(best.makespan),
        format!(
            "{:+.2}",
            (runner_up.makespan - best.makespan) / best.makespan * 100.0
        ),
        response_winner.scheduler.clone(),
    ];
    row.extend(gaps);
    row
}

/// The full dynamic experiment: one table per scenario family in the
/// context's sweep (default: the whole catalog) and per `--lambda`
/// response weight (default: classic only), then one winners table
/// with a row per family: the realized-makespan winner and the
/// runner-up's Δ %, the mean-response winner, and per λ the best
/// metaheuristic with its mean-response gap to Min-Min (the response
/// champion of every family at λ = 0). `--metrics` appends a
/// phase-attribution table per scenario table plus the portfolio's
/// per-contender registry; `--trace-out` appends every run's JSONL
/// event trace to the named file.
///
/// The per-activation metaheuristic budget is `--budget-children`
/// (default 2 000) children, capped by `--budget-ms` (default 500 ms).
///
/// # Panics
///
/// Panics if any run loses a job, or if two runs of one family see
/// different exogenous event streams (see [`scenario_runs`]).
#[must_use]
pub fn dynamic(ctx: &Ctx) -> Vec<Table> {
    // The dynamic claim is about *short* activations.
    let budget = StopCondition::children(ctx.stop.max_children.unwrap_or(2_000)).and_time(
        ctx.stop
            .time_limit
            .unwrap_or_else(|| std::time::Duration::from_millis(500)),
    );
    let opts = RunOpts {
        profile: ctx.metrics,
        trace_out: ctx.trace_out.as_deref(),
    };
    let mut winners = Table::new(
        "Dynamic grid winners",
        &[
            "Family",
            "makespan winner",
            "makespan",
            "runner-up Δ %",
            "response winner",
        ],
    );
    for objective in &ctx.lambdas {
        winners.headers.push(format!("best meta λ = {objective}"));
        winners
            .headers
            .push(format!("gap to Min-Min % λ = {objective}"));
    }
    let mut tables = Vec::new();
    for &family in &ctx.families {
        let config = SimConfig::from_family(family);
        let mut digest = None;
        // The constructive baselines are λ-independent: simulate them
        // once per family and splice the identical rows into every λ
        // table instead of re-running full simulations per weight.
        let baseline_runs = scenario_runs(baselines(), &config, ctx.seed, opts, &mut digest);
        let minmin_response = baseline_runs
            .iter()
            .find(|r| r.scheduler == "Min-Min")
            .expect("Min-Min always races")
            .mean_response;
        let mut classic_meta = Vec::new();
        let mut gaps = Vec::new();
        for &objective in &ctx.lambdas {
            let title = if objective.is_classic() {
                format!("Dynamic grid {family} scenario")
            } else {
                format!("Dynamic grid {family} scenario (λ = {objective})")
            };
            let meta_runs = scenario_runs(
                metaheuristics(budget, objective),
                &config,
                ctx.seed,
                opts,
                &mut digest,
            );
            let best_meta = meta_runs
                .iter()
                .min_by(|a, b| a.mean_response.total_cmp(&b.mean_response))
                .expect("the metaheuristics always race");
            gaps.push(best_meta.scheduler.clone());
            gaps.push(format!(
                "{:+.2}",
                (best_meta.mean_response - minmin_response) / minmin_response * 100.0
            ));
            let mut table = Table::new(&title, &SCENARIO_COLUMNS);
            for run in meta_runs.iter().chain(&baseline_runs) {
                table.push_row(run.row.clone());
            }
            tables.push(table);
            if ctx.metrics {
                tables.push(telemetry_table(
                    &format!("{title} telemetry"),
                    meta_runs.iter().chain(baseline_runs.iter()),
                ));
                for run in &meta_runs {
                    if let Some(registry) = &run.portfolio {
                        tables.push(registry_table(
                            &format!("{title} portfolio metrics"),
                            registry,
                        ));
                    }
                }
            }
            if objective.is_classic() {
                classic_meta = meta_runs;
            }
        }
        let classic: Vec<&RunRecord> = classic_meta.iter().chain(&baseline_runs).collect();
        winners.push_row(winners_row(family, &classic, gaps));
    }
    tables.push(winners);
    tables
}

#[cfg(test)]
mod tests {
    use super::super::test_ctx;
    use super::*;

    /// Parses one numeric cell of a scenario-table row.
    fn cell(row: &[String], column: usize) -> f64 {
        row[column].parse().unwrap()
    }

    #[test]
    fn calm_scenario_ranks_cma_over_random() {
        let mut ctx = test_ctx(24, 3, 1, 300);
        ctx.seed = 3;
        ctx.families = vec![ScenarioFamily::Calm];
        let tables = dynamic(&ctx);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 6);
        let response_of = |name: &str| -> f64 {
            cell(
                t.rows
                    .iter()
                    .find(|r| r[0] == name)
                    .unwrap_or_else(|| panic!("{name} missing")),
                4,
            )
        };
        assert!(
            response_of("cMA") < response_of("Random"),
            "cMA must beat random dispatch on mean response"
        );
        assert!(
            response_of("Portfolio") < response_of("Random"),
            "the racing portfolio must beat random dispatch too"
        );
        // The percentile columns are populated and ordered for every row.
        for row in &t.rows {
            let p: Vec<f64> = (5..8).map(|i| cell(row, i)).collect();
            assert!(
                p[0] > 0.0 && p[0] <= p[1] && p[1] <= p[2],
                "{}: p50/p95/p99 must be positive and ordered: {p:?}",
                row[0]
            );
        }
    }

    #[test]
    fn metrics_flag_appends_telemetry_tables_and_trace_lands_in_the_file() {
        let mut ctx = test_ctx(24, 3, 1, 80);
        ctx.families = vec![ScenarioFamily::Calm];
        ctx.metrics = true;
        let dir = std::env::temp_dir().join("cmags-bench-dyn-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        ctx.trace_out = Some(path.clone());
        let tables = dynamic(&ctx);
        // Scenario table + phase table + portfolio registry table +
        // winners table.
        assert_eq!(tables.len(), 4);
        let phases = tables
            .iter()
            .find(|t| t.title.ends_with("telemetry"))
            .expect("--metrics must append a phase table");
        assert_eq!(phases.rows.len(), 6, "one phase row per scheduler");
        for row in &phases.rows {
            let wall: f64 = row[6].parse().unwrap();
            assert!(wall > 0.0, "{}: profiling must attribute wall time", row[0]);
        }
        let portfolio = tables
            .iter()
            .find(|t| t.title.ends_with("portfolio metrics"))
            .expect("--metrics must dump the portfolio registry");
        assert!(
            portfolio
                .rows
                .iter()
                .any(|r| r[0] == "portfolio.activations" && r[1] != "0"),
            "registry dump must carry the activation counter"
        );
        // Every run appended its trace to the one file; records are
        // flat JSON objects delimited per run.
        let trace = std::fs::read_to_string(&path).unwrap();
        let starts = trace
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"run_start\""))
            .count();
        let ends = trace
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"run_end\""))
            .count();
        assert_eq!((starts, ends), (6, 6), "one trace per scheduler run");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_produces_one_table_per_family_and_lambda() {
        let mut ctx = test_ctx(32, 4, 1, 100);
        ctx.families = vec![ScenarioFamily::Calm, ScenarioFamily::Bursty];
        ctx.lambdas = vec![Objective::classic(), Objective::mean_flowtime()];
        let tables = dynamic(&ctx);
        assert_eq!(tables.len(), 5, "four scenario tables and the winners");
        assert!(tables[0].title.contains("calm"));
        assert!(tables[1].title.contains("calm") && tables[1].title.contains("λ = 1"));
        assert!(tables[2].title.contains("bursty"));
        for t in &tables[..4] {
            // Every scheduler finished every job.
            for row in &t.rows {
                let jobs: u64 = row[1].parse().unwrap();
                assert!(jobs > 0);
            }
        }
    }

    #[test]
    fn dynamic_covers_every_cell_once_per_lambda() {
        let families = [ScenarioFamily::Calm, ScenarioFamily::FlashCrowd];
        let mut ctx = test_ctx(24, 3, 1, 150);
        ctx.seed = 3;
        ctx.families = families.to_vec();
        ctx.lambdas = vec![Objective::classic(), Objective::mean_flowtime()];
        // Job conservation and one event digest per family across the
        // baselines and every λ's metaheuristics are asserted by every
        // run (see `a_perturbed_event_stream_fails_the_run`).
        let tables = dynamic(&ctx);
        assert_eq!(tables.len(), families.len() * 2 + 1);
        for (f, family) in families.iter().enumerate() {
            let (classic, tagged) = (&tables[2 * f], &tables[2 * f + 1]);
            assert!(classic.title.contains(family.name()) && tagged.title.contains("λ = 1"));
            // Per family: 4 baselines (run once, at λ = 0) plus 2
            // metaheuristics per swept objective.
            assert_eq!((classic.rows.len(), tagged.rows.len()), (6, 6));
            assert_eq!(
                classic.rows[2..],
                tagged.rows[2..],
                "baseline rows are the same λ = 0 runs in every λ table"
            );
            assert!(
                tagged.rows[..2].iter().all(|r| r[0].ends_with("[λ=1]"))
                    && classic.rows[..2].iter().all(|r| !r[0].contains('λ')),
                "{family}: only the retargeted metaheuristics carry a λ tag"
            );
            for row in classic.rows.iter().chain(&tagged.rows[..2]) {
                assert!(
                    cell(row, 4) > 0.0 && cell(row, 3) > 0.0,
                    "{family}/{}",
                    row[0]
                );
                let p: Vec<f64> = (5..8).map(|i| cell(row, i)).collect();
                assert!(
                    p[0] > 0.0 && p[0] <= p[1] && p[1] <= p[2],
                    "{family}/{}: percentile columns must be positive and ordered",
                    row[0]
                );
            }
        }
        let winners = tables.last().unwrap();
        assert_eq!(winners.rows.len(), families.len(), "one row per family");
        assert_eq!(winners.headers.len(), 5 + 2 * ctx.lambdas.len());
        for row in &winners.rows {
            let delta: f64 = row[3].parse().unwrap();
            assert!(delta >= 0.0, "{}: the runner-up trails the winner", row[0]);
            assert!(row[5].starts_with("cMA") || row[5].starts_with("Portfolio"));
            assert!(row[7].ends_with("[λ=1]"), "{}: λ = 1 best meta", row[0]);
        }
    }

    #[test]
    #[should_panic(expected = "perturbed the exogenous event stream")]
    fn a_perturbed_event_stream_fails_the_run() {
        let mut digest = Some(0);
        let _ = scenario_runs(
            vec![Box::new(HeuristicScheduler::new(ConstructiveKind::Random))],
            &SimConfig::small(),
            1,
            RunOpts::default(),
            &mut digest,
        );
    }

    #[test]
    fn budget_children_sizes_the_metaheuristic_activations() {
        let mut ctx = test_ctx(24, 3, 1, 200);
        ctx.families = vec![ScenarioFamily::Calm];
        let full = dynamic(&ctx);
        ctx.stop = StopCondition::children(1);
        let starved = dynamic(&ctx);
        // Compare everything but the wall-clock column.
        let row = |tables: &[Table], i: usize| tables[0].rows[i][..11].to_vec();
        assert_eq!(full[0].rows[0][0], "cMA");
        assert_ne!(row(&full, 0), row(&starved, 0), "a 1-child cMA must differ");
        for i in 2..6 {
            assert_eq!(row(&full, i), row(&starved, i), "baselines ignore it");
        }
    }
}
