//! The cmags benchmark binary: runs one workload for one seed and prints
//! one JSON line with the checks it made and the metrics it measured.
//!
//! ```text
//! perfbench --workload <braun_cma|grid_wide|grid_faulty> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it makes one untraced and one traced run of
//! the same work, checks that their outputs agree, and reports the
//! per-layer metrics (spans go to `--spans`). `perfbench/run.py` builds
//! and drives this binary; see `perfbench/README.md`.

mod braun_cma;
mod grid;
mod json;
mod layers;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run checked and measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: Json::obj(),
        }
    }
}

impl Outcome {
    /// Counts one checked operation; a false `ok` counts as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// The measurement budget of a run.
pub struct Timer {
    start: Instant,
    seconds: f64,
}

impl Timer {
    pub fn start(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another unit of work lasting about `unit_s` still ends
    /// within the budget.
    pub fn has_room_for(&self, unit_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + unit_s <= self.seconds
    }
}

/// Writes the spans of a traced run, if a path was given.
pub fn write_spans(spans: &spans::Spans, path: Option<&Path>) {
    if let Some(path) = path {
        if let Err(err) = spans.write_jsonl(path) {
            eprintln!("cannot write spans to {}: {err}", path.display());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let spans = args.spans.as_deref();
    let outcome = match args.workload.as_str() {
        "braun_cma" => braun_cma::run(args.seed, args.seconds, args.trace, spans),
        "grid_wide" => grid::run(
            &grid::grid_wide(),
            args.seed,
            args.seconds,
            args.trace,
            spans,
        ),
        "grid_faulty" => grid::run(
            &grid::grid_faulty(),
            args.seed,
            args.seconds,
            args.trace,
            spans,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let mut metrics = Json::obj();
    for (name, value, unit) in &outcome.metrics {
        metrics.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let result = Json::obj()
        .with("correct", outcome.failed == 0 && outcome.attempted > 0)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics)
        .with("detail", outcome.detail)
        .with("available_parallelism", threads)
        .with("build_profile", profile);
    println!("{result}");
    ExitCode::SUCCESS
}
