//! Observability integration tests: telemetry must *observe* the
//! simulation, never steer it.
//!
//! Three layers of assurance:
//!
//! 1. **Schema** — a traced run emits one flat JSON object per line,
//!    every record of a documented kind with its documented fields,
//!    bracketed by `run_start`/`run_end`. The full scenario catalog is
//!    swept; `TELEM_QUICK=1` trims the sweep to the flash-crowd family
//!    for fast CI lanes.
//! 2. **Non-interference** — enabling profiling *and* tracing must
//!    leave every simulation-visible output bit-identical to the bare
//!    run: digests, float bits, and the tick-domain histograms.
//! 3. **Determinism (property)** — a full cMA-scheduled run with
//!    telemetry enabled produces byte-identical digests and identical
//!    histogram bucket vectors across the Heap/Calendar event backends
//!    and 1/2/8 engine worker threads.

use std::io;
use std::sync::{Arc, Mutex};

use cmags_cma::{CmaConfig, StopCondition};
use cmags_core::telemetry::Phase;
use cmags_gridsim::metrics::SimReport;
use cmags_gridsim::scheduler::{CmaScheduler, HeuristicScheduler};
use cmags_gridsim::{QueueKind, ScenarioFamily, SimConfig, Simulation};
use cmags_heuristics::constructive::ConstructiveKind;
use proptest::prelude::*;

/// Quick mode for fast CI lanes: trace one family, fewer proptest cases.
fn quick() -> bool {
    std::env::var_os("TELEM_QUICK").is_some_and(|v| v == "1")
}

/// A `Write` sink the test can read back after the simulation consumed
/// the boxed writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("trace must be UTF-8")
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs `family` at `seed` under MCT with both trace and profiling
/// attached, returning the report and the captured JSONL text.
fn traced_run(family: ScenarioFamily, seed: u64) -> (SimReport, String) {
    let sink = SharedBuf::default();
    let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
    let report = Simulation::new(SimConfig::from_family(family), seed)
        .with_profiling()
        .with_trace(Box::new(sink.clone()))
        .run(&mut scheduler);
    let text = sink.contents();
    (report, text)
}

// --- flat-JSON schema validation -----------------------------------------

/// Parses one trace line as a flat JSON object (string / number / null
/// values only — exactly what the writer emits), returning its
/// key/value pairs in order.
fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = line.chars().peekable();
    let mut pairs = Vec::new();
    if chars.next() != Some('{') {
        return Err("line must open with '{'".to_owned());
    }
    loop {
        let key = parse_string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(format!("missing ':' after key {key:?}"));
        }
        let value = parse_value(&mut chars)?;
        pairs.push((key, value));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    if chars.next().is_some() {
        return Err("trailing garbage after '}'".to_owned());
    }
    Ok(pairs)
}

fn parse_string(
    chars: &mut std::iter::Peekable<impl Iterator<Item = char>>,
) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected opening quote".to_owned());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some(c @ ('"' | '\\' | '/')) => out.push(c),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or("bad codepoint")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) if (c as u32) < 0x20 => {
                return Err("raw control character inside string".to_owned())
            }
            Some(c) => out.push(c),
        }
    }
}

fn parse_value(
    chars: &mut std::iter::Peekable<impl Iterator<Item = char>>,
) -> Result<String, String> {
    match chars.peek() {
        Some('"') => parse_string(chars),
        Some('n') => {
            for expected in "null".chars() {
                if chars.next() != Some(expected) {
                    return Err("bad literal (only null is allowed)".to_owned());
                }
            }
            Ok("null".to_owned())
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let mut raw = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                raw.push(c);
                chars.next();
            }
            let _: f64 = raw
                .parse()
                .map_err(|_| format!("unparseable number {raw:?}"))?;
            Ok(raw)
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

/// The documented record kinds and their required fields (beyond the
/// leading `type`).
fn required_fields(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "run_start" => &["scheduler"],
        "run_end" => &[
            "scheduler",
            "jobs_submitted",
            "jobs_completed",
            "jobs_dropped",
            "events",
            "event_digest",
            "fault_digest",
            "p50_wait_s",
            "p95_wait_s",
            "p99_wait_s",
            "p50_response_s",
            "p95_response_s",
            "p99_response_s",
        ],
        "arrival" => &["t", "job", "baseline"],
        "activation" => &["t", "pending", "machines"],
        "finish" => &["t", "job", "machine", "wait_ticks", "response_ticks"],
        "fail" => &["t", "job", "machine"],
        "drop" => &["t", "job"],
        "retry" => &["t", "job", "at"],
        "crash" | "recover" | "join" | "leave" => &["t", "machine"],
        "shock" => &["t", "victims"],
        _ => return None,
    })
}

/// Validates one family's full trace against the schema, returning the
/// per-kind record counts.
fn validate_trace(family: ScenarioFamily, text: &str) -> std::collections::BTreeMap<String, u64> {
    let mut counts = std::collections::BTreeMap::new();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "{family}: trace must bracket the run");
    for (no, line) in lines.iter().enumerate() {
        let pairs = parse_flat_object(line)
            .unwrap_or_else(|e| panic!("{family}: line {}: {e}: {line}", no + 1));
        let (first_key, kind) = &pairs[0];
        assert_eq!(
            first_key,
            "type",
            "{family}: line {} leads with type",
            no + 1
        );
        let required = required_fields(kind)
            .unwrap_or_else(|| panic!("{family}: line {}: unknown kind {kind:?}", no + 1));
        for field in required {
            assert!(
                pairs.iter().any(|(k, _)| k == field),
                "{family}: line {}: {kind} record missing {field:?}",
                no + 1
            );
        }
        *counts.entry(kind.clone()).or_insert(0) += 1;
    }
    let first = parse_flat_object(lines[0]).unwrap();
    let last = parse_flat_object(lines[lines.len() - 1]).unwrap();
    assert_eq!(first[0].1, "run_start", "{family}: first record");
    assert_eq!(last[0].1, "run_end", "{family}: last record");
    let digest = last
        .iter()
        .find(|(k, _)| k == "event_digest")
        .expect("run_end carries the digest");
    assert_eq!(digest.1.len(), 16, "{family}: digest is 16 hex nibbles");
    assert!(
        digest.1.chars().all(|c| c.is_ascii_hexdigit()),
        "{family}: digest is hex"
    );
    counts
}

#[test]
fn traced_runs_emit_schema_valid_jsonl() {
    let families: &[ScenarioFamily] = if quick() {
        &[ScenarioFamily::FlashCrowd]
    } else {
        &ScenarioFamily::ALL
    };
    for &family in families {
        let (report, text) = traced_run(family, 11);
        let counts = validate_trace(family, &text);
        assert_eq!(counts.get("run_start"), Some(&1), "{family}");
        assert_eq!(counts.get("run_end"), Some(&1), "{family}");
        assert_eq!(
            counts.get("arrival").copied().unwrap_or(0),
            report.jobs_submitted,
            "{family}: one arrival record per submitted job"
        );
        assert_eq!(
            counts.get("finish").copied().unwrap_or(0),
            report.jobs_completed,
            "{family}: one finish record per completed job"
        );
        // Every timer tick is traced; only ticks with pending work and
        // alive machines invoke the scheduler, so the record count
        // bounds the report's activation counter from above.
        assert!(
            counts.get("activation").copied().unwrap_or(0) >= report.activations,
            "{family}: activation records at least cover scheduler calls"
        );
    }
}

// --- non-interference ----------------------------------------------------

/// Asserts the tick-domain telemetry and every simulation-visible
/// output of two runs are identical (wall-clock profile excluded — it
/// is the one intentionally nondeterministic part).
fn assert_observably_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.event_digest, b.event_digest, "{what}: event digest");
    assert_eq!(a.fault_digest, b.fault_digest, "{what}: fault digest");
    assert_eq!(a.events_processed, b.events_processed, "{what}: events");
    assert_eq!(
        a.realized_makespan.to_bits(),
        b.realized_makespan.to_bits(),
        "{what}: makespan bits"
    );
    assert_eq!(
        a.flowtime.to_bits(),
        b.flowtime.to_bits(),
        "{what}: flowtime bits"
    );
    assert_eq!(
        a.telemetry.wait.buckets()[..],
        b.telemetry.wait.buckets()[..],
        "{what}: wait histogram buckets"
    );
    assert_eq!(
        a.telemetry.response.buckets()[..],
        b.telemetry.response.buckets()[..],
        "{what}: response histogram buckets"
    );
    assert_eq!(
        a.telemetry.pending_jobs, b.telemetry.pending_jobs,
        "{what}: pending gauge"
    );
    assert_eq!(
        a.telemetry.queue_depth, b.telemetry.queue_depth,
        "{what}: queue-depth gauge"
    );
    assert_eq!(
        a.telemetry.dispatches, b.telemetry.dispatches,
        "{what}: dispatch counter"
    );
    assert_eq!(
        a.telemetry.retries_scheduled, b.telemetry.retries_scheduled,
        "{what}: retry counter"
    );
}

#[test]
fn telemetry_attachments_never_perturb_the_simulation() {
    for family in [
        ScenarioFamily::FlashCrowd,
        ScenarioFamily::Flaky,
        ScenarioFamily::Crashy,
    ] {
        let mut bare_scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
        let bare = Simulation::new(SimConfig::from_family(family), 23).run(&mut bare_scheduler);
        let (instrumented, _) = traced_run(family, 23);
        assert_observably_identical(&bare, &instrumented, &format!("{family} on/off"));
        // The bare run attributed nothing; the profiled run attributed
        // real wall time, with shares forming a distribution.
        assert!(bare.telemetry.phases.is_empty(), "{family}: off = empty");
        let phases = &instrumented.telemetry.phases;
        assert!(!phases.is_empty(), "{family}: profiling attributes calls");
        assert!(phases.total_wall_s() > 0.0, "{family}: nonzero wall");
        let share_sum: f64 = Phase::ALL.iter().map(|&p| phases.share(p)).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "{family}: shares sum to 1, got {share_sum}"
        );
    }
}

#[test]
fn report_means_are_the_histograms_exact_sums() {
    let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
    let report =
        Simulation::new(SimConfig::from_family(ScenarioFamily::Calm), 3).run(&mut scheduler);
    assert!(report.jobs_completed > 0);
    let n = report.jobs_completed as f64;
    for (hist, mean, what) in [
        (&report.telemetry.wait, report.mean_wait(), "wait"),
        (
            &report.telemetry.response,
            report.mean_response(),
            "response",
        ),
    ] {
        assert_eq!(hist.count(), report.jobs_completed, "{what}: count");
        assert_eq!(
            mean,
            cmags_core::ticks::time(hist.sum() as i128) / n,
            "{what}: the report mean must be the histogram's exact sum"
        );
    }
    // The percentile accessors are clamped into the observed range and
    // ordered.
    let p50 = report.response_percentile(0.50).unwrap();
    let p99 = report.response_percentile(0.99).unwrap();
    assert!(p50 > 0.0 && p50 <= p99);
}

// --- determinism across backends and threads (property) -------------------

/// One full cMA-scheduled run of `family` at `seed` on the given event
/// backend and engine thread count, with telemetry fully enabled.
fn cma_run(family: ScenarioFamily, seed: u64, kind: QueueKind, threads: usize) -> SimReport {
    let config = CmaConfig::paper()
        .with_stop(StopCondition::children(120))
        .with_threads(threads);
    let mut scheduler = CmaScheduler::with_config(config);
    let mut sim_config = SimConfig::from_family(family);
    sim_config.queue = kind;
    Simulation::new(sim_config, seed)
        .with_profiling()
        .with_trace(Box::new(SharedBuf::default()))
        .run(&mut scheduler)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if quick() { 2 } else { 4 }))]

    #[test]
    fn digests_and_histograms_identical_across_backends_and_threads(
        seed in 1u64..500,
        family_sel in 0usize..2,
    ) {
        let family = [ScenarioFamily::Flaky, ScenarioFamily::Crashy][family_sel];
        let reference = cma_run(family, seed, QueueKind::Calendar, 1);
        for (kind, threads) in [
            (QueueKind::Heap, 1),
            (QueueKind::Calendar, 2),
            (QueueKind::Heap, 2),
            (QueueKind::Calendar, 8),
        ] {
            let variant = cma_run(family, seed, kind, threads);
            assert_observably_identical(
                &reference,
                &variant,
                &format!("{family} seed {seed}: {kind:?} × {threads} threads"),
            );
        }
    }
}
