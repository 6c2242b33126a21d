//! Million-job event-core benchmark: the first wall-clock measurement
//! of the simulator itself (every earlier bench timed schedulers).
//!
//! Three layers:
//!
//! * `sim_queue_hold` criterion groups + `sim-queue` lines — the classic
//!   hold model (pop one event, push its successor) at steady queue
//!   sizes 10³..10⁶, calendar backend versus the retained `BinaryHeap`
//!   reference. This isolates the O(1)-amortised vs O(log n) claim from
//!   everything else the simulator does.
//! * `sim-throughput` / `sim-baseline` lines — full discrete-event runs
//!   draining ≥10⁶ jobs across 10⁴ machines under stationary Poisson
//!   and flash-crowd arrivals with a cheap MCT scheduler, both queue
//!   backends on the Poisson run. The backends must agree **bit for
//!   bit** (event digest, makespan) — asserted here, so the speedup is
//!   measured on provably identical work. Events/sec and ns/event are
//!   reported for the *event core* (total wall minus scheduler wall):
//!   the scheduler is deliberately cheap, but at 10⁶×10⁴ scale its
//!   ETC scans still dominate raw queue traffic.
//! * a `sim-flatness` line — the same Poisson system at 10⁵ vs 10⁶
//!   jobs: per-event cost must stay near-flat as the run grows 10×, or
//!   something in the core is super-linear again.
//!
//! Set `SIM_BENCH_QUICK=1` for the CI smoke configuration (10⁴-job
//! downscale on 10² machines, two hold sizes, two criterion samples).
//! Results are recorded in `BENCH_sim.json`.

use std::hint::black_box;
use std::time::Instant;

use cmags_core::telemetry::Phase;
use cmags_gridsim::event::{Event, EventQueue, QueueKind};
use cmags_gridsim::metrics::SimReport;
use cmags_gridsim::scheduler::HeuristicScheduler;
use cmags_gridsim::{ArrivalProcess, SimConfig, Simulation};
use cmags_heuristics::constructive::ConstructiveKind;
use criterion::{criterion_group, criterion_main, Criterion};

/// Deterministic xorshift step for hold-model gaps (no RNG dependency;
/// gaps land in [1, 2²⁴] ticks so bucket widths see realistic spread).
fn next_gap(state: &mut u64) -> i64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state & 0xFF_FFFF) as i64 + 1
}

/// Pre-fills a queue to `size` pending events scattered by the gap
/// stream, returning it primed for hold operations.
fn prefill(kind: QueueKind, size: usize, state: &mut u64) -> EventQueue {
    let mut queue = EventQueue::with_kind(kind);
    let mut t: i64 = 0;
    for job in 0..size as u64 {
        t += next_gap(state);
        queue.push(t, Event::JobArrival { job });
    }
    queue
}

/// One hold-model operation: drain the due event, schedule a successor
/// a pseudo-random gap later. Queue size is invariant, so per-op cost
/// at a given size is exactly what the model measures.
fn hold(queue: &mut EventQueue, state: &mut u64) -> i64 {
    let (t, event) = queue.pop().expect("hold model never empties");
    queue.push(t + next_gap(state), event);
    t
}

fn queue_hold_benches(c: &mut Criterion, quick: bool, sizes: &[usize]) {
    let mut group = c.benchmark_group("sim_queue_hold");
    group.sample_size(if quick { 2 } else { 10 });
    for &size in sizes {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            group.bench_function(format!("{kind:?}_{size}").to_lowercase(), |b| {
                let mut state = 0x9E37_79B9_7F4A_7C15;
                let mut queue = prefill(kind, size, &mut state);
                b.iter(|| black_box(hold(&mut queue, &mut state)));
            });
        }
    }
    group.finish();

    // Manual per-op numbers for the recorded summary lines: one warmed
    // measurement per (backend, size), coarse but assumption-free.
    let ops = if quick { 50_000 } else { 400_000 };
    for &size in sizes {
        let mut per_op = [0.0f64; 2];
        for (slot, kind) in [QueueKind::Calendar, QueueKind::Heap]
            .into_iter()
            .enumerate()
        {
            let mut state = 0x9E37_79B9_7F4A_7C15;
            let mut queue = prefill(kind, size, &mut state);
            for _ in 0..ops / 4 {
                black_box(hold(&mut queue, &mut state));
            }
            let start = Instant::now();
            for _ in 0..ops {
                black_box(hold(&mut queue, &mut state));
            }
            per_op[slot] = start.elapsed().as_nanos() as f64 / ops as f64;
            println!(
                "sim-queue backend={kind:?} size={size} ns_per_op={:.1}",
                per_op[slot]
            );
        }
        println!(
            "sim-queue-ratio size={size} heap_over_calendar={:.2}",
            per_op[1] / per_op[0]
        );
    }
}

/// Runs one full simulation under MCT and prints its throughput line.
/// `events/sec` and `ns/event` are event-core numbers: total wall minus
/// the wall spent inside the batch scheduler.
fn run_sim(label: &str, config: SimConfig, kind: QueueKind) -> SimReport {
    let mut config = config;
    config.queue = kind;
    let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
    let report = Simulation::new(config, 42).run(&mut scheduler);
    assert_eq!(
        report.jobs_completed, report.jobs_submitted,
        "{label}: lost jobs"
    );
    let core_wall = report.sim_wall_s - report.scheduler_wall_s;
    let events_per_s = report.events_processed as f64 / core_wall;
    println!(
        "sim-throughput scenario={label} backend={kind:?} jobs={} events={} activations={} wall_s={:.2} scheduler_wall_s={:.2} core_events_per_s={:.0} core_ns_per_event={:.1}",
        report.jobs_submitted,
        report.events_processed,
        report.activations,
        report.sim_wall_s,
        report.scheduler_wall_s,
        events_per_s,
        core_wall * 1e9 / report.events_processed as f64,
    );
    report
}

fn core_ns_per_event(report: &SimReport) -> f64 {
    (report.sim_wall_s - report.scheduler_wall_s) * 1e9 / report.events_processed as f64
}

fn full_sim_benches(quick: bool) {
    // Heavy-traffic sizing: lolo-consistent machines average ≈278 s per
    // job, so 10⁴ machines serve ≈36 jobs/s; Poisson at 20 jobs/s over
    // 5·10⁴ s submits 10⁶ jobs at ≈55% utilisation — saturated batches
    // without an unbounded backlog. Quick mode scales everything down
    // 100× (10² machines, 10⁴ jobs) for the CI smoke.
    let (machines, rate, horizon) = if quick {
        (100, 2.0, 5_000.0)
    } else {
        (10_000, 20.0, 50_000.0)
    };
    let interval = 25.0;
    let poisson = SimConfig::heavy_traffic(machines, rate, horizon, interval);

    // Tenth-scale run first: it doubles as the flatness reference and
    // as a warmup, so the first full-scale measurement does not pay
    // one-time costs (page faults on fresh buffers, frequency ramp).
    let small = SimConfig::heavy_traffic(machines, rate, horizon / 10.0, interval);
    let small_report = run_sim("poisson_tenth", small, QueueKind::Calendar);

    // Poisson, both backends, on provably identical work. The queue's
    // share of a full run is small next to the O(jobs·machines)
    // snapshot scans, so single samples drown in run-to-run noise:
    // take the best of `reps` interleaved runs per backend.
    let reps = if quick { 1 } else { 2 };
    let mut cal: Option<SimReport> = None;
    let mut heap: Option<SimReport> = None;
    for _ in 0..reps {
        for (kind, best) in [
            (QueueKind::Heap, &mut heap),
            (QueueKind::Calendar, &mut cal),
        ] {
            let report = run_sim("poisson_1m", poisson.clone(), kind);
            if best
                .as_ref()
                .is_none_or(|b| core_ns_per_event(&report) < core_ns_per_event(b))
            {
                *best = Some(report);
            }
        }
    }
    let (cal, heap) = (cal.expect("reps >= 1"), heap.expect("reps >= 1"));
    assert_eq!(
        cal.event_digest, heap.event_digest,
        "backends must replay the same event stream"
    );
    assert_eq!(
        cal.realized_makespan.to_bits(),
        heap.realized_makespan.to_bits(),
        "backends must agree on makespan bit-for-bit"
    );
    if !quick {
        assert!(
            cal.jobs_submitted >= 1_000_000,
            "headline run must drain a million jobs (got {})",
            cal.jobs_submitted
        );
    }
    println!(
        "sim-baseline scenario=poisson_1m best_of={reps} heap_over_calendar={:.3}",
        core_ns_per_event(&heap) / core_ns_per_event(&cal)
    );

    // Flash crowd: half the load arrives as simultaneous 5000-job
    // stampedes — the regime that stresses bucket resizing (huge
    // same-instant cluster) and large-batch dispatch.
    let mut flash = poisson.clone();
    flash.arrivals = ArrivalProcess::FlashCrowd {
        base_rate: rate / 2.0,
        spike_rate: 2e-3,
        burst: if quick { 500 } else { 5_000 },
    };
    run_sim("flash_1m", flash, QueueKind::Calendar);

    // Phase attribution: one dedicated *profiled* Calendar run — kept
    // out of the headline measurements above, which stay telemetry-off
    // so their per-event numbers remain comparable across revisions.
    // This replaces the hand-instrumented scheduler/snapshot/queue
    // split previously quoted in the roadmap.
    let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
    let profiled = Simulation::new(poisson.clone(), 42)
        .with_profiling()
        .run(&mut scheduler);
    let phases = &profiled.telemetry.phases;
    let pct = |p: Phase| phases.share(p) * 100.0;
    println!(
        "sim-phases scenario=poisson_1m backend=Calendar profiled_wall_s={:.2} scheduler_pct={:.1} snapshot_pct={:.1} dispatch_pct={:.1} queue_pct={:.1} fault_pct={:.1}",
        phases.total_wall_s(),
        pct(Phase::Scheduler),
        pct(Phase::SnapshotBuild),
        pct(Phase::Dispatch),
        pct(Phase::Queue),
        pct(Phase::FaultHandling),
    );

    // Flatness: the same system stopped at a tenth of the horizon. The
    // per-event cost must not grow with cumulative jobs drained.
    println!(
        "sim-flatness scenario=poisson backend=Calendar jobs_small={} jobs_large={} ns_small={:.1} ns_large={:.1} large_over_small={:.2}",
        small_report.jobs_submitted,
        cal.jobs_submitted,
        core_ns_per_event(&small_report),
        core_ns_per_event(&cal),
        core_ns_per_event(&cal) / core_ns_per_event(&small_report),
    );
}

fn bench_million_jobs(c: &mut Criterion) {
    let quick = std::env::var_os("SIM_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    queue_hold_benches(c, quick, sizes);
    full_sim_benches(quick);
}

criterion_group!(benches, bench_million_jobs);
criterion_main!(benches);
