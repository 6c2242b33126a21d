//! Integration tests of the dynamic-scheduler claim on the simulator.

use cmags::gridsim::scheduler::{CmaScheduler, HeuristicScheduler};
use cmags::gridsim::{QueueKind, ScenarioFamily, SimConfig, Simulation};
use cmags::prelude::*;
use proptest::prelude::*;

#[test]
fn cma_batch_mode_completes_a_dynamic_workload() {
    let mut scheduler = CmaScheduler::new(StopCondition::children(200));
    let report = Simulation::new(SimConfig::small(), 42).run(&mut scheduler);
    assert_eq!(report.jobs_completed, report.jobs_submitted);
    assert!(report.activations >= 1);
    assert_eq!(report.scheduler, "cMA");
}

#[test]
fn cma_beats_random_dispatch_on_identical_traces() {
    let mut cma = CmaScheduler::new(StopCondition::children(400));
    let mut random = HeuristicScheduler::new(ConstructiveKind::Random);
    let good = Simulation::new(SimConfig::small(), 9).run(&mut cma);
    let bad = Simulation::new(SimConfig::small(), 9).run(&mut random);
    assert!(
        good.mean_response() < bad.mean_response(),
        "cMA {} vs random {}",
        good.mean_response(),
        bad.mean_response()
    );
}

#[test]
fn churny_grid_still_finishes_everything() {
    let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
    let report = Simulation::new(SimConfig::churny(), 5).run(&mut scheduler);
    assert_eq!(report.jobs_completed, report.jobs_submitted);
    assert!(report.resubmissions > 0, "churn should force resubmissions");
}

// Per-seed bitwise determinism across the whole catalog is pinned by
// the gridsim unit suite (`every_family_is_deterministic_and_completes`
// in crates/gridsim/src/sim.rs); the tests here cover the facade-level
// surfaces on top of it.

#[test]
fn scenario_catalog_runs_the_cma_scheduler_through_every_family() {
    for family in ScenarioFamily::ALL {
        let mut scheduler = CmaScheduler::new(StopCondition::children(120));
        let report = Simulation::new(SimConfig::from_family(family), 1).run(&mut scheduler);
        assert_eq!(
            report.jobs_completed + report.jobs_dropped,
            report.jobs_submitted,
            "{family}: cMA batch mode must drain the grid"
        );
        assert!(report.activations > 0, "{family}");
    }
}

#[test]
fn churny_families_resubmit_and_still_drain() {
    // (family, seed) pairs known to kill busy machines: independent
    // churn, the degrading grid, and a correlated mass-departure shock.
    for (family, seed) in [
        (ScenarioFamily::Churny, 0),
        (ScenarioFamily::Degrading, 0),
        (ScenarioFamily::Volatile, 2),
    ] {
        let mut s = HeuristicScheduler::new(ConstructiveKind::Mct);
        let report = Simulation::new(SimConfig::from_family(family), seed).run(&mut s);
        assert_eq!(report.jobs_completed, report.jobs_submitted, "{family}");
        assert!(
            report.resubmissions > 0,
            "{family} seed {seed}: expected killed work"
        );
    }
}

#[test]
fn noisy_runs_replay_bit_for_bit_across_scenario_variants() {
    // Regression companion to the `kick` RNG fix: with execution noise
    // on, the stream depends only on the job-start sequence, so noisy
    // runs replay exactly under every arrival/churn regime.
    for family in ScenarioFamily::ALL {
        let run = || {
            let mut config = SimConfig::from_family(family);
            config.execution_noise = 0.15;
            let mut s = HeuristicScheduler::new(ConstructiveKind::MinMin);
            Simulation::new(config, 23).run(&mut s)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.realized_makespan.to_bits(),
            b.realized_makespan.to_bits(),
            "{family}: noisy runs must replay bit-for-bit"
        );
        assert_eq!(a.fault_digest, b.fault_digest, "{family}");
        assert_eq!(
            a.jobs_completed + a.jobs_dropped,
            a.jobs_submitted,
            "{family}"
        );
    }
}

#[test]
fn per_family_event_digests_are_pinned() {
    // The exogenous event stream of every scenario family at seed 5 is
    // pinned bit-for-bit. These constants changed exactly once, when
    // simulation time moved to fixed-point ticks and `MachineJoin`
    // events started carrying their real machine id (both alter the
    // digest fold layout); any further drift means the arrival/churn
    // RNG draws or the event clock changed — a reproducibility break,
    // not a refactor.
    for (family, expected) in [
        (ScenarioFamily::Calm, 0xee7e_53e6_ac0f_55dc_u64),
        (ScenarioFamily::Churny, 0x2aa8_2026_81a6_31aa),
        (ScenarioFamily::Bursty, 0x1578_5dbc_2f8b_0a18),
        (ScenarioFamily::Diurnal, 0x7d29_263c_a2ac_98f0),
        (ScenarioFamily::FlashCrowd, 0xc23a_55f0_f5cb_4d8e),
        (ScenarioFamily::Degrading, 0x344f_e49f_30c8_4d04),
        (ScenarioFamily::Volatile, 0x3722_447e_d5ca_b9fd),
        // The fault families share Calm's exogenous stream on purpose:
        // faults fold into `fault_digest`, never `event_digest`, and
        // their randomness comes from dedicated counter-based streams,
        // so enabling them must not shift a single arrival draw.
        (ScenarioFamily::Flaky, 0xee7e_53e6_ac0f_55dc),
        (ScenarioFamily::Crashy, 0xee7e_53e6_ac0f_55dc),
    ] {
        let mut s = HeuristicScheduler::new(ConstructiveKind::Mct);
        let report = Simulation::new(SimConfig::from_family(family), 5).run(&mut s);
        assert_eq!(
            report.event_digest, expected,
            "{family}: pinned event digest drifted (got 0x{:016x})",
            report.event_digest
        );
    }
}

#[test]
fn checkpointed_backoff_wastes_less_work_than_naive_retry_on_crashy() {
    // The pinned-seed regression behind the recovery policies: on the
    // crashy family, the catalog's exponential-backoff-plus-checkpoint
    // policy must strictly reduce the work lost to crashes versus a
    // naive immediate-retry-from-scratch policy on the same fault
    // process (identical crash instants — the fault streams are keyed
    // by (seed, machine, sequence), not by the recovery policy).
    for seed in [1u64, 2, 3] {
        let durable = {
            let mut s = HeuristicScheduler::new(ConstructiveKind::Mct);
            Simulation::new(SimConfig::from_family(ScenarioFamily::Crashy), seed).run(&mut s)
        };
        let naive = {
            let mut config = SimConfig::from_family(ScenarioFamily::Crashy);
            config.recovery = RecoveryPolicy {
                retry: RetryPolicy::immediate(),
                checkpoint_every: None,
                ..config.recovery
            };
            let mut s = HeuristicScheduler::new(ConstructiveKind::Mct);
            Simulation::new(config, seed).run(&mut s)
        };
        // Crash *instants* are shared, but the naive run drains later
        // and therefore absorbs at least as many of them — redone work
        // stretches the run, which exposes it to more crashes. That
        // compounding is exactly the economics this regression pins.
        assert!(durable.machine_crashes > 0, "seed {seed}: no crashes");
        assert!(naive.machine_crashes >= durable.machine_crashes);
        assert!(
            durable.wasted_ticks < naive.wasted_ticks,
            "seed {seed}: checkpointed backoff wasted {} ticks vs naive {}",
            durable.wasted_ticks,
            naive.wasted_ticks
        );
    }
}

#[test]
fn orphan_resubmission_order_is_pinned_across_queue_backends() {
    // When a machine departs, its running job is resubmitted first and
    // its queued jobs follow in queue order — that ordering feeds the
    // next activation's ETC instance, so it is pinned bit-for-bit here
    // on the degrading family (whose whole point is killing busy
    // machines) under both event-queue backends.
    let run = |queue| {
        let mut config = SimConfig::from_family(ScenarioFamily::Degrading);
        config.queue = queue;
        let mut s = HeuristicScheduler::new(ConstructiveKind::Mct);
        Simulation::new(config, 0).run(&mut s)
    };
    let calendar = run(QueueKind::Calendar);
    let heap = run(QueueKind::Heap);
    assert!(
        calendar.resubmissions > 0,
        "no departures hit busy machines"
    );
    assert_eq!(calendar.event_digest, heap.event_digest);
    assert_eq!(calendar.fault_digest, heap.fault_digest);
    assert_eq!(
        calendar.realized_makespan.to_bits(),
        heap.realized_makespan.to_bits()
    );
    assert_eq!(calendar.flowtime.to_bits(), heap.flowtime.to_bits());
    assert_eq!(calendar.max_resubmits, heap.max_resubmits);
    // Pinned constants: drift means the departure-path resubmission
    // order (running job first, then the queue) changed.
    assert_eq!(
        calendar.event_digest, 0x289b_8e00_405e_45d2,
        "got 0x{:016x}",
        calendar.event_digest
    );
    assert_eq!(
        calendar.realized_makespan.to_bits(),
        0x4130_374d_3ee0_c0ff,
        "got 0x{:016x}",
        calendar.realized_makespan.to_bits()
    );
}

#[test]
fn objective_lambda_never_perturbs_the_event_stream() {
    // Fast digest check: the exogenous event stream (arrivals + churn)
    // of a churny run is byte-identical whatever λ the batch scheduler
    // optimises — the objective only changes the plans, never the
    // simulation's RNG draws.
    let run = |objective: Objective| {
        let mut scheduler =
            CmaScheduler::new(StopCondition::children(60)).with_objective(objective);
        Simulation::new(SimConfig::churny(), 8).run(&mut scheduler)
    };
    let classic = run(Objective::classic());
    for lambda in [0.25, 1.0] {
        let swept = run(Objective::weighted(lambda));
        assert_eq!(
            swept.event_digest, classic.event_digest,
            "λ={lambda}: event stream must be byte-identical"
        );
        assert_eq!(swept.jobs_submitted, classic.jobs_submitted);
    }
}

/// The slow pinned-seed regression behind the tunable objective: on the
/// churny family, the λ = 1 (mean-flowtime-targeted) cMA must improve
/// the *realized* mean response versus the classic λ = 0 cMA on the
/// same event stream, for each pinned seed — and the event stream
/// itself must be byte-identical (the objective must not perturb the
/// simulation RNG). Run with `cargo test -- --ignored`.
#[test]
#[ignore = "slow pinned-seed dynamic-grid regression (run with -- --ignored)"]
fn lambda_targeted_cma_improves_realized_mean_response_on_churny() {
    let budget = StopCondition::children(2_000);
    // Seeds pinned from a 10-seed survey (λ=1 improved mean response on
    // 8 of 10; these three are comfortably inside the winning set).
    for seed in [1u64, 2, 8] {
        let mut classic = CmaScheduler::new(budget);
        let baseline = Simulation::new(SimConfig::churny(), seed).run(&mut classic);
        let mut targeted = CmaScheduler::new(budget).with_objective(Objective::mean_flowtime());
        let response = Simulation::new(SimConfig::churny(), seed).run(&mut targeted);
        assert_eq!(
            response.event_digest, baseline.event_digest,
            "seed {seed}: objective must not perturb the event stream"
        );
        assert_eq!(response.jobs_submitted, baseline.jobs_submitted);
        assert_eq!(response.jobs_completed, response.jobs_submitted);
        assert!(
            response.mean_response() < baseline.mean_response(),
            "seed {seed}: λ=1 mean response ({}) must beat λ=0 ({})",
            response.mean_response(),
            baseline.mean_response()
        );
    }
}

#[test]
fn simulator_snapshot_is_a_valid_static_instance() {
    // The simulator exposes its scheduling rounds through the
    // BatchScheduler trait; a capturing scheduler verifies the snapshots
    // are well-formed static problems (ETC positive, ready times sane).
    struct Capture {
        inner: HeuristicScheduler,
        snapshots: usize,
    }
    impl cmags::gridsim::scheduler::BatchScheduler for Capture {
        fn name(&self) -> String {
            "capture".to_owned()
        }
        fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
            assert!(instance.nb_jobs() > 0);
            assert!(instance.nb_machines() >= 2);
            assert!(instance.etc().min_etc() > 0.0);
            assert!(instance.ready_times().iter().all(|&r| r >= 0.0));
            self.snapshots += 1;
            self.inner.schedule(instance, seed)
        }
    }
    let mut capture = Capture {
        inner: HeuristicScheduler::new(ConstructiveKind::MinMin),
        snapshots: 0,
    };
    let report = Simulation::new(SimConfig::small(), 3).run(&mut capture);
    assert!(capture.snapshots > 0);
    assert_eq!(capture.snapshots as u64, report.activations);
}

/// Every simulation-visible output that must not move by a single bit
/// between the two event-queue backends.
fn assert_bit_identical(calendar: &SimReport, heap: &SimReport, what: &str) {
    assert_eq!(
        calendar.event_digest, heap.event_digest,
        "{what}: event digest"
    );
    assert_eq!(
        calendar.fault_digest, heap.fault_digest,
        "{what}: fault digest"
    );
    assert_eq!(
        calendar.realized_makespan.to_bits(),
        heap.realized_makespan.to_bits(),
        "{what}: makespan bits"
    );
    assert_eq!(
        calendar.flowtime.to_bits(),
        heap.flowtime.to_bits(),
        "{what}: flowtime bits"
    );
    assert_eq!(
        calendar.events_processed, heap.events_processed,
        "{what}: event count"
    );
    assert_eq!(
        (
            calendar.jobs_submitted,
            calendar.jobs_completed,
            calendar.jobs_dropped,
            calendar.resubmissions,
            calendar.job_failures,
            calendar.machine_crashes,
            calendar.wasted_ticks,
        ),
        (
            heap.jobs_submitted,
            heap.jobs_completed,
            heap.jobs_dropped,
            heap.resubmissions,
            heap.job_failures,
            heap.machine_crashes,
            heap.wasted_ticks,
        ),
        "{what}: job/fault accounting"
    );
    assert_eq!(
        (&calendar.telemetry.wait, &calendar.telemetry.response),
        (&heap.telemetry.wait, &heap.telemetry.response),
        "{what}: tick histograms"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random `(family, seed)` under MCT: the calendar queue replays the
    /// `BinaryHeap` reference bit for bit, across every scenario family
    /// and not just the pinned seed.
    #[test]
    fn queue_backends_are_bit_identical_for_any_family_and_seed(
        family_idx in 0..ScenarioFamily::ALL.len(),
        seed in 0u64..1000,
    ) {
        let family = ScenarioFamily::ALL[family_idx];
        let run = |queue| {
            let mut config = SimConfig::from_family(family);
            config.queue = queue;
            let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
            Simulation::new(config, seed).run(&mut scheduler)
        };
        assert_bit_identical(
            &run(QueueKind::Calendar),
            &run(QueueKind::Heap),
            &format!("{family}/seed {seed}"),
        );
    }
}
