//! Outcome pins for the paper cMA on the Braun suite and on grid-batch
//! shapes.
//!
//! The Table 1 configuration runs to a fixed children budget on the
//! twelve `u_{c,i,s}_{hihi,hilo,lohi,lolo}.0` instances at their native
//! 512×16, plus two `u_c_lolo.0` instances shaped like the simulator's
//! batches: 128 jobs on 4000 machines and 16 jobs on 128 machines, where
//! most machines are empty and tie at completion zero. Each run folds its
//! final schedule and its fitness bits into one FNV-1a digest, once with
//! LMCTS (Table 1) and once with the flowtime-ranked swap scan. Any
//! change to the swap scan, the rebalance mutation or the delta
//! evaluator that flips one tie-break on these instances moves a digest
//! here.

use cmags_cma::{CmaConfig, StopCondition};
use cmags_core::Problem;
use cmags_etc::{braun, InstanceClass};
use cmags_heuristics::local_search::LocalSearchKind;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Children per run: three outer iterations of Table 1 (37 children each).
const CHILDREN: u64 = 111;

fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

fn instances() -> Vec<Problem> {
    let mut problems: Vec<Problem> = braun::generate_suite(0, 0)
        .iter()
        .map(Problem::from_instance)
        .collect();
    let class: InstanceClass = "u_c_lolo.0".parse().expect("class label");
    for (jobs, machines) in [(128, 4000), (16, 128)] {
        problems.push(Problem::from_instance(&braun::generate(
            class.with_dims(jobs, machines),
            0,
        )));
    }
    problems
}

fn digest(kind: LocalSearchKind, problems: &[Problem]) -> u64 {
    let config = CmaConfig::paper()
        .with_local_search(kind)
        .with_stop(StopCondition::children(CHILDREN));
    let mut digest = FNV_OFFSET;
    for (i, problem) in problems.iter().enumerate() {
        let outcome = config.run(problem, 11 + i as u64);
        fold(&mut digest, outcome.schedule.nb_jobs() as u64);
        for &machine in outcome.schedule.assignment() {
            fold(&mut digest, u64::from(machine));
        }
        fold(&mut digest, outcome.fitness.to_bits());
    }
    digest
}

#[test]
fn paper_cma_outcomes_are_pinned_on_braun_and_batch_shapes() {
    let problems = instances();
    assert_eq!(problems.len(), 14);
    let observed = [
        ("LMCTS", digest(LocalSearchKind::Lmcts, &problems)),
        ("LFTS", digest(LocalSearchKind::FlowtimeSwap, &problems)),
    ];
    let pins: [(&str, u64); 2] = [
        ("LMCTS", 0x7511_3fde_682b_cd59),
        ("LFTS", 0x350c_4869_9441_24ad),
    ];
    let mismatches: Vec<String> = observed
        .iter()
        .zip(&pins)
        .filter(|(seen, pin)| seen.1 != pin.1)
        .map(|(seen, _)| format!("{}: {:#018x}", seen.0, seen.1))
        .collect();
    assert!(mismatches.is_empty(), "cMA outcomes moved: {mismatches:?}");
}
