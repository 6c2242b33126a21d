//! Schedule pins for every constructive heuristic on the full Braun
//! 512×16 suite.
//!
//! Each [`ConstructiveKind`] folds the schedules it builds on the twelve
//! `u_{c,i,s}_{hihi,hilo,lohi,lolo}.0` instances, plus one instance with
//! non-zero ready times, into one FNV-1a digest. The constants pin the
//! exact assignments, so any change to the planners' arithmetic that
//! flips a single tie-break or comparison on a real benchmark instance
//! moves a digest here. The hand-built toy instances of the unit tests
//! cannot show that.

use cmags_core::Problem;
use cmags_etc::{braun, GridInstance, InstanceClass};
use cmags_heuristics::constructive::ConstructiveKind;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

/// The twelve Braun classes at their native 512×16, then `u_i_hihi.0`
/// (drawn from a second stream) with a backlog on every machine: the
/// ready time of machine `m` is the ETC sum of the first 64 jobs dealt
/// to it round-robin, so the ready times are non-dyadic and unequal.
fn instances() -> Vec<Problem> {
    let mut problems: Vec<Problem> = braun::generate_suite(0, 0)
        .iter()
        .map(Problem::from_instance)
        .collect();
    let class: InstanceClass = "u_i_hihi.0".parse().expect("class label");
    let (name, etc, _) = braun::generate(class, 1).into_parts();
    let nb_machines = etc.nb_machines();
    let mut ready = vec![0.0f64; nb_machines];
    for job in 0..64 {
        ready[job % nb_machines] += etc.get(job, job % nb_machines);
    }
    assert!(ready.iter().all(|&r| r > 0.0));
    problems.push(Problem::from_instance(&GridInstance::with_ready_times(
        name, etc, ready,
    )));
    problems
}

/// FNV-1a digests of every kind's schedules over [`instances`], in
/// [`ConstructiveKind::ALL`] order.
const PINS: [(&str, u64); 9] = [
    ("LJFR-SJFR", 0xca13_0a39_5a5b_52af),
    ("Min-Min", 0xcc40_e57a_7ee2_c6fb),
    ("Max-Min", 0xf11f_8850_67dc_c6a8),
    ("Duplex", 0xcc40_e57a_7ee2_c6fb),
    ("Sufferage", 0xc3c1_14d9_de28_e751),
    ("MCT", 0x0021_6de5_d13c_0818),
    ("MET", 0xda07_fc6c_3945_c8be),
    ("OLB", 0x8e28_f928_16da_68e3),
    ("Random", 0xf21e_19df_87ff_fc3a),
];

#[test]
fn constructive_schedules_are_pinned_on_the_braun_suite() {
    let problems = instances();
    assert_eq!(problems.len(), 13);
    let mut mismatches = Vec::new();
    for (kind, &(name, pin)) in ConstructiveKind::ALL.into_iter().zip(&PINS) {
        assert_eq!(kind.name(), name);
        let mut digest = FNV_OFFSET;
        for problem in &problems {
            let schedule = kind.build(problem);
            fold(&mut digest, schedule.nb_jobs() as u64);
            for &machine in schedule.assignment() {
                fold(&mut digest, u64::from(machine));
            }
        }
        if digest != pin {
            mismatches.push(format!("{name}: {digest:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "constructive schedules moved: {mismatches:?}"
    );
}
