//! Full (from-scratch) evaluation of the two objectives.

use crate::{ticks, Problem, Schedule};

/// The two objective values of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Finishing time of the latest job: `max_m completion[m]`.
    pub makespan: f64,
    /// Sum of job finishing times under SPT intra-machine order.
    pub flowtime: f64,
}

impl Objectives {
    /// Flowtime divided by the number of machines — the "mean flowtime"
    /// the paper feeds into Eq. 3.
    #[must_use]
    pub fn mean_flowtime(&self, nb_machines: usize) -> f64 {
        self.flowtime / nb_machines as f64
    }
}

/// Evaluates a schedule from scratch in `O(jobs · log(jobs))`.
///
/// Buckets jobs by machine, sorts each bucket by ETC ascending (SPT), and
/// accumulates completions and finishing times. All arithmetic happens in
/// exact fixed-point ticks (see [`crate::ticks`]), so the result is
/// independent of summation order and agrees **bit-for-bit** with the
/// incremental/batched paths of [`crate::EvalState`] — a property the
/// test-suite checks exhaustively.
///
/// # Panics
///
/// Panics (in debug builds) if the schedule length mismatches the problem.
#[must_use]
pub fn evaluate(problem: &Problem, schedule: &Schedule) -> Objectives {
    debug_assert_eq!(schedule.nb_jobs(), problem.nb_jobs());
    let nb_machines = problem.nb_machines();

    // Bucket tick ETC values per machine.
    let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); nb_machines];
    for (job, machine) in schedule.iter() {
        buckets[machine as usize].push(problem.etc(job, machine));
    }

    let mut makespan = 0i128;
    let mut flowtime = 0i128;
    for (m, bucket) in buckets.iter_mut().enumerate() {
        // SPT order. Ties in tick value commute exactly under integer
        // addition, so any tie order yields the same objectives.
        bucket.sort_unstable();
        let mut clock = i128::from(problem.ready(m as u32));
        for &etc in bucket.iter() {
            clock += i128::from(etc);
            flowtime += clock;
        }
        // `clock` is now the machine completion time. An empty machine
        // contributes its ready time, mirroring Eq. 1/2 where completion
        // of an unused machine is its ready time.
        makespan = makespan.max(clock);
    }
    Objectives {
        makespan: ticks::time(makespan),
        flowtime: ticks::time(flowtime),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::{EtcMatrix, GridInstance};

    fn problem_with_ready(ready: Vec<f64>) -> Problem {
        // 4 jobs x 2 machines.
        let etc = EtcMatrix::from_rows(
            4,
            2,
            vec![
                2.0, 4.0, //
                1.0, 8.0, //
                3.0, 2.0, //
                5.0, 6.0,
            ],
        );
        Problem::from_instance(&GridInstance::with_ready_times("t", etc, ready))
    }

    #[test]
    fn hand_computed_example() {
        let p = problem_with_ready(vec![0.0, 0.0]);
        // Jobs 0,1 on machine 0 (ETCs 2,1), jobs 2,3 on machine 1 (2,6).
        let s = Schedule::from_assignment(vec![0, 0, 1, 1]);
        let obj = evaluate(&p, &s);
        // m0: SPT order [1,2] -> finishes at 1,3; completion 3.
        // m1: SPT order [2,6] -> finishes at 2,8; completion 8.
        assert_eq!(obj.makespan, 8.0);
        assert_eq!(obj.flowtime, 1.0 + 3.0 + 2.0 + 8.0);
    }

    #[test]
    fn ready_times_shift_everything() {
        let p = problem_with_ready(vec![10.0, 0.0]);
        let s = Schedule::from_assignment(vec![0, 0, 1, 1]);
        let obj = evaluate(&p, &s);
        // m0 completions now 11 and 13.
        assert_eq!(obj.makespan, 13.0);
        assert_eq!(obj.flowtime, 11.0 + 13.0 + 2.0 + 8.0);
    }

    #[test]
    fn spt_order_is_used_for_flowtime() {
        let p = problem_with_ready(vec![0.0, 0.0]);
        // Jobs 0 (etc 2) and 3 (etc 5) on machine 0. SPT: finish 2, then 7.
        let s = Schedule::from_assignment(vec![0, 1, 1, 0]);
        let obj = evaluate(&p, &s);
        // m0 flowtime = 2 + 7 = 9 (SPT), not 5 + 7 = 12 (job order).
        // m1: ETCs 8, 2 -> SPT finishes 2, 10.
        assert_eq!(obj.flowtime, 9.0 + 12.0);
        assert_eq!(obj.makespan, 10.0);
    }

    #[test]
    fn single_machine_flowtime_at_least_makespan() {
        let p = problem_with_ready(vec![0.0, 0.0]);
        let s = Schedule::uniform(4, 0);
        let obj = evaluate(&p, &s);
        assert!(obj.flowtime >= obj.makespan);
        assert_eq!(obj.makespan, 2.0 + 1.0 + 3.0 + 5.0);
    }

    #[test]
    fn mean_flowtime_divides() {
        let obj = Objectives {
            makespan: 1.0,
            flowtime: 30.0,
        };
        assert_eq!(obj.mean_flowtime(3), 10.0);
    }

    #[test]
    fn empty_machine_counts_ready_for_makespan() {
        // All jobs on machine 1; machine 0 idle but ready at t=50.
        let p = problem_with_ready(vec![50.0, 0.0]);
        let s = Schedule::uniform(4, 1);
        let obj = evaluate(&p, &s);
        // Idle machine's ready time (50) exceeds m1's completion (20).
        assert_eq!(obj.makespan, 50.0);
    }
}
