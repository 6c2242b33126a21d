//! Dense ETC matrix storage and consistency analysis.

use crate::Consistency;

/// Exclusive upper bound, in time units, on the times the workspace's
/// fixed-point tick arithmetic (`cmags_core::ticks`) represents exactly:
/// `2³¹ ≈ 2.1·10⁹` units, where the `2⁻³²`-unit tick count of a value
/// reaches `2⁶³` and saturates. The `.etc` parser rejects cells at or
/// beyond it.
pub const TIME_RANGE: f64 = (1u64 << 31) as f64;

/// A dense `nb_jobs × nb_machines` matrix of expected execution times.
///
/// Storage is row-major (`data[job * nb_machines + machine]`), so scanning
/// the candidate machines of one job — the hot access pattern of every
/// heuristic in this workspace — walks contiguous memory.
///
/// All entries must be strictly positive and finite; constructors enforce
/// this so downstream evaluation code can skip the checks.
#[derive(Debug, Clone, PartialEq)]
pub struct EtcMatrix {
    nb_jobs: usize,
    nb_machines: usize,
    data: Box<[f64]>,
}

impl EtcMatrix {
    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not equal `nb_jobs * nb_machines`,
    /// if either dimension is zero, or if any entry is not strictly
    /// positive and finite.
    #[must_use]
    pub fn from_rows(nb_jobs: usize, nb_machines: usize, data: Vec<f64>) -> Self {
        assert!(nb_jobs > 0, "nb_jobs must be positive");
        assert!(nb_machines > 0, "nb_machines must be positive");
        // A wrapped product must not pass for a matching length.
        assert_eq!(
            nb_jobs.checked_mul(nb_machines),
            Some(data.len()),
            "data length {} does not match {nb_jobs}x{nb_machines}",
            data.len()
        );
        // A non-short-circuit count of `x > 0` and `x < ∞` (NaN fails
        // both), kept as two separate tallies: LLVM folds the conjoined
        // test into a scalar bit-class check, but vectorises the counts.
        let (positive, below_infinity) = data.iter().fold((0usize, 0usize), |(p, f), &x| {
            (p + usize::from(x > 0.0), f + usize::from(x < f64::INFINITY))
        });
        assert!(
            positive == data.len() && below_infinity == data.len(),
            "ETC entries must be strictly positive and finite"
        );
        Self {
            nb_jobs,
            nb_machines,
            data: data.into_boxed_slice(),
        }
    }

    /// Consumes the matrix and returns its row-major backing storage,
    /// so callers that rebuild snapshot matrices every round (the
    /// dynamic-grid dispatcher) can recycle the allocation via
    /// [`EtcMatrix::from_rows`].
    #[must_use]
    pub fn into_rows(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Builds a matrix by evaluating `f(job, machine)` for every cell.
    #[must_use]
    pub fn from_fn(
        nb_jobs: usize,
        nb_machines: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(nb_jobs * nb_machines);
        for job in 0..nb_jobs {
            for machine in 0..nb_machines {
                data.push(f(job, machine));
            }
        }
        Self::from_rows(nb_jobs, nb_machines, data)
    }

    /// Number of jobs (rows).
    #[inline]
    #[must_use]
    pub fn nb_jobs(&self) -> usize {
        self.nb_jobs
    }

    /// Number of machines (columns).
    #[inline]
    #[must_use]
    pub fn nb_machines(&self) -> usize {
        self.nb_machines
    }

    /// Expected time to compute job `job` on machine `machine`.
    #[inline]
    #[must_use]
    pub fn get(&self, job: usize, machine: usize) -> f64 {
        debug_assert!(job < self.nb_jobs && machine < self.nb_machines);
        self.data[job * self.nb_machines + machine]
    }

    /// The row of ETC values of one job across all machines.
    #[inline]
    #[must_use]
    pub fn row(&self, job: usize) -> &[f64] {
        let start = job * self.nb_machines;
        &self.data[start..start + self.nb_machines]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.nb_machines)
    }

    /// Raw row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The machine with the smallest ETC for `job`, with that ETC value.
    ///
    /// Ties resolve to the lowest machine index, which keeps every
    /// deterministic heuristic reproducible.
    #[must_use]
    pub fn fastest_machine_for(&self, job: usize) -> (usize, f64) {
        let row = self.row(job);
        let mut best = (0usize, row[0]);
        for (m, &etc) in row.iter().enumerate().skip(1) {
            if etc < best.1 {
                best = (m, etc);
            }
        }
        best
    }

    /// Whether the matrix is consistent: one global machine ordering makes
    /// every row non-decreasing.
    ///
    /// Following the benchmark's construction we check the orderings
    /// implied by each pair of columns: machine `a` dominates machine `b`
    /// when `ETC[j][a] <= ETC[j][b]` for all jobs `j`. The matrix is
    /// consistent iff every pair of machines is ordered by dominance.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.columns_consistent(&(0..self.nb_machines).collect::<Vec<_>>())
    }

    /// Whether the even-indexed columns form a consistent sub-matrix —
    /// the structural property of the benchmark's *semi-consistent*
    /// instances.
    #[must_use]
    pub fn even_columns_consistent(&self) -> bool {
        let cols: Vec<usize> = (0..self.nb_machines).step_by(2).collect();
        self.columns_consistent(&cols)
    }

    /// Classifies the matrix structure.
    ///
    /// Note this checks the *structural* property only. A randomly drawn
    /// "inconsistent" matrix is, with probability essentially one,
    /// structurally inconsistent as well; the distinction matters only in
    /// degenerate tiny matrices.
    #[must_use]
    pub fn classify(&self) -> Consistency {
        if self.is_consistent() {
            Consistency::Consistent
        } else if self.even_columns_consistent() {
            Consistency::SemiConsistent
        } else {
            Consistency::Inconsistent
        }
    }

    fn columns_consistent(&self, cols: &[usize]) -> bool {
        // Pairwise dominance between all selected columns. For the 16-machine
        // benchmark this is at most 120 column pairs x 512 rows.
        for (i, &a) in cols.iter().enumerate() {
            for &b in &cols[i + 1..] {
                let mut a_le_b = true;
                let mut b_le_a = true;
                for job in 0..self.nb_jobs {
                    let (ea, eb) = (self.get(job, a), self.get(job, b));
                    if ea > eb {
                        a_le_b = false;
                    }
                    if eb > ea {
                        b_le_a = false;
                    }
                    if !a_le_b && !b_le_a {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Smallest entry of the matrix.
    #[must_use]
    pub fn min_etc(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest entry of the matrix.
    #[must_use]
    pub fn max_etc(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sorts each row ascending in place — the benchmark's construction of
    /// consistent matrices. Exposed for generator and test use.
    pub(crate) fn sort_rows(&mut self) {
        for row in self.data.chunks_exact_mut(self.nb_machines) {
            row.sort_by(f64::total_cmp);
        }
    }

    /// Sorts the even-indexed entries of each row ascending in place — the
    /// benchmark's construction of semi-consistent matrices.
    pub(crate) fn sort_even_columns(&mut self) {
        let mut evens: Vec<f64> = Vec::with_capacity(self.nb_machines / 2 + 1);
        for row in self.data.chunks_exact_mut(self.nb_machines) {
            evens.clear();
            evens.extend(row.iter().step_by(2).copied());
            evens.sort_by(f64::total_cmp);
            for (slot, &v) in row.iter_mut().step_by(2).zip(&evens) {
                *slot = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EtcMatrix {
        // 3 jobs x 2 machines.
        EtcMatrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 6.0, 5.0, 10.0])
    }

    #[test]
    fn get_and_row_agree() {
        let m = small();
        assert_eq!(m.get(1, 1), 6.0);
        assert_eq!(m.row(2), &[5.0, 10.0]);
        assert_eq!(m.rows().count(), 3);
    }

    #[test]
    fn fastest_machine_breaks_ties_low() {
        let m = EtcMatrix::from_rows(1, 3, vec![2.0, 1.0, 1.0]);
        assert_eq!(m.fastest_machine_for(0), (1, 1.0));
    }

    #[test]
    fn consistency_detection() {
        // Rows all ascending under the same ordering -> consistent.
        let c = EtcMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(c.is_consistent());
        assert_eq!(c.classify(), Consistency::Consistent);

        // Machine orderings disagree between rows -> inconsistent.
        let i = EtcMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 3.0, 2.0, 1.0]);
        assert!(!i.is_consistent());
        assert_eq!(i.classify(), Consistency::Inconsistent);
    }

    #[test]
    fn consistency_is_ordering_not_sortedness() {
        // Consistent under the machine ordering (1, 0, 2) although no row is
        // sorted by machine index.
        let c = EtcMatrix::from_rows(2, 3, vec![2.0, 1.0, 3.0, 20.0, 10.0, 30.0]);
        assert!(c.is_consistent());
    }

    #[test]
    fn semi_consistency_detection() {
        // 4 machines; even columns (0, 2) consistent, odd columns scrambled.
        let s = EtcMatrix::from_rows(
            2,
            4,
            vec![
                1.0, 9.0, 2.0, 3.0, //
                4.0, 2.0, 8.0, 1.0,
            ],
        );
        assert!(!s.is_consistent());
        assert!(s.even_columns_consistent());
        assert_eq!(s.classify(), Consistency::SemiConsistent);
    }

    #[test]
    fn sort_rows_produces_consistent() {
        let mut m = EtcMatrix::from_rows(2, 3, vec![3.0, 1.0, 2.0, 9.0, 7.0, 8.0]);
        m.sort_rows();
        assert!(m.is_consistent());
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sort_even_columns_only_touches_even() {
        let mut m = EtcMatrix::from_rows(1, 5, vec![5.0, 9.0, 3.0, 8.0, 1.0]);
        m.sort_even_columns();
        assert_eq!(m.row(0), &[1.0, 9.0, 3.0, 8.0, 5.0]);
    }

    #[test]
    fn min_max() {
        let m = small();
        assert_eq!(m.min_etc(), 1.0);
        assert_eq!(m.max_etc(), 10.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_wrong_length() {
        let _ = EtcMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match 274177x67280421310721")]
    #[cfg(target_pointer_width = "64")]
    fn rejects_a_shape_whose_product_wraps() {
        // 274177 · 67280421310721 = 2⁶⁴ + 1: an unchecked product wraps
        // to 1 and would accept this one-cell buffer (in release builds,
        // where overflow is not trapped).
        let _ = EtcMatrix::from_rows(274_177, 67_280_421_310_721, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn rejects_non_positive_entries() {
        let _ = EtcMatrix::from_rows(1, 2, vec![1.0, 0.0]);
    }

    #[test]
    fn rejects_exactly_the_non_positive_or_non_finite_entries() {
        let bad = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.0,
            -f64::from_bits(1),
        ];
        // Each bad value at the first, a middle and the last cell.
        for value in bad {
            for at in [0, 37, 99] {
                let mut data = vec![1.5; 100];
                data[at] = value;
                let payload = std::panic::catch_unwind(|| EtcMatrix::from_rows(10, 10, data))
                    .expect_err("a bad cell must be rejected");
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                assert!(
                    message.contains("strictly positive"),
                    "{value} at cell {at}: panicked with {message:?}"
                );
            }
        }
        // The extremes of the valid range stay accepted.
        let m = EtcMatrix::from_rows(1, 3, vec![f64::from_bits(1), f64::MIN_POSITIVE, f64::MAX]);
        assert_eq!(m.max_etc(), f64::MAX);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn rejects_nan_entries() {
        let _ = EtcMatrix::from_rows(1, 2, vec![1.0, f64::NAN]);
    }
}
