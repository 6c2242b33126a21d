//! Neighbourhood patterns (paper §3.2, Fig. 1).
//!
//! The neighbourhood shape is the main lever on the algorithm's selective
//! pressure: small neighbourhoods (L5) propagate good genes slowly
//! (exploration), large ones (C13) approach panmictic behaviour
//! (exploitation). The paper's tuning selected **C9**.

use crate::Torus;

/// A neighbourhood pattern on the toroidal population grid.
///
/// All patterns include the centre cell, matching Fig. 1 of the paper
/// (counts: L5 = 5, L9 = 9, C9 = 9, C13 = 13 individuals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighborhood {
    /// The whole population (unstructured baseline).
    Panmictic,
    /// Von Neumann cross: centre + N, S, E, W.
    L5,
    /// Linear arms of length 2: centre + 2 cells in each axial direction.
    L9,
    /// Moore 3×3 square.
    C9,
    /// C9 plus one extra cell in each axial direction.
    C13,
}

/// Axial and diagonal offset tables, shared by the compact patterns.
const L5_OFFSETS: [(isize, isize); 5] = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)];
const L9_OFFSETS: [(isize, isize); 9] = [
    (0, 0),
    (-1, 0),
    (1, 0),
    (0, -1),
    (0, 1),
    (-2, 0),
    (2, 0),
    (0, -2),
    (0, 2),
];
const C9_OFFSETS: [(isize, isize); 9] = [
    (0, 0),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];
const C13_OFFSETS: [(isize, isize); 13] = [
    (0, 0),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
    (-2, 0),
    (2, 0),
    (0, -2),
    (0, 2),
];

impl Neighborhood {
    /// The patterns compared in the paper's Fig. 3, in plot order.
    pub const PAPER_PATTERNS: [Neighborhood; 5] = [
        Neighborhood::Panmictic,
        Neighborhood::L5,
        Neighborhood::L9,
        Neighborhood::C9,
        Neighborhood::C13,
    ];

    /// Collects the cell indices of the neighbourhood of `center` into
    /// `out` (cleared first). Indices are deduplicated — on grids smaller
    /// than the pattern, wrapped offsets can collide — and sorted for
    /// determinism. The centre cell is always present.
    pub fn collect(&self, torus: Torus, center: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            Neighborhood::Panmictic => out.extend(0..torus.len()),
            Neighborhood::L5 => Self::offsets_into(torus, center, &L5_OFFSETS, out),
            Neighborhood::L9 => Self::offsets_into(torus, center, &L9_OFFSETS, out),
            Neighborhood::C9 => Self::offsets_into(torus, center, &C9_OFFSETS, out),
            Neighborhood::C13 => Self::offsets_into(torus, center, &C13_OFFSETS, out),
        }
    }

    fn offsets_into(torus: Torus, center: usize, offsets: &[(isize, isize)], out: &mut Vec<usize>) {
        out.extend(offsets.iter().map(|&(dr, dc)| torus.offset(center, dr, dc)));
        out.sort_unstable();
        out.dedup();
    }

    /// Report name as used in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Neighborhood::Panmictic => "Panmictic",
            Neighborhood::L5 => "L5",
            Neighborhood::L9 => "L9",
            Neighborhood::C9 => "C9",
            Neighborhood::C13 => "C13",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(n: Neighborhood, torus: Torus, center: usize) -> Vec<usize> {
        let mut out = Vec::new();
        n.collect(torus, center, &mut out);
        out
    }

    #[test]
    fn sizes_on_paper_grid_match_fig1() {
        // The 5x5 grid of Table 1 is large enough for no collisions
        // except L9/C13 arms: on width 5, +/-2 offsets stay distinct.
        let torus = Torus::new(5, 5);
        let center = torus.index(2, 2);
        assert_eq!(collect(Neighborhood::L5, torus, center).len(), 5);
        assert_eq!(collect(Neighborhood::L9, torus, center).len(), 9);
        assert_eq!(collect(Neighborhood::C9, torus, center).len(), 9);
        assert_eq!(collect(Neighborhood::C13, torus, center).len(), 13);
        assert_eq!(collect(Neighborhood::Panmictic, torus, center).len(), 25);
    }

    #[test]
    fn centre_is_always_included() {
        let torus = Torus::new(5, 5);
        for n in Neighborhood::PAPER_PATTERNS {
            for center in 0..torus.len() {
                assert!(
                    collect(n, torus, center).contains(&center),
                    "{} missing centre {center}",
                    n.name()
                );
            }
        }
    }

    #[test]
    fn symmetry_i_in_neighborhood_of_j() {
        // All patterns are symmetric offset sets, so membership must be
        // mutual on any torus.
        for (h, w) in [(5, 5), (4, 7), (3, 3)] {
            let torus = Torus::new(h, w);
            for n in Neighborhood::PAPER_PATTERNS {
                for i in 0..torus.len() {
                    for &j in &collect(n, torus, i) {
                        assert!(
                            collect(n, torus, j).contains(&i),
                            "{} not symmetric on {h}x{w}: {j} in N({i}) but not vice versa",
                            n.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wrapping_collisions_are_deduplicated() {
        // On a 3x3 torus, +/-2 arms collide with +/-1 arms.
        let torus = Torus::new(3, 3);
        let cells = collect(Neighborhood::C13, torus, 4);
        let mut unique = cells.clone();
        unique.dedup();
        assert_eq!(cells, unique, "indices must be deduplicated");
        assert_eq!(cells.len(), 9, "C13 on 3x3 collapses to the full grid");
    }

    #[test]
    fn l5_is_the_von_neumann_cross() {
        let torus = Torus::new(5, 5);
        let center = torus.index(2, 2);
        let mut expected = vec![
            center,
            torus.index(1, 2),
            torus.index(3, 2),
            torus.index(2, 1),
            torus.index(2, 3),
        ];
        expected.sort_unstable();
        assert_eq!(collect(Neighborhood::L5, torus, center), expected);
    }

    #[test]
    fn c9_is_the_moore_square() {
        let torus = Torus::new(5, 5);
        let center = torus.index(0, 0);
        let cells = collect(Neighborhood::C9, torus, center);
        assert_eq!(cells.len(), 9);
        for &c in &cells {
            assert!(torus.manhattan(center, c) <= 2);
        }
    }

    #[test]
    fn all_cells_valid_indices() {
        let torus = Torus::new(4, 6);
        for n in Neighborhood::PAPER_PATTERNS {
            for center in 0..torus.len() {
                for &c in &collect(n, torus, center) {
                    assert!(c < torus.len());
                }
            }
        }
    }
}
