//! # cmags-bench — experiment harness
//!
//! Regenerates **every table and figure** of the reproduced paper
//! (`DESIGN.md` §4 maps each experiment id to its binary):
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `fig2` | Fig. 2 — local search methods (LM/SLM/LMCTS) |
//! | `fig3` | Fig. 3 — neighbourhood patterns |
//! | `fig4` | Fig. 4 — N-tournament selection |
//! | `fig5` | Fig. 5 — cell update orders |
//! | `table1` | Table 1 — tuned configuration dump |
//! | `table2` | Table 2 — makespan, cMA vs Braun et al. GA |
//! | `table3` | Table 3 — makespan, cMA vs steady-state & Struggle GA |
//! | `table4` | Table 4 — flowtime, cMA vs LJFR-SJFR |
//! | `table5` | Table 5 — flowtime, cMA vs Struggle GA |
//! | `robustness` | §5.1 — stddev of makespan over repeated runs |
//! | `ablation` | `DESIGN.md` ABL-* — component ablations |
//! | `dynamic` | §1/§6 claim — dynamic scheduling via `cmags-gridsim` |
//! | `portfolio` | racing portfolio vs best single engine at equal children |
//! | `sim_scale` | event-core scale: queue hold model, throughput, flatness (`--large`) |
//! | `full_eval` | runs everything above in sequence |
//!
//! Every binary accepts `--paper` (full 90 s × 10-run protocol),
//! `--budget-ms`, `--runs`, `--seed`, `--threads`, `--jobs`,
//! `--machines` and `--out <dir>`; results are printed as Markdown and
//! written as CSV under `results/`.
//!
//! The absolute numbers of the original tables cannot be matched — the
//! benchmark instance *files* are not redistributable, so same-class
//! instances are regenerated (`DESIGN.md` §3) — but the comparisons
//! (who wins, by what order of magnitude, where the consistency classes
//! flip the ranking) are the reproduction target, and the paper's
//! reference values ship in [`mod@reference`] for side-by-side display.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod reference;
pub mod report;
pub mod runner;
pub mod stats;
