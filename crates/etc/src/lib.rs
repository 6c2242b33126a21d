//! # cmags-etc — the ETC workload model
//!
//! This crate implements the **Expected Time to Compute (ETC)** model of
//! Braun et al. (*"A comparison of eleven static heuristics for mapping a
//! class of independent tasks onto heterogeneous distributed computing
//! systems"*, JPDC 61(6), 2001), which is the workload substrate of the
//! reproduced paper (Xhafa, Alba & Dorronsoro, IPPS 2007).
//!
//! An ETC instance consists of:
//!
//! * a set of independent jobs (no precedence constraints),
//! * a set of heterogeneous machines, each processing one job at a time,
//! * a matrix `ETC[i][j]` — the expected execution time of job `i` on
//!   machine `j`,
//! * a per-machine *ready time* — when the machine finishes previously
//!   assigned work.
//!
//! The crate provides:
//!
//! * [`EtcMatrix`] — a dense row-major matrix with consistency analysis,
//! * [`InstanceClass`] / [`Consistency`] / [`Heterogeneity`] — the
//!   twelve-class taxonomy (`u_x_yyzz`) of the Braun benchmark,
//! * [`braun`] — the range-based instance generator reproducing the
//!   benchmark distributions (the original files are not redistributable;
//!   see `DESIGN.md` §3),
//! * [`cvb`] — the alternative Coefficient-of-Variation-Based generator
//!   of Ali et al. (2000), with a hand-rolled gamma sampler,
//! * [`GridInstance`] — matrix + ready times + metadata, the unit consumed
//!   by `cmags-core`,
//! * [`parser`] — plain-text serialization compatible with the layout used
//!   by the classic benchmark files,
//! * [`stats`] — statistical summaries used to validate generated classes.
//!
//! ## Example
//!
//! ```
//! use cmags_etc::{braun, InstanceClass};
//!
//! // Regenerate an instance of the same class as `u_c_hihi.0`.
//! let class: InstanceClass = "u_c_hihi.0".parse().unwrap();
//! let inst = braun::generate(class, 0);
//! assert_eq!(inst.nb_jobs(), 512);
//! assert_eq!(inst.nb_machines(), 16);
//! assert!(inst.etc().is_consistent());
//! ```

#![warn(missing_docs)]

pub mod braun;
mod consistency;
pub mod cvb;
mod instance;
mod matrix;
pub mod parser;
pub mod stats;

pub use consistency::{Consistency, Heterogeneity, InstanceClass, ParseClassError};
pub use instance::GridInstance;
pub use matrix::{EtcMatrix, TIME_RANGE};
