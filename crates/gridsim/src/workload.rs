//! Workload and heterogeneity model of the dynamic grid.
//!
//! Jobs and machines carry the same range-based characteristics as the
//! static Braun classes (`cmags-etc`), so a snapshot of the dynamic system
//! *is* a static benchmark instance:
//!
//! * job `j` has a baseline workload `B_j ~ U(1, φ_task)`;
//! * machine `m` has a consistent slowness factor `s_m ~ U(1, φ_mach)`;
//! * the ETC of `(j, m)` depends on the consistency class:
//!   - **consistent**: `B_j · s_m` — machine orderings agree everywhere;
//!   - **inconsistent**: `B_j · u(j, m)` with `u(j, m)` uniform on the
//!     half-open `[1, φ_mach)`, drawn from a deterministic per-pair hash;
//!   - **semi-consistent**: even-indexed machines behave consistently,
//!     odd-indexed machines draw per-pair noise.
//!
//! The per-pair noise uses a splitmix64 hash of `(world_seed, job,
//! machine)`, so the ETC of a pair is stable across activations without
//! storing a matrix over an unbounded job stream.

use cmags_etc::{braun, Consistency, InstanceClass};
use rand::rngs::SmallRng;
use rand::Rng;

/// Static characteristics of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Job identifier.
    pub id: u64,
    /// Baseline workload `B_j`.
    pub baseline: f64,
}

/// Static characteristics of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Machine identifier.
    pub id: u64,
    /// Consistent slowness factor `s_m` (1 = fastest possible).
    pub slowness: f64,
}

/// The heterogeneity/consistency world shared by all draws.
#[derive(Debug, Clone, Copy)]
pub struct World {
    /// Consistency class of the dynamic grid.
    pub consistency: Consistency,
    /// Task heterogeneity range `φ_task`.
    pub phi_task: f64,
    /// Machine heterogeneity range `φ_mach`.
    pub phi_mach: f64,
    /// Seed of the per-pair noise hash.
    pub noise_seed: u64,
}

impl World {
    /// Builds a world from a benchmark class (dimensions are ignored; the
    /// dynamic system sizes itself).
    #[must_use]
    pub fn from_class(class: InstanceClass, noise_seed: u64) -> Self {
        let (phi_task, phi_mach) = braun::ranges(class);
        Self {
            consistency: class.consistency,
            phi_task,
            phi_mach,
            noise_seed,
        }
    }

    /// Default world: consistent, high/high heterogeneity.
    #[must_use]
    pub fn hihi_consistent(noise_seed: u64) -> Self {
        Self {
            consistency: Consistency::Consistent,
            phi_task: braun::PHI_TASK_HI,
            phi_mach: braun::PHI_MACH_HI,
            noise_seed,
        }
    }

    /// Draws a job baseline.
    pub fn draw_baseline(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(1.0..=self.phi_task)
    }

    /// Draws a machine slowness factor.
    pub fn draw_slowness(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(1.0..=self.phi_mach)
    }

    /// The ETC of a `(job, machine)` pair under this world's consistency
    /// class. Deterministic: repeated calls always agree.
    #[must_use]
    pub fn etc(&self, job: &JobSpec, machine: &MachineSpec) -> f64 {
        self.etc_under(self.consistency, job, machine)
    }

    /// Appends the ETC row of `job` across `machines` to `row`, cell for
    /// cell equal to [`World::etc`]. The consistency match is hoisted out
    /// of the row: each arm inlines [`World::etc`]'s own formula with the
    /// class fixed, so the consistent row is one vectorisable product.
    pub(crate) fn extend_etc_row(
        &self,
        job: &JobSpec,
        machines: &[MachineSpec],
        row: &mut Vec<f64>,
    ) {
        match self.consistency {
            Consistency::Consistent => row.extend(
                machines
                    .iter()
                    .map(|m| self.etc_under(Consistency::Consistent, job, m)),
            ),
            Consistency::Inconsistent => row.extend(
                machines
                    .iter()
                    .map(|m| self.etc_under(Consistency::Inconsistent, job, m)),
            ),
            Consistency::SemiConsistent => row.extend(
                machines
                    .iter()
                    .map(|m| self.etc_under(Consistency::SemiConsistent, job, m)),
            ),
        }
    }

    /// The ETC of a pair under an explicit consistency class — the one
    /// formula behind [`World::etc`] and [`World::extend_etc_row`].
    #[inline(always)]
    fn etc_under(&self, consistency: Consistency, job: &JobSpec, machine: &MachineSpec) -> f64 {
        let multiplier = match consistency {
            Consistency::Consistent => machine.slowness,
            Consistency::Inconsistent => self.pair_noise(job.id, machine.id),
            Consistency::SemiConsistent => {
                if machine.id.is_multiple_of(2) {
                    machine.slowness
                } else {
                    self.pair_noise(job.id, machine.id)
                }
            }
        };
        job.baseline * multiplier
    }

    /// Per-pair multiplier from a splitmix64 hash, uniform on the
    /// half-open `[1, φ_mach)`: the unit draw is `[0, 1)`, so `φ_mach`
    /// itself is never attained.
    fn pair_noise(&self, job: u64, machine: u64) -> f64 {
        let mut x = self
            .noise_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(job.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(machine.wrapping_mul(0x94d0_49bb_1331_11eb));
        // splitmix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + unit * (self.phi_mach - 1.0)
    }
}

/// Job arrival process of the dynamic grid.
///
/// Generalizes the original stationary Poisson source into a family of
/// stochastic arrival models. A process is a pure *description*; the
/// simulator drives it through a stateful [`ArrivalGen`], so cloning a
/// [`crate::SimConfig`] never aliases generator state and every run is
/// deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Stationary Poisson: exponential inter-arrival gaps at `rate`
    /// (jobs per simulated second). The seed model.
    Poisson {
        /// Mean arrivals per simulated second.
        rate: f64,
    },
    /// Bursty on/off Markov-modulated Poisson process: the source
    /// alternates between a quiet phase emitting at `base_rate` and a
    /// burst phase emitting at `burst_rate`, with exponentially
    /// distributed phase dwell times. Models batch users dumping work
    /// in correlated bursts.
    Mmpp {
        /// Arrival rate of the quiet phase (may be zero: pure on/off).
        base_rate: f64,
        /// Arrival rate of the burst phase (must exceed `base_rate`).
        burst_rate: f64,
        /// Mean dwell time of the quiet phase, simulated seconds.
        mean_off: f64,
        /// Mean dwell time of the burst phase, simulated seconds.
        mean_on: f64,
    },
    /// Diurnal sinusoidal-rate Poisson process:
    /// `rate(t) = base_rate · (1 + amplitude · sin(2πt / period))`,
    /// sampled by Lewis–Shedler thinning against the peak rate. Models
    /// day/night load cycles on a utility grid.
    Diurnal {
        /// Mean arrival rate (the sinusoid's midline).
        base_rate: f64,
        /// Relative swing in `[0, 1]`; `1` silences the trough entirely.
        amplitude: f64,
        /// Cycle length in simulated seconds.
        period: f64,
    },
    /// Flash crowd: a background Poisson stream at `base_rate` plus
    /// rare spike events (Poisson at `spike_rate`) that each deliver
    /// `burst` jobs at the same instant. Models deadline stampedes and
    /// workflow fan-outs hitting the queue at once.
    FlashCrowd {
        /// Background arrival rate.
        base_rate: f64,
        /// Rate of spike events.
        spike_rate: f64,
        /// Jobs delivered simultaneously per spike (≥ 1).
        burst: u32,
    },
}

impl ArrivalProcess {
    /// Checks the process parameters.
    ///
    /// # Errors
    ///
    /// Rejects non-positive rates/periods, an MMPP whose burst rate
    /// does not exceed its base rate, an out-of-range diurnal
    /// amplitude, or an empty flash-crowd burst.
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        use crate::config::{require_non_negative, require_positive, ConfigError};
        match *self {
            Self::Poisson { rate } => {
                require_positive("arrival rate", rate)?;
            }
            Self::Mmpp {
                base_rate,
                burst_rate,
                mean_off,
                mean_on,
            } => {
                require_non_negative("MMPP base rate", base_rate)?;
                if burst_rate <= base_rate || burst_rate.is_nan() {
                    return Err(ConfigError::BurstNotAboveBase {
                        base: base_rate,
                        burst: burst_rate,
                    });
                }
                require_positive("MMPP phase dwell time", mean_off)?;
                require_positive("MMPP phase dwell time", mean_on)?;
            }
            Self::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                require_positive("diurnal base rate", base_rate)?;
                if !(0.0..=1.0).contains(&amplitude) {
                    return Err(ConfigError::OutOfRange {
                        what: "diurnal amplitude",
                        bounds: "[0, 1]",
                        got: amplitude,
                    });
                }
                require_positive("diurnal period", period)?;
            }
            Self::FlashCrowd {
                base_rate,
                spike_rate,
                burst,
            } => {
                require_positive("flash-crowd base rate", base_rate)?;
                require_positive("flash-crowd spike rate", spike_rate)?;
                if burst == 0 {
                    return Err(ConfigError::ZeroCount {
                        what: "flash-crowd burst",
                    });
                }
            }
        }
        Ok(())
    }

    /// Builds the stateful per-run generator for this process.
    ///
    /// # Panics
    ///
    /// Panics on an invalid process — validate through
    /// [`crate::SimConfig::validate`] first to get a typed error.
    #[must_use]
    pub fn generator(self) -> ArrivalGen {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        ArrivalGen {
            process: self,
            // The MMPP flips phase whenever the dwell hits zero, so
            // starting "on" with nothing left makes the first drawn
            // phase the quiet one.
            bursting: true,
            phase_left: 0.0,
            burst_left: 0,
            next_spike: None,
        }
    }
}

/// Stateful arrival generator of one simulation run.
///
/// `next_gap(now, rng)` returns the gap from `now` to the next arrival;
/// a zero gap means the next job lands at the same instant (flash-crowd
/// spikes). All randomness flows through the caller's RNG, so runs are
/// deterministic per seed.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    /// MMPP: whether the source is in its burst phase.
    bursting: bool,
    /// MMPP: simulated time left in the current phase.
    phase_left: f64,
    /// Flash crowd: jobs still due at the current spike instant.
    burst_left: u32,
    /// Flash crowd: absolute time of the next spike event.
    next_spike: Option<f64>,
}

impl ArrivalGen {
    /// Draws the gap from `now` to the next job arrival.
    pub fn next_gap(&mut self, now: f64, rng: &mut SmallRng) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate } => exp_gap(rng, rate),
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_off,
                mean_on,
            } => {
                let mut offset = 0.0;
                loop {
                    if self.phase_left <= 0.0 {
                        self.bursting = !self.bursting;
                        let mean = if self.bursting { mean_on } else { mean_off };
                        self.phase_left = exp_gap(rng, 1.0 / mean);
                        continue;
                    }
                    let rate = if self.bursting { burst_rate } else { base_rate };
                    if rate <= 0.0 {
                        // A silent phase passes with no arrival.
                        offset += self.phase_left;
                        self.phase_left = 0.0;
                        continue;
                    }
                    let gap = exp_gap(rng, rate);
                    if gap <= self.phase_left {
                        self.phase_left -= gap;
                        return offset + gap;
                    }
                    offset += self.phase_left;
                    self.phase_left = 0.0;
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
            } => {
                // Lewis–Shedler thinning against the peak rate.
                let peak = base_rate * (1.0 + amplitude);
                let mut t = now;
                loop {
                    t += exp_gap(rng, peak);
                    let phase = std::f64::consts::TAU * t / period;
                    let rate = base_rate * (1.0 + amplitude * phase.sin());
                    let u: f64 = rng.gen();
                    if u * peak < rate {
                        return t - now;
                    }
                }
            }
            ArrivalProcess::FlashCrowd {
                base_rate,
                spike_rate,
                burst,
            } => {
                if self.burst_left > 0 {
                    self.burst_left -= 1;
                    return 0.0;
                }
                let next_spike = match self.next_spike {
                    Some(t) => t,
                    None => {
                        let t = now + exp_gap(rng, spike_rate);
                        self.next_spike = Some(t);
                        t
                    }
                };
                let base_gap = exp_gap(rng, base_rate);
                if now + base_gap < next_spike {
                    return base_gap;
                }
                // The spike fires first: `burst` jobs land at its
                // instant — this one now, the rest via zero gaps.
                self.burst_left = burst - 1;
                self.next_spike = Some(next_spike + exp_gap(rng, spike_rate));
                (next_spike - now).max(0.0)
            }
        }
    }
}

/// Exponential inter-event gap with mean `1 / rate`.
pub(crate) fn exp_gap(rng: &mut SmallRng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    // Inverse CDF of Exp(rate); clamp the uniform away from 0.
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn job(id: u64, baseline: f64) -> JobSpec {
        JobSpec { id, baseline }
    }

    fn machine(id: u64, slowness: f64) -> MachineSpec {
        MachineSpec { id, slowness }
    }

    #[test]
    fn consistent_world_preserves_machine_order() {
        let world = World::hihi_consistent(1);
        let fast = machine(0, 2.0);
        let slow = machine(1, 9.0);
        for id in 0..50 {
            let j = job(id, 10.0 + id as f64);
            assert!(world.etc(&j, &fast) < world.etc(&j, &slow));
        }
    }

    #[test]
    fn etc_rows_equal_per_cell_etc() {
        let machines: Vec<MachineSpec> = (0..37)
            .map(|id| machine(id * 3 + 1, 1.0 + id as f64 * 0.61))
            .collect();
        let jobs: Vec<JobSpec> = (0..9)
            .map(|id| job(id * 5 + 2, 3.0 + id as f64 * 97.3))
            .collect();
        for consistency in [
            Consistency::Consistent,
            Consistency::Inconsistent,
            Consistency::SemiConsistent,
        ] {
            let world = World {
                consistency,
                ..World::hihi_consistent(11)
            };
            let mut rows = Vec::new();
            for j in &jobs {
                world.extend_etc_row(j, &machines, &mut rows);
            }
            let cells: Vec<u64> = jobs
                .iter()
                .flat_map(|j| machines.iter().map(|m| world.etc(j, m).to_bits()))
                .collect();
            let rows: Vec<u64> = rows.iter().map(|x| x.to_bits()).collect();
            assert_eq!(rows, cells, "{consistency:?}");
        }
    }

    #[test]
    fn inconsistent_world_breaks_machine_order() {
        let world = World {
            consistency: Consistency::Inconsistent,
            ..World::hihi_consistent(2)
        };
        let a = machine(0, 2.0);
        let b = machine(1, 9.0);
        let mut a_wins = 0;
        let mut b_wins = 0;
        for id in 0..200 {
            let j = job(id, 100.0);
            if world.etc(&j, &a) < world.etc(&j, &b) {
                a_wins += 1;
            } else {
                b_wins += 1;
            }
        }
        assert!(a_wins > 0 && b_wins > 0, "both machines must win sometimes");
    }

    #[test]
    fn semiconsistent_even_machines_are_ordered() {
        let world = World {
            consistency: Consistency::SemiConsistent,
            ..World::hihi_consistent(3)
        };
        let even_fast = machine(0, 2.0);
        let even_slow = machine(2, 8.0);
        for id in 0..50 {
            let j = job(id, 5.0);
            assert!(world.etc(&j, &even_fast) < world.etc(&j, &even_slow));
        }
    }

    #[test]
    fn etc_is_deterministic() {
        let world = World {
            consistency: Consistency::Inconsistent,
            ..World::hihi_consistent(4)
        };
        let j = job(123, 77.0);
        let m = machine(45, 3.0);
        assert_eq!(world.etc(&j, &m), world.etc(&j, &m));
    }

    #[test]
    fn pair_noise_within_range() {
        let world = World::hihi_consistent(5);
        for j in 0..100 {
            for m in 0..8 {
                let noise = world.pair_noise(j, m);
                // Half-open: the unit draw is [0, 1), so φ_mach itself
                // is never attained.
                assert!((1.0..world.phi_mach).contains(&noise));
            }
        }
    }

    /// Mean inter-arrival gap over `n` draws, starting at t = 0.
    fn mean_gap(process: ArrivalProcess, seed: u64, n: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = process.generator();
        let mut now = 0.0;
        for _ in 0..n {
            now += gen.next_gap(now, &mut rng);
        }
        now / n as f64
    }

    #[test]
    fn poisson_gaps_have_plausible_mean() {
        let mean = mean_gap(ArrivalProcess::Poisson { rate: 4.0 }, 6, 4000);
        assert!(
            (mean - 0.25).abs() < 0.03,
            "mean inter-arrival {mean} should approximate 1/rate = 0.25"
        );
    }

    #[test]
    fn mmpp_mean_rate_interpolates_the_phases() {
        // Expected long-run rate: (λ_off·T_off + λ_on·T_on)/(T_off+T_on)
        // = (1·3 + 9·1)/4 = 3 arrivals per second.
        let process = ArrivalProcess::Mmpp {
            base_rate: 1.0,
            burst_rate: 9.0,
            mean_off: 3.0,
            mean_on: 1.0,
        };
        let mean = mean_gap(process, 7, 20_000);
        assert!(
            (mean - 1.0 / 3.0).abs() < 0.05,
            "mean inter-arrival {mean} should approximate 1/3"
        );
    }

    #[test]
    fn mmpp_with_silent_off_phase_still_advances() {
        let process = ArrivalProcess::Mmpp {
            base_rate: 0.0,
            burst_rate: 5.0,
            mean_off: 2.0,
            mean_on: 1.0,
        };
        let mut rng = SmallRng::seed_from_u64(8);
        let mut gen = process.generator();
        let mut now = 0.0;
        for _ in 0..200 {
            let gap = gen.next_gap(now, &mut rng);
            assert!(gap.is_finite() && gap > 0.0);
            now += gap;
        }
    }

    #[test]
    fn diurnal_clusters_arrivals_around_the_peak() {
        let process = ArrivalProcess::Diurnal {
            base_rate: 1.0,
            amplitude: 0.95,
            period: 100.0,
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let mut gen = process.generator();
        let mut now = 0.0;
        let (mut rising, mut falling) = (0u32, 0u32);
        for _ in 0..4000 {
            now += gen.next_gap(now, &mut rng);
            // sin > 0 on the first half-cycle (rising load), < 0 on the
            // second.
            if (now % 100.0) < 50.0 {
                rising += 1;
            } else {
                falling += 1;
            }
        }
        assert!(
            rising > falling * 2,
            "peak half-cycle must dominate: {rising} vs {falling}"
        );
    }

    #[test]
    fn flash_crowd_delivers_whole_bursts() {
        let process = ArrivalProcess::FlashCrowd {
            base_rate: 0.05,
            spike_rate: 0.2,
            burst: 5,
        };
        let mut rng = SmallRng::seed_from_u64(10);
        let mut gen = process.generator();
        let mut now = 0.0;
        let mut zero_gaps = 0u32;
        for _ in 0..500 {
            let gap = gen.next_gap(now, &mut rng);
            if gap == 0.0 {
                zero_gaps += 1;
            }
            now += gap;
        }
        // Every spike contributes burst−1 = 4 simultaneous arrivals, so
        // several spikes must have fired over 500 draws at these rates.
        assert!(
            zero_gaps >= 8,
            "expected multiple spikes, saw {zero_gaps} zero gaps"
        );
    }

    #[test]
    fn arrival_generators_are_deterministic_per_seed() {
        let processes = [
            ArrivalProcess::Poisson { rate: 2e-4 },
            ArrivalProcess::Mmpp {
                base_rate: 1e-4,
                burst_rate: 1e-3,
                mean_off: 6e4,
                mean_on: 1.5e4,
            },
            ArrivalProcess::Diurnal {
                base_rate: 2e-4,
                amplitude: 0.9,
                period: 1e5,
            },
            ArrivalProcess::FlashCrowd {
                base_rate: 1e-4,
                spike_rate: 2e-5,
                burst: 12,
            },
        ];
        for process in processes {
            let draw = |seed: u64| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut gen = process.generator();
                let mut now = 0.0;
                (0..64)
                    .map(|_| {
                        let gap = gen.next_gap(now, &mut rng);
                        now += gap;
                        gap.to_bits()
                    })
                    .collect::<Vec<u64>>()
            };
            assert_eq!(draw(3), draw(3), "{process:?} must replay bit-for-bit");
            assert_ne!(draw(3), draw(4), "{process:?} must depend on the seed");
        }
    }

    #[test]
    fn mmpp_rejects_inverted_rates() {
        let err = ArrivalProcess::Mmpp {
            base_rate: 2.0,
            burst_rate: 1.0,
            mean_off: 1.0,
            mean_on: 1.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("burst rate must exceed"));
    }

    #[test]
    fn diurnal_rejects_overdriven_amplitude() {
        let err = ArrivalProcess::Diurnal {
            base_rate: 1.0,
            amplitude: 1.5,
            period: 10.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("amplitude must lie in [0, 1]"));
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn generator_still_fails_loudly_on_bad_knobs() {
        let _ = ArrivalProcess::Poisson { rate: 0.0 }.generator();
    }

    #[test]
    fn world_from_class_uses_ranges() {
        let class: InstanceClass = "u_i_lolo.0".parse().unwrap();
        let world = World::from_class(class, 0);
        assert_eq!(world.consistency, Consistency::Inconsistent);
        assert_eq!(world.phi_task, braun::PHI_TASK_LO);
        assert_eq!(world.phi_mach, braun::PHI_MACH_LO);
    }
}
