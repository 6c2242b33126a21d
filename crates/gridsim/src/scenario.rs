//! Scenario families of the dynamic grid.
//!
//! The paper evaluates its dynamic-scheduler claim under a single
//! regime: stationary Poisson arrivals with independent machine churn.
//! Surveys of dynamic grid scheduling stress that scheduler rankings
//! flip under bursty arrivals and correlated resource volatility, so
//! this module grows the simulator a *catalog* of named regimes:
//!
//! * an [`crate::workload::ArrivalProcess`] describes how jobs arrive
//!   (stationary Poisson, bursty on/off MMPP, diurnal sinusoid, flash
//!   crowds);
//! * a [`ChurnModel`] describes how machines come and go (fixed pool,
//!   independent joins/leaves, correlated mass-departure shocks, a
//!   degrading grid that only loses capacity);
//! * a [`ScenarioFamily`] names one (arrivals, churn, load) combination
//!   and builds the corresponding [`crate::SimConfig`].
//!
//! Every family is deterministic per seed: all randomness flows through
//! the simulation's single RNG stream.

use crate::config::ConfigError;
use crate::event::QueueKind;
use crate::fault::{FailureModel, RecoveryPolicy, RetryPolicy};
use crate::sim::SimConfig;
use crate::workload::{ArrivalProcess, World};

/// Machine churn model of the dynamic grid.
///
/// Joins and leaves are Poisson processes; on top of the seed's
/// independent model, correlated variants capture the empirical
/// observation that grid resources tend to disappear *together*
/// (maintenance windows, network partitions, spot-market reclaims).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnModel {
    /// Fixed machine pool: nobody joins, nobody leaves.
    Static,
    /// Independent joins and leaves (the seed's model).
    Independent {
        /// Rate (events per simulated second) of machines joining.
        join_rate: f64,
        /// Rate of single machines leaving.
        leave_rate: f64,
    },
    /// Independent churn plus rare *mass-departure* shocks that remove
    /// a fraction of the alive pool at one instant.
    Correlated {
        /// Rate of machines joining.
        join_rate: f64,
        /// Rate of single machines leaving.
        leave_rate: f64,
        /// Rate of mass-departure shocks.
        shock_rate: f64,
        /// Fraction of the alive pool removed per shock, in `(0, 1]`.
        shock_fraction: f64,
    },
    /// Degrading grid: machines only leave, so capacity drifts down
    /// over the run (the pool never drops below two machines).
    Degrading {
        /// Rate of single machines leaving.
        leave_rate: f64,
    },
}

impl ChurnModel {
    /// Checks the model parameters.
    ///
    /// # Errors
    ///
    /// Rejects negative rates and a shock fraction outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let non_negative = |rate: f64, what: &'static str| {
            if rate < 0.0 {
                Err(ConfigError::Negative { what, got: rate })
            } else {
                Ok(())
            }
        };
        match *self {
            Self::Static => Ok(()),
            Self::Independent {
                join_rate,
                leave_rate,
            } => {
                non_negative(join_rate, "join rate")?;
                non_negative(leave_rate, "leave rate")
            }
            Self::Correlated {
                join_rate,
                leave_rate,
                shock_rate,
                shock_fraction,
            } => {
                non_negative(join_rate, "join rate")?;
                non_negative(leave_rate, "leave rate")?;
                if shock_rate <= 0.0 {
                    return Err(ConfigError::NonPositive {
                        what: "shock rate",
                        got: shock_rate,
                    });
                }
                if !(shock_fraction > 0.0 && shock_fraction <= 1.0) {
                    return Err(ConfigError::OutOfRange {
                        what: "shock fraction",
                        bounds: "(0, 1]",
                        got: shock_fraction,
                    });
                }
                Ok(())
            }
            Self::Degrading { leave_rate } => {
                if leave_rate <= 0.0 {
                    return Err(ConfigError::NonPositive {
                        what: "a degrading grid's leave rate",
                        got: leave_rate,
                    });
                }
                Ok(())
            }
        }
    }

    /// Rate of the machine-join process (zero disables joins).
    #[must_use]
    pub fn join_rate(&self) -> f64 {
        match *self {
            Self::Static | Self::Degrading { .. } => 0.0,
            Self::Independent { join_rate, .. } | Self::Correlated { join_rate, .. } => join_rate,
        }
    }

    /// Rate of the single-machine departure process (zero disables it).
    #[must_use]
    pub fn leave_rate(&self) -> f64 {
        match *self {
            Self::Static => 0.0,
            Self::Independent { leave_rate, .. }
            | Self::Correlated { leave_rate, .. }
            | Self::Degrading { leave_rate } => leave_rate,
        }
    }

    /// Mass-departure shock process, if any: `(rate, fraction)`.
    #[must_use]
    pub fn shock(&self) -> Option<(f64, f64)> {
        match *self {
            Self::Correlated {
                shock_rate,
                shock_fraction,
                ..
            } => Some((shock_rate, shock_fraction)),
            _ => None,
        }
    }
}

/// A named dynamic-grid scenario: one (arrival process, churn model,
/// load level) regime with documented knobs, buildable into a
/// [`SimConfig`] via [`ScenarioFamily::config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// The seed's baseline: stationary Poisson arrivals, fixed pool,
    /// no noise. Knobs: arrival rate 2·10⁻⁴ jobs/s over a 3·10⁵ s
    /// horizon on 8 machines.
    Calm,
    /// The seed's churny grid: calm arrivals plus independent joins
    /// and leaves at 6·10⁻⁶ events/s each.
    Churny,
    /// Bursty on/off MMPP arrivals: quiet phases at 1·10⁻⁴ jobs/s
    /// alternating with bursts at 4·10⁻³ jobs/s (mean dwell 6·10⁴ s
    /// off, 1.5·10⁴ s on — long-run load ≈ 8.8·10⁻⁴ jobs/s), fixed
    /// pool. Bursts pile ~60-job batches onto an activation, so the
    /// regime stresses backlog absorption and large-batch placement.
    Bursty,
    /// Diurnal sinusoidal-rate arrivals: midline 2·10⁻⁴ jobs/s,
    /// amplitude 0.9, period 1·10⁵ s (three cycles per run), fixed
    /// pool. Stresses adaptation to slow load drift.
    Diurnal,
    /// Flash-crowd arrivals: background 1·10⁻⁴ jobs/s plus spikes at
    /// 2·10⁻⁵ events/s delivering 64 jobs at one instant, fixed pool.
    /// Stresses one-shot large-batch placement quality.
    FlashCrowd,
    /// Degrading grid: calm arrivals, but the pool starts at 16
    /// machines and only loses them (2·10⁻⁵ departures/s, floor of
    /// two). Stresses scheduling under shrinking capacity, with
    /// departures killing work and forcing resubmissions.
    Degrading,
    /// Volatile grid: calm arrivals with independent churn *plus*
    /// correlated mass-departure shocks (4·10⁻⁶ shocks/s, each
    /// removing 40% of the alive pool at one instant) against a
    /// 12-machine start. Stresses recovery from correlated resource
    /// loss — the regime where per-machine failure independence
    /// assumptions break down.
    Volatile,
    /// Flaky grid: calm arrivals on a fixed pool whose *jobs* suffer
    /// transient failures (5·10⁻⁷ failures per executed second).
    /// Recovery uses exponential backoff (base 10⁴ s, cap 1.6·10⁵ s,
    /// 25% jitter, give up after 8 attempts), machines are blacklisted
    /// after 3 consecutive failures with a 10⁵ s probation, and the
    /// scheduler sees failure-inflated ETCs. Stresses retry policy and
    /// failure-aware placement without any machine loss.
    Flaky,
    /// Crashy grid: calm arrivals on a fixed pool whose *machines*
    /// crash (MTBF 1.5·10⁶ s, MTTR 10⁵ s) — quarantined until repair,
    /// not departed. Jobs checkpoint every 5·10⁴ s of execution, retry
    /// with the flaky family's backoff (give up after 10), and the
    /// killed work is tracked as wasted ticks. Stresses
    /// checkpoint/restart economics under repairable outages.
    Crashy,
}

impl ScenarioFamily {
    /// Every named family, in catalog order.
    pub const ALL: [Self; 9] = [
        Self::Calm,
        Self::Churny,
        Self::Bursty,
        Self::Diurnal,
        Self::FlashCrowd,
        Self::Degrading,
        Self::Volatile,
        Self::Flaky,
        Self::Crashy,
    ];

    /// The catalog name (also the CLI spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Calm => "calm",
            Self::Churny => "churny",
            Self::Bursty => "bursty",
            Self::Diurnal => "diurnal",
            Self::FlashCrowd => "flash_crowd",
            Self::Degrading => "degrading",
            Self::Volatile => "volatile",
            Self::Flaky => "flaky",
            Self::Crashy => "crashy",
        }
    }

    /// One-line description of the regime the family models.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Self::Calm => "stationary Poisson arrivals, fixed pool",
            Self::Churny => "stationary arrivals, independent machine joins/leaves",
            Self::Bursty => "on/off MMPP arrivals alternating quiet and burst phases",
            Self::Diurnal => "sinusoidal-rate arrivals cycling like day/night load",
            Self::FlashCrowd => "background arrivals plus simultaneous 64-job spikes",
            Self::Degrading => "grid that only loses machines while jobs keep arriving",
            Self::Volatile => "independent churn plus correlated mass-departure shocks",
            Self::Flaky => "transient job failures with backoff retries and blacklisting",
            Self::Crashy => "machine crash/repair cycles with checkpointed restarts",
        }
    }

    /// Builds the family's simulation configuration.
    #[must_use]
    pub fn config(self) -> SimConfig {
        let base = SimConfig {
            world: World::hihi_consistent(11),
            arrivals: ArrivalProcess::Poisson { rate: 2e-4 },
            arrival_horizon: 3e5,
            activation_interval: 5e4,
            initial_machines: 8,
            churn: ChurnModel::Static,
            execution_noise: 0.0,
            max_events: 1_000_000,
            queue: QueueKind::Calendar,
            failures: FailureModel::None,
            recovery: RecoveryPolicy::default(),
        };
        // Shared retry policy of the fault families: exponential
        // backoff from 10^4 s capped at 1.6*10^5 s with 25% jitter.
        let backoff = |give_up_after: u32| RetryPolicy::ExponentialBackoff {
            base: 1e4,
            cap: 1.6e5,
            jitter: 0.25,
            give_up_after,
        };
        match self {
            Self::Calm => base,
            Self::Churny => SimConfig {
                churn: ChurnModel::Independent {
                    join_rate: 6e-6,
                    leave_rate: 6e-6,
                },
                ..base
            },
            Self::Bursty => SimConfig {
                arrivals: ArrivalProcess::Mmpp {
                    base_rate: 1e-4,
                    burst_rate: 4e-3,
                    mean_off: 6e4,
                    mean_on: 1.5e4,
                },
                ..base
            },
            Self::Diurnal => SimConfig {
                arrivals: ArrivalProcess::Diurnal {
                    base_rate: 2e-4,
                    amplitude: 0.9,
                    period: 1e5,
                },
                ..base
            },
            Self::FlashCrowd => SimConfig {
                arrivals: ArrivalProcess::FlashCrowd {
                    base_rate: 1e-4,
                    spike_rate: 2e-5,
                    burst: 64,
                },
                ..base
            },
            Self::Degrading => SimConfig {
                initial_machines: 16,
                churn: ChurnModel::Degrading { leave_rate: 2e-5 },
                ..base
            },
            Self::Volatile => SimConfig {
                initial_machines: 12,
                churn: ChurnModel::Correlated {
                    join_rate: 8e-6,
                    leave_rate: 4e-6,
                    shock_rate: 4e-6,
                    shock_fraction: 0.4,
                },
                ..base
            },
            Self::Flaky => SimConfig {
                failures: FailureModel::transient(5e-7),
                recovery: RecoveryPolicy {
                    retry: backoff(8),
                    checkpoint_every: None,
                    blacklist_after: Some(3),
                    probation: 1e5,
                    etc_inflation: true,
                },
                ..base
            },
            Self::Crashy => SimConfig {
                failures: FailureModel::crashes(1.5e6, 1e5),
                recovery: RecoveryPolicy {
                    retry: backoff(10),
                    checkpoint_every: Some(5e4),
                    blacklist_after: None,
                    probation: 0.0,
                    etc_inflation: false,
                },
                ..base
            },
        }
    }
}

impl std::fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ScenarioFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|family| family.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|f| f.name()).collect();
                format!("unknown scenario family {s:?}; known: {}", names.join(", "))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_round_trip() {
        for family in ScenarioFamily::ALL {
            let parsed: ScenarioFamily = family.name().parse().unwrap();
            assert_eq!(parsed, family);
            assert_eq!(family.to_string(), family.name());
            assert!(!family.describe().is_empty());
        }
        assert!("warm".parse::<ScenarioFamily>().is_err());
    }

    #[test]
    fn every_family_config_validates() {
        for family in ScenarioFamily::ALL {
            let config = family.config();
            config
                .validate()
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(config.initial_machines >= 2);
        }
    }

    #[test]
    fn fault_families_carry_a_failure_model() {
        let flaky = ScenarioFamily::Flaky.config();
        assert!(flaky.failures.enabled());
        assert!(flaky.failures.crash().is_none(), "flaky machines stay up");
        assert!(flaky.recovery.etc_inflation);
        let crashy = ScenarioFamily::Crashy.config();
        assert!(crashy.failures.crash().is_some());
        assert_eq!(crashy.recovery.checkpoint_every, Some(5e4));
        for family in ScenarioFamily::ALL {
            if family != ScenarioFamily::Flaky && family != ScenarioFamily::Crashy {
                assert!(
                    !family.config().failures.enabled(),
                    "{family} must stay fault-free"
                );
            }
        }
    }

    #[test]
    fn churn_accessors_expose_the_processes() {
        assert_eq!(ChurnModel::Static.join_rate(), 0.0);
        assert_eq!(ChurnModel::Static.leave_rate(), 0.0);
        let independent = ChurnModel::Independent {
            join_rate: 1e-6,
            leave_rate: 2e-6,
        };
        assert_eq!(independent.join_rate(), 1e-6);
        assert_eq!(independent.leave_rate(), 2e-6);
        assert_eq!(independent.shock(), None);
        let correlated = ChurnModel::Correlated {
            join_rate: 1e-6,
            leave_rate: 0.0,
            shock_rate: 3e-6,
            shock_fraction: 0.5,
        };
        assert_eq!(correlated.shock(), Some((3e-6, 0.5)));
        let degrading = ChurnModel::Degrading { leave_rate: 2e-5 };
        assert_eq!(degrading.join_rate(), 0.0);
        assert_eq!(degrading.leave_rate(), 2e-5);
    }

    #[test]
    fn correlated_rejects_zero_fraction() {
        let err = ChurnModel::Correlated {
            join_rate: 0.0,
            leave_rate: 0.0,
            shock_rate: 1.0,
            shock_fraction: 0.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("shock fraction"), "got: {err}");
    }
}
