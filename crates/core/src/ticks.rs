//! Exact fixed-point time arithmetic — the substrate of the O(log n)
//! delta evaluator.
//!
//! Floating-point addition is not associative, so a closed-form delta
//! (`completion - etc`, `flowtime + (n-p)·etc + …`) computed in `f64`
//! drifts from a from-scratch fold by a few ULPs — enough to break the
//! workspace's bit-for-bit contract between [`crate::EvalState`] and
//! [`crate::evaluate`]. The evaluator therefore does all time arithmetic
//! on **ticks**: signed fixed-point integers with a binary point at
//! [`TICK_SHIFT`] bits. Integer addition is exact and order-independent,
//! which makes every aggregate (per-machine completion, per-machine
//! flowtime, the global flowtime scalar) reorderable at will: prefix-sum
//! caches, O(1) hypothetical insert/remove deltas and O(1) global total
//! updates all produce *identical* bits to a from-scratch evaluation, by
//! construction rather than by luck.
//!
//! Representation:
//!
//! * one time value (an ETC entry or a ready time) is an `i64` tick
//!   count — exact for every dyadic `f64` with ≤ 32 fractional bits and
//!   within `2⁻³³` time units otherwise; values saturate at
//!   `±2³¹ ≈ ±2.1·10⁹` time units, three orders of magnitude above the
//!   Braun `hihi` maximum of `3·10⁶` and comfortably above the backlog
//!   ready times the dynamic gridsim scenarios feed in (a debug assert
//!   flags any input near the bound);
//! * every aggregate is an `i128` tick sum — overflow would need more
//!   than `2³¹` jobs at the saturation bound, far outside the supported
//!   instance range;
//! * reading an aggregate back converts `i128 → f64` (correctly rounded)
//!   and divides by the exact power of two `2³²` (also exact), so the
//!   reported `f64` objective is the correctly rounded value of the
//!   exact tick sum.
//!
//! Ticks are the only time representation between the f64 I/O format
//! (`GridInstance`) and the reported objectives: [`crate::Problem`] holds
//! nothing else, the constructive heuristics plan on `i64` tick
//! completions summed through [`add`], and the simulator's machine
//! backlogs are exact tick sums.

/// Binary point of the fixed-point representation: 1 tick = 2⁻³² time
/// units.
pub const TICK_SHIFT: u32 = 32;

/// Ticks per time unit (2³² — an exact `f64`).
const TICK_SCALE: f64 = (1u64 << TICK_SHIFT) as f64;

/// Converts a time value to ticks, rounding to the nearest tick and
/// saturating at the `i64` range (non-finite inputs map to 0 / the
/// saturation bounds, deterministically).
#[inline]
pub fn ticks(value: f64) -> i64 {
    debug_assert!(
        value.is_nan() || value.abs() < (i64::MAX as f64) / TICK_SCALE,
        "time value {value} exceeds the tick range (±2³¹ units) and would saturate"
    );
    // The multiply is exact (power of two); `round` then fixes the
    // quantisation deterministically. `as` saturates and maps NaN to 0.
    (value * TICK_SCALE).round() as i64
}

/// Adds two tick values — a planner's running completion and one more
/// ETC. Plain `i64` is exact and cheaper than an `i128` accumulator for
/// the planners' hot loops; the only cost of the narrower type is a range
/// limit, which this checks rather than wrapping or saturating.
///
/// # Panics
///
/// Panics if the sum leaves the `i64` tick range, i.e. more than `2³¹`
/// time units of work on one machine.
#[inline]
#[must_use]
pub fn add(a: i64, b: i64) -> i64 {
    a.checked_add(b).unwrap_or_else(|| {
        panic!("tick sum overflow: more than 2^31 time units of work on one machine")
    })
}

/// Converts an `i128` tick aggregate back to time units. The cast
/// rounds to nearest-even and the division by a power of two is exact,
/// so the result is the correctly rounded value of the exact sum.
#[inline]
pub fn time(ticks: i128) -> f64 {
    (ticks as f64) / TICK_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_values_round_trip_exactly() {
        for v in [0.0, 1.0, 2.5, 1024.0, 3_000_000.0, 0.015625] {
            assert_eq!(time(i128::from(ticks(v))), v);
        }
    }

    #[test]
    fn quantisation_error_is_below_half_a_tick() {
        for v in [0.1, 0.001, 123.456, 999.999, 7.3e5, 1.9e9] {
            let back = time(i128::from(ticks(v)));
            assert!((back - v).abs() <= 0.5 / TICK_SCALE, "{v} -> {back}");
        }
    }

    #[test]
    fn addition_is_order_independent() {
        // The property f64 lacks and the delta evaluator rests on.
        let values = [0.1, 0.2, 0.3, 1e-9, 1e6, 3.7];
        let forward: i128 = values.iter().map(|&v| i128::from(ticks(v))).sum();
        let backward: i128 = values.iter().rev().map(|&v| i128::from(ticks(v))).sum();
        assert_eq!(forward, backward);
        assert_eq!(time(forward), time(backward));
    }

    #[test]
    fn gridsim_scale_backlogs_fit_the_range() {
        // A full Braun-sized backlog on one machine (512 hihi jobs) stays
        // well inside the representable range.
        let backlog = 512.0 * 3.0e6;
        let t = ticks(backlog);
        assert!(t > 0 && t < i64::MAX);
        assert!((time(i128::from(t)) - backlog).abs() <= 0.5 / TICK_SCALE);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_finite_inputs_are_deterministic() {
        assert_eq!(ticks(f64::NAN), 0);
        assert_eq!(ticks(f64::INFINITY), i64::MAX);
        assert_eq!(ticks(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(ticks(1e300), i64::MAX);
    }
}
