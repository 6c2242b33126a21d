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
//!
//! Quantisation without libm: [`ticks`] is defined as
//! `(v · 2³²).round() as i64` — round half away from zero, then a
//! saturating cast — but `f64::round` is a libm call on the baseline
//! x86-64 target (SSE2 has no rounding instruction), and an activation
//! of the dynamic grid quantises ≈ 8·10⁵ snapshot cells. Two integer
//! formulations give the same value for every input:
//!
//! * **scalar** ([`ticks`]): below `2³¹` units the scaled value `x` fits
//!   an `i64`, so the truncating cast `t = x as i64` is exact up to the
//!   fraction, `x − t` is computed exactly (clearing fraction bits loses
//!   nothing), and `t ± 1` when that fraction reaches `±½` is round half
//!   away from zero. At or beyond `2³¹` units `x` is already an integer
//!   (`|x| ≥ 2⁶³ > 2⁵²`), so rounding is the identity and the saturating
//!   cast alone matches; NaN casts to 0 on both paths;
//! * **sliced** ([`quantise`]): below `2¹⁹` units `|x| < 2⁵¹`, so adding
//!   `1.5·2⁵²` lands in `[2⁵², 2⁵³)` where the unit in the last place is
//!   exactly 1: the hardware's round-to-nearest-even produces the
//!   integer, and the sum's bit pattern minus the constant's *is* that
//!   integer as an `i64`. The remainder `x − k` is exact, and is `±½`
//!   only on an exact tie, where one step away from zero turns
//!   nearest-even into half-away. Every step is a lane-wise add,
//!   compare or integer subtract, so the loop vectorises on plain SSE2.
//!   Chunks holding any larger or non-finite value take the scalar path.
//!
//! Both are pinned against `round` by unit tests of the edge cases
//! (±0, ties, the 2⁵² boundary, ±2³¹ units, NaN, ±∞, subnormals), a
//! property test over arbitrary bit patterns and an ignored 10⁸-value
//! sweep.

/// Binary point of the fixed-point representation: 1 tick = 2⁻³² time
/// units.
pub const TICK_SHIFT: u32 = 32;

/// Ticks per time unit (2³² — an exact `f64`).
const TICK_SCALE: f64 = (1u64 << TICK_SHIFT) as f64;

/// Magnitude (in time units) below which a scaled value fits an `i64`:
/// `2³¹ · 2³² = 2⁶³`. Shared with the `.etc` parser, which rejects cells
/// at or beyond it.
const RANGE: f64 = cmags_etc::TIME_RANGE;

/// Magnitude (in time units) below which the scaled value is under
/// `2⁵¹`, the domain of the magic-constant rounding in [`quantise`].
const MAGIC_RANGE: f64 = (1u64 << 19) as f64;

/// `1.5 · 2⁵²`: adding it to `|x| < 2⁵¹` leaves a sum whose last place
/// is worth exactly 1.
const MAGIC: f64 = (3u64 << 51) as f64;

/// Cells per range check in [`quantise`].
const CHUNK: usize = 64;

/// Converts a time value to ticks, rounding to the nearest tick (half
/// away from zero) and saturating at the `i64` range (non-finite inputs
/// map to 0 / the saturation bounds, deterministically). Bit-identical
/// to `(value * 2³²).round() as i64`, without the libm call.
#[inline]
pub fn ticks(value: f64) -> i64 {
    debug_assert!(
        value.is_nan() || value.abs() < RANGE,
        "time value {value} exceeds the tick range (±2³¹ units) and would saturate"
    );
    // The multiply is exact (power of two).
    let scaled = value * TICK_SCALE;
    if value.abs() < RANGE {
        // `|scaled| < 2⁶³`: the cast truncates exactly, and `scaled - t`
        // is the exact fraction.
        let t = scaled as i64;
        let fraction = scaled - t as f64;
        t + i64::from(fraction >= 0.5) - i64::from(fraction <= -0.5)
    } else {
        // Already integral (or NaN/∞): rounding is the identity, and
        // `as` saturates and maps NaN to 0.
        scaled as i64
    }
}

/// Quantises a slice of time values, cell for cell equal to [`ticks`]
/// (see the module docs for why the two formulations agree). Chunks of
/// values under `2¹⁹` units — every cell of the dynamic grid's
/// snapshots — round branch-free with the magic constant; any other
/// chunk goes through [`ticks`].
#[must_use]
pub fn quantise(values: &[f64]) -> Box<[i64]> {
    let mut out = Vec::with_capacity(values.len());
    for chunk in values.chunks(CHUNK) {
        // Non-short-circuit so the check vectorises; NaN fails it.
        if chunk
            .iter()
            .fold(true, |ok, &v| ok & (v.abs() < MAGIC_RANGE))
        {
            out.extend(chunk.iter().map(|&v| {
                let scaled = v * TICK_SCALE;
                let sum = scaled + MAGIC;
                // Same binade: the bit patterns differ by the integer.
                let nearest_even = sum.to_bits() as i64 - MAGIC.to_bits() as i64;
                let remainder = scaled - (sum - MAGIC);
                nearest_even + i64::from((remainder == 0.5) & (scaled > 0.0))
                    - i64::from((remainder == -0.5) & (scaled < 0.0))
            }));
        } else {
            out.extend(chunk.iter().map(|&v| ticks(v)));
        }
    }
    out.into_boxed_slice()
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

    /// The definition both quantisers must reproduce bit for bit.
    fn reference(value: f64) -> i64 {
        (value * TICK_SCALE).round() as i64
    }

    /// Checks `ticks`, a one-cell `quantise` and a full 64-cell chunk of
    /// `value` against [`reference`].
    fn assert_matches_round(value: f64) {
        let want = reference(value);
        assert_eq!(ticks(value), want, "ticks({value:e})");
        assert_eq!(&*quantise(&[value]), &[want], "quantise([{value:e}])");
        let chunk = quantise(&[value; CHUNK]);
        assert!(
            chunk.iter().all(|&t| t == want),
            "quantise([{value:e}; 64])"
        );
    }

    #[test]
    fn quantisers_match_round_on_edge_cases() {
        let tick = 1.0 / TICK_SCALE;
        let mut values = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            0.5 * tick,
            0.5f64.next_down() * tick,
            0.5f64.next_up() * tick,
            1.5 * tick,
            2.5 * tick,
            3.0 * tick,
            0.1,
            1.0,
            // Ties at the top of the magic domain (2⁵¹ ticks = 2¹⁹ units).
            ((1u64 << 51) as f64 - 0.5) * tick,
            ((1u64 << 51) as f64 - 1.5) * tick,
            MAGIC_RANGE.next_down(),
            MAGIC_RANGE,
            MAGIC_RANGE.next_up(),
            // The 2⁵² boundary, where every scaled value is integral.
            ((1u64 << 52) as f64 - 0.5) * tick,
            (1u64 << 20) as f64,
            ((1u64 << 20) as f64).next_down(),
            ((1u64 << 20) as f64).next_up(),
            3.0e6,
            RANGE.next_down(),
        ];
        values.extend(values.clone().iter().map(|&v: &f64| -v));
        values.push(f64::NAN);
        values.push(-f64::NAN);
        for v in values {
            assert_matches_round(v);
        }
    }

    #[test]
    fn mixed_chunks_fall_back_per_chunk() {
        // One Braun-hihi-sized value sends its chunk to the scalar path;
        // the neighbouring chunk stays on the magic path.
        let mut values: Vec<f64> = (0..3 * CHUNK).map(|i| i as f64 * 0.37 + 0.5).collect();
        values[CHUNK + 5] = 2.9e6;
        let want: Vec<i64> = values.iter().map(|&v| reference(v)).collect();
        assert_eq!(&*quantise(&values), &want[..]);
        assert!(quantise(&[]).is_empty());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn quantisers_match_round_beyond_the_range() {
        for v in [RANGE, RANGE.next_up(), 1e300, f64::MAX, f64::INFINITY] {
            assert_matches_round(v);
            assert_matches_round(-v);
        }
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
