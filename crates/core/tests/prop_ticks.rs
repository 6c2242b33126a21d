//! Property tests: the libm-free quantisers (`ticks::ticks` and the
//! sliced `ticks::quantise`) must equal `(v · 2³²).round() as i64` —
//! round half away from zero, then a saturating cast — on every input.

use cmags_core::ticks;
use proptest::prelude::*;

/// Ticks per time unit.
const SCALE: f64 = 4_294_967_296.0;

/// The definition the quantisers reproduce.
fn reference(value: f64) -> i64 {
    (value * SCALE).round() as i64
}

/// Whether `ticks` accepts `value` without tripping its range
/// `debug_assert` (a debug build checks only these; release checks all).
fn checkable(value: f64) -> bool {
    !cfg!(debug_assertions) || value.is_nan() || value.abs() < 2_147_483_648.0
}

/// Quantises `values` both ways and compares them with [`reference`].
fn check(values: &[f64]) -> Result<(), String> {
    let values: Vec<f64> = values.iter().copied().filter(|&v| checkable(v)).collect();
    let sliced = ticks::quantise(&values);
    for (&v, &got) in values.iter().zip(sliced.iter()) {
        let want = reference(v);
        if got != want || ticks::ticks(v) != want {
            return Err(format!(
                "{v:e} ({:#018x}): quantise {got}, ticks {}, round {want}",
                v.to_bits(),
                ticks::ticks(v)
            ));
        }
    }
    Ok(())
}

/// Exact half-tick values `(k + ½) / 2³²`, up to the largest magnitude
/// where a half is representable (`|k| < 2⁵²`).
fn half_tick(k: i64) -> f64 {
    (k as f64 + 0.5) / SCALE
}

/// Arbitrary bit patterns (every exponent, sign, NaN payload and
/// subnormal), values at grid and Braun scale, and exact half ticks on
/// both sides of the magic-constant boundary (`2⁵¹` ticks).
fn arb_value() -> impl Strategy<Value = f64> {
    const MAGIC_TICKS: i64 = 1 << 51;
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits).boxed(),
        (-1.0e3f64..1.0e3).boxed(),
        (-3.0e6f64..3.0e6).boxed(),
        (-(1i64 << 52) + 1..(1i64 << 52) - 1)
            .prop_map(half_tick)
            .boxed(),
        (-4096i64..4096).prop_map(half_tick).boxed(),
        (MAGIC_TICKS - 4096..MAGIC_TICKS + 4096)
            .prop_map(|k| half_tick(k) * if k % 3 == 0 { -1.0 } else { 1.0 })
            .boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantisers_equal_round(values in proptest::collection::vec(arb_value(), 0..300)) {
        prop_assert_eq!(check(&values), Ok(()));
    }
}

/// Sweeps 1.28·10⁸ values through the quantisers, in 64-cell chunks
/// that alternate between magic-path and scalar-path mixes. Slow, so
/// ignored; CI's slow-regressions job runs it in release mode.
#[test]
#[ignore = "10^8-value sweep; run with --release -- --ignored"]
fn quantisers_equal_round_on_a_large_sweep() {
    const BATCH: usize = 1 << 20;
    const BATCHES: u64 = 122; // 122 · 2²⁰ ≈ 1.28·10⁸ values
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut values = Vec::with_capacity(BATCH);
    for batch in 0..BATCHES {
        values.clear();
        values.extend((0..BATCH).map(|i| {
            let bits = next();
            match (batch + i as u64 / 64) % 4 {
                // Arbitrary bit patterns.
                0 => f64::from_bits(bits),
                // Grid-scale ETCs, on the magic path.
                1 => (bits >> 11) as f64 / (1u64 << 53) as f64 * 1.0e3,
                // Exact half ticks across the whole representable range.
                2 => half_tick((bits >> 11) as i64 - (1i64 << 52)),
                // Braun-scale values.
                _ => ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 6.0e6,
            }
        }));
        if let Err(mismatch) = check(&values) {
            panic!("batch {batch}: {mismatch}");
        }
    }
}
