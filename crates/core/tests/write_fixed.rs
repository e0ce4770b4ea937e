//! `write_fixed` appends exactly what `format!("{v:.d$}")` prints, for
//! every `f64` and the decimals the reports use.

use memstream_core::write_fixed;
use proptest::prelude::*;

/// Asserts `write_fixed(value, decimals)` equals std's fixed formatting,
/// reusing `ours` and `std` as scratch.
fn assert_matches_std_at(value: f64, decimals: usize, ours: &mut String, std: &mut String) {
    use std::fmt::Write as _;
    ours.clear();
    std.clear();
    write_fixed(ours, value, decimals);
    let _ = write!(std, "{value:.decimals$}");
    assert_eq!(
        ours,
        std,
        "{value:e} ({:#018x}) at {decimals} decimals",
        value.to_bits()
    );
}

/// [`assert_matches_std_at`] at 0–3 decimals.
fn assert_matches_std(value: f64, ours: &mut String, std: &mut String) {
    for decimals in 0..=3 {
        assert_matches_std_at(value, decimals, ours, std);
    }
}

/// Every ±k / 1024 for k < 2^22 at `decimals`: every value whose digits
/// at 0–3 decimals end in an exact tie is among them.
fn sweep_multiples_of_a_1024th(decimals: usize) {
    let (mut ours, mut std) = (String::new(), String::new());
    for k in 0..1i64 << 22 {
        let value = k as f64 / 1024.0;
        assert_matches_std_at(value, decimals, &mut ours, &mut std);
        assert_matches_std_at(-value, decimals, &mut ours, &mut std);
    }
}

#[test]
fn named_cases_match_std() {
    let (mut ours, mut std) = (String::new(), String::new());
    for value in [
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE,
        0.0625,
        2.5,
        0.5,
        1.5,
        1e22,
        2f64.powi(63),
        -(2f64.powi(63)),
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        assert_matches_std(value, &mut ours, &mut std);
    }
    // The exact ties round half to even, as std does.
    let fixed = |value: f64, decimals: usize| {
        let mut out = String::new();
        write_fixed(&mut out, value, decimals);
        out
    };
    assert_eq!(fixed(0.0625, 3), "0.062");
    assert_eq!(fixed(2.5, 0), "2");
    assert_eq!(fixed(-0.0, 2), "-0.00");
    assert_eq!(fixed(f64::from_bits(1), 3), "0.000");
    assert_eq!(fixed(1e22, 0), "10000000000000000000000");
    assert_eq!(fixed(f64::NAN, 2), "NaN");
    assert_eq!(fixed(f64::NEG_INFINITY, 1), "-inf");
}

// One sweep per decimal count, so the test harness runs them in parallel.
#[test]
fn multiples_of_a_1024th_match_std_at_0_decimals() {
    sweep_multiples_of_a_1024th(0);
}

#[test]
fn multiples_of_a_1024th_match_std_at_1_decimal() {
    sweep_multiples_of_a_1024th(1);
}

#[test]
fn multiples_of_a_1024th_match_std_at_2_decimals() {
    sweep_multiples_of_a_1024th(2);
}

#[test]
fn multiples_of_a_1024th_match_std_at_3_decimals() {
    sweep_multiples_of_a_1024th(3);
}

proptest! {
    #[test]
    fn random_bit_patterns_match_std(bits in prop::collection::vec(0..=u64::MAX, 64)) {
        let (mut ours, mut std) = (String::new(), String::new());
        for bits in bits {
            assert_matches_std(f64::from_bits(bits), &mut ours, &mut std);
        }
    }

    #[test]
    fn random_report_scale_values_match_std(
        raw in prop::collection::vec((0..1u64 << 53, 0u64..80), 64)
    ) {
        // Mantissas at exponents from 2^-60 to 2^19: the integer path at
        // every shift a report's numbers take.
        let (mut ours, mut std) = (String::new(), String::new());
        for (mantissa, exponent) in raw {
            let value = mantissa as f64 * 2f64.powi(exponent as i32 - 113);
            assert_matches_std(value, &mut ours, &mut std);
        }
    }
}
