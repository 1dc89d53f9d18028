//! Equivalence oracle for the `f32` → fixed-point quantizer.
//!
//! [`reference`] is the floor-and-branch quantizer `Fixed::from_f32` was
//! first written as: NaN to zero, scale in `f64`, round half to even by
//! comparing against the floor, clamp to the `i16` rails.
//! `Fixed::from_f32` must return the same word for every input. The sweep
//! strides across all 2³² `f32` bit patterns (NaN payloads, infinities,
//! subnormals and both zeros included) and adds every half-integer tie
//! of the `i16` range, for three fraction widths.

use sparsenn_numeric::Fixed;

fn reference<const FRAC: u32>(x: f32) -> i16 {
    if x.is_nan() {
        return 0;
    }
    let scaled = (x as f64) * f64::from(1u32 << FRAC);
    let rounded = round_ties_even(scaled);
    let clamped = rounded.clamp(i16::MIN as f64, i16::MAX as f64);
    clamped as i16
}

#[allow(clippy::if_same_then_else)] // branches spell out the rounding cases
fn round_ties_even(x: f64) -> f64 {
    let floor = x.floor();
    let diff = x - floor;
    if diff > 0.5 {
        floor + 1.0
    } else if diff < 0.5 {
        floor
    } else if (floor as i64) % 2 == 0 {
        floor
    } else {
        floor + 1.0
    }
}

/// A stride coprime to 2³² that visits about 10⁶ bit patterns.
const STRIDE: u32 = 4093;

fn check<const FRAC: u32>() {
    let mut mismatches = Vec::new();
    let mut probe = |x: f32| {
        let (got, want) = (Fixed::<FRAC>::from_f32(x).raw(), reference::<FRAC>(x));
        if got != want && mismatches.len() < 8 {
            mismatches.push((x.to_bits(), got, want));
        }
    };
    let mut bits = 0u32;
    loop {
        probe(f32::from_bits(bits));
        match bits.checked_add(STRIDE) {
            Some(next) => bits = next,
            None => break,
        }
    }
    for special in [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
    ] {
        probe(special);
    }
    // Every tie `k + ½` of the i16 range, one step past each rail.
    let scale = (1u32 << FRAC) as f32;
    for k in i32::from(i16::MIN) - 1..=i32::from(i16::MAX) + 1 {
        probe((k as f32 + 0.5) / scale);
        probe(k as f32 / scale);
    }
    assert!(
        mismatches.is_empty(),
        "FRAC {FRAC}: (bits, got, want) {mismatches:x?}"
    );
}

#[test]
fn from_f32_matches_the_reference_quantizer_q8() {
    check::<8>();
}

#[test]
fn from_f32_matches_the_reference_quantizer_q10() {
    check::<10>();
}

#[test]
fn from_f32_matches_the_reference_quantizer_q14() {
    check::<14>();
}
