//! Exact integer helpers for the inequality machinery: `gcd` and the
//! rounding divisions, plus the [`Overflow`] marker.
//!
//! The Fourier-Motzkin core works on integer coefficients and never
//! leaves `i128`. Nothing here panics on overflow: the operations that
//! can exceed `i128` elsewhere in the crate return `Result<_, Overflow>`,
//! and callers on the analysis hot path map [`Overflow`] to the
//! conservative `Unknown` feasibility verdict (keep the barrier).

use std::fmt;

/// Marker for arithmetic overflow in exact integer/rational computation.
///
/// The FME elimination chain multiplies coefficients pairwise, so deep
/// chains can exceed `i128` even for modest inputs. Overflow is not an
/// error in the analysis: it propagates outward as the `Unknown`
/// feasibility verdict, which keeps the barrier (always sound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exact-arithmetic overflow")
    }
}

/// Greatest common divisor of two integers (always non-negative).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    // The only input whose |.| does not fit in i128 is i128::MIN, and
    // gcd(MIN, 0) = |MIN| which would overflow; clamp that single case.
    i128::try_from(a).unwrap_or(i128::MAX)
}

/// Floor division that rounds toward negative infinity.
pub fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division that rounds toward positive infinity.
pub fn div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(i128::MIN, 2), 2);
    }

    #[test]
    fn div_floor_ceil() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(7, -2), -4);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(7, -2), -3);
        assert_eq!(div_floor(6, 3), 2);
        assert_eq!(div_ceil(6, 3), 2);
    }
}
